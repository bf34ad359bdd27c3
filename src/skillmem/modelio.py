"""Model files (one JSON container for linear and FM models).

An FM model file holds the posterior mean only, under `fm.posterior_mean`;
a `final_sample` block that files from older versions carry is ignored."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import atomic_open
from .encoder import (LayoutDescriptor, row_builder, row_counter,
                      spec_from_dict, spec_to_dict)
from .errors import ConfigError
from .fm import FMFit, FMParams, fm_score
from .glm import LinearParams


@dataclass
class ModelFile:
    """A fitted model plus the layout/spec needed to score new rows."""

    spec: object
    layout: LayoutDescriptor
    params: object  # LinearParams or FMFit
    training_config: dict

    @property
    def kind(self):
        return "linear" if isinstance(self.params, LinearParams) else "fm"

    @cached_property
    def score(self):
        """`score(counters, t, student, item, skills, counts=None)` of the row
        the family's `row_builder` builds, set up once per instance: a linear
        model's logit (summed in index order, as the CSR product sums, plus
        the intercept) or an FM's `fm_score` at the posterior mean. `counts`
        is `self.counts` of the same row, when already taken."""
        build = row_builder(self.spec, self.layout)
        if self.kind == "fm":
            point = self.params.posterior_mean
            return lambda *row: fm_score(point, build(*row))
        weights, intercept = self.params.weights.tolist(), self.params.intercept

        def score(*row):
            z = 0.0
            for i, v in zip(*build(*row)):
                z += weights[i] * v
            return z + intercept

        return score

    @cached_property
    def skill_ids(self):
        """The layout's skills as a set, for recall queries' check."""
        return frozenset(self.layout.skills)

    @cached_property
    def item_ids(self):
        """The layout's items as a set, for recall queries' check."""
        return frozenset(self.layout.items)

    @cached_property
    def counts(self):
        """`counts(counters, t, item, skills)`: the encoder's `row_counter`,
        the counter state a row's history blocks read."""
        return row_counter(self.spec)

    @cached_property
    def item_proxies(self):
        """Memo of recall queries' item-bias proxy, by (skills, q-matrix)."""
        return {}

    @cached_property
    def recalls(self):
        """Memo of recall queries: (student, item, skills, proxy) -> the
        (counts, probability) of that query's last answer."""
        return {}


def _fm_params_to_dict(p):
    return {
        "global_bias": p.global_bias,
        "linear_weights": p.linear_weights.tolist(),
        "embeddings": p.embeddings.tolist(),
        "hyperparams": p.hyperparams,
    }


def _fm_params_from_dict(d):
    return FMParams(
        global_bias=float(d["global_bias"]),
        linear_weights=np.asarray(d["linear_weights"], dtype=float),
        embeddings=np.asarray(d["embeddings"], dtype=float),
        hyperparams=d.get("hyperparams", {}),
    )


def save_model(model, path):
    doc = {
        "kind": model.kind,
        "spec": spec_to_dict(model.spec),
        "layout": model.layout.to_dict(),
        "training_config": model.training_config,
    }
    if model.kind == "linear":
        p = model.params
        doc["linear"] = {
            "weights": p.weights.tolist(),
            "intercept": p.intercept,
            "l2_strength": p.l2_strength,
            "converged": p.converged,
            "n_iter": p.n_iter,
        }
    else:
        doc["fm"] = {
            "posterior_mean": _fm_params_to_dict(model.params.posterior_mean)}
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc))


def load_model(path):
    """Read a model written by `save_model`. Raises ConfigError naming `path`
    when the file cannot be read, is not JSON, lacks a model key or names an
    unknown `kind`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc["kind"] not in ("linear", "fm"):
            raise ValueError(f"unknown kind {doc['kind']!r}")
        spec = spec_from_dict(doc["spec"])
        layout = LayoutDescriptor.from_dict(doc["layout"])
        if doc["kind"] == "linear":
            L = doc["linear"]
            params = LinearParams(
                weights=np.asarray(L["weights"], dtype=float),
                intercept=float(L["intercept"]),
                l2_strength=float(L["l2_strength"]),
                converged=bool(L["converged"]),
                n_iter=int(L["n_iter"]),
            )
        else:
            params = FMFit(_fm_params_from_dict(doc["fm"]["posterior_mean"]))
    except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{path} is not a model file: "
                          f"{type(exc).__name__}: {exc}") from None
    return ModelFile(spec=spec, layout=layout, params=params,
                     training_config=doc.get("training_config", {}))
