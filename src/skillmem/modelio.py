"""Model files (one JSON container for linear and FM models).

An FM model file holds the posterior mean only, under `fm.posterior_mean`;
a `final_sample` block that files from older versions carry is ignored."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import atomic_open
from .encoder import (LayoutDescriptor, feature_layout, row_builder,
                      row_counter, spec_from_dict, spec_to_dict)
from .errors import ConfigError
from .fm import FMFit, FMParams, fm_score, probit
from .glm import LinearParams, sigmoid


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

    @property
    def linear_weights(self):
        """Per-feature weights; an FM's at its posterior mean."""
        return (self.params.weights if self.kind == "linear"
                else self.params.posterior_mean.linear_weights)

    @cached_property
    def probability(self):
        """`probability(counts, student, item, skills, offset=0.0)`: the link
        of the row's score plus `offset`, the row `row_builder` builds from
        `counts` (what `self.counts` took); set up once per instance:
        `sigmoid` of a linear model's logit (summed in index order, as the
        CSR product sums, plus the intercept) or `probit` of an FM's
        posterior-mean score."""
        build = row_builder(self.spec, self.layout)
        if self.kind == "fm":
            point = self.params.posterior_mean
            return lambda *row, offset=0.0: float(
                probit(fm_score(point, build(*row)) + offset))
        weights, intercept = self.params.weights.tolist(), self.params.intercept

        def probability(counts, student, item, skills, offset=0.0):
            z = 0.0
            for i, v in zip(*build(counts, student, item, skills)):
                z += weights[i] * v
            return sigmoid((z + intercept) + offset)

        return probability

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
        the window counts a row's history blocks read; the only online
        reader of counters."""
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
    when the file cannot be read, is not JSON, lacks a model key, names an
    unknown `kind`, or its layout's blocks or its weights' shapes are not
    those of its spec over the layout's students, items and skills."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc["kind"] not in ("linear", "fm"):
            raise ValueError(f"unknown kind {doc['kind']!r}")
        spec = spec_from_dict(doc["spec"])
        layout = LayoutDescriptor.from_dict(doc["layout"])
        due = feature_layout(spec, (len(layout.students), len(layout.items),
                                    max(len(layout.skills), 1)))
        if (layout.blocks, layout.n_features) != (due.blocks, due.n_features):
            raise ValueError(f"layout blocks {layout.blocks} are not those "
                             f"of {spec.label} over its ids: {due.blocks}")
        n = due.n_features
        if doc["kind"] == "linear":
            L = doc["linear"]
            params = LinearParams(
                weights=np.asarray(L["weights"], dtype=float),
                intercept=float(L["intercept"]),
                l2_strength=float(L["l2_strength"]),
                converged=bool(L["converged"]),
                n_iter=int(L["n_iter"]),
            )
            shapes = {"weights": (params.weights, (n,))}
        else:
            params = FMFit(_fm_params_from_dict(doc["fm"]["posterior_mean"]))
            point = params.posterior_mean
            shapes = {"linear_weights": (point.linear_weights, (n,)),
                      "embeddings": (point.embeddings, (n, spec.dim))}
        for name, (array, shape) in shapes.items():
            if array.shape != shape:
                raise ValueError(f"{name} of shape {array.shape}, not {shape}")
    except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{path} is not a model file: "
                          f"{type(exc).__name__}: {exc}") from None
    return ModelFile(spec=spec, layout=layout, params=params,
                     training_config=doc.get("training_config", {}))
