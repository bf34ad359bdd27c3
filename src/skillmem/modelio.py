"""Model file serialization: one JSON container for linear and FM models."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoder import (LayoutDescriptor, row_builder, spec_from_dict,
                      spec_to_dict)
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
        """`score(counters, t, student, item, skills)` of the row the family's
        `row_builder` builds, set up once per instance: a linear model's logit
        (summed in index order, as the CSR product sums, plus the intercept)
        or an FM's `fm_score` at the posterior mean."""
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
    def item_proxies(self):
        """Memo of recall queries' item-bias proxy, by (skills, q-matrix)."""
        return {}


def atomic_write_text(path, text):
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
        fit = model.params
        doc["fm"] = {
            "posterior_mean": _fm_params_to_dict(fit.posterior_mean),
            "final_sample": _fm_params_to_dict(fit.final_sample),
        }
    atomic_write_text(path, json.dumps(doc))


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
            F = doc["fm"]
            params = FMFit(
                posterior_mean=_fm_params_from_dict(F["posterior_mean"]),
                final_sample=_fm_params_from_dict(F["final_sample"]),
            )
    except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{path} is not a model file: "
                          f"{type(exc).__name__}: {exc}") from None
    return ModelFile(spec=spec, layout=layout, params=params,
                     training_config=doc.get("training_config", {}))
