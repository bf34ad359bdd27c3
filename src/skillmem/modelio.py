"""Model files (one JSON container for linear and FM models).

An FM model file holds the posterior mean only, under `fm.posterior_mean`;
a `final_sample` block that files from older versions carry is ignored."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .corpus import atomic_open
from .encoder import (LayoutDescriptor, json_value, row_builder, row_counter,
                      row_logit, spec_from_dict, spec_to_dict)
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
        of the score of the row of `counts` (what `self.counts` took) plus
        `offset`; set up once per instance. A linear model builds no row:
        `sigmoid((z + intercept) + offset)`, where `row_logit` sums the
        row's terms in index order, as the CSR product sums them. An FM
        builds the row with `row_builder` and takes `probit` of its
        posterior-mean score."""
        if self.kind == "fm":
            build = row_builder(self.spec, self.layout)
            point = self.params.posterior_mean
            return lambda *row, offset=0.0: float(
                probit(fm_score(point, build(*row)) + offset))
        logit = row_logit(self.spec, self.layout, self.params.weights)
        intercept = self.params.intercept

        def probability(counts, student, item, skills, offset=0.0):
            return sigmoid((logit(counts, student, item, skills) + intercept)
                           + offset)

        return probability

    @cached_property
    def skill_ids(self):
        """The layout's skills as a set, for recall queries' check."""
        return frozenset(self.layout.skills)

    @cached_property
    def item_positions(self):
        """Each layout item's position, for recall queries' item check and
        item-bias pool."""
        return {item: i for i, item in enumerate(self.layout.items)}

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


# Each model kind's stored fields in file order, as (attribute, `json_value`
# kind, shape over the layout's "n" features and the spec's "dim"): the
# block `linear` holds `LinearParams`, `fm.posterior_mean` an FM's `FMParams`.
_FIELDS = {
    "linear": (("weights", "floats", ("n",)), ("intercept", "float", ()),
               ("l2_strength", "float", ()), ("converged", "bool", ()),
               ("n_iter", "int", ())),
    "fm": (("global_bias", "float", ()), ("linear_weights", "floats", ("n",)),
           ("embeddings", "floats", ("n", "dim")),
           ("hyperparams", "dict", ())),
}


def save_model(model, path):
    linear = model.kind == "linear"
    point = model.params if linear else model.params.posterior_mean
    block = {name: getattr(point, name).tolist() if kind == "floats"
             else getattr(point, name)
             for name, kind, _ in _FIELDS[model.kind]}
    doc = {"kind": model.kind, "spec": spec_to_dict(model.spec),
           "layout": model.layout.to_dict(),
           "training_config": model.training_config,
           model.kind: block if linear else {"posterior_mean": block}}
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc))


def load_model(path):
    """Read a model written by `save_model`. Raises ConfigError naming `path`
    when the file cannot be read, is not JSON or lacks a key, names an
    unknown `kind`, or holds a spec or layout the encoder does not build
    (`spec_from_dict`, `LayoutDescriptor.from_dict`) or a `_FIELDS` value
    not of its JSON kind (`json_value`) or of its shape over the layout."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        kind = doc["kind"]
        if kind not in _FIELDS:
            raise ValueError(f"unknown kind {kind!r}")
        spec = spec_from_dict(doc["spec"])
        layout = LayoutDescriptor.from_dict(doc["layout"], spec)
        block = doc[kind] if kind == "linear" else doc[kind]["posterior_mean"]
        sizes, values = {"n": layout.n_features, "dim": spec.dim}, {}
        for name, form, dims in _FIELDS[kind]:
            value = values[name] = json_value(block[name], form, name)
            shape = tuple(sizes[d] for d in dims)
            if dims and value.shape != shape:
                raise ValueError(f"{name} of shape {value.shape}, not {shape}")
        params = (LinearParams(**values) if kind == "linear"
                  else FMFit(FMParams(**values)))
    except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{path} is not a model file: "
                          f"{type(exc).__name__}: {exc}") from None
    return ModelFile(spec=spec, layout=layout, params=params,
                     training_config=doc.get("training_config", {}))
