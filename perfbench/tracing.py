"""In-memory spans around calls into the library, and the per-layer metrics
computed from them.

A span is recorded by a wrapper installed where the calling module looks a
function up (a module attribute), so the library itself is not changed. Each
span keeps its name, wall start and end, process CPU time at start and end,
the index of the enclosing span, and facts read from the call (the encoded
family, the iterations a fit took, the bytes a file holds).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


class Tracer:
    """Collects spans for one process; `spans` is written out at the end."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, info=None):
        """Return `fn` recording a span per call; `info(args, kwargs, result)`
        may add facts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._open[-1] if self._open else -1,
                    "start": time.perf_counter(), "cpu0": time.process_time()}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["cpu1"] = time.process_time()
                span["end"] = time.perf_counter()
                self._open.pop()
            if info is not None:
                span.update(info(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, sites):
        """Wrap each `(module, attribute, span name, info)` site, restoring the
        original attributes on exit."""
        saved = []
        try:
            for module, attr, name, info in sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _dur(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Per-module self time: each span's duration minus that of its direct
    children, summed by the span name's first component."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += _dur(s)
    out = {}
    for s, c in zip(spans, child):
        module = s["name"].split(".")[0]
        out[module] = out.get(module, 0.0) + _dur(s) - c
    return out


# Families whose encode time is reported on its own; a family a workload does
# not encode reads 0.
ENCODED_FAMILIES = ("irt", "pfa", "dash_kc", "das3h", "das3h_1p",
                    "das3h_plaincounts", "dash_items")
MODULES = ("corpus", "encoder", "glm", "fm", "evaluation", "modelio",
           "analysis", "scheduler")


def layer_metrics(setup_spans, pass_spans):
    """Per-layer metrics, as name -> (value, unit), from one traced set-up
    run per set-up and one traced pass. A module the workload never calls
    reads 0."""
    by = {}
    for s in pass_spans:
        by.setdefault(s["name"], []).append(s)

    def total(name, key=None):
        spans = by.get(name, [])
        return sum(_dur(s) if key is None else s[key] for s in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    synth = [sum(_dur(s) for s in spans if s["name"] == "synth.make_synthetic")
             for spans in setup_spans]
    m["synth.make_synthetic.s"] = (statistics.median(synth), "s")

    corpus_fns = ("load_interactions", "preprocess", "save_dataset",
                  "load_prepared")
    for fn in corpus_fns:
        m[f"corpus.{fn}.s"] = (total(f"corpus.{fn}"), "s")
    corpus_s = sum(total(f"corpus.{fn}") for fn in corpus_fns)
    m["corpus.rows_per_s"] = (ratio(total("corpus.load_interactions", "rows"),
                                    corpus_s), "1/s")

    encodes = by.get("encoder.encode_dataset", [])
    for family in ENCODED_FAMILIES:
        m[f"encoder.encode_dataset.{family}.s"] = (
            sum(_dur(s) for s in encodes if s["family"] == family), "s")
    nnz = sum(s["nnz"] for s in encodes)
    m["encoder.nnz"] = (nnz, "count")
    m["encoder.nnz_per_s"] = (ratio(nnz, total("encoder.encode_dataset")),
                              "1/s")
    m["encoder.save_design.s"] = (total("encoder.save_design"), "s")
    m["encoder.load_design.s"] = (total("encoder.load_design"), "s")
    m["encoder.design_bytes"] = (total("encoder.save_design", "bytes"),
                                 "bytes")

    fits = by.get("glm.fit_logistic", [])
    glm_s = total("glm.fit_logistic")
    nit = sum(s["nit"] for s in fits)
    m["glm.fit_logistic.s"] = (glm_s, "s")
    m["glm.fit_logistic.cpu_s"] = (
        sum(s["cpu1"] - s["cpu0"] for s in fits), "s")
    m["glm.fit_logistic.calls"] = (len(fits), "count")
    m["glm.nit"] = (nit, "count")
    m["glm.s_per_iter"] = (ratio(glm_s, nit), "s")
    m["glm.unconverged"] = (sum(not s["converged"] for s in fits), "count")

    fm_fits = by.get("fm.fit_fm_gibbs", [])
    fm_s = total("fm.fit_fm_gibbs")
    m["fm.fit_fm_gibbs.s"] = (fm_s, "s")
    m["fm.s_per_sweep"] = (ratio(fm_s, sum(s["sweeps"] for s in fm_fits)),
                           "s")
    m["fm.features"] = (max((s["features"] for s in fm_fits), default=0),
                        "count")

    selfs = self_times(pass_spans)
    m["evaluation.cross_validate.s"] = (total("evaluation.cross_validate"),
                                        "s")
    m["modelio.save_model.s"] = (total("modelio.save_model"), "s")
    m["modelio.load_model.s"] = (total("modelio.load_model"), "s")
    m["modelio.model_bytes"] = (total("modelio.save_model", "bytes"), "bytes")
    m["analysis.slope_report.s"] = (total("analysis.slope_report"), "s")

    recalls = by.get("analysis.recall_probability", [])
    m["analysis.recall_probability.calls"] = (len(recalls), "count")
    m["analysis.recall_probability.s"] = (
        total("analysis.recall_probability"), "s")
    m["analysis.recall_probability.p50_ms"] = (
        1e3 * statistics.median(map(_dur, recalls)) if recalls else 0.0, "ms")
    m["scheduler.next_skill.s"] = (total("scheduler.next_skill"), "s")
    m["scheduler.next_item.s"] = (total("scheduler.next_item"), "s")
    m["scheduler.recalls_per_step"] = (
        ratio(len(recalls), len(by.get("scheduler.next_skill", []))), "count")

    for module in MODULES:
        m[f"{module}.self_s"] = (selfs.get(module, 0.0), "s")
    return m
