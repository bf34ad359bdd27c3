"""Command-line entry point wiring all modules together.

Every subcommand that writes outputs also writes a run manifest (flags,
input hashes, seed, version, wall time) next to them, built from the
command's own parameters, and every file is written through
`corpus.atomic_open`, a temp file renamed over its target.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import time

import click
import numpy as np

from . import __version__
from . import analysis as analysis_mod
from . import evaluation, glm, scheduler, synth
from . import fm as fm_mod
from .corpus import (QMatrix, atomic_open, dataset_stats, load_interactions,
                     load_prepared, load_qmatrix_triplets, preprocess,
                     save_dataset)
from .encoder import (FAMILIES, ModelSpec, encode_dataset, load_design,
                      save_design)
from .errors import ConfigError, SkillmemError
from .modelio import ModelFile, load_model, save_model


def _family(name):
    """A family name as typed (any case, `-` for `_`) -> its table name."""
    key = name.strip().lower().replace("-", "_")
    if key not in FAMILIES:
        raise click.UsageError(f"unknown model family {name!r}")
    return key


def _dims(text):
    try:
        return [int(d) for d in text.split(",")]
    except ValueError:
        raise ConfigError(f"dims must be integers: {text!r}") from None


def _fit_configs(l2, iters, seed):
    """`train`'s and `cv`'s fit configs: a given `--iters` sets both caps."""
    if iters is None:
        return glm.FitConfig(l2_strength=l2), fm_mod.GibbsConfig(seed=seed)
    return (glm.FitConfig(l2_strength=l2, max_iterations=iters),
            fm_mod.GibbsConfig(iterations=iters, seed=seed))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, seed, started, read=()):
    """Record the running subcommand's options: every option's value under
    its long name (`-` as `_`, None dropped; `--seed` is the manifest's own
    `seed`, None where unused), and the hash of every existing input file
    (an option typed `click.Path(exists=True)`) and of each file in `read`,
    the files the command read besides its path options. Replacing the
    manifest of another command warns on stderr, naming that command."""
    ctx = click.get_current_context()
    flags, inputs = {}, list(read)
    for opt in ctx.command.params:
        value = ctx.params[opt.name]
        if value is None:
            continue
        name = max(opt.opts, key=len).lstrip("-").replace("-", "_")
        if name != "seed":
            flags[name] = value
        if (isinstance(opt.type, click.Path) and opt.type.exists
                and os.path.isfile(value)):
            inputs.append(value)
    command = ctx.command_path[len(ctx.find_root().command_path) + 1:]
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path) as fh:
            prior = json.load(fh).get("command")
    except (OSError, ValueError, AttributeError):
        prior = None
    if prior is not None and prior != command:
        click.echo(f"warning: replacing the manifest of `{prior}` in "
                   f"{out_dir} with that of `{command}`", err=True)
    manifest = {
        "command": command,
        "flags": flags,
        "input_hashes": {p: _sha256(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
    }
    with atomic_open(path) as fh:
        json.dump(manifest, fh, indent=2)


def _out_dir_of(path):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    return d


@click.group()
@click.option("--log-level", default="warning",
              type=click.Choice(["debug", "info", "warning", "error"]))
@click.version_option(__version__)
def main(log_level):
    logging.basicConfig(level=log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", default="generic",
              type=click.Choice(["generic", "assist12", "kddcup"]))
@click.option("--min-interactions", default=10, show_default=True)
@click.option("--qmatrix", "qmatrix_path", type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def prepare(in_path, fmt, min_interactions, qmatrix_path, out_path):
    """Load, clean and rebase a raw interaction log."""
    started = time.time()
    ds = load_interactions(in_path, fmt)
    if qmatrix_path:
        qm = load_qmatrix_triplets(qmatrix_path)
        ds.qmatrix = QMatrix(ds.qmatrix.entries() | qm.entries())
    ds = preprocess(ds, min_interactions)
    out_dir = _out_dir_of(out_path)
    save_dataset(ds, out_path)
    write_manifest(out_dir, seed=None, started=started)
    click.echo(dataset_stats(ds).to_json())


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
def stats(in_path):
    """Dataset statistics for a prepared dataset."""
    ds = load_prepared(in_path)
    click.echo(dataset_stats(ds).to_json())


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--model", "family", default="das3h", show_default=True)
@click.option("--dim", default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def encode(in_path, family, dim, out_path):
    """Encode a prepared dataset into a sparse design matrix."""
    started = time.time()
    spec = ModelSpec(_family(family), dim)
    ds = load_prepared(in_path)
    dm = encode_dataset(ds, spec)
    out_dir = _out_dir_of(out_path)
    save_design(dm, out_path)
    write_manifest(out_dir, seed=None, started=started)
    click.echo(f"encoded {dm.n_rows} rows x {dm.layout.n_features} features")


@main.command()
@click.option("--encoded", required=True, type=click.Path(exists=True))
@click.option("--l2", default=1.0, show_default=True)
@click.option("--iters", type=int, help="L-BFGS iteration cap at dim 0 and "
              "Gibbs sweeps above; unset, each keeps its default (500, 300)")
@click.option("--seed", default=0, show_default=True,
              help="seed of the Gibbs sampler (dim > 0); a dim-0 L-BFGS fit "
                   "draws nothing, so the seed is neither used nor recorded")
@click.option("--out", "out_path", required=True, type=click.Path())
def train(encoded, l2, iters, seed, out_path):
    """Fit a model on an encoded design matrix, at the dim of its spec."""
    started = time.time()
    dm = load_design(encoded)
    glm_config, gibbs_config = _fit_configs(l2, iters, seed)
    params, _ = evaluation.fit_model(dm, None, glm_config, gibbs_config)
    if dm.spec.dim == 0:
        training_config = {"l2": l2, "converged": params.converged}
        seed = None
    else:
        training_config = {"iterations": gibbs_config.iterations, "seed": seed}
    out_dir = _out_dir_of(out_path)
    save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=params,
                         training_config=training_config), out_path)
    write_manifest(out_dir, seed=seed, started=started)
    click.echo(f"model written to {out_path}")


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--models", default="irt,pfa,das3h", show_default=True)
@click.option("--dims", default="0", show_default=True)
@click.option("--folds", default=5, show_default=True)
@click.option("--seed", default=42, show_default=True)
@click.option("--l2", default=1.0, show_default=True)
@click.option("--iters", type=int, help="L-BFGS iteration cap at dim 0 and "
              "Gibbs sweeps above; unset, each keeps its default (500, 300)")
@click.option("--out", "out_dir", required=True, type=click.Path())
def cv(in_path, models, dims, folds, seed, l2, iters, out_dir):
    """Student-level k-fold cross-validation over model families."""
    started = time.time()
    dim_list = _dims(dims)
    glm_config, gibbs_config = _fit_configs(l2, iters, seed)
    ds = load_prepared(in_path)
    irt = ("irt", "mirtb")  # one family: irt at dim 0, mirtb above
    specs = [ModelSpec(("mirtb" if d else "irt") if f in irt else f, d)
             for f in map(_family, models.split(",")) for d in dim_list]
    os.makedirs(os.path.join(out_dir, "models"), exist_ok=True)

    def sink(label, fold, fitted, dm):
        name = label.replace("(", "_").replace(")", "").replace("=", "")
        save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=fitted,
                             training_config={"fold": fold}),
                   os.path.join(out_dir, "models", f"{name}_fold{fold}.json"))

    table = evaluation.cross_validate(
        ds, specs, k=folds, seed=seed, glm_config=glm_config,
        gibbs_config=gibbs_config, model_sink=sink)
    with atomic_open(os.path.join(out_dir, "metrics.json")) as fh:
        fh.write(table.to_json())
    write_manifest(out_dir, seed=seed, started=started)
    click.echo(table.format_table())


@main.group()
def analyze():
    """Post-fit model interpretation."""


@analyze.command()
@click.option("--model-dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def slopes(model_dir, out_path):
    """Forgetting-curve slopes from per-fold dim=0 das3h models."""
    started = time.time()
    models, layouts, read = [], [], []
    for name in sorted(os.listdir(model_dir)):
        if not name.endswith(".json") or name == "manifest.json":
            continue
        path = os.path.join(model_dir, name)
        mf = load_model(path)
        if mf.kind == "linear" and mf.spec.family == "das3h":
            models.append(mf.params)
            layouts.append(mf.layout)
            read.append(path)
    if not models:
        raise click.UsageError("no linear das3h models found in --model-dir")
    report = analysis_mod.slope_report(models, layouts)
    out_dir = _out_dir_of(out_path)
    report.write_csv(out_path)
    write_manifest(out_dir, seed=None, started=started, read=read)
    click.echo(f"slopes for {len(report.entries)} skills -> {out_path}")


@analyze.command()
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True))
@click.option("--history", "history_path", required=True,
              type=click.Path(exists=True))
@click.option("--skills", required=True, help="comma-separated skill ids")
@click.option("--item", default=None)
@click.option("--at-day", "at_day", required=True, type=float)
def recall(model_path, history_path, skills, item, at_day):
    """Recall probability for a skill set at a future day."""
    mf = load_model(model_path)
    history = load_interactions(history_path, fmt="generic")
    counters, student = analysis_mod.history_counters(mf, history, at_day)
    p = analysis_mod.recall_probability(
        mf, counters, skills.split(","), at_day, item=item, student=student,
        qmatrix=history.qmatrix)
    click.echo(json.dumps({"skills": skills.split(","), "at_day": at_day,
                           "recall_probability": p}))


@main.command("schedule-sim")
@click.option("--model", "model_path", type=click.Path(exists=True),
              help="fitted model for the threshold policy; defaults to the "
                   "synthetic ground truth")
@click.option("--policy", default="threshold,random", show_default=True)
@click.option("--threshold", default=0.7, show_default=True)
@click.option("--horizon", default=60.0, show_default=True)
@click.option("--sessions", default=30, show_default=True,
              type=click.IntRange(min=0))
@click.option("--seeds", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def schedule_sim(model_path, policy, threshold, horizon, sessions, seeds,
                 seed, out_path):
    """Compare scheduling policies on a synthetic forgetful student."""
    started = time.time()
    ds, truth = synth.make_synthetic(synth.SynthConfig(seed=seed))
    mf = load_model(model_path) if model_path else truth.to_model_file(ds)
    config = scheduler.SchedulerConfig(
        threshold=threshold, skills=truth.qmatrix.skills,
        qmatrix=truth.qmatrix)
    policies = {}
    for name in policy.split(","):
        name = name.strip()
        if name == "threshold":
            policies[name] = scheduler.threshold_policy(mf, config)
        elif name == "random":
            policies[name] = scheduler.random_policy(truth.qmatrix.items)
        else:
            raise click.UsageError(f"unknown policy {name!r}")
    if not np.isfinite(horizon):  # before linspace, which warns on inf
        raise ConfigError(f"horizon {horizon} and session times must be "
                          "finite")
    session_times = np.linspace(0, horizon * 0.8, sessions).tolist()
    result = scheduler.simulate_policy(
        truth, policies, session_times, horizon, seeds=range(seeds))
    out_dir = _out_dir_of(out_path)
    result.write_csv(out_path)
    write_manifest(out_dir, seed=seed, started=started)
    for name in policies:
        click.echo(f"{name}: mean end-horizon recall "
                   f"{result.mean_recall(name):.4f}")


def run(argv=None):
    """Programmatic entry point returning an exit code."""
    try:
        return main.main(args=argv, standalone_mode=False) or 0
    except click.UsageError as exc:
        click.echo(f"usage-error: {exc.format_message()}", err=True)
        return 2
    except SkillmemError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(run())
