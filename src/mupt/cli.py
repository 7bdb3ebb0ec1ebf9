"""Command line interface.

Every subcommand takes a JSON config (defaults shown by --print-config),
optional --set key=value overrides with unknown-key rejection, and writes
its artifacts under --out-dir (or $MUPT_OUT_DIR, default ./artifacts),
never anywhere else. Exit codes: 0 success, 1 bad configuration or usage,
2 a check ran to completion and its claim failed at its pinned threshold,
130 interrupted (Ctrl-C). No key sets a pass threshold: each is one named
constant (in diagnostics, or below), read as its check runs.

Defaults are the library's: the model, hp and train sections hold the fields
of PTConfig, HPPoint and TrainSettings, and a key naming a keyword parameter
of the library function its subcommand calls takes that parameter's default.
Key types, the model, hp and train sections, list entries and the tau_pairs
and seeds rules are checked before anything runs or --print-config prints;
the library checks the corpus and its own arguments as the run starts.

--threads N sets the BLAS/OpenMP thread variables (default 1, unless the
environment already sets them) before anything loads NumPy: neither
`import mupt` nor `import mupt.cli` does, so the pools are sized as asked.
One thread is what makes training runs bit-reproducible. Calling main()
from a process that has already imported NumPy cannot resize its pools.
The independent training runs of transfer-sweep, verify-local-opt and
coord-check fan out over the usable CPUs, one process per N of them. Within
one run, the mean-field sweeps of a large enough pass (from width 256 at
batch 4 and seq 64) run their topic path and their head and ternary path as
two lanes on two such shares. Nothing moves a number either way;
`taskset -c 0 mupt ...` turns both off.
"""
from __future__ import annotations

import argparse
import copy
import inspect
import json
import os
import sys

from .errors import CheckFailure, ConfigError, WorkerDied

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ENTROPY_SLOPE_BAND = 0.15  # energy-probe: |normalized tau*H slope - target|
ENERGY_SLOPE_BAND = 0.2    # energy-probe: |unary or binary energy slope - target|
MAX_DISPLACEMENT = 1       # transfer-sweep: spread of the best-LR index over widths


def _library_defaults(fn, *keys) -> dict:
    """Defaults of fn's parameters `keys`, as config keys that _passed returns."""
    params = inspect.signature(fn).parameters
    return {key: params[key].default for key in keys}


def _passed(cfg: dict, fn) -> dict:
    """The entries of cfg that name a parameter of fn with a default."""
    params = inspect.signature(fn).parameters
    return {key: value for key, value in cfg.items()
            if key in params and params[key].default is not inspect.Parameter.empty}


def _defaults(command: str) -> dict:
    """Default config of one subcommand, built from the library's own defaults.

    Built on demand rather than at import: the dataclasses live in modules
    that load NumPy, which must wait until main() has pinned the threads.
    """
    from dataclasses import asdict

    from .config import PTConfig
    from .diagnostics import (DIAG_HP, coord_check, energy_entropy_probe, equivalence_check,
                              init_variance_audit)
    from .search import verify_local_optimality
    from .training import TrainSettings

    model_small = asdict(PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                                  pos_buckets=8, pos_clip=4))
    model_ladder = asdict(PTConfig(width=64, rank=16, channels=2, topics=128,
                                   vocab_size=259, pos_bias=False))
    hp = DIAG_HP.to_dict()
    train = asdict(TrainSettings())
    corpus = {"path": None, "synthetic_bytes": 1 << 18, "synthetic_seed": 13,
              "seq_len": 64, "tokenizer": "byte", "max_word_vocab": 8192}
    defaults = {
        "train": {
            "model": {**model_ladder, "pos_bias": True},
            "corpus": corpus,
            "train": train,
            "hp": hp,
            "save_checkpoint": True,
        },
        "coord-check": {
            "model": model_ladder,
            "paradigm": "scale_channels",
            "widths": [64, 128, 256, 512],
            "hp": hp,
            **_library_defaults(coord_check, "steps", "iters", "batch_size", "hidden_lr_scaling"),
        },
        "init-stats": {
            "model": {**model_ladder, "vocab_size": 64},
            "paradigm": "scale_channels",
            "widths": [64, 128, 256, 512],
            **_library_defaults(init_variance_audit, "min_samples"),
        },
        "equivalence-check": {
            "model": model_small,
            "paradigms": ["scale_channels", "scale_rank"],
            "widths": [8, 16, 32],
            "seeds": 5,
            "iters": 3,
            "tau_pairs": [[8, 8], [16, 8], [16, 2], [24, 1]],
            **_library_defaults(equivalence_check, "n_tokens"),
        },
        "energy-probe": {
            "model": model_ladder,
            "paradigms": ["scale_channels", "scale_rank"],
            "widths": [64, 128, 256, 512],
            **_library_defaults(energy_entropy_probe, "n_seeds", "n_tokens"),
        },
        "transfer-sweep": {
            "model": model_ladder,
            "paradigm": "scale_channels",
            "widths": [64, 256],
            "lr_grid": [1e-4, 10 ** -3.5, 1e-3, 10 ** -2.5, 1e-2],
            "hp": hp,
            "corpus": {**corpus, "seq_len": 32, "synthetic_bytes": 1 << 19,
                       "synthetic_seed": 17},
            "train": train,
        },
        "verify-local-opt": {
            "model": {**model_ladder, "pos_bias": True},
            "hp": hp,
            "corpus": {**corpus, "seq_len": 32, "synthetic_bytes": 1 << 17},
            "train": {**train, "steps": 40, "eval_interval": 40},
            **_library_defaults(verify_local_optimality, "p", "alpha", "n", "scale"),
        },
        "plot": {"csv": None, "out": None},
    }
    return copy.deepcopy(defaults[command])


def _merge(defaults, override, path=""):
    """Deep-merge override into defaults, rejecting unknown keys."""
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = _checked(defaults[key], value, where)
    return out


# Config keys that accept null, with the type each takes otherwise: exactly the
# keys whose default is null.
_NULLABLE = {"corpus.path": str, "n": int, "csv": str, "out": str}


def _checked(default, value, where: str):
    """value, if it may replace default at config key `where`; else ConfigError.

    A key takes its default's type (an int where a float is expected too);
    a null-default key takes the type listed in _NULLABLE.
    """
    if value is None:
        if where in _NULLABLE:
            return None
        raise ConfigError(f"{where} cannot be null")
    expected = _NULLABLE[where] if default is None else type(default)
    if type(value) is expected or (expected is float and type(value) is int):
        return value
    if expected is bool:
        raise ConfigError(f"{where} expects true/false, got {value!r}")
    raise ConfigError(
        f"{where} expects {expected.__name__}, got {type(value).__name__} ({value!r})")


def _override(assignment: str) -> dict:
    """--set a.b=value as {"a": {"b": value}}; value is JSON, or else a string."""
    if "=" not in assignment:
        raise ConfigError(f"--set takes key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    try:
        override = json.loads(raw)
    except json.JSONDecodeError:
        override = raw
    for key in reversed(dotted.split(".")):
        override = {key: override}
    return override


def _load_config(command: str, args) -> dict:
    cfg = _defaults(command)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                data = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _merge(cfg, data)
    for assignment in args.set or ():
        cfg = _merge(cfg, _override(assignment))
    return cfg


def _corpus(cfg_corpus: dict):
    from . import corpus as corpus_mod

    if cfg_corpus["path"]:
        try:
            with open(cfg_corpus["path"], encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read corpus.path: {e}") from None
    else:
        text = corpus_mod.synth_text(cfg_corpus["synthetic_bytes"],
                                     cfg_corpus["synthetic_seed"])
    return corpus_mod.encode_corpus(text, cfg_corpus["seq_len"],
                                    tokenizer=cfg_corpus["tokenizer"],
                                    max_word_vocab=cfg_corpus["max_word_vocab"])


# List keys a subcommand walks entry by entry: refused if empty or repeating
# an entry, since a check over nothing checks nothing and a repeat nothing new.
# The width ladders of coord-check and energy-probe are the library's to check.
_LISTED = {
    "init-stats": ("widths",),
    "equivalence-check": ("paradigms", "widths", "tau_pairs"),
    "energy-probe": ("paradigms",),
    "transfer-sweep": ("widths", "lr_grid"),
}


def _check_entries(default: list, value: list, where: str) -> None:
    """Refuse list entries unlike the default's: of another type (the rule of
    _checked), or, for a list of lists, of another length."""
    if not default:
        return
    proto = default[0]
    for i, item in enumerate(value):
        at = f"{where}[{i}]"
        _checked(proto, item, at)
        if type(proto) is list:
            if len(item) != len(proto):
                raise ConfigError(f"{at} expects {len(proto)} entries, got {item!r}")
            _check_entries(proto, item, at)


def _validated(command: str, cfg: dict) -> dict:
    """cfg with its model, hp and train sections built (PTConfig, HPPoint,
    TrainSettings) and a WidthScaler per paradigm ("scaler" or "scalers"),
    after every check a run makes before it starts; --print-config too."""
    from .config import HPPoint, PTConfig
    from .mup import WidthScaler
    from .training import TrainSettings

    for key, default in _defaults(command).items():
        if type(default) is list:
            _check_entries(default, cfg[key], key)
    for key in _LISTED.get(command, ()):
        items = cfg[key]
        if not items:
            raise ConfigError(f"{key} must not be empty")
        if len({json.dumps(x) for x in items}) != len(items):
            raise ConfigError(f"{key} must not repeat an entry, got {items}")
    if command == "equivalence-check":
        if cfg["seeds"] < 1:
            raise ConfigError(f"seeds must be >= 1, got {cfg['seeds']}")
        for width, rank in cfg["tau_pairs"]:
            if not 1 <= rank <= width:
                raise ConfigError(f"tau_pairs entries are [width, rank] with "
                                  f"1 <= rank <= width, got {[width, rank]}")
    if command == "transfer-sweep" and len(cfg["widths"]) < 2:
        # one width is displaced by 0 by construction
        raise ConfigError(f"a transfer sweep needs at least 2 widths, got {cfg['widths']}")

    run = dict(cfg)
    if "model" in cfg:
        run["model"] = PTConfig(**cfg["model"])
    if "paradigm" in cfg:
        run["scaler"] = WidthScaler(run["model"], cfg["paradigm"])
    if "paradigms" in cfg:
        run["scalers"] = [WidthScaler(run["model"], p) for p in cfg["paradigms"]]
    if "hp" in cfg:
        run["hp"] = HPPoint.from_dict(cfg["hp"])
    if "train" in cfg:
        run["train"] = TrainSettings(**cfg["train"])
    return run


def _write(path: str, text: str) -> str:
    from .util import atomic_write

    with atomic_write(path) as f:
        f.write((text if text.endswith("\n") else text + "\n").encode("utf-8"))
    return path


# ---------------------------------------------------------------------------
# subcommand bodies (heavy imports stay inside); each takes the validated
# config, the seed, the tag naming its artifacts and the output directory


def _cmd_train(cfg, seed, tag, out_dir):
    from .checkpoint import save_checkpoint
    from .svgplot import line_svg
    from .training import train_run

    config = cfg["model"]
    record, params = train_run(config, cfg["hp"], _corpus(cfg["corpus"]), seed, cfg["train"],
                               return_params=True)
    json_path = _write(os.path.join(out_dir, f"run-{tag}.json"), record.to_json())
    curve = [("train", list(enumerate(record.train_losses, start=1))),
             ("eval", list(zip(record.eval_steps, record.eval_losses)))]
    svg_path = os.path.join(out_dir, f"run-{tag}-loss.svg")
    line_svg(svg_path, curve, title="Masked LM training", xlabel="step",
             ylabel="loss (nats)")
    paths = [json_path, svg_path]
    if cfg["save_checkpoint"]:
        ckpt = os.path.join(out_dir, f"run-{tag}.ckpt")
        save_checkpoint(ckpt, config, params.tensors,
                        extra={"seed": seed, "final_eval_loss": record.final_eval_loss})
        paths.append(ckpt)
    status = "diverged" if record.diverged else "ok"
    print(f"train: {status}, final eval loss {record.final_eval_loss:.4f} "
          f"({record.steps} steps, width {config.width})")
    for p in paths:
        print(f"  wrote {p}")
    if record.diverged:
        raise CheckFailure("training diverged")


def _cmd_coord_check(cfg, seed, tag, out_dir):
    from .diagnostics import coord_check, coord_summary_json, write_coord_csv

    report = coord_check(cfg["scaler"], list(cfg["widths"]), cfg["hp"], seed=seed,
                         **_passed(cfg, coord_check))
    violations = report.band_violations()
    csv_path = os.path.join(out_dir, f"coord-{tag}.csv")
    write_coord_csv(report, csv_path)
    json_path = _write(os.path.join(out_dir, f"coord-{tag}.json"), coord_summary_json(report))
    stable = not violations
    expect_stable = cfg["hidden_lr_scaling"] == "mup"
    print(f"coord-check[{cfg['hidden_lr_scaling']}]: "
          f"{'stable' if stable else f'{len(violations)} band violations'} "
          f"over widths {cfg['widths']}")
    for v in violations[:5]:
        print(f"  {v}")
    print(f"  wrote {csv_path}")
    print(f"  wrote {json_path}")
    if report.steps:
        ratios = ", ".join(f"{r:.2f}" for r in report.ratio_table("delta_nz", 1))
        print(f"  one-step update ratios: [{ratios}], "
              f"end-to-end {report.end_to_end_ratio('delta_nz', 1):.2f}")
    if stable != expect_stable:
        raise CheckFailure(
            f"expected {'stability' if expect_stable else 'band violations'} "
            f"but observed the opposite")


def _cmd_init_stats(cfg, seed, tag, out_dir):
    from .diagnostics import INIT_VARIANCE_TOL, init_variance_audit
    from .util import canonical_json

    tol, rows, ok = INIT_VARIANCE_TOL, [], True
    for width in cfg["widths"]:
        audit = init_variance_audit(cfg["scaler"].config_at(width), seed=seed,
                                    **_passed(cfg, init_variance_audit))
        rows.append({"width": width, "pooled_variance": audit.pooled_variance,
                     "target_variance": audit.target_variance,
                     "rel_error": audit.rel_error, "zero_names": audit.zero_names,
                     "zeros_exact": audit.zeros_exact})
        good = audit.within(tol)
        ok = ok and good
        worst = max(audit.rel_error.values())
        print(f"init-stats w={width}: worst group error {worst:.3%} "
              f"(tol {tol:.0%}), zeros exact: {audit.zeros_exact} "
              f"-> {'ok' if good else 'FAIL'}")
    path = _write(os.path.join(out_dir, f"init-stats-{tag}.json"),
                  canonical_json({"schema_version": "1", "tolerance": tol, "audits": rows}))
    print(f"  wrote {path}")
    if not ok:
        raise CheckFailure("init variance audit out of tolerance")


def _cmd_equivalence(cfg, seed, tag, out_dir):
    from .diagnostics import EXACT_TOL, equivalence_check, tau_cancellation_check
    from .util import canonical_json

    tol, results, worst = EXACT_TOL, [], (0.0, "")
    for scaler in cfg["scalers"]:
        paradigm = scaler.paradigm
        for width in cfg["widths"]:
            config = scaler.config_at(width)
            for s in range(cfg["seeds"]):
                rep = equivalence_check(config, seed=seed + s, iters=cfg["iters"],
                                        **_passed(cfg, equivalence_check))
                results.append({"paradigm": paradigm, "width": width, "seed": seed + s,
                                "max_deviation": rep.max_deviation, "worst": rep.worst})
                if rep.max_deviation > worst[0]:
                    worst = (rep.max_deviation, f"{paradigm}/w{width}/s{seed + s}")
    print(f"equivalence-check: {len(results)} combos, max deviation "
          f"{worst[0]:.3e} at {worst[1]} (tol {tol:g})")
    tau_worst = 0.0
    for n_val, r_val in cfg["tau_pairs"]:
        dev = tau_cancellation_check(n_val, r_val, seed=seed)
        tau_worst = max(tau_worst, dev)
        print(f"  temperature cancellation N={n_val} r={r_val} "
              f"tau={n_val / r_val:g}: {dev:.3e}")
    path = _write(os.path.join(out_dir, f"equivalence-{tag}.json"),
                  canonical_json({"schema_version": "1", "tolerance": tol,
                                  "results": results, "tau_worst": tau_worst}))
    print(f"  wrote {path}")
    if worst[0] > tol:
        raise CheckFailure(f"equivalence deviation {worst[0]:.3e} exceeds {tol:g}")
    if tau_worst > tol:
        raise CheckFailure(f"temperature cancellation deviation {tau_worst:.3e} exceeds {tol:g}")


def _cmd_energy_probe(cfg, seed, tag, out_dir):
    from .diagnostics import EXACT_TOL, energy_entropy_probe, entropy_uniform_exact
    from .mup import SCALE_CHANNELS
    from .svgplot import line_svg
    from .util import canonical_json

    widths = list(cfg["widths"])
    out, failures = {}, []
    for scaler in cfg["scalers"]:
        paradigm = scaler.paradigm
        fits = energy_entropy_probe(scaler, widths, seed0=seed,
                                    **_passed(cfg, energy_entropy_probe))
        out[paradigm] = {k: {"widths": f.widths, "magnitudes": f.magnitudes,
                             "slope": f.slope, "normalized_slope": f.normalized_slope}
                         for k, f in fits.items()}
        sc = paradigm == SCALE_CHANNELS
        expect = {"tau_entropy": (1.0 if sc else 0.0, ENTROPY_SLOPE_BAND, True),
                  "e_unary": (0.5 if sc else -0.5, ENERGY_SLOPE_BAND, False),
                  "e_binary": (0.5 if sc else -0.5, ENERGY_SLOPE_BAND, False)}
        for key, (target, band, normalized) in expect.items():
            got = fits[key].normalized_slope if normalized else fits[key].slope
            ok = abs(got - target) <= band
            print(f"energy-probe {paradigm} {key}: slope {got:+.3f} "
                  f"(target {target:+g} +/- {band:g}) -> {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{paradigm}/{key}")
        print(f"energy-probe {paradigm} e_ternary: slope {fits['e_ternary'].slope:+.3f} "
              f"(recorded)")
        svg = os.path.join(out_dir, f"energy-{paradigm}-{tag}.svg")
        line_svg(svg, [(k, list(zip(widths, f.magnitudes))) for k, f in fits.items()],
                 title=f"Magnitudes at init ({paradigm})",
                 xlabel="width", ylabel="mean per-token magnitude", logx=True, logy=True)
        print(f"  wrote {svg}")
    th, tln = entropy_uniform_exact(cfg["model"], n=4)
    rel = abs(th - tln) / tln
    print(f"energy-probe closed form: tempered uniform entropy vs tau*ln(width): "
          f"rel diff {rel:.2e}")
    path = _write(os.path.join(out_dir, f"energy-{tag}.json"),
                  canonical_json({"schema_version": "1", "stage": "init",
                                  "fits": out, "uniform_exact_rel": rel}))
    print(f"  wrote {path}")
    if rel > EXACT_TOL:
        raise CheckFailure(f"uniform entropy closed form off by {rel:.3e}")
    if failures:
        raise CheckFailure("slope bands violated: " + ", ".join(failures))


def _sweep_svg(path, finals: dict) -> None:
    """The LR-transfer chart: for each width, in sweep order, final eval loss
    over the LR grid (finals: width -> [(lr, loss), ...]). transfer-sweep and
    `plot` on its CSV both draw it here."""
    from .svgplot import line_svg

    line_svg(path, [(f"width {w}", pts) for w, pts in finals.items()],
             title="LR transfer across width", xlabel="base learning rate",
             ylabel="final eval loss", logx=True)


def _cmd_transfer_sweep(cfg, seed, tag, out_dir):
    from .training import transfer_sweep
    from .util import canonical_json

    sweep = transfer_sweep(cfg["scaler"], cfg["widths"], list(cfg["lr_grid"]), cfg["hp"],
                           _corpus(cfg["corpus"]), seed, cfg["train"])
    best, disp = sweep.best_lr_index, sweep.argmin_displacement
    lost = [w for w, i in best.items() if i is None]   # every LR diverged there
    paths = [_write(os.path.join(out_dir, f"sweep-{tag}.csv"), "\n".join(sweep.csv_rows()))]
    if len(lost) < len(best):                           # else no finite loss to draw
        paths.append(os.path.join(out_dir, f"sweep-{tag}.svg"))
        _sweep_svg(paths[-1], {w: [(lr, sweep.records[(w, lr)].final_eval_loss)
                                   for lr in sweep.lr_grid] for w in sweep.widths})
    paths.append(_write(os.path.join(out_dir, f"sweep-{tag}.json"),
                        canonical_json({"schema_version": "1", "widths": sweep.widths,
                                        "lr_grid": sweep.lr_grid, "argmin_displacement": disp,
                                        "best_lr_index": {str(w): i for w, i in best.items()}})))
    for width, i in best.items():
        print(f"transfer-sweep w={width}: " + ("every lr diverged" if i is None else
                                              f"best lr {sweep.lr_grid[i]:.3e} (index {i})"))
    if not lost:
        print(f"transfer-sweep: argmin displacement {disp} (max allowed {MAX_DISPLACEMENT})")
    for p in paths:
        print(f"  wrote {p}")
    if lost:
        raise CheckFailure(f"every learning rate diverged at width {', '.join(map(str, lost))}")
    if disp > MAX_DISPLACEMENT:
        raise CheckFailure(f"argmin displacement {disp} exceeds {MAX_DISPLACEMENT}")


def _cmd_verify(cfg, seed, tag, out_dir):
    from .search import verify_local_optimality

    report = verify_local_optimality(cfg["model"], cfg["hp"], _corpus(cfg["corpus"]), seed,
                                     cfg["train"], out_dir,
                                     **_passed(cfg, verify_local_optimality))
    print(f"verify-local-opt: {report.summary()}")
    for kind, path in report.artifacts.items():
        print(f"  wrote {path} ({kind})")


def _cmd_plot(cfg, seed, tag, out_dir):
    """Redraw from its CSV the chart a subcommand drew, the kind of CSV read
    from its header. coord-check draws none; its chart, the probe magnitudes
    at the last step, is drawn here."""
    from .diagnostics import COORD_CSV_HEADER
    from .search import VERIFY_CSV_HEADER, verify_scatter_svg
    from .svgplot import line_svg
    from .training import SWEEP_CSV_HEADER

    if not cfg["csv"]:
        raise ConfigError("plot needs a csv path (--set csv=...)")
    try:
        with open(cfg["csv"], encoding="utf-8") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read csv: {e}") from None
    out = cfg["out"] or os.path.join(
        out_dir, os.path.splitext(os.path.basename(cfg["csv"]))[0] + ".svg")
    if not lines:
        raise ConfigError(f"csv is empty: {cfg['csv']}")
    header, *lines = lines
    kinds = {COORD_CSV_HEADER: "coord", SWEEP_CSV_HEADER: "sweep",
             VERIFY_CSV_HEADER: "verify"}
    if header not in kinds:
        raise ConfigError(f"unknown csv header: {header}")
    kind = kinds[header]
    if not lines:
        raise ConfigError(f"{kind} csv has no data rows: {cfg['csv']}")
    rows = [ln.split(",") for ln in lines]
    n_fields = header.count(",") + 1
    for k, row in enumerate(rows, start=1):
        if len(row) != n_fields:
            raise ConfigError(f"csv data row {k} has {len(row)} fields, expected {n_fields}")
    try:
        if kind == "coord":
            last_step = max(int(r[2]) for r in rows)
            series = {}
            for width_s, probe, step_s, mean_abs_s, _var in rows:
                if int(step_s) == last_step:
                    series.setdefault(probe, []).append((int(width_s), float(mean_abs_s)))
            line_svg(out, sorted(series.items()),
                     title=f"Probe magnitudes at step {last_step}",
                     xlabel="width", ylabel="mean abs", logx=True, logy=True)
        elif kind == "sweep":
            # rows keep the sweep's width and LR order, and each cell's eval
            # rows run in step order: a cell's last eval row holds its final loss
            finals = {}
            for width_s, lr_s, _seed, _step, split, loss_s in rows:
                if split == "eval":
                    finals.setdefault(int(width_s), {})[float(lr_s)] = float(loss_s)
            _sweep_svg(out, {w: list(cells.items()) for w, cells in finals.items()})
        else:
            verify_scatter_svg(out, [(float(r[1]), float(r[3])) for r in rows if r[0] != "0"])
    except ValueError as e:
        raise ConfigError(f"malformed {kind} csv: {e}") from None
    print(f"plot: wrote {out}")


_COMMANDS = {
    "train": _cmd_train,
    "coord-check": _cmd_coord_check,
    "init-stats": _cmd_init_stats,
    "equivalence-check": _cmd_equivalence,
    "energy-probe": _cmd_energy_probe,
    "transfer-sweep": _cmd_transfer_sweep,
    "verify-local-opt": _cmd_verify,
    "plot": _cmd_plot,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mupt",
        description="Probabilistic transformer scaling experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run {name}")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config value (repeatable)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", help="artifact directory "
                                         "(default $MUPT_OUT_DIR or ./artifacts)")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS/OpenMP threads (default 1, reproducible); "
                            "an explicit value overrides the environment")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective config and exit")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 1
    for var in _THREAD_VARS:
        if args.threads is not None:
            os.environ[var] = str(args.threads)
        else:
            os.environ.setdefault(var, "1")
    try:
        cfg = _load_config(args.command, args)
        run = _validated(args.command, cfg)
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        from .util import short_hash

        out_dir = args.out_dir or os.environ.get("MUPT_OUT_DIR") or "artifacts"
        os.makedirs(out_dir, exist_ok=True)
        tag = short_hash({"cfg": cfg, "seed": args.seed})  # names the artifacts
        _COMMANDS[args.command](run, args.seed, tag, out_dir)
        return 0
    except (ConfigError, WorkerDied) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
