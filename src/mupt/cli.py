"""Command line interface.

Every subcommand takes a JSON config (defaults shown by --print-config),
optional --set key=value overrides with unknown-key rejection, and writes
its artifacts under --out-dir (or $MUPT_OUT_DIR, default ./artifacts),
never anywhere else. Exit codes: 0 success, 1 bad configuration or usage,
2 a check ran to completion and failed.

--threads N sets the BLAS/OpenMP thread variables (default 1, unless the
environment already sets them) before anything loads NumPy: neither
`import mupt` nor `import mupt.cli` does, so the pools are sized as asked.
One thread is what makes training runs bit-reproducible. Calling main()
from a process that has already imported NumPy cannot resize its pools.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys

from .errors import CheckFailure, ConfigError

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _defaults(command: str) -> dict:
    """Default config of one subcommand, built from the library's own defaults.

    Built on demand rather than at import: the dataclasses live in modules
    that load NumPy, which must wait until main() has pinned the threads.
    """
    from dataclasses import asdict

    from .config import PTConfig
    from .diagnostics import DIAG_HP
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
            "steps": 10,
            "iters": 3,
            "batch_size": 4,
            "hp": hp,
            "hidden_lr_scaling": "mup",
            "band": [1.0 / 3.0, 3.0],
            "expect_stable": True,
            "update_check": True,
        },
        "init-stats": {
            "model": {**model_ladder, "vocab_size": 64},
            "paradigm": "scale_channels",
            "widths": [64, 128, 256, 512],
            "tolerance": 0.15,
            "min_samples": 10000,
        },
        "equivalence-check": {
            "model": model_small,
            "paradigms": ["scale_channels", "scale_rank"],
            "widths": [8, 16, 32],
            "seeds": 5,
            "iters": 3,
            "n_tokens": 8,
            "tolerance": 1e-12,
            "tau_pairs": [[8, 8], [16, 8], [16, 2], [24, 1]],
            "tau_tolerance": 1e-12,
        },
        "energy-probe": {
            "model": model_ladder,
            "paradigms": ["scale_channels", "scale_rank"],
            "widths": [64, 128, 256, 512],
            "n_seeds": 32,
            "n_tokens": 16,
            "stage": "init",
            "entropy_band": 0.15,
            "energy_band": 0.2,
            "assert_bands": True,
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
            "max_displacement": 1,
        },
        "verify-local-opt": {
            "model": {**model_ladder, "pos_bias": True},
            "hp": hp,
            "p": 0.05,
            "alpha": 0.05,
            "n": None,
            "scale": 0.2,
            "noise_tol": 0.004,
            "require_optimal": False,
            "corpus": {**corpus, "seq_len": 32, "synthetic_bytes": 1 << 17},
            "train": {**train, "steps": 40, "eval_interval": 40},
        },
        "plot": {
            "csv": None,
            "kind": "coord",
            "out": None,
        },
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
            out[key] = value
    return out


def _coerce(default, raw: str, where: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if default is None or value is None:
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where} expects true/false, got {raw!r}")
        return value
    if isinstance(default, (int, float)) and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return value
    if type(default) is type(value):
        return value
    raise ConfigError(
        f"{where} expects {type(default).__name__}, got {type(value).__name__} ({raw!r})")


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set takes key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    node = cfg
    keys = dotted.split(".")
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config key: {dotted}")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key: {dotted}")
    node[leaf] = _coerce(node[leaf], raw, dotted)


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
        _apply_set(cfg, assignment)
    return cfg


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("MUPT_OUT_DIR") or "artifacts"
    os.makedirs(out, exist_ok=True)
    return out


def _model(cfg_model: dict):
    from .config import PTConfig

    return PTConfig(**cfg_model)


def _hp(cfg_hp: dict):
    from .config import HPPoint

    return HPPoint.from_dict(cfg_hp)


def _settings(cfg_train: dict):
    from .training import TrainSettings

    return TrainSettings(**cfg_train)


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


def _tag(cfg: dict, seed: int) -> str:
    from .util import short_hash

    return short_hash({"cfg": cfg, "seed": seed})


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text if text.endswith("\n") else text + "\n")
    return path


# ---------------------------------------------------------------------------
# subcommand bodies (heavy imports stay inside)


def _cmd_train(cfg, seed, out_dir):
    import numpy as np

    from .checkpoint import save_checkpoint
    from .svgplot import line_svg
    from .training import train_run

    config = _model(cfg["model"])
    corpus = _corpus(cfg["corpus"])
    settings = _settings(cfg["train"])
    record, params = train_run(config, _hp(cfg["hp"]), corpus, seed, settings,
                               return_params=True)
    tag = _tag(cfg, seed)
    json_path = _write(os.path.join(out_dir, f"run-{tag}.json"), record.to_json())
    curve = [("train", [(i + 1, x) for i, x in enumerate(record.train_losses)
                        if np.isfinite(x)]),
             ("eval", [(s, x) for s, x in zip(record.eval_steps, record.eval_losses)
                       if np.isfinite(x)])]
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


def _cmd_coord_check(cfg, seed, out_dir):
    from .diagnostics import (coord_check, coord_summary_json, update_magnitude_check,
                              write_coord_csv)
    from .mup import WidthScaler

    scaler = WidthScaler(_model(cfg["model"]), cfg["paradigm"])
    hp = _hp(cfg["hp"])
    report = coord_check(scaler, list(cfg["widths"]), hp, steps=cfg["steps"],
                         seed=seed, batch_size=cfg["batch_size"], iters=cfg["iters"],
                         hidden_lr_scaling=cfg["hidden_lr_scaling"])
    lo, hi = cfg["band"]
    violations = report.band_violations(lo, hi)
    tag = _tag(cfg, seed)
    csv_path = os.path.join(out_dir, f"coord-{tag}.csv")
    write_coord_csv(report, csv_path)
    json_path = _write(os.path.join(out_dir, f"coord-{tag}.json"),
                       coord_summary_json(report, lo, hi))
    stable = not violations
    print(f"coord-check[{cfg['hidden_lr_scaling']}]: "
          f"{'stable' if stable else f'{len(violations)} band violations'} "
          f"over widths {cfg['widths']}")
    for v in violations[:5]:
        print(f"  {v}")
    print(f"  wrote {csv_path}")
    print(f"  wrote {json_path}")
    if cfg["update_check"]:
        um = update_magnitude_check(scaler, list(cfg["widths"]), hp, seed=seed,
                                    hidden_lr_scaling=cfg["hidden_lr_scaling"],
                                    batch_size=cfg["batch_size"], iters=cfg["iters"])
        ratios = ", ".join(f"{r:.2f}" for r in um.consecutive_ratios)
        print(f"  one-step update ratios: [{ratios}], end-to-end {um.end_to_end_ratio:.2f}")
    if stable != cfg["expect_stable"]:
        raise CheckFailure(
            f"expected {'stability' if cfg['expect_stable'] else 'band violations'} "
            f"but observed the opposite")


def _cmd_init_stats(cfg, seed, out_dir):
    from .diagnostics import init_variance_audit
    from .mup import WidthScaler
    from .util import canonical_json

    scaler = WidthScaler(_model(cfg["model"]), cfg["paradigm"])
    tol = cfg["tolerance"]
    rows, ok = [], True
    for width in cfg["widths"]:
        audit = init_variance_audit(scaler.config_at(width), seed=seed,
                                    min_samples=cfg["min_samples"])
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
    path = _write(os.path.join(out_dir, f"init-stats-{_tag(cfg, seed)}.json"),
                  canonical_json({"schema_version": "1", "tolerance": tol, "audits": rows}))
    print(f"  wrote {path}")
    if not ok:
        raise CheckFailure("init variance audit out of tolerance")


def _cmd_equivalence(cfg, seed, out_dir):
    from .diagnostics import equivalence_check, tau_cancellation_check
    from .mup import WidthScaler
    from .util import canonical_json

    base = _model(cfg["model"])
    tol = cfg["tolerance"]
    results, worst = [], (0.0, "")
    for paradigm in cfg["paradigms"]:
        scaler = WidthScaler(base, paradigm)
        for width in cfg["widths"]:
            config = scaler.config_at(width)
            for s in range(cfg["seeds"]):
                rep = equivalence_check(config, seed=seed + s, n_tokens=cfg["n_tokens"],
                                        iters=cfg["iters"], tolerance=tol)
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
    path = _write(os.path.join(out_dir, f"equivalence-{_tag(cfg, seed)}.json"),
                  canonical_json({"schema_version": "1", "tolerance": tol,
                                  "results": results, "tau_worst": tau_worst}))
    print(f"  wrote {path}")
    if worst[0] > tol:
        raise CheckFailure(f"equivalence deviation {worst[0]:.3e} exceeds {tol:g}")
    if tau_worst > cfg["tau_tolerance"]:
        raise CheckFailure(f"temperature cancellation deviation {tau_worst:.3e} "
                           f"exceeds {cfg['tau_tolerance']:g}")


def _cmd_energy_probe(cfg, seed, out_dir):
    from .diagnostics import energy_entropy_probe, entropy_uniform_exact
    from .mup import SCALE_CHANNELS, WidthScaler
    from .svgplot import line_svg
    from .util import canonical_json

    base = _model(cfg["model"])
    widths = list(cfg["widths"])
    out, failures = {}, []
    for paradigm in cfg["paradigms"]:
        fits = energy_entropy_probe(WidthScaler(base, paradigm), widths,
                                    n_seeds=cfg["n_seeds"], n_tokens=cfg["n_tokens"],
                                    seed0=seed, stage=cfg["stage"])
        out[paradigm] = {k: {"widths": f.widths, "magnitudes": f.magnitudes,
                             "slope": f.slope, "normalized_slope": f.normalized_slope}
                         for k, f in fits.items()}
        sc = paradigm == SCALE_CHANNELS
        expect = {"tau_entropy": (1.0 if sc else 0.0, cfg["entropy_band"], True),
                  "e_unary": (0.5 if sc else -0.5, cfg["energy_band"], False),
                  "e_binary": (0.5 if sc else -0.5, cfg["energy_band"], False)}
        for key, (target, band, normalized) in expect.items():
            got = fits[key].normalized_slope if normalized else fits[key].slope
            ok = abs(got - target) <= band
            print(f"energy-probe {paradigm} {key}: slope {got:+.3f} "
                  f"(target {target:+g} +/- {band:g}) -> {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{paradigm}/{key}")
        print(f"energy-probe {paradigm} e_ternary: slope {fits['e_ternary'].slope:+.3f} "
              f"(recorded)")
        svg = os.path.join(out_dir, f"energy-{paradigm}-{_tag(cfg, seed)}.svg")
        line_svg(svg, [(k, list(zip(widths, f.magnitudes))) for k, f in fits.items()],
                 title=f"Magnitudes at {cfg['stage']} ({paradigm})",
                 xlabel="width", ylabel="mean per-token magnitude", logx=True, logy=True)
        print(f"  wrote {svg}")
    th, tln = entropy_uniform_exact(base, n=4)
    rel = abs(th - tln) / tln
    print(f"energy-probe closed form: tempered uniform entropy vs tau*ln(width): "
          f"rel diff {rel:.2e}")
    path = _write(os.path.join(out_dir, f"energy-{_tag(cfg, seed)}.json"),
                  canonical_json({"schema_version": "1", "stage": cfg["stage"],
                                  "fits": out, "uniform_exact_rel": rel}))
    print(f"  wrote {path}")
    if cfg["assert_bands"] and cfg["stage"] == "init":
        if rel > 1e-12:
            raise CheckFailure(f"uniform entropy closed form off by {rel:.3e}")
        if failures:
            raise CheckFailure("slope bands violated: " + ", ".join(failures))


def _cmd_transfer_sweep(cfg, seed, out_dir):
    from .mup import WidthScaler
    from .svgplot import line_svg
    from .training import transfer_sweep
    from .util import canonical_json

    scaler = WidthScaler(_model(cfg["model"]), cfg["paradigm"])
    corpus = _corpus(cfg["corpus"])
    sweep = transfer_sweep(scaler, list(cfg["widths"]), list(cfg["lr_grid"]),
                           _hp(cfg["hp"]), corpus, seed, _settings(cfg["train"]))
    tag = _tag(cfg, seed)
    csv_path = _write(os.path.join(out_dir, f"sweep-{tag}.csv"),
                      "\n".join(sweep.csv_rows()))
    series = []
    for width in sweep.widths:
        pts = [(lr, sweep.records[(width, lr)].final_eval_loss)
               for lr in sweep.lr_grid]
        series.append((f"width {width}", pts))
    svg_path = os.path.join(out_dir, f"sweep-{tag}.svg")
    line_svg(svg_path, series, title="LR transfer across width",
             xlabel="base learning rate", ylabel="final eval loss", logx=True)
    disp = sweep.argmin_displacement
    for width in sweep.widths:
        i = sweep.best_lr_index[width]
        print(f"transfer-sweep w={width}: best lr {sweep.lr_grid[i]:.3e} (index {i})")
    print(f"transfer-sweep: argmin displacement {disp} "
          f"(max allowed {cfg['max_displacement']})")
    json_path = _write(os.path.join(out_dir, f"sweep-{tag}.json"),
                       canonical_json({"schema_version": "1",
                                       "widths": sweep.widths,
                                       "lr_grid": sweep.lr_grid,
                                       "best_lr_index": {str(k): v for k, v
                                                         in sweep.best_lr_index.items()},
                                       "argmin_displacement": disp}))
    for p in (csv_path, svg_path, json_path):
        print(f"  wrote {p}")
    if disp > cfg["max_displacement"]:
        raise CheckFailure(f"argmin displacement {disp} exceeds {cfg['max_displacement']}")


def _cmd_verify(cfg, seed, out_dir):
    from .search import verify_local_optimality

    config = _model(cfg["model"])
    corpus = _corpus(cfg["corpus"])
    report = verify_local_optimality(config, _hp(cfg["hp"]), corpus, seed,
                                     _settings(cfg["train"]), out_dir,
                                     p=cfg["p"], alpha=cfg["alpha"], n=cfg["n"],
                                     scale=cfg["scale"], noise_tol=cfg["noise_tol"])
    print(f"verify-local-opt: {report.summary()}")
    for kind, path in report.artifacts.items():
        print(f"  wrote {path} ({kind})")
    if cfg["require_optimal"] and not report.locally_optimal:
        raise CheckFailure("base point beaten beyond noise tolerance")


def _cmd_plot(cfg, seed, out_dir):
    import math

    from .diagnostics import COORD_CSV_HEADER
    from .search import VERIFY_CSV_HEADER
    from .svgplot import line_svg, scatter_svg
    from .training import SWEEP_CSV_HEADER

    if not cfg["csv"]:
        raise ConfigError("plot needs a csv path (--set csv=...)")
    try:
        with open(cfg["csv"], encoding="utf-8") as f:
            header, *lines = [ln.strip() for ln in f if ln.strip()]
    except FileNotFoundError:
        raise ConfigError(f"csv not found: {cfg['csv']}") from None
    rows = [ln.split(",") for ln in lines]
    out = cfg["out"] or os.path.join(
        out_dir, os.path.splitext(os.path.basename(cfg["csv"]))[0] + ".svg")
    kind = cfg["kind"]
    expected = {"coord": COORD_CSV_HEADER, "sweep": SWEEP_CSV_HEADER,
                "verify": VERIFY_CSV_HEADER}
    if kind not in expected:
        raise ConfigError(f"unknown plot kind: {kind!r}")
    if header != expected[kind]:
        raise ConfigError(f"unexpected {kind} csv header: {header}")
    if kind == "coord":
        last_step = max(int(r[2]) for r in rows)
        series = {}
        for width_s, probe, step_s, mean_abs_s, _var in rows:
            if int(step_s) == last_step and math.isfinite(float(mean_abs_s)):
                series.setdefault(probe, []).append((int(width_s), float(mean_abs_s)))
        line_svg(out, sorted(series.items()),
                 title=f"Probe magnitudes at step {last_step}",
                 xlabel="width", ylabel="mean abs", logx=True, logy=True)
    elif kind == "sweep":
        finals = {}
        for width_s, lr_s, _seed, step_s, split, loss_s in rows:
            if split == "eval":
                key = (int(width_s), float(lr_s))
                prev = finals.get(key)
                if prev is None or int(step_s) >= prev[0]:
                    finals[key] = (int(step_s), float(loss_s))
        series = {}
        for (width, lr), (_step, loss) in sorted(finals.items()):
            series.setdefault(f"width {width}", []).append((lr, loss))
        line_svg(out, sorted(series.items()), title="LR transfer across width",
                 xlabel="base learning rate", ylabel="final eval loss", logx=True)
    else:
        pts = [(float(r[1]), float(r[3])) for r in rows if r[0] != "0"]
        scatter_svg(out, pts, title="Neighborhood perturbations vs base",
                    xlabel="relative HP distance from base",
                    ylabel="relative loss increase",
                    highlight=(0.0, 0.0), highlight_label="base")
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
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        out_dir = _out_dir(args)
        _COMMANDS[args.command](cfg, args.seed, out_dir)
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
