#!/usr/bin/env python3
"""Benchmark of mupt: training, evaluation, verification and the width ladder.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

Run it from the root of a source checkout; the package is imported from
./src. The process pins BLAS to one thread before NumPy loads. It sets up
the workload's inputs from the seed before the first round and again after
every round (the median set-up counts), repeats whole rounds of the workload
until the given seconds are spent, then runs the correctness checks outside
the timed section. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 untraced
and traced rounds alternate, and the metrics are per layer, measured in the
traced rounds, beside the round times with and without tracing. Outputs
(checkpoints, verification artifacts, the full trace table) go to
./.bench_out.
"""
import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("train-w256-channels", "train-w256-rank", "verify-w64", "coord-ladder")

END_TO_END = (
    ("setup_s", "s"),
    ("train_tokens_per_s", "tokens/s"),
    ("eval_tokens_per_s", "tokens/s"),
    ("final_eval_loss", "nats"),
    ("verify_runs_per_s", "runs/s"),
    ("ladder_steps_per_s", "steps/s"),
    ("peak_rss_mb", "MB"),
)

# Mean inclusive milliseconds per call of each traced function.
PER_CALL_MS = (
    "model.update_heads", "model.update_z", "model.update_topics", "model.init_mfvi",
    "model.mlm_logits", "model.masked_ce_loss", "model.run_mfvi", "model.ModelParams.init",
    "autodiff.reverse_grad", "autodiff.matmul", "mup.AdamW.step",
    "corpus.synth_text", "corpus.encode_corpus", "corpus.mask_tokens",
    "training.train_run", "training.evaluate", "training.build_eval_batches",
    "search.verify_local_optimality", "diagnostics.coord_check",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
)
PER_LAYER = tuple((f"{n}.ms", "ms") for n in PER_CALL_MS) + (
    ("autodiff.tape_nodes", "count"),
    ("autodiff.matmul.calls", "count"),
    ("autodiff.matmul.gflop", "GFLOP"),
    ("corpus.mask_tokens.calls", "count"),
    ("checkpoint.bytes", "bytes"),
    ("trace.untraced_round_s", "s"),
    ("trace.traced_round_s", "s"),
    ("trace.overhead_pct", "%"),
)


def end_to_end(setup_s: float, rounds, peak_rss_mb: float) -> dict:
    """Medians over the run: of the rounds' training rates, and of every evaluation pass."""
    done = [r for r in rounds if r.figures]
    if not done:
        return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}

    def median_rate(work: str, seconds: str = "main_s") -> float:
        return statistics.median(r.figures[work] / r.figures[seconds] for r in done)

    return {
        "setup_s": setup_s,
        "train_tokens_per_s": median_rate("train_tokens"),
        "eval_tokens_per_s": statistics.median(
            r.figures["eval_tokens"] / t for r in done for t in r.figures["eval_s"]),
        "final_eval_loss": statistics.median(r.figures["final_eval_loss"] for r in done),
        "verify_runs_per_s": median_rate("runs"),
        "ladder_steps_per_s": median_rate("steps"),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(setup_tracer, tracer, traced_rounds, untraced_s, traced_s) -> dict:
    from layer_trace import merged_ms_per_call

    out = {f"{n}.ms": merged_ms_per_call((setup_tracer, tracer), n) for n in PER_CALL_MS}
    n_rounds = max(len(traced_rounds), 1)
    steps = max(tracer.train_forwards, 1)
    keeps = [r.keep for r in traced_rounds if r.keep]
    out.update({
        "autodiff.tape_nodes": tracer.tape_nodes / max(tracer.backward_calls, 1),
        "autodiff.matmul.calls": tracer.train_matmul_calls / steps,
        "autodiff.matmul.gflop": tracer.train_matmul_flops / steps / 1e9,
        "corpus.mask_tokens.calls": tracer.calls("corpus.mask_tokens") / n_rounds,
        "checkpoint.bytes": max((k.get("ckpt_bytes", 0) for k in keeps), default=0),
        "trace.untraced_round_s": untraced_s,
        "trace.traced_round_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0) if untraced_s else 0.0,
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports NumPy and mupt
    from layer_trace import Tracer

    import_s = time.perf_counter() - _T0
    wl = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    setup_tracer = Tracer()
    setup_times = []

    def set_up():
        if trace:
            setup_tracer.install()
        t0 = time.perf_counter()
        inputs = wl.setup(seed, str(OUT_DIR))
        setup_times.append(time.perf_counter() - t0)
        setup_tracer.uninstall()
        return inputs

    inputs = set_up()
    tracer = Tracer()
    rounds, untraced, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(untraced) > len(traced)
        if tracing:
            tracer.install()
        t0 = time.perf_counter()
        rounds.append(wl.round(inputs))
        (traced if tracing else untraced).append(time.perf_counter() - t0)
        if tracing:
            tracer.uninstall()
            rounds[-1].traced = True
        # Set up again between rounds, off the clock of the rounds, so that the
        # set-up samples spread over the run instead of one second of it.
        set_up()
        deadline += setup_times[-1]
        if (len(rounds) >= MIN_ROUNDS and time.perf_counter() >= deadline
                and len(traced) == (len(untraced) if trace else 0)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = import_s + statistics.median(setup_times)

    checks = wl.checks(inputs, rounds)
    print(f"workload {name}, seed {seed}, {len(rounds)} rounds in "
          f"{sum(untraced) + sum(traced):.2f} s, trace {int(trace)}")
    for check, ok, detail in checks:
        print(f"check {check}: {'PASS' if ok else 'FAIL'} - {detail}")
    if trace:
        traced_rounds = [r for r in rounds if r.traced]
        # The first round also warms the process up; leave it out when others ran.
        values = per_layer(setup_tracer, tracer, traced_rounds,
                           statistics.median(untraced[1:] or untraced),
                           statistics.median(traced))
        units = dict(PER_LAYER)
        table_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        table_path.write_text(json.dumps(
            {"setup": setup_tracer.table(), "rounds": tracer.table(),
             "traced_rounds": len(traced_rounds)}, indent=1) + "\n")
        print(f"full trace table: {table_path}")
    else:
        values = end_to_end(setup_s, rounds, peak_rss_mb)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"operations attempted {attempted}, failed {failed}")
    correct = all(ok for _, ok, _ in checks) and len(metrics) == len(units)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so that set-up and peak memory are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print()
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "mupt" / "__init__.py").is_file():
        print(f"error: no mupt sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
