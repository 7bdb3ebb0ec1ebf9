"""Command-line interface: config plumbing, exit codes, artifact placement.

Everything runs in-process through main(argv) with tiny geometries; the
expensive default configurations are exercised by the acceptance suite.
"""
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from mupt import cli, diagnostics, parallel
from mupt.cli import main

TINY_MODEL = [
    "--set", "model.width=8", "--set", "model.rank=2",
    "--set", "model.channels=2", "--set", "model.topics=16",
]
TINY_CORPUS = [
    "--set", "corpus.synthetic_bytes=4096", "--set", "corpus.seq_len=12",
]
TINY_TRAIN = [
    "--set", "train.steps=2", "--set", "train.batch_size=2",
    "--set", "train.eval_interval=2", "--set", "train.max_eval_chunks=4",
    "--set", "train.mfvi_iters=2",
]


def _run(argv, tmp_path):
    return main(argv + ["--out-dir", str(tmp_path)])


def _leaves(node, path=""):
    """(dotted key, value) for every settable key of a config tree."""
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaves(value, where)
        else:
            yield where, value


def _section(name, keys):
    return {f"{name}.{k}" for k in keys.split()}


MODEL_KEYS = _section("model", "width rank channels topics vocab_size pos_bias "
                               "pos_buckets pos_clip rms_eps")
HP_KEYS = _section("hp", "lr w_unary w_tern_dep w_tern_head w_binary w_attn w_topic")
CORPUS_KEYS = _section("corpus", "path synthetic_bytes synthetic_seed seq_len tokenizer "
                                 "max_word_vocab")
TRAIN_KEYS = _section("train", "steps batch_size eval_interval eval_fraction "
                               "max_eval_chunks mask_ratio mfvi_iters weight_decay")
# Every key each subcommand accepts. A new knob is a visible edit here.
SETTABLE_KEYS = {
    "train": MODEL_KEYS | CORPUS_KEYS | TRAIN_KEYS | HP_KEYS | {"save_checkpoint"},
    "coord-check": MODEL_KEYS | HP_KEYS | {
        "paradigm", "widths", "steps", "iters", "batch_size", "hidden_lr_scaling"},
    "init-stats": MODEL_KEYS | {"paradigm", "widths", "min_samples"},
    "equivalence-check": MODEL_KEYS | {
        "paradigms", "widths", "seeds", "iters", "n_tokens", "tau_pairs"},
    "energy-probe": MODEL_KEYS | {"paradigms", "widths", "n_seeds", "n_tokens"},
    "transfer-sweep": MODEL_KEYS | CORPUS_KEYS | TRAIN_KEYS | HP_KEYS | {
        "paradigm", "widths", "lr_grid"},
    "verify-local-opt": MODEL_KEYS | CORPUS_KEYS | TRAIN_KEYS | HP_KEYS | {
        "p", "alpha", "n", "scale"},
    "plot": {"csv", "out"},
}


def test_settable_keys_are_pinned():
    from mupt.cli import _COMMANDS, _defaults

    assert set(SETTABLE_KEYS) == set(_COMMANDS)
    drift = {}
    for command in _COMMANDS:
        keys = {k for k, _ in _leaves(_defaults(command))}
        added, removed = keys - SETTABLE_KEYS[command], SETTABLE_KEYS[command] - keys
        if added or removed:
            drift[command] = {"added": sorted(added), "removed": sorted(removed)}
    assert not drift, f"settable keys changed (update SETTABLE_KEYS on purpose): {drift}"
    assert sum(map(len, SETTABLE_KEYS.values())) == 162


def test_geometry_and_train_settings_share_no_field():
    # each setting is read from exactly one place
    from dataclasses import fields

    from mupt.config import PTConfig
    from mupt.training import TrainSettings

    assert not {f.name for f in fields(PTConfig)} & {f.name for f in fields(TrainSettings)}


@pytest.mark.parametrize("command, key, value", [
    ("train", "model.mfvi_iters", "6"),
    ("coord-check", "model.mfvi_iters", "6"),
    ("train", "train.mask_rule", "bert"),
    ("train", "train.output_lr_variant", "scaled"),
    ("train", "train.hidden_lr_scaling", "mup"),
    ("coord-check", "expect_stable", "true"),
    ("energy-probe", "assert_bands", "true"),
    ("energy-probe", "stage", "init"),
    ("plot", "kind", "coord"),
    # a pass threshold is part of its claim: no --set moves it
    ("coord-check", "band", "[0.01,100.0]"),
    ("init-stats", "tolerance", "1.0"),
    ("equivalence-check", "tolerance", "1.0"),
    ("equivalence-check", "tau_tolerance", "1.0"),
    ("energy-probe", "entropy_band", "10.0"),
    ("energy-probe", "energy_band", "10.0"),
    ("transfer-sweep", "max_displacement", "4"),
    ("verify-local-opt", "noise_tol", "0.5"),
    ("verify-local-opt", "require_optimal", "true"),
])
def test_removed_keys_are_unknown(tmp_path, capsys, command, key, value):
    assert _run([command, "--set", f"{key}={value}", "--print-config"], tmp_path) == 1
    assert f"unknown config key: {key}" in capsys.readouterr().err


def test_print_config_applies_overrides(tmp_path, capsys):
    rc = _run(["train", "--set", "train.steps=55", "--print-config"], tmp_path)
    assert rc == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["train"]["steps"] == 55
    assert cfg["model"]["width"] == 64  # untouched default

    # a section-valued --set merges into the section, like a config file
    rc = _run(["train", "--set", 'model={"width": 128}', "--print-config"], tmp_path)
    assert rc == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["model"]["width"] == 128 and cfg["model"]["rank"] == 16

    # a list entry takes the default entry's type, an int standing in for a float
    rc = _run(["transfer-sweep", "--set", "lr_grid=[1, 2.5]", "--print-config"], tmp_path)
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["lr_grid"] == [1, 2.5]


def test_subcommand_defaults_are_the_library_defaults():
    import inspect

    from mupt.cli import _defaults
    from mupt.diagnostics import (EXACT_TOL, INIT_VARIANCE_TOL, InitAudit, coord_check,
                                  energy_entropy_probe, equivalence_check,
                                  init_variance_audit)
    from mupt.search import verify_local_optimality

    for command, fn, keys in [
            ("coord-check", coord_check, "steps iters batch_size hidden_lr_scaling"),
            ("init-stats", init_variance_audit, "min_samples"),
            ("equivalence-check", equivalence_check, "n_tokens"),
            ("energy-probe", energy_entropy_probe, "n_seeds n_tokens"),
            ("verify-local-opt", verify_local_optimality, "p alpha n scale")]:
        params = inspect.signature(fn).parameters
        cfg = _defaults(command)
        assert {k: cfg[k] for k in keys.split()} == {
            k: params[k].default for k in keys.split()}, command
    # the pinned thresholds the CLI applies are the library's defaults too
    assert inspect.signature(equivalence_check).parameters["tolerance"].default == EXACT_TOL
    assert inspect.signature(InitAudit.within).parameters["tol"].default == INIT_VARIANCE_TOL


@pytest.mark.parametrize("assignment", [
    "train.max_eval_chunks=-1", "model.rank=100", "hp.lr=-1.0",
    "model.pos_buckets=10", "train.mask_ratio=0", "train.eval_fraction=0",
])
def test_print_config_refuses_what_the_run_refuses(tmp_path, capsys, assignment):
    assert _run(["train", "--set", assignment], tmp_path) == 1
    run_err = capsys.readouterr().err
    assert run_err.startswith("error: ")
    assert _run(["train", "--set", assignment, "--print-config"], tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err == run_err and not captured.out


@pytest.mark.parametrize("source, value", [
    ("set", "-1"), ("set", "NaN"), ("set", "-Infinity"), ("config", "NaN"), ("config", "Infinity"),
])
def test_a_bad_rms_eps_is_one_error_line_not_a_run(tmp_path, capsys, source, value):
    if source == "set":
        given = ["--set", f"model.rms_eps={value}"]
    else:
        (tmp_path / "eps.json").write_text(f'{{"model": {{"rms_eps": {value}}}}}')
        given = ["--config", str(tmp_path / "eps.json")]
    out = tmp_path / "out"
    argv = ["train", *given, *TINY_MODEL, *TINY_CORPUS, *TINY_TRAIN, "--out-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rms_eps must be finite and >= 0") and err.count("\n") == 1
    assert not out.exists() or not os.listdir(out)


def test_unknown_key_fails_cleanly(tmp_path, capsys):
    assert _run(["train", "--set", "model.depth=4"], tmp_path) == 1
    assert "unknown config key: model.depth" in capsys.readouterr().err
    assert _run(["train", "--set", "nonsense=1"], tmp_path) == 1


def test_set_type_checking(tmp_path, capsys):
    assert _run(["train", "--set", "model.width=hello"], tmp_path) == 1
    assert "model.width" in capsys.readouterr().err
    assert _run(["train", "--set", "model.pos_bias=1"], tmp_path) == 1
    assert "true/false" in capsys.readouterr().err
    assert _run(["train", "--set", "badformat"], tmp_path) == 1


@pytest.mark.parametrize("command, assignment, message", [
    ("train", "train.steps=null", "train.steps cannot be null"),
    ("train", "train.mfvi_iters=null", "train.mfvi_iters cannot be null"),
    ("train", "corpus.synthetic_seed=null", "corpus.synthetic_seed cannot be null"),
    ("train", "train.steps=2.5", "train.steps expects int"),
    ("train", "corpus.path=7", "corpus.path expects str"),
    ("verify-local-opt", "n=abc", "n expects int"),
    ("verify-local-opt", "n=true", "n expects int"),
    ("plot", "out=[1]", "out expects str"),
])
def test_set_rejects_null_and_wrong_types(tmp_path, capsys, command, assignment, message):
    assert _run([command, "--set", assignment, "--print-config"], tmp_path) == 1
    assert message in capsys.readouterr().err


def test_set_accepts_null_only_where_allowed(tmp_path, capsys):
    rc = _run(["verify-local-opt", "--set", "n=null", "--set", "corpus.path=null",
               "--set", "hp.lr=1", "--print-config"], tmp_path)
    assert rc == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["n"] is None and cfg["corpus"]["path"] is None and cfg["hp"]["lr"] == 1
    assert _run(["verify-local-opt", "--set", "n=12", "--print-config"], tmp_path) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 12

    bad = tmp_path / "null.json"
    bad.write_text(json.dumps({"train": {"steps": None}}))
    assert main(["train", "--config", str(bad), "--print-config"]) == 1
    assert "train.steps cannot be null" in capsys.readouterr().err


def test_every_null_default_is_listed_as_nullable():
    from mupt.cli import _COMMANDS, _NULLABLE, _defaults

    null_defaults = set()
    for command in _COMMANDS:
        for where, value in _leaves(_defaults(command)):
            if value is None:
                assert where in _NULLABLE, (command, where)
                null_defaults.add(where)
    assert null_defaults == set(_NULLABLE)


def test_config_file_merge_and_rejection(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"train": {"steps": 7}}))
    rc = main(["train", "--config", str(good), "--print-config"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["train"]["steps"] == 7

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"stepz": 7}}))
    assert main(["train", "--config", str(bad), "--print-config"]) == 1
    assert "unknown config key: train.stepz" in capsys.readouterr().err

    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 1
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["train", "--config", str(notjson)]) == 1


def test_threads_validation(tmp_path, capsys):
    assert _run(["train", "--threads", "0", "--print-config"], tmp_path) == 1
    assert "--threads" in capsys.readouterr().err


def test_train_writes_artifacts(tmp_path, capsys):
    rc = _run(["train", *TINY_MODEL, *TINY_CORPUS, *TINY_TRAIN,
               "--set", "model.vocab_size=259"], tmp_path)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "final eval loss" in out
    names = os.listdir(tmp_path)
    assert any(n.startswith("run-") and n.endswith(".json") for n in names)
    assert any(n.endswith("-loss.svg") for n in names)
    ckpts = [n for n in names if n.endswith(".ckpt")]
    assert len(ckpts) == 1

    from mupt.checkpoint import load_checkpoint
    config, tensors, extra = load_checkpoint(tmp_path / ckpts[0])
    assert config.width == 8
    assert "final_eval_loss" in extra
    assert set(tensors) >= {"S", "U", "V", "B", "W_out"}


def test_missing_corpus_file_is_a_config_error(tmp_path, capsys):
    assert _run(["train", "--set", "corpus.path=/nonexistent/corpus.txt"], tmp_path) == 1
    assert "corpus.path" in capsys.readouterr().err


def test_train_without_checkpoint(tmp_path, capsys):
    rc = _run(["train", *TINY_MODEL, *TINY_CORPUS, *TINY_TRAIN,
               "--set", "model.vocab_size=259", "--set", "save_checkpoint=false"],
              tmp_path)
    assert rc == 0
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".ckpt")]


def test_equivalence_check_small(tmp_path, capsys):
    rc = _run(["equivalence-check", "--set", "widths=[8,16]", "--set", "seeds=2",
               "--set", 'paradigms=["scale_channels"]', "--set", "iters=2"],
              tmp_path)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "max deviation" in out
    assert "temperature cancellation" in out
    assert any(n.startswith("equivalence-") for n in os.listdir(tmp_path))


def test_equivalence_check_gate_fails_on_absurd_tolerance(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(diagnostics, "EXACT_TOL", 1e-30)
    rc = _run(["equivalence-check", "--set", "widths=[8]", "--set", "seeds=1",
               "--set", 'paradigms=["scale_channels"]', "--set", "iters=1"], tmp_path)
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err


def test_coord_check_small(tmp_path, capsys):
    rc = _run(["coord-check", "--set", "model.width=16", "--set", "model.rank=4",
               "--set", "model.topics=32", "--set", "widths=[16,32]",
               "--set", "steps=1", "--set", "batch_size=2", "--set", "iters=2"], tmp_path)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "one-step update ratios" in out
    names = os.listdir(tmp_path)
    assert any(n.startswith("coord-") and n.endswith(".csv") for n in names)
    assert any(n.startswith("coord-") and n.endswith(".json") for n in names)


@pytest.mark.parametrize("command, assignment, message", [
    ("coord-check", "iters=0", "iters >= 1"),
    ("coord-check", "steps=-1", "steps >= 0"),
    ("coord-check", "batch_size=0", "batch_size >= 1"),
    ("coord-check", "widths=[64]", "at least 2 widths"),
    ("coord-check", "widths=[]", "at least 2 widths"),
    ("energy-probe", "widths=[64]", "at least 2 widths"),
    ("energy-probe", "n_seeds=0", "n_seeds must be >= 1"),
    # a check over nothing checks nothing, and a repeated entry nothing new
    ("coord-check", "widths=[64,64]", "must not repeat a width"),
    ("energy-probe", "widths=[64,64]", "must not repeat a width"),
    ("energy-probe", "paradigms=[]", "paradigms must not be empty"),
    ("init-stats", "widths=[]", "widths must not be empty"),
    ("init-stats", "widths=[64,64]", "widths must not repeat an entry"),
    ("equivalence-check", "widths=[]", "widths must not be empty"),
    ("equivalence-check", "widths=[8,8]", "widths must not repeat an entry"),
    ("equivalence-check", 'paradigms=["scale_rank","scale_rank"]', "must not repeat"),
    ("equivalence-check", "paradigms=[]", "paradigms must not be empty"),
    ("equivalence-check", "tau_pairs=[]", "tau_pairs must not be empty"),
    ("equivalence-check", "seeds=0", "seeds must be >= 1"),
    ("transfer-sweep", "widths=[64]", "at least 2 widths"),
    ("transfer-sweep", "widths=[64,64]", "widths must not repeat an entry"),
    ("transfer-sweep", "lr_grid=[0.001,0.001]", "lr_grid must not repeat an entry"),
    # list entries take the type of the default's entries, nested lists its length
    ("equivalence-check", "tau_pairs=[[8]]", "tau_pairs[0] expects 2 entries"),
    ("equivalence-check", 'tau_pairs=[[8,"a"]]', "tau_pairs[0][1] expects int, got str"),
    ("equivalence-check", "tau_pairs=[8]", "tau_pairs[0] expects list, got int"),
    ("equivalence-check", "tau_pairs=[[8,16]]", "1 <= rank <= width"),
    ("equivalence-check", 'paradigms=["scale_channels","scale_depth"]',
     "paradigm must be one of"),
    ("init-stats", 'widths=["a",64]', "widths[0] expects int, got str"),
    ("init-stats", "widths=[true,64]", "widths[0] expects int, got bool"),
    ("coord-check", 'widths=[64,"x"]', "widths[1] expects int, got str"),
    ("transfer-sweep", 'lr_grid=["a","b"]', "lr_grid[0] expects float, got str"),
    ("transfer-sweep", "lr_grid=[0.01,false]", "lr_grid[1] expects float, got bool"),
])
def test_bad_ladder_inputs_are_config_errors(tmp_path, capsys, command, assignment, message):
    assert _run([command, "--set", assignment], tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert not captured.out  # refused before any check or run reported


@pytest.mark.parametrize("assignment", [
    "train.max_eval_chunks=-1", "train.max_eval_chunks=0", "train.weight_decay=-3.0",
    "train.mfvi_iters=-1",
])
def test_bad_train_settings_are_config_errors(tmp_path, capsys, assignment):
    rc = _run(["train", *TINY_MODEL, *TINY_CORPUS, *TINY_TRAIN,
               "--set", "model.vocab_size=259", "--set", assignment], tmp_path)
    assert rc == 1
    assert assignment.split(".")[1].split("=")[0] in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("scaling, code", [("constant", 0), ("mup", 2)])
def test_coord_check_verdict_follows_lr_scaling(tmp_path, monkeypatch, capsys, scaling, code):
    # a band this narrow is left by both runs: only the control expects that
    monkeypatch.setattr(diagnostics, "COORD_BAND", (0.99, 1.01))
    rc = _run(["coord-check", "--set", "model.width=16", "--set", "model.rank=4",
               "--set", "model.topics=32", "--set", "widths=[16,32]",
               "--set", "steps=1", "--set", "batch_size=2", "--set", "iters=2",
               "--set", f"hidden_lr_scaling={scaling}"], tmp_path)
    captured = capsys.readouterr()
    assert f"coord-check[{scaling}]: " in captured.out
    assert "band violations over widths" in captured.out
    assert rc == code, captured.err
    if code:
        assert "expected stability" in captured.err


# the energy slopes need the default ladder and seed count to pass
_ONE_PARADIGM_PROBE = ["energy-probe", "--set", 'paradigms=["scale_channels"]']


@pytest.mark.parametrize("module, name, argv", [
    (diagnostics, "INIT_VARIANCE_TOL", ["init-stats", "--set", "widths=[64]"]),
    (cli, "ENTROPY_SLOPE_BAND", _ONE_PARADIGM_PROBE),
    (cli, "ENERGY_SLOPE_BAND", _ONE_PARADIGM_PROBE),
    (cli, "MAX_DISPLACEMENT", ["transfer-sweep", *TINY_MODEL, *TINY_CORPUS, *TINY_TRAIN,
                               "--set", "model.vocab_size=259", "--set", "widths=[8,16]"]),
])
def test_pinned_thresholds_are_read_as_the_check_runs(tmp_path, monkeypatch, capsys,
                                                      module, name, argv):
    # each check passes at its pinned threshold, and nothing lies within a negative one
    assert _run(argv, tmp_path / "pinned") == 0, capsys.readouterr().out
    monkeypatch.setattr(module, name, -1)
    assert _run(argv, tmp_path / "negative") == 2
    assert capsys.readouterr().err.startswith("check failed: ")


# The divergence recipe of test_nan_eval_loss_is_divergence (its corpus and
# all-ones information weights): at lr 1e79 and 1e80 both width-64 cells end
# at +inf after 2 steps, while width 128 ends finite (about 1e227) and
# diverges too by step 3.
_DIVERGING_SWEEP = [
    "transfer-sweep", "--set", "widths=[64,128]", "--set", "lr_grid=[1e79,1e80]",
    "--set", "corpus.synthetic_bytes=4096", "--set", "corpus.seq_len=16",
    "--set", "train.batch_size=4", "--set", "train.eval_interval=100",
    "--set", "train.max_eval_chunks=8",
    *[arg for w in ("unary", "tern_dep", "tern_head", "binary", "attn", "topic")
      for arg in ("--set", f"hp.w_{w}=1.0")],
]


@pytest.mark.parametrize("steps, lost, best, kinds", [
    (2, "64", {"64": None, "128": 0}, ["csv", "json", "svg"]),
    (3, "64, 128", {"64": None, "128": None}, ["csv", "json"]),  # no finite loss to draw
])
def test_transfer_sweep_fails_on_a_width_where_every_lr_diverged(tmp_path, capsys, steps,
                                                                 lost, best, kinds):
    rc = _run([*_DIVERGING_SWEEP, "--set", f"train.steps={steps}"], tmp_path)
    captured = capsys.readouterr()
    assert rc == 2, captured.out + captured.err
    assert captured.err == f"check failed: every learning rate diverged at width {lost}\n"
    names = sorted(os.listdir(tmp_path))
    assert [n.rsplit(".", 1)[1] for n in names] == kinds
    (json_name,) = [n for n in names if n.endswith(".json")]
    summary = json.loads((tmp_path / json_name).read_text())
    assert summary["best_lr_index"] == best and summary["argmin_displacement"] is None


def test_init_stats_small(tmp_path, capsys):
    rc = _run(["init-stats", "--set", "widths=[64]"], tmp_path)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "zeros exact: True" in out


def test_verify_local_opt_small(tmp_path, capsys):
    rc = _run(["verify-local-opt", *TINY_MODEL, *TINY_CORPUS, *TINY_TRAIN,
               "--set", "model.vocab_size=259", "--set", "p=0.5",
               "--set", "alpha=0.5", "--set", "n=2"], tmp_path)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "confidence" in out
    names = os.listdir(tmp_path)
    assert sum(n.startswith("verify-") and n.endswith(".svg") for n in names) == 2
    assert any(n.startswith("verify-") and n.endswith(".csv") for n in names)


def test_worker_config_error_exits_1(tmp_path, monkeypatch, capfd):
    # the corpus has 259 byte tokens, the model 64: train_run refuses, in a worker
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    rc = _run(["verify-local-opt", *TINY_MODEL, *TINY_CORPUS, *TINY_TRAIN,
               "--set", "model.vocab_size=64", "--set", "p=0.5",
               "--set", "alpha=0.5", "--set", "n=2"], tmp_path)
    err = capfd.readouterr().err
    assert rc == 1
    assert err.startswith("error: corpus vocab 259 != model vocab 64")
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_keyboard_interrupt_exits_130(tmp_path, monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "init-stats", interrupted)
    assert _run(["init-stats"], tmp_path) == 130
    assert capsys.readouterr().err == "interrupted\n"


# Runs verify-local-opt on a pool of two workers, each of which leaves a file
# named by its pid once it has started a job.
_POOLED_VERIFY = """
import os, sys
import mupt.parallel as t
t._usable_cpus = lambda: 2
run_job = t._run_job
def mark_and_run(i):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    return run_job(i)
t._run_job = mark_and_run
from mupt.cli import main
sys.exit(main(["verify-local-opt", "--out-dir", sys.argv[2]]))
"""


def test_ctrl_c_ends_the_pool_and_exits_130(tmp_path):
    marks = tmp_path / "workers"
    marks.mkdir()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    # its own session: the signal goes to the whole process group, as Ctrl-C in
    # a terminal does, and the group shows whether any process outlived it
    proc = subprocess.Popen([sys.executable, "-c", _POOLED_VERIFY, str(marks),
                             str(tmp_path / "out")], env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while len(os.listdir(marks)) < 2 and proc.poll() is None:
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.05)
        time.sleep(0.3)                  # the workers are training
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, out + err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "interrupted"
    with pytest.raises(ProcessLookupError):        # no process is left in the group
        os.killpg(proc.pid, 0)
    assert len(os.listdir(marks)) == 2


def test_plot_roundtrip(tmp_path, capsys):
    from mupt.config import PTConfig
    from mupt.diagnostics import DIAG_HP, coord_check, write_coord_csv
    from mupt.mup import WidthScaler

    scaler = WidthScaler(PTConfig(width=16, rank=4, channels=2, topics=32,
                                  vocab_size=259, pos_bias=False),
                         "scale_channels")
    report = coord_check(scaler, [16, 32], DIAG_HP, steps=1, seed=0,
                         batch_size=2, iters=2)
    csv_path = tmp_path / "coord.csv"
    write_coord_csv(report, csv_path)

    rc = _run(["plot", "--set", f"csv={csv_path}"], tmp_path)
    assert rc == 0, capsys.readouterr().out
    assert (tmp_path / "coord.svg").exists()

    waveform = tmp_path / "waveform.csv"
    waveform.write_text("t,amplitude\n0,1.0\n")
    assert _run(["plot", "--set", f"csv={waveform}"], tmp_path) == 1
    assert "unknown csv header: t,amplitude" in capsys.readouterr().err
    assert _run(["plot"], tmp_path) == 1  # csv missing
    assert _run(["plot", "--set", "csv=/nonexistent.csv"], tmp_path) == 1


def test_csv_headers_are_distinct():
    # plot tells the kind of a CSV from its header alone
    from mupt.diagnostics import COORD_CSV_HEADER
    from mupt.search import VERIFY_CSV_HEADER
    from mupt.training import SWEEP_CSV_HEADER

    assert len({COORD_CSV_HEADER, SWEEP_CSV_HEADER, VERIFY_CSV_HEADER}) == 3


@pytest.mark.parametrize("command, kind, extra", [
    ("transfer-sweep", "sweep", ["--set", "widths=[8,16]", "--set", "train.eval_interval=1"]),
    ("verify-local-opt", "verify", ["--set", "p=0.5", "--set", "alpha=0.5", "--set", "n=3"]),
])
def test_plot_redraws_the_chart_of_the_command(tmp_path, capsys, command, kind, extra):
    # widths [8, 16] sort the other way as labels ("width 16" < "width 8")
    run_dir, plot_dir = tmp_path / "run", tmp_path / "plot"
    rc = main([command, *TINY_MODEL, *TINY_CORPUS, *TINY_TRAIN,
               "--set", "model.vocab_size=259", *extra, "--out-dir", str(run_dir)])
    assert rc == 0, capsys.readouterr().out
    names = sorted(os.listdir(run_dir))
    (csv_name,) = [n for n in names if n.endswith(".csv")]
    assert csv_name.startswith(f"{kind}-")
    (svg_name,) = [n for n in names if n.endswith(".svg") and "rank" not in n]
    out = plot_dir / "replot.svg"
    assert main(["plot", "--set", f"csv={run_dir / csv_name}",
                 "--set", f"out={out}", "--out-dir", str(plot_dir)]) == 0
    assert out.read_bytes() == (run_dir / svg_name).read_bytes()


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    target = tmp_path / "envout"
    monkeypatch.setenv("MUPT_OUT_DIR", str(target))
    rc = main(["equivalence-check", "--set", "widths=[8]", "--set", "seeds=1",
               "--set", 'paradigms=["scale_channels"]', "--set", "iters=1"])
    assert rc == 0
    assert any(n.startswith("equivalence-") for n in os.listdir(target))


@pytest.mark.parametrize("kind, body, message", [
    ("coord", None, "csv is empty"),
    ("coord", "", "no data rows"),
    ("coord", "64,nz,0,1.0\n", "data row 1 has 4 fields, expected 5"),
    ("coord", "64,nz,0,1.0,0.5,7\n", "data row 1 has 6 fields, expected 5"),
    ("coord", "64,nz,zero,1.0,0.5\n", "malformed coord csv"),
    ("sweep", "64,0.01,0,1,eval\n", "data row 1 has 5 fields, expected 6"),
    ("verify", "1,0.2,3.0\n", "data row 1 has 3 fields, expected 4"),
])
def test_plot_rejects_malformed_csv(tmp_path, capsys, kind, body, message):
    from mupt.diagnostics import COORD_CSV_HEADER
    from mupt.search import VERIFY_CSV_HEADER
    from mupt.training import SWEEP_CSV_HEADER

    header = {"coord": COORD_CSV_HEADER, "sweep": SWEEP_CSV_HEADER,
              "verify": VERIFY_CSV_HEADER}[kind]
    path = tmp_path / "bad.csv"
    path.write_text("" if body is None else header + "\n" + body)
    assert _run(["plot", "--set", f"csv={path}"], tmp_path) == 1
    assert message in capsys.readouterr().err
