"""Command-line interface: config plumbing, exit codes, artifact placement.

Everything runs in-process through main(argv) with tiny geometries; the
expensive default configurations are exercised by the acceptance suite.
"""
import json
import os

import pytest

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


def test_print_config_applies_overrides(tmp_path, capsys):
    rc = _run(["train", "--set", "train.steps=55", "--print-config"], tmp_path)
    assert rc == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["train"]["steps"] == 55
    assert cfg["model"]["width"] == 64  # untouched default


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


def test_equivalence_check_gate_fails_on_absurd_tolerance(tmp_path, capsys):
    rc = _run(["equivalence-check", "--set", "widths=[8]", "--set", "seeds=1",
               "--set", 'paradigms=["scale_channels"]', "--set", "iters=1",
               "--set", "tolerance=1e-30"], tmp_path)
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err


def test_coord_check_small(tmp_path, capsys):
    rc = _run(["coord-check", "--set", "model.width=16", "--set", "model.rank=4",
               "--set", "model.topics=32", "--set", "widths=[16,32]",
               "--set", "steps=1", "--set", "batch_size=2", "--set", "iters=2",
               "--set", "band=[0.05,20.0]", "--set", "update_check=true"], tmp_path)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "one-step update ratios" in out
    names = os.listdir(tmp_path)
    assert any(n.startswith("coord-") and n.endswith(".csv") for n in names)
    assert any(n.startswith("coord-") and n.endswith(".json") for n in names)


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

    rc = _run(["plot", "--set", f"csv={csv_path}", "--set", "kind=coord"], tmp_path)
    assert rc == 0, capsys.readouterr().out
    assert (tmp_path / "coord.svg").exists()

    assert _run(["plot", "--set", f"csv={csv_path}", "--set", "kind=waveform"],
                tmp_path) == 1
    assert _run(["plot", "--set", "kind=coord"], tmp_path) == 1  # csv missing
    assert _run(["plot", "--set", "csv=/nonexistent.csv"], tmp_path) == 1


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    target = tmp_path / "envout"
    monkeypatch.setenv("MUPT_OUT_DIR", str(target))
    rc = main(["equivalence-check", "--set", "widths=[8]", "--set", "seeds=1",
               "--set", 'paradigms=["scale_channels"]', "--set", "iters=1"])
    assert rc == 0
    assert any(n.startswith("equivalence-") for n in os.listdir(target))
