import json

import pytest

from ringskip.cli import main
from ringskip.model import ModelConfig, init_model
from ringskip.neighborhood import AttentionConfig
from ringskip.trainer import save_checkpoint


def test_validate_config_ok(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps({"d_model": 16, "n_heads": 2, "ring_k": 1,
                             "skip_period": 4}))
    out = tmp_path / "out"
    assert main(["validate-config", str(p), "--out", str(out)]) == 0
    assert (out / "union.csv").exists()
    assert (out / "manifest.json").exists()


def test_validate_config_bad_field(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d_model": 12, "n_heads": 5, "ring_k": 1,
                             "skip_period": 2}))
    assert main(["validate-config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "n_heads" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["validate-config", str(tmp_path / "nope.json")]) == 2


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


def test_oracle_check_small_grid(tmp_path):
    out = tmp_path / "oc"
    assert main(["oracle-check", "--grid", "small", "--out", str(out)]) == 0
    body = (out / "oracle_check.csv").read_text()
    assert body.startswith("n,k,pi,heads,causal,ablation,max_delta,ok")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True


def test_rf_bound_single_point(tmp_path, capsys):
    out = tmp_path / "rf"
    assert main(["rf-bound", "--k", "1", "--pi", "4", "--layers", "4",
                 "--out", str(out)]) == 0
    assert "restricted=12, bound=12, full=16" in capsys.readouterr().out


def test_cost_model_eval_value(tmp_path):
    out = tmp_path / "cm"
    assert main(["cost-model", "--n", "1024", "--k", "4", "--d-h", "64",
                 "--out", str(out)]) == 0
    body = (out / "eval.csv").read_text()
    assert "0.00039321600000000000002" in body or "0.000393216" in body


def test_simulate_ring(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate-ring", "--shards", "4", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["conserved"] is True
    assert summary["formula_elements"] == 2 * 2 * 4 * 8 * 8


def test_global_flags_accepted_after_subcommand(tmp_path):
    out = tmp_path / "g"
    assert main(["cost-model", "--out", str(out), "--seed", "7"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 7


def test_train_then_decode(tmp_path):
    cfg = {
        "model": {"layers": 1, "d_model": 16, "n_heads": 2, "d_ff": 32,
                  "vocab": 16, "max_seq": 16,
                  "attention": {"d_model": 16, "n_heads": 2, "ring_k": 1,
                                "skip_period": 4}},
        "task": {"vocab": 16, "seq_len": 16, "delay": 4},
        "train": {"steps": 3, "batch_size": 4, "eval_interval": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    assert main(["train", "--task", "copy", "--config", str(cfg_path),
                 "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    dec = tmp_path / "dec"
    assert main(["decode", "--ckpt", str(run / "model.ckpt"),
                 "--prompt", "1,2,3", "--steps", "5", "--out", str(dec)]) == 0
    lines = (dec / "tokens.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3 + 5


@pytest.fixture
def small_ckpt(tmp_path):
    att = AttentionConfig(d_model=16, n_heads=2, ring_k=1, skip_period=4)
    cfg = ModelConfig(layers=1, d_model=16, n_heads=2, d_ff=32, vocab=16,
                      max_seq=16, attention=att)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_model(cfg, seed=0), seed=0)
    return path


@pytest.mark.parametrize("prompt,steps,message", [
    ("-1", 4, "outside the vocabulary"),
    ("1,2,99", 4, "outside the vocabulary"),
    ("1,2,3", 14, "exceeds max_seq"),
])
def test_decode_bad_input_exits_2(small_ckpt, tmp_path, capsys, prompt, steps,
                                  message):
    code = main(["decode", "--ckpt", str(small_ckpt), "--prompt", prompt,
                 "--steps", str(steps), "--out", str(tmp_path / "dec")])
    err = capsys.readouterr().err.strip().split("\n")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not (tmp_path / "dec" / "tokens.csv").exists()


def test_decode_fills_max_seq_exactly(small_ckpt, tmp_path):
    dec = tmp_path / "dec"
    assert main(["decode", "--ckpt", str(small_ckpt), "--prompt", "1,2,3",
                 "--steps", "13", "--out", str(dec)]) == 0
    assert len((dec / "tokens.csv").read_text().strip().split("\n")) == 1 + 16


def test_grad_check_writes_passing_summary(tmp_path):
    out = tmp_path / "gc"
    assert main(["grad-check", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["pass"] is True
