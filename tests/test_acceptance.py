"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line with the measured quantity. Tolerances are pinned here and
must not be loosened."""

import json
import time

import numpy as np
from scipy.stats import binomtest

from ringskip.checks import (
    oracle_grid,
    run_decode_check,
    run_kl_random_scores,
    run_oracle_check,
    run_stacked_grad_check,
)
from ringskip.cli import main
from ringskip.model import ModelConfig, model_forward
from ringskip.neighborhood import AttentionConfig
from ringskip.numerics import Rng
from ringskip.perf import (
    CostParams,
    comm_volume,
    cost_model_eval,
    fit_cost_constants,
    ring_simulate,
    work_report,
)
from ringskip.rfield import rf_report
from ringskip.trainer import IGNORE_INDEX, TaskSpec, TrainConfig, make_batch, train


def report(capsys, line, ok):
    with capsys.disabled():
        print(f"\n{line} -> {'PASS' if ok else 'FAIL'}")
    assert ok, line


def test_criterion_1_oracle_equivalence(capsys):
    grid = oracle_grid("full")
    t0 = time.perf_counter()
    res = run_oracle_check(grid)
    dt = time.perf_counter() - t0
    ok = res.checked >= 600 and res.max_delta < 1e-10 and dt < 120
    report(capsys, f"[criterion 1] sparse vs dense oracle: {res.checked} "
                   f"configs, max |delta| = {res.max_delta:.3e} "
                   f"(< 1e-10), {dt:.1f}s", ok)


def test_criterion_2_gradient_correctness(capsys):
    t0 = time.perf_counter()
    errors = run_stacked_grad_check(seed=0)  # 2 blocks, n=6, d=16, H=2
    dt = time.perf_counter() - t0
    worst = max(errors.values())
    ok = worst < 1e-6 and dt < 60
    report(capsys, f"[criterion 2] finite-difference gradients: "
                   f"{len(errors)} tensors, worst rel error = {worst:.3e} "
                   f"(< 1e-6), {dt:.1f}s", ok)


def test_criterion_3_restricted_propagation_bound(capsys):
    csv = rf_report(range(1, 5), (2, 4, 8, 16), range(1, 11))
    rows = [r.split(",") for r in csv.strip().split("\n")[1:]]
    holds = all(int(r[4]) <= int(r[5]) for r in rows)
    equal = all(int(r[4]) == int(r[5]) for r in rows)  # interior queries
    example = next(r for r in rows if r[:3] == ["1", "4", "4"])
    full_recorded = int(example[3]) > int(example[5])  # exceeds, documented
    ok = holds and equal and full_recorded
    report(capsys, f"[criterion 3] restricted reach <= k*L + stride*ceil(log2 L) "
                   f"at {len(rows)}/160 grid points (equality at interior "
                   f"points); full BFS reach at k=1, stride=4, L=4 is "
                   f"{example[3]} vs bound {example[5]}", ok)


def test_criterion_4_linear_complexity(capsys):
    configs = []
    for n in (256, 512, 1024):
        configs.append((AttentionConfig(d_model=16, n_heads=2, ring_k=4,
                                        skip_period=16, causal=True), n))
    csv = work_report(configs)
    rows = [r.split(",") for r in csv.strip().split("\n")[1:]]
    ratios = [float(r[10]) for r in rows if r[10]]
    ok = (len(ratios) == 2 and all(1.9 <= x <= 2.1 for x in ratios)
          and all(int(r[8]) <= int(r[9]) for r in rows))
    report(capsys, f"[criterion 4] score-count doubling ratios "
                   f"{[f'{x:.3f}' for x in ratios]} in [1.9, 2.1]; stored "
                   f"activations within the n*(2k+3)*d_h*H + n*H bound", ok)


def test_criterion_5_decode_consistency(capsys):
    worst = 0.0
    checked = 0
    for layers in (1, 2, 3):
        for k, pi in ((2, 8), (1, 4)):
            att = AttentionConfig(d_model=16, n_heads=2, ring_k=k,
                                  skip_period=pi, causal=True)
            cfg = ModelConfig(layers=layers, d_model=16, n_heads=2, d_ff=32,
                              vocab=11, max_seq=48, attention=att)
            worst = max(worst, run_decode_check(cfg, seq_len=40))
            checked += 1
    ok = worst < 1e-8
    report(capsys, f"[criterion 5] incremental decode vs full forward: "
                   f"{checked} configs x 40 positions, max |delta logits| = "
                   f"{worst:.3e} (< 1e-8)", ok)


def test_criterion_6_skip_path_necessity(capsys):
    def model(ablation):
        att = AttentionConfig(d_model=64, n_heads=4, ring_k=2, skip_period=8,
                              causal=True, ablation=ablation)
        return ModelConfig(layers=2, d_model=64, n_heads=4, d_ff=128,
                           vocab=16, max_seq=32, attention=att)

    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=32, delay=8)

    full = train(model("full"), task,
                 TrainConfig(steps=3000, batch_size=16, eval_interval=50,
                             seed=0, stop_accuracy=0.99))
    full_ok = full.final_accuracy >= 0.99

    # delay 8 > k*L = 4: structurally unreachable, so a reduced budget
    # (still several times the full model's convergence horizon) suffices
    no_skip = train(model("no_skip"), task,
                    TrainConfig(steps=600, batch_size=16, eval_interval=100,
                                seed=0))
    rng = Rng(777)
    correct = total = 0
    while total < 10000:
        inp, tgt = make_batch(task, rng, 16)
        logits, _ = model_forward(inp, no_skip.params, model("no_skip"))
        keep = tgt != IGNORE_INDEX
        correct += int((logits.argmax(axis=-1)[keep] == tgt[keep]).sum())
        total += int(keep.sum())
    acc = correct / total
    chance_band = 1.0 / 16 + 0.05
    p = binomtest(correct, total, chance_band, alternative="less").pvalue
    no_skip_ok = acc <= chance_band and p < 0.01
    ok = full_ok and no_skip_ok
    report(capsys, f"[criterion 6] skip necessity: full model accuracy "
                   f"{full.final_accuracy:.4f} (>= 0.99) after "
                   f"{full.metrics[-1]['step'] + 1} steps; no_skip accuracy "
                   f"{acc:.4f} over {total} tokens, at chance "
                   f"(<= {chance_band:.4f}, binomial p = {p:.2e} < 0.01)", ok)


def test_criterion_7_stabilization_kl(capsys):
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    means = [run_kl_random_scores(eps=eps, seeds=100)[0] for eps in eps_list]
    monotone = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    mean_ref = means[eps_list.index(1e-4)]
    # vanishing clip with a clamp that never binds: KL collapses to zero
    tiny_mean, _ = run_kl_random_scores(eps=1e-15, clamp=1e9, seeds=20)
    ok = monotone and mean_ref < 2e-2 and tiny_mean < 1e-10
    report(capsys, f"[criterion 7] stabilization KL: zero in the vanishing "
                   f"limit ({tiny_mean:.1e}), nonincreasing in the clip "
                   f"width, mean {mean_ref:.3e} at 1e-4 (< 2e-2, 100 seeds, "
                   f"n=256)", ok)


def test_criterion_8_cost_and_comm_evaluators(capsys):
    cp = CostParams(gamma_tc=1e9, gamma_hbm=1e9, gamma_net=1e9, gamma_act=1e9)
    t = cost_model_eval(cp, 1024, 4, 64)
    exact = t == 3.93216e-4

    true = (2.0, 3.0, 5.0)
    cps, rows = [], []
    for i, (n, k, d_h) in enumerate([(128, 1, 8), (256, 2, 8), (512, 4, 16),
                                     (1024, 1, 32), (256, 8, 8)]):
        c = cp if i % 2 == 0 else CostParams(gamma_tc=1e9, gamma_hbm=1e9,
                                             gamma_net=1e9, gamma_act=2e9)
        secs = (true[0] * n * k * d_h / c.gamma_tc
                + true[1] * n * d_h / min(c.gamma_hbm, c.gamma_net)
                + true[2] * n * d_h / c.gamma_act)
        cps.append(c)
        rows.append((n, k, d_h, secs))
    c1, c2, c3, _ = fit_cost_constants(rows, cps)
    fit_ok = max(abs(c1 - 2), abs(c2 - 3), abs(c3 - 5)) < 1e-9

    vol_ok = comm_volume(2, 4, 8, 16) == 2048

    att = AttentionConfig(d_model=32, n_heads=4, ring_k=2, skip_period=8,
                          causal=True)
    conserved = True
    for shards, n in ((2, 16), (4, 32), (4, 30), (8, 64)):
        rep = ring_simulate(shards, n, att, batch=2, heads=4, d_h=8)
        conserved &= rep.tallied_elements == rep.received_elements

    ok = exact and fit_ok and vol_ok and conserved
    report(capsys, f"[criterion 8] evaluators: model value {t:.6e} == "
                   f"3.93216e-4 exactly; fit recovered "
                   f"({c1:.10f}, {c2:.10f}, {c3:.10f}); volume example 2048; "
                   f"simulator conserves every element", ok)


def test_criterion_9_determinism(capsys, tmp_path):
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "model": {"layers": 1, "d_model": 16, "n_heads": 2, "d_ff": 32,
                  "vocab": 16, "max_seq": 16,
                  "attention": {"d_model": 16, "n_heads": 2, "ring_k": 1,
                                "skip_period": 4}},
        "task": {"vocab": 16, "seq_len": 16, "delay": 4},
        "train": {"steps": 5, "batch_size": 4, "eval_interval": 2},
    }))
    jobs = [
        ["oracle-check", "--grid", "small"],
        ["rf-bound"],
        ["cost-model"],
        ["bench"],
        ["kl-check", "--seeds", "5"],
        ["train", "--task", "copy", "--config", str(train_cfg)],
    ]
    mismatches = []
    compared = 0
    for job in jobs:
        a = tmp_path / ("a_" + job[0])
        b = tmp_path / ("b_" + job[0])
        assert main(job + ["--seed", "3", "--out", str(a)]) == 0
        assert main(job + ["--seed", "3", "--out", str(b)]) == 0
        for fa in sorted(a.glob("*.csv")):
            compared += 1
            if fa.read_bytes() != (b / fa.name).read_bytes():
                mismatches.append(f"{job[0]}/{fa.name}")
    ok = compared >= len(jobs) and not mismatches
    report(capsys, f"[criterion 9] determinism: {compared} CSV bodies "
                   f"byte-identical across seeded reruns"
                   + (f"; mismatches {mismatches}" if mismatches else ""), ok)
