"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package and prints a
single PASS/FAIL line (visible under pytest -s or in failure output).
The continual-alignment experiment is executed once per session at its
full size and shared across the tests that read it.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from prefalign import checks, world
from prefalign.cli import dispatch
from prefalign.constructor import (
    RuleBasedOracle,
    balance_yes_no,
    construct_conversation,
)
from prefalign.metrics import CaptionEval, chair
from prefalign.training import ExperimentSpec, run_experiment

FIXTURE = Path(__file__).parent / "fixtures" / "experiment_seed0.json"


def _criterion(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} acceptance: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def experiment():
    return run_experiment(ExperimentSpec())


def test_loss_identity_holds_and_is_fast():
    start = time.perf_counter()
    ok, detail = checks.check_logit_sft_identity(seeds=200, tol=1e-10)
    elapsed = time.perf_counter() - start
    _criterion("preference-logit equals SFT loss difference, 200 instances",
               ok and elapsed < 10.0, f"{detail}; {elapsed:.2f}s")


def test_reference_model_contributes_constants_only():
    ok, detail = checks.check_frozen_reference_gradients(seeds=100, tol=1e-10)
    _criterion("gradients identical with and without frozen reference", ok, detail)


def test_gradient_decomposition_and_finite_differences():
    start = time.perf_counter()
    ok1, d1 = checks.check_gradient_decomposition(seeds=100, tol=1e-6)
    ok2, d2 = checks.check_losses_vs_finite_diff(seeds=100, tol=1e-5)
    elapsed = time.perf_counter() - start
    _criterion("preference gradient decomposes into scaled SFT gradients; "
               "all losses match finite differences", ok1 and ok2 and elapsed < 10.0,
               f"{d1}; {d2}; {elapsed:.2f}s")


def test_update_rate_ratio_closed_form():
    ok1, d1 = checks.check_update_rate_ratio(points=1000, tol=1e-10)
    ok2, d2 = checks.check_partials_vs_finite_diff(points=200, tol=1e-7)
    _criterion("update-rate ratio equals t2/t1 and partials match finite differences",
               ok1 and ok2, f"{d1}; {d2}")


def test_closed_form_anchors():
    ok, detail = checks.check_closed_form_anchors()
    _criterion("ln 2, L ln V, and zero-KL anchors", ok, detail)


def test_chair_reference_values_and_boundaries():
    r = chair([CaptionEval({1, 2, 3}, {1, 2})])
    exact = (r.chair_i == 1.0 / 3.0 and r.chair_s == 1.0)
    lo = chair([CaptionEval({1}, {1, 2})])
    hi = chair([CaptionEval({9}, {1})])
    bounds = ((lo.chair_i, lo.chair_s) == (0.0, 0.0)
              and (hi.chair_i, hi.chair_s) == (1.0, 1.0))
    _criterion("CHAIR worked example exact and boundary cases",
               exact and bounds,
               f"i={r.chair_i} s={r.chair_s}")


def _balance_achievable(n_yes, n_no, low, high):
    if n_yes + n_no == 0:
        return False
    for keep in range(n_no + 1):
        frac = n_yes / (n_yes + keep)
        if low <= frac <= high:
            return True
    return False


def test_error_identification_and_negative_construction():
    oracle = RuleBasedOracle()
    records = world.make_preference_dataset(500, 123)
    tp = fp = fn = 0
    yes_id, no_id = world.TOKEN_TO_ID["yes"], world.TOKEN_TO_ID["no"]
    balanced_ok = True
    for rec in records:
        errors = oracle.identify(rec.rejected, rec.chosen)
        got = sorted((e.category, e.original if e.original else e.replacement)
                     for e in errors)
        want = sorted((c.category, c.original if c.original else c.replacement)
                      for c in rec.corruptions)
        matched = len([g for g in got if g in want])
        tp += matched
        fp += len(got) - matched
        fn += len(want) - matched

        conv = construct_conversation(errors, rec.scene, rec.to_sample().context.image_latent, k=5)
        n_yes = sum(1 for t in conv.turns if t.answer[0] == yes_id)
        n_no = sum(1 for t in conv.turns if t.answer[0] == no_id)
        out = balance_yes_no(conv, 0.4, seed=rec.seed)
        if _balance_achievable(n_yes, n_no, 0.4, 0.6):
            kept = [t for t in out.turns if t.answer[0] in (yes_id, no_id)]
            frac = sum(1 for t in kept if t.answer[0] == yes_id) / len(kept)
            balanced_ok = balanced_ok and 0.4 <= frac <= 0.6

    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    _criterion("rule-based error identification exact on 500 samples; "
               "yes/no balancing lands in band",
               precision == 1.0 and recall == 1.0 and balanced_ok,
               f"precision={precision} recall={recall}")


def test_continual_alignment_directional_results(experiment):
    m = experiment["methods"]
    cont, dpo, nsft = m["cont_sft"], m["gt_dpo"], m["nsft"]
    a = (nsft["eval"]["chair_i"] < cont["eval"]["chair_i"]
         and dpo["eval"]["chair_i"] < cont["eval"]["chair_i"])
    b = dpo["train_delta_rejected_logprob"] < nsft["train_delta_rejected_logprob"]
    c = nsft["train_delta_chosen_logprob"] > dpo["train_delta_chosen_logprob"]
    d = dpo["fraction_ratio_below_1"] > 0.9
    _criterion("held-out hallucination drops under negative supervision and "
               "preference training; preference training suppresses rejected "
               "sequences hardest; negative supervision lifts chosen sequences "
               "hardest; update-rate ratio below 1 on >90% of steps",
               a and b and c and d,
               f"chair_i cont={cont['eval']['chair_i']:.4f} "
               f"dpo={dpo['eval']['chair_i']:.4f} nsft={nsft['eval']['chair_i']:.4f}; "
               f"dRej dpo={dpo['train_delta_rejected_logprob']:.3f} "
               f"nsft={nsft['train_delta_rejected_logprob']:.3f}; "
               f"dCho nsft={nsft['train_delta_chosen_logprob']:.3f} "
               f"dpo={dpo['train_delta_chosen_logprob']:.3f}; "
               f"frac_ratio<1={dpo['fraction_ratio_below_1']:.3f}")


def test_kl_regularization_limits_drift(experiment):
    m = experiment["methods"]
    drift_reg = m["sft_kl"]["eval"]["kl_drift"]
    drift_plain = m["cont_sft"]["eval"]["kl_drift"]
    _criterion("KL-regularized SFT ends with lower per-token drift than plain SFT",
               drift_reg < drift_plain,
               f"sft_kl={drift_reg:.6f} cont_sft={drift_plain:.6f}")


def _numeric_leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _numeric_leaves(obj[k], f"{prefix}/{k}")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix, float(obj)


def test_experiment_matches_frozen_reference(experiment):
    frozen = json.loads(FIXTURE.read_text())
    got = dict(_numeric_leaves(experiment))
    want = dict(_numeric_leaves(frozen))
    same_keys = set(got) == set(want)
    worst = 0.0
    if same_keys:
        for key, w in want.items():
            g = got[key]
            worst = max(worst, abs(g - w) / max(abs(w), 1e-12))
    _criterion("seeded experiment reproduces the frozen reference report",
               same_keys and worst <= 1e-9,
               f"{len(want)} values, max rel dev {worst:.3e}")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_every_subcommand_is_byte_reproducible(tmp_path):
    data = tmp_path / "data.jsonl"
    _run_cli(["gen-world", "--n", "8", "--seed", "3", "--out", str(data)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch_size": 4, "dim": 16}))

    def invocation(tag):
        d = tmp_path / tag
        d.mkdir()
        runs = [
            (["check-theory", "--seeds", "2"], []),
            (["gen-world", "--n", "8", "--seed", "3", "--out", str(d / "w.jsonl")],
             [d / "w.jsonl"]),
            (["construct", "--in", str(data), "--out", str(d / "c.jsonl"),
              "--k", "3", "--seed", "1"], [d / "c.jsonl"]),
            (["train", "--config", str(cfg), "--data", str(data), "--method",
              "nsft", "--steps", "3", "--seed", "0", "--out", str(d / "m.json"),
              "--log-csv", str(d / "m.csv")], [d / "m.json", d / "m.csv"]),
            (["experiment", "--seed", "0", "--train-n", "3", "--steps", "2",
              "--dim", "16", "--eval-n", "3", "--eval-seed", "5",
              "--pretrain-n", "6", "--pretrain-steps", "3",
              "--out", str(d / "exp.json")], [d / "exp.json"]),
        ]
        blobs = []
        for argv, artifacts in runs:
            # status lines echo the output path, which differs between the
            # two run directories by construction; artifacts must not
            stdout = _run_cli(argv).replace(str(d), "<outdir>")
            blobs.append((stdout, [p.read_bytes() for p in artifacts]))
        return blobs

    first, second = invocation("run1"), invocation("run2")
    identical = all(a == b for a, b in zip(first, second)) and len(first) == len(second)
    _criterion("all five subcommands byte-identical across repeat runs with "
               "the same seeds", identical, "5 subcommands x 2 runs")
