"""The benchmark's workloads: inputs from a seed, one timed operation,
and output checks that run outside the timed region.

Each workload is a class with
  - ``__init__(seed, out_dir)``: build every input from the seed (set-up);
  - ``run()``: one operation, the unit the benchmark times;
  - ``check(output)``: a list of failure messages, empty when correct;
  - ``info(outputs)``: extra facts recorded beside the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from prefalign import checks, cli, training, world
from prefalign.model import encode_context, greedy_decode, init_params, token_logprob_matrix

# Reduced experiment. At this size pretraining is long enough for the base
# model to name objects and make usable mistakes (1000-2000 pretraining steps
# leave no self-response negatives); everything after it is kept small.
EXPERIMENT_SIZE = {"train-n": 100, "steps": 40, "dim": 64, "eval-n": 100,
                   "pretrain-n": 1000, "pretrain-steps": 2500}
EXPERIMENT_METHODS = {"cont_sft", "gt_dpo", "nsft", "sft_kl"}

EVAL_RECORDS = 500          # held-out records per evaluate_model pass
EVAL_DIM = 64
MAX_DECODE_LEN = 16
DECODE_CHECK_SAMPLE = 25    # contexts whose decodes are checked against a full forward
LOGPROB_RTOL = 1e-10

CHECK_SEEDS = 2             # check-theory --seeds


def _dispatch(argv):
    """Run one CLI subcommand in-process; returns (exit code, its stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    return code, buf.getvalue()


def _finite_numbers(obj):
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return math.isfinite(obj)
    return True


class Experiment:
    """`prefalign experiment` end to end at a reduced size."""

    def __init__(self, seed, out_dir):
        self.report_path = Path(out_dir) / "experiment-report.json"
        self.argv = ["experiment", "--seed", str(seed), "--eval-seed", str(31337 + seed),
                     "--out", str(self.report_path)]
        for key, value in EXPERIMENT_SIZE.items():
            self.argv += [f"--{key}", str(value)]

    def run(self):
        code, _ = _dispatch(self.argv)
        return code, self.report_path.read_bytes() if code == 0 else b""

    def check(self, output):
        code, raw = output
        if code != 0:
            return [f"experiment exited with code {code}"]
        report = json.loads(raw)
        failures = []
        if set(report.get("methods", {})) != EXPERIMENT_METHODS:
            failures.append(f"methods {sorted(report.get('methods', {}))} != {sorted(EXPERIMENT_METHODS)}")
        if not _finite_numbers(report):
            failures.append("report holds a non-finite value")
        if not report.get("n_self_response", 0) > 0:
            failures.append("degenerate run: no self-response negatives")
        if not report.get("base_eval", {}).get("chair_s", 0) > 0:
            failures.append("degenerate run: base chair_s is 0")
        return failures

    def info(self, outputs):
        digests = sorted({hashlib.sha256(raw).hexdigest() for _, raw in outputs})
        report = json.loads(outputs[-1][1]) if outputs[-1][0] == 0 else {}
        return {"argv": self.argv, "report_sha256": digests,
                "n_self_response": report.get("n_self_response"),
                "base_chair_s": report.get("base_eval", {}).get("chair_s")}


class EvalDecode:
    """`training.evaluate_model` over held-out records: greedy decode,
    chosen/rejected scoring and KL to an initial model. Forward only."""

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        model_seed, initial_seed, data_seed = (int(s) for s in rng.integers(0, 2**31, size=3))
        self.records = world.make_preference_dataset(EVAL_RECORDS, data_seed)
        self.params = init_params(world.VOCAB_SIZE, EVAL_DIM, world.latent_dim(), seed=model_seed)
        self.initial = init_params(world.VOCAB_SIZE, EVAL_DIM, world.latent_dim(), seed=initial_seed)
        self._expected = self._decode_check = None

    def run(self):
        return training.evaluate_model(self.params, self.records, initial_model=self.initial,
                                       max_decode_len=MAX_DECODE_LEN)

    def _decode_failures(self):
        failures = []
        for rec in self.records[:DECODE_CHECK_SAMPLE]:
            ctx = rec.to_sample().context
            x = encode_context(self.params, ctx.image_latent, ctx.question)
            out = greedy_decode(self.params, x, MAX_DECODE_LEN)
            argmax = np.argmax(token_logprob_matrix(self.params, x, out).values, axis=1)
            stops = out[-1] == self.params.eos_id or len(out) == MAX_DECODE_LEN
            if list(argmax) != out or not stops or self.params.eos_id in out[:-1]:
                failures.append(f"record {rec.seed}: decode {out} is not the greedy argmax path")
        return failures

    def check(self, output):
        if self._expected is None:
            chosen, rejected = training.mean_sequence_logprobs(self.params, self.records)
            self._expected = {"mean_chosen_logprob": chosen, "mean_rejected_logprob": rejected}
            self._decode_check = self._decode_failures()
        failures = list(self._decode_check)
        for key, want in self._expected.items():
            got = output[key]
            if not abs(got - want) <= LOGPROB_RTOL * abs(want):
                failures.append(f"{key} {got!r} != mean_sequence_logprobs {want!r}")
        if not _finite_numbers(output):
            failures.append("evaluate_model returned a non-finite value")
        return failures

    def info(self, outputs):
        return {"records": len(self.records), "evaluate_model": outputs[-1]}


class IdentityChecks:
    """`prefalign check-theory`: the loss and gradient identity suite.

    Its instances are fixed by the program (tiny_instance(s) for s in
    range(seeds)); the workload seed is recorded but selects nothing.
    """

    def __init__(self, seed, out_dir):
        self.argv = ["check-theory", "--seeds", str(CHECK_SEEDS)]
        self.names = [name for name, _ in checks.CHECKS]

    def run(self):
        return _dispatch(self.argv)

    def check(self, output):
        code, text = output
        failures = [] if code == 0 else [f"check-theory exited with code {code}"]
        lines = text.splitlines()
        passed = [line.split(":")[0][len("PASS "):] for line in lines if line.startswith("PASS ")]
        if passed != self.names:
            failures.append(f"expected PASS for {self.names}, got: {lines}")
        return failures

    def info(self, outputs):
        return {"argv": self.argv, "output": outputs[-1][1].splitlines()}


WORKLOADS = {"experiment": Experiment, "eval_decode": EvalDecode, "identity_checks": IdentityChecks}
