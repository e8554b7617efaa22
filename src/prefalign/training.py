"""Continual-alignment training loop on the synthetic world.

Runs cont-SFT, GT-DPO, nSFT and the KL-regularized variants from a
shared initialization with plain SGD and a cosine schedule, logging the
per-step quantities the theory probes consume.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, astuple, dataclass, fields
from numbers import Integral

import numpy as np

from . import autodiff as ad
from .autodiff import backward
from .constructor import nsft_conversation, qa_turns_from_clauses
from .data import Conversation, StepRecord, write_csv
from .losses import (
    batch_sft_loss,
    dpo_margin,
    dpo_margin_loss,
    packed_logprobs,
    pair_logprobs,
)
from .metrics import CaptionEval, chair, object_recall
from .theory import bias_trajectory_report
from .model import (
    greedy_decode_batch,
    init_params,
    pack,
    params_hash,
)
from .world import (
    EOS_ID,
    OBJECT_TOKEN_BASE,
    OBJECTS,
    VOCAB_SIZE,
    PreferenceRecord,
    diff_captions,
    latent_dim,
    make_preference_dataset,
    parse_caption,
)

__all__ = [
    "METHODS",
    "TrainConfig",
    "TrainingDivergedError",
    "cosine_lr",
    "build_training_views",
    "batch_loss",
    "train",
    "make_base_model",
    "pretrain_base",
    "self_response_records",
    "mean_sequence_logprobs",
    "evaluate_model",
    "ExperimentSpec",
    "run_experiment",
    "write_trajectory_log_csv",
]

# The one place a method is defined. `row` follows each chosen caption: None, "rejected"
# (which selects the DPO margin loss over frozen-reference scores) or "constructed" (nSFT's
# conversation). `kl` runs the reference every step for the KL term. `recipe` holds the
# experiment's TrainConfig settings; None leaves the method out. Step sizes differ per method
# on purpose: the nSFT loss sums two conversations (roughly triple the token count of plain
# SFT), and preference-logit losses are conventionally trained with much smaller steps than
# SFT, so a shared learning rate would compare a tuned method against broken ones.
Method = namedtuple("Method", "row kl recipe")
METHODS = {
    "cont_sft": Method(None, False, dict(lr=1e-2)),
    "gt_dpo": Method("rejected", False, dict(lr=5e-4, beta=2.0)),
    "nsft": Method("constructed", False, dict(lr=2e-3)),
    "sft_kl": Method(None, True, dict(lr=1e-2, kl_weight=1.0)),
    "nsft_kl": Method("constructed", True, None),
}

# Records per packed scoring forward: its (N, V) log-prob rows dominate
# memory. Over 5 evaluations of 500 records, chunks of 16 and 32 raised peak
# RSS by 3.3 and 4.7 MB (2.1 MB at 8) and cut scoring time by only 13% and 19%.
_CHUNK = 8
# Contexts per decode call; a step holds one row per live context. Decoding
# 500 records to 16 tokens took 121, 53, 32, 25, 32 ms and raised peak RSS by
# 0.1, 0.4, 0.5, 1.2, 3.8 MB at 8, 32, 64, 128, 500 (2-core x86, 1 BLAS thread).
_DECODE_CHUNK = 64

_OBJECT_TOKEN_RANGE = range(OBJECT_TOKEN_BASE, OBJECT_TOKEN_BASE + len(OBJECTS))


def _check_floors(config, **lows):
    """ValueError naming `<Class>.<field>` below its floor, a bool, or, under an int floor,
    not an int."""
    for name, low in lows.items():
        value, field = getattr(config, name), f"{type(config).__name__}.{name}"
        if type(value) is bool or isinstance(low, int) and not isinstance(value, Integral):
            kind = "an integer" if isinstance(low, int) else "a number"
            raise ValueError(f"{field} must be {kind}, got {value!r}")
        if value < low:
            raise ValueError(f"{field} must be >= {low:g}, got {value}")


class TrainingDivergedError(RuntimeError):
    def __init__(self, step):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


@dataclass
class TrainConfig:
    method: str = "cont_sft"
    batch_size: int = 16
    lr: float = 1e-2
    beta: float = 0.1
    kl_weight: float = 0.1
    steps: int = 500
    seed: int = 0
    dim: int = 16
    n_blocks: int = 2
    construct_k: int = 5
    yes_floor: float = 0.4

    def __post_init__(self):
        if self.method not in (known := tuple(METHODS)):
            raise ValueError(f"unknown method {self.method!r}; choose from {known}")
        _check_floors(self, steps=0, batch_size=1, lr=0.0, beta=0.0, seed=0, kl_weight=0.0,
                      construct_k=1, n_blocks=0, dim=8, yes_floor=0.0)
        for name in ("lr", "beta", "kl_weight"):  # NaN passes every comparison
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"TrainConfig.{name} must be finite, got {value}")
        if self.beta <= 0 or not 0 <= self.yes_floor <= 1:
            raise ValueError("need beta > 0 and 0 <= yes_floor <= 1")


def cosine_lr(step, total, base_lr):
    """base_lr * (1 + cos(pi * step / total)) / 2, nonincreasing in step."""
    if not 0 <= step <= total or total < 1:
        raise ValueError("need 0 <= step <= total and total >= 1")
    return base_lr * (1.0 + math.cos(math.pi * step / total)) / 2.0


def _caption_rows(samples):
    """Each sample's (chosen, rejected) caption rows, flattened once."""
    return [tuple(s.caption_conversation(y).flatten() for y in (s.chosen, s.rejected))
            for s in samples]


def build_training_views(records, config: TrainConfig, reference=None):
    """Per-record training rows, each flattened once: a view is the tuple of
    the chosen caption, the rejected caption and, where the method's row is
    "constructed", nSFT's conversation. Returns (views, ref_scores), where
    ref_scores is an (R, 2) array of the frozen reference's chosen and
    rejected sequence log-probs where the row is "rejected" (ValueError
    without `reference`), and None otherwise."""
    row = METHODS[config.method].row
    if row == "rejected" and reference is None:
        raise ValueError(f"{config.method} training views need a reference model")
    samples = [rec.to_sample() for rec in records]
    views = _caption_rows(samples)
    if row == "constructed":
        views = [rows + (nsft_conversation(rec, s.context.image_latent, config.construct_k,
                                           config.yes_floor, rec.seed).flatten(),)
                 for rows, rec, s in zip(views, records, samples)]
    if row != "rejected":
        return views, None
    return views, np.column_stack(_score_pairs(reference, samples)[:2])


def batch_loss(params, reference, views, config: TrainConfig, ref_scores=None):
    """One step's batch-mean loss as one packed graph, plus per-sample
    logging arrays: chosen and rejected sequence log-probs for every
    method, and t1, t2 and the margin where the rejected row selects it.

    Every method packs the n chosen captions first. With the rejected row
    the rejected captions follow them, and the loss is the margin between
    the two over `ref_scores`' rows; otherwise nSFT's conversations follow,
    and the loss is the masked SFT loss summed over every row, plus the
    entry's KL to the reference on the chosen ones."""
    method = METHODS[config.method]
    n = len(views)
    # the SFT family trains every row but the rejected caption, which it only logs
    rest = 1 if method.row == "rejected" else 2
    rows = [v[0] for v in views] + [r for v in views for r in v[rest:]]
    position_lp, lp_c, lp_rest, kl = packed_logprobs(params, pack(params, *zip(*rows)), n,
                                                     reference if method.kl else None)

    if method.row == "rejected":
        ref_c, ref_r = ref_scores[:, 0], ref_scores[:, 1]
        p = dpo_margin(lp_c, lp_rest, ref_c, ref_r)
        loss = ad.tsum(dpo_margin_loss(p, config.beta)) / n
        return loss, {"lp_c": lp_c.values, "lp_r": lp_rest.values, "p_dpo": p.values,
                      "t1": np.exp(lp_c.values - ref_c), "t2": np.exp(lp_rest.values - ref_r)}

    loss = -ad.tsum(position_lp)
    if kl is not None:
        loss = ad.add(loss, config.kl_weight * ad.tsum(kl))
    frozen = params.frozen()
    lp_r = packed_logprobs(frozen, pack(frozen, *zip(*[v[1] for v in views])), n)[1].values
    return loss / n, {"lp_c": lp_c.values, "lp_r": lp_r}


def _sgd_step(tensors, loss, lr, step):
    """One SGD update on the batch-mean loss; returns its value."""
    loss_value = loss.item()
    if not math.isfinite(loss_value):
        raise TrainingDivergedError(step)
    grads = backward(loss, tensors)
    for t in tensors:
        t.values -= lr * grads[t]
    return loss_value


def _mean(values):
    """Left-to-right mean of a sequence of floats."""
    return sum(float(v) for v in values) / len(values)


def train(config: TrainConfig, records, init_model=None):
    """Train one method; deterministic in (config, records, init_model).

    Returns (final ModelParams, list of StepRecord). The reference model is a
    frozen copy of the initial parameters and is never mutated. Raises
    ValueError when `init_model`'s dim or block count is not the config's.
    """
    if init_model is None:
        init_model = init_params(VOCAB_SIZE, config.dim, latent_dim(),
                                 n_blocks=config.n_blocks, seed=config.seed)
    got, want = (init_model.dim, len(init_model.blocks)), (config.dim, config.n_blocks)
    if got != want:
        raise ValueError(f"init_model (dim, n_blocks) = {got}, but the config asks for {want}")
    params = init_model.clone(requires_grad=True)
    reference = init_model.clone(requires_grad=False)
    ref_hash = params_hash(reference)

    views, ref_scores = build_training_views(records, config, reference=reference)
    tensors = params.tensors()
    rng = np.random.default_rng(config.seed)
    log = []

    for step in range(config.steps):
        lr = cosine_lr(step, config.steps, config.lr)
        idx = rng.integers(0, len(views), size=config.batch_size)
        batch = [views[i] for i in idx.tolist()]
        loss, stats = batch_loss(params, reference, batch, config,
                                 None if ref_scores is None else ref_scores[idx])
        loss_value = _sgd_step(tensors, loss, lr, step)
        del loss  # free this step's graph before the next is built
        probe = [v[0] for v in batch[:4]]  # KL to the reference, after the update
        kl = packed_logprobs(params.frozen(), pack(params, *zip(*probe)), len(probe),
                             reference)[3]
        log.append(StepRecord(
            step=step,
            loss=loss_value,
            lr=lr,
            mean_chosen_logprob=_mean(stats["lp_c"]),
            mean_rejected_logprob=_mean(stats["lp_r"]),
            kl_to_reference=_mean(kl.values),
            **{name: _mean(stats[name]) for name in ("t1", "t2", "p_dpo") if name in stats},
        ))

    assert params_hash(reference) == ref_hash  # the frozen reference stays frozen
    return params, log


_PRETRAIN_LR = 0.05
_NOISY_FRAC = 0.5      # share of items drawn from the noisy belief
_QA_FRAC = 0.4         # share of items that are QA conversations
_PRETRAIN_SEED = 1234  # seeds the init and the item draws


def make_base_model(records, dim=64, n_blocks=2, steps=8000, batch_size=16):
    """Pretrained starting point with knowledge-level hallucination habits.

    Each record carries two belief states: the true scene and a noisy
    one (the parse of its corrupted caption). With probability
    `_NOISY_FRAC` a training item is generated from the noisy belief,
    and that choice drives captions and QA answers alike, so the base
    model's mistakes are consistent wrong beliefs rather than surface
    noise. `_QA_FRAC` of items are short multi-turn QA conversations,
    which keeps corrective QA turns in-distribution later. Raises
    ValueError on `steps` < 0, `batch_size` < 1 or no records.
    """
    if steps < 0 or batch_size < 1 or not records:
        raise ValueError(f"need steps >= 0, batch_size >= 1 and records, got steps={steps}, "
                         f"batch_size={batch_size}, {len(records)} records")
    params = init_params(VOCAB_SIZE, dim, latent_dim(), n_blocks=n_blocks, seed=_PRETRAIN_SEED)
    rng = np.random.default_rng(_PRETRAIN_SEED)
    tensors = params.tensors()
    # per record, index 0 is the clean belief and index 1 the noisy one
    clauses = [(list(rec.scene.objects), parse_caption(rec.rejected)) for rec in records]
    captions = _caption_rows(map(PreferenceRecord.to_sample, records))
    for step in range(steps):
        step_lr = cosine_lr(step, steps, _PRETRAIN_LR)
        idx = rng.integers(0, len(records), size=batch_size)
        items = []
        for i in idx.tolist():
            noisy = int(rng.random() < _NOISY_FRAC)
            if rng.random() < _QA_FRAC:
                turns = qa_turns_from_clauses(clauses[i][noisy], rng, int(rng.integers(2, 5)))
                items.append(Conversation(captions[i][0][0], turns).flatten())  # the image latent
            else:
                items.append(captions[i][noisy])
        batch = pack(params, *zip(*items))
        _sgd_step(tensors, batch_sft_loss(params, batch) / batch_size, step_lr, step)
    return params


def pretrain_base(spec):
    """The experiment's base model: `make_base_model` on the spec's pretraining set."""
    records = make_preference_dataset(spec.pretrain_n, spec.pretrain_seed)
    return make_base_model(records, dim=spec.dim, n_blocks=spec.n_blocks,
                           steps=spec.pretrain_steps, batch_size=spec.batch_size)


def _chunks(items, size=_CHUNK):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def _decode_records(params, samples, max_decode_len):
    """Greedy captions of the records' sample contexts, in packed chunks."""
    out = []
    for chunk in _chunks(samples, _DECODE_CHUNK):
        out += greedy_decode_batch(params, [s.context.image_latent for s in chunk],
                                   [s.context.question for s in chunk], max_decode_len)
    return out


def self_response_records(params, records, max_decode_len=16):
    """Replace injected rejected captions with the model's own mistakes.

    Each record's greedy decode becomes the rejected side when it is
    parseable, differs from the chosen caption, and names no object
    twice (the caption-diff oracle needs unique objects); otherwise the
    original record is kept as a fallback.
    """
    samples = [rec.to_sample() for rec in records]
    out = []
    for rec, decoded in zip(records, _decode_records(params, samples, max_decode_len)):
        usable = False
        if decoded != rec.chosen:
            try:
                clauses = parse_caption(decoded)
                usable = len({cl.obj for cl in clauses}) == len(clauses)
            except ValueError:
                pass
        if usable:
            corruptions = diff_captions(parse_caption(rec.chosen), clauses)
            out.append(PreferenceRecord(rec.seed, rec.scene, rec.chosen, decoded, corruptions))
        else:
            out.append(rec)
    return out


def evaluate_model(params, eval_records, initial_model, max_decode_len=16):
    """Held-out metrics: decoded-caption CHAIR, object recall and mean
    caption length (tokens before <eos>), mean chosen/rejected sequence
    log-probs, and per-token KL drift from the initial model.

    CHAIR rewards saying nothing, so silence is not scored as perfect:
    chair_i is None when no decoded caption names an object, and recall
    and caption length read 0 there.
    """
    samples = [rec.to_sample() for rec in eval_records]
    chosen, rejected, kls = _score_pairs(params, samples, initial_model)
    captions = _decode_records(params, samples, max_decode_len)
    evals = [CaptionEval({t - OBJECT_TOKEN_BASE for t in decoded if t in _OBJECT_TOKEN_RANGE},
                         rec.scene.object_ids())
             for rec, decoded in zip(eval_records, captions)]
    result = chair(evals)
    return {
        "chair_i": result.chair_i,
        "chair_s": result.chair_s,
        "object_recall": object_recall(evals),
        "mean_caption_len": _mean([len(c) - (c[-1] == EOS_ID) for c in captions]),
        "mean_chosen_logprob": _mean(chosen),
        "mean_rejected_logprob": _mean(rejected),
        "kl_drift": _mean(kls),
    }


def _score_pairs(params, samples, initial_model=None):
    """Chosen and rejected sequence log-probs of every sample and, with
    `initial_model`, each chosen caption's `per_token_kl` from it (else an
    empty list), as lists. One frozen policy forward per chunk gives all three;
    the initial model runs on the chosen rows only."""
    if not samples:
        raise ValueError("need at least one record")
    policy = params.frozen()
    chosen, rejected, kls = [], [], []
    for chunk in _chunks(samples):
        lp_c, lp_r, kl = pair_logprobs(policy, [s.context for s in chunk],
                                       [s.chosen for s in chunk], [s.rejected for s in chunk],
                                       reference=initial_model)
        chosen += lp_c.values.tolist()
        rejected += lp_r.values.tolist()
        if kl is not None:
            kls += kl.values.tolist()
    return chosen, rejected, kls


def mean_sequence_logprobs(params, records):
    """Mean chosen/rejected sequence log-probs over preference records."""
    chosen, rejected, _ = _score_pairs(params, [rec.to_sample() for rec in records])
    return _mean(chosen), _mean(rejected)


@dataclass
class ExperimentSpec:
    """Sizes and seeds for the continual-alignment experiment.

    The continual data is drawn from a restricted object pool while the
    evaluation set spans the full vocabulary, so plain continued SFT
    forgets out-of-pool captioning and the held-out hallucination gap
    between methods becomes visible.
    """
    seed: int = 0
    train_n: int = 500
    steps: int = 500
    dim: int = 64
    n_blocks: int = 2
    batch_size: int = 16
    object_pool_size: int = 12
    eval_n: int = 1000
    eval_seed: int = 31337
    pretrain_n: int = 2000
    pretrain_seed: int = 999
    pretrain_steps: int = 8000
    max_decode_len: int = 16

    def __post_init__(self):
        _check_floors(self, train_n=1, eval_n=1, pretrain_n=1, steps=1, batch_size=1,
                      max_decode_len=1, pretrain_steps=0, seed=0, eval_seed=0, pretrain_seed=0,
                      n_blocks=0, dim=8, object_pool_size=1)
        if self.object_pool_size > len(OBJECTS):
            raise ValueError("object_pool_size out of range")


def run_experiment(spec: ExperimentSpec, base_model=None):
    """Full continual-alignment comparison, deterministic in `spec`.

    Pretrains (or accepts) a base model with hallucination habits,
    replaces injected negatives with the base model's own mistakes,
    trains every method from the shared base, and reports held-out
    metrics plus chosen/rejected log-prob movement on the training set.
    Raises ValueError, before any decoding or training, on a `base_model`
    whose dim or block count differs from the spec's, or whose vocabulary
    or latent size differs from the world's.
    """
    if base_model is None:
        base_model = pretrain_base(spec)
    got = (base_model.dim, len(base_model.blocks), base_model.vocab_size, base_model.latent_dim)
    want = (spec.dim, spec.n_blocks, VOCAB_SIZE, latent_dim())
    if got != want:
        raise ValueError(f"base model (dim, n_blocks, vocab_size, latent_dim) = {got}, but the "
                         f"spec and the world need {want}")
    pool = set(range(spec.object_pool_size))
    injected = make_preference_dataset(spec.train_n, spec.seed, object_pool=pool)
    records = self_response_records(base_model, injected, max_decode_len=spec.max_decode_len)
    eval_records = make_preference_dataset(spec.eval_n, spec.eval_seed)

    base_eval = evaluate_model(base_model, eval_records, initial_model=base_model,
                               max_decode_len=spec.max_decode_len)
    base_c, base_r = mean_sequence_logprobs(base_model, records)
    common = dict(steps=spec.steps, dim=spec.dim, n_blocks=spec.n_blocks,
                  seed=spec.seed, batch_size=spec.batch_size)
    methods = {}
    for name, method in METHODS.items():
        if method.recipe is None:
            continue
        config = TrainConfig(method=name, **method.recipe, **common)
        params, log = train(config, records, init_model=base_model)
        ev = evaluate_model(params, eval_records, initial_model=base_model,
                            max_decode_len=spec.max_decode_len)
        train_c, train_r = mean_sequence_logprobs(params, records)
        entry = {
            "eval": ev,
            "train_delta_chosen_logprob": train_c - base_c,
            "train_delta_rejected_logprob": train_r - base_r,
        }
        if method.row == "rejected":
            report = bias_trajectory_report(log)
            entry["fraction_ratio_below_1"] = report["summary"]["fraction_ratio_below_1"]
        methods[name] = entry
        del params, log  # free this method's model before the next one trains
    n_self = sum(1 for a, b in zip(records, injected) if a.rejected != b.rejected)
    return {
        "spec": asdict(spec),
        "n_self_response": n_self,
        "base_eval": base_eval,
        "methods": methods,
    }


def write_trajectory_log_csv(log, path):
    """One CSV row per `StepRecord`, its fields in declaration order."""
    write_csv([f.name for f in fields(StepRecord)], map(astuple, log), path)
