"""Continual-alignment training loop on the synthetic world.

Runs cont-SFT, GT-DPO, nSFT and the KL-regularized variants from a
shared initialization with plain SGD and a cosine schedule, logging the
per-step quantities the theory probes consume.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import backward
from .constructor import (
    RuleBasedOracle,
    balance_yes_no,
    construct_conversation,
    qa_turns_from_clauses,
)
from .data import Conversation, StepRecord, TrajectoryLog, write_csv, write_json
from .losses import (
    batch_sft_loss,
    dpo_margin,
    dpo_margin_loss,
    nsft_conversations,
    pack_conversations,
    pair_logprobs,
    per_token_kls,
    sample_kls,
    sequence_logprobs,
)
from .metrics import CaptionEval, chair, object_recall
from .theory import bias_trajectory_report
from .model import (
    batch_logprob_matrix,
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
    "default_experiment_configs",
    "ExperimentSpec",
    "run_experiment",
    "write_experiment_json",
    "write_trajectory_log_csv",
]

METHODS = ("cont_sft", "gt_dpo", "nsft", "sft_kl", "nsft_kl")

# Records per packed scoring forward: its (N, V) log-prob rows dominate
# memory. Over 5 evaluations of 500 records, chunks of 16 and 32 raised peak
# RSS by 3.3 and 4.7 MB (2.1 MB at 8) and cut scoring time by only 13% and 19%.
_CHUNK = 8
# Contexts per decode call; a step holds one row per live context. Decoding
# 500 records to 16 tokens took 121, 53, 32, 25, 32 ms and raised peak RSS by
# 0.1, 0.4, 0.5, 1.2, 3.8 MB at 8, 32, 64, 128, 500 (2-core x86, 1 BLAS thread).
_DECODE_CHUNK = 64

_OBJECT_TOKEN_RANGE = range(OBJECT_TOKEN_BASE, OBJECT_TOKEN_BASE + len(OBJECTS))


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
    yes_no_band: tuple = (0.4, 0.6)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        lows = dict(steps=0, batch_size=1, lr=0, seed=0, kl_weight=0, construct_k=1)
        for name, low in lows.items():
            if (value := getattr(self, name)) < low:
                raise ValueError(f"TrainConfig.{name} must be >= {low}, got {value}")
        lo, hi = self.yes_no_band
        if self.beta <= 0 or not 0 <= lo <= hi <= 1:
            raise ValueError("need beta > 0 and a yes_no_band (lo, hi) with 0 <= lo <= hi <= 1")


def cosine_lr(step, total, base_lr):
    """base_lr * (1 + cos(pi * step / total)) / 2, nonincreasing in step."""
    if not 0 <= step <= total:
        raise ValueError("need 0 <= step <= total")
    return base_lr * (1.0 + math.cos(math.pi * step / total)) / 2.0


@dataclass
class _SampleView:
    sample: object                    # PreferenceSample
    gt_conversation: Conversation
    constructed: Conversation | None = None
    ref_logprob_chosen: float | None = None
    ref_logprob_rejected: float | None = None


def build_training_views(records, config: TrainConfig, reference=None):
    """Precompute per-record training material.

    nSFT methods get a rule-based constructed conversation (yes/no
    balanced); DPO gets frozen-reference sequence log-probs, so gt_dpo
    needs `reference` (ValueError without it).
    """
    dpo = config.method == "gt_dpo"
    if dpo and reference is None:
        raise ValueError("gt_dpo training views need a reference model")
    needs_construct = config.method in ("nsft", "nsft_kl")
    oracle = RuleBasedOracle()
    samples = [rec.to_sample() for rec in records]
    if dpo:
        ref_c, ref_r, _ = _score_pairs(reference, samples)
    views = []
    for r, (rec, sample) in enumerate(zip(records, samples)):
        view = _SampleView(sample, sample.caption_conversation(sample.chosen))
        if needs_construct:
            errors = oracle.identify(rec.rejected, rec.chosen)
            conv = construct_conversation(errors, rec.scene, sample.context.image_latent,
                                          k=config.construct_k)
            lo, hi = config.yes_no_band
            view.constructed = balance_yes_no(conv, lo, hi, seed=rec.seed)
        if dpo:
            view.ref_logprob_chosen, view.ref_logprob_rejected = ref_c[r], ref_r[r]
        views.append(view)
    return views


def batch_loss(params, reference, views, config: TrainConfig):
    """One step's batch-mean loss as one packed graph, plus per-sample
    logging arrays: chosen and rejected sequence log-probs for every
    method, and t1, t2 and the margin for gt_dpo."""
    method = config.method
    n = len(views)
    contexts = [v.sample.context for v in views]
    chosen = [v.sample.chosen for v in views]
    rejected = [v.sample.rejected for v in views]

    if method == "gt_dpo":
        lp_c, lp_r = pair_logprobs(params, contexts, chosen, rejected)
        ref_c = np.array([v.ref_logprob_chosen for v in views])
        ref_r = np.array([v.ref_logprob_rejected for v in views])
        p = dpo_margin(lp_c, lp_r, ref_c, ref_r)
        loss = ad.tsum(dpo_margin_loss(p, config.beta)) / n
        return loss, {"lp_c": lp_c.values, "lp_r": lp_r.values, "p_dpo": p.values,
                      "t1": np.exp(lp_c.values - ref_c), "t2": np.exp(lp_r.values - ref_r)}

    if method in ("cont_sft", "sft_kl"):
        convs = [v.gt_conversation for v in views]
    else:  # nsft, nsft_kl: the GT conversations first, then the constructed ones
        pairs = [nsft_conversations(v.gt_conversation, v.constructed) for v in views]
        convs = [pair[0] for pair in pairs] + [c for pair in pairs for c in pair[1:]]
    batch = pack_conversations(params, convs)
    lp = batch_logprob_matrix(params, batch)
    position_lp = ad.take_along_rows(lp, batch.targets)
    loss = -ad.tsum(position_lp)
    if method in ("sft_kl", "nsft_kl"):  # KL on the GT caption, the first n samples
        gt_batch = batch.head(n)
        gt_lp = lp if len(convs) == n else ad.gather_rows(lp, np.arange(gt_batch.offsets[-1]))
        kl = sample_kls(gt_batch, gt_lp, batch_logprob_matrix(reference.frozen(), gt_batch))
        loss = ad.add(loss, config.kl_weight * ad.tsum(kl))
    # the GT conversation is the chosen caption under the caption question
    lp_c = batch.segment_matrix()[:n] @ position_lp.values
    lp_r = sequence_logprobs(params.frozen(), contexts, rejected).values
    return loss / n, {"lp_c": lp_c, "lp_r": lp_r}


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

    Returns (final ModelParams, TrajectoryLog). The reference model is a
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

    views = build_training_views(records, config, reference=reference)
    tensors = params.tensors()
    rng = np.random.default_rng(config.seed)
    log = TrajectoryLog()
    dpo = config.method == "gt_dpo"

    for step in range(config.steps):
        lr = cosine_lr(step, config.steps, config.lr)
        batch = [views[int(i)] for i in rng.integers(0, len(views), size=config.batch_size)]
        loss, stats = batch_loss(params, reference, batch, config)
        loss_value = _sgd_step(tensors, loss, lr, step)
        del loss  # free this step's graph before the next is built
        probe = batch[:4]  # KL to the reference, after the update
        kl = per_token_kls(params.frozen(), reference, [v.sample.context for v in probe],
                           [v.sample.chosen for v in probe])
        log.append(StepRecord(
            step=step,
            loss=loss_value,
            lr=lr,
            mean_chosen_logprob=_mean(stats["lp_c"]),
            mean_rejected_logprob=_mean(stats["lp_r"]),
            t1=_mean(stats["t1"]) if dpo else None,
            t2=_mean(stats["t2"]) if dpo else None,
            p_dpo=_mean(stats["p_dpo"]) if dpo else None,
            kl_to_reference=_mean(kl.values),
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
    # per record, index 0 is the clean belief and index 1 the noisy one;
    # each caption item is flattened once, here
    clauses = [(list(rec.scene.objects), parse_caption(rec.rejected)) for rec in records]
    latents, captions = [], []
    for s in map(PreferenceRecord.to_sample, records):
        latents.append(s.context.image_latent)
        captions.append(tuple(s.caption_conversation(y).flatten() for y in (s.chosen, s.rejected)))
    for step in range(steps):
        step_lr = cosine_lr(step, steps, _PRETRAIN_LR)
        idx = rng.integers(0, len(records), size=batch_size)
        items = []
        for i in idx.tolist():
            noisy = int(rng.random() < _NOISY_FRAC)
            if rng.random() < _QA_FRAC:
                turns = qa_turns_from_clauses(clauses[i][noisy], rng, int(rng.integers(2, 5)))
                items.append(Conversation(latents[i], turns).flatten())
            else:
                items.append(captions[i][noisy])
        batch = pack(params, [latents[i] for i in idx], *zip(*items))
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


def evaluate_model(params, eval_records, initial_model=None, max_decode_len=16):
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
    evals = [CaptionEval([{t - OBJECT_TOKEN_BASE for t in decoded if t in _OBJECT_TOKEN_RANGE}],
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
        "kl_drift": _mean(kls) if kls else 0.0,
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
        n, contexts = len(chunk), [s.context for s in chunk] * 2
        batch = pack(policy, [c.image_latent for c in contexts], [c.question for c in contexts],
                     [s.chosen for s in chunk] + [s.rejected for s in chunk])
        lp = batch_logprob_matrix(policy, batch)
        position_lp = ad.take_along_rows(lp, batch.targets).values
        seg = batch.segment_matrix()
        chosen += [float(v) for v in seg[:n] @ position_lp]
        rejected += [float(v) for v in seg[n:] @ position_lp]
        if initial_model is not None:
            head = batch.head(n)
            kls += list(sample_kls(head, ad.Tensor(lp.values[:len(head.targets)]),
                                   batch_logprob_matrix(initial_model.frozen(), head)).values)
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
        if not 1 <= self.object_pool_size <= len(OBJECTS):
            raise ValueError("object_pool_size out of range")
        lows = dict(train_n=1, eval_n=1, pretrain_n=1, steps=1, batch_size=1,
                    max_decode_len=1, pretrain_steps=0, seed=0, eval_seed=0, pretrain_seed=0)
        for name, low in lows.items():
            if (value := getattr(self, name)) < low:
                raise ValueError(f"ExperimentSpec.{name} must be >= {low}, got {value}")


def default_experiment_configs(spec: ExperimentSpec):
    """One TrainConfig per compared method, each at its stable recipe.

    Step sizes differ per method on purpose: the nSFT loss sums two
    conversations (roughly triple the token count of plain SFT), and
    preference-logit losses are conventionally trained with much
    smaller steps than SFT, so a shared learning rate would compare a
    tuned method against broken ones.
    """
    common = dict(steps=spec.steps, dim=spec.dim, n_blocks=spec.n_blocks,
                  seed=spec.seed, batch_size=spec.batch_size)
    return [
        TrainConfig(method="cont_sft", lr=1e-2, **common),
        TrainConfig(method="gt_dpo", lr=5e-4, beta=2.0, **common),
        TrainConfig(method="nsft", lr=2e-3, **common),
        TrainConfig(method="sft_kl", lr=1e-2, kl_weight=1.0, **common),
    ]


def run_experiment(spec: ExperimentSpec, base_model=None, configs=None):
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
    if configs is None:
        configs = default_experiment_configs(spec)

    base_eval = evaluate_model(base_model, eval_records, initial_model=base_model,
                               max_decode_len=spec.max_decode_len)
    base_c, base_r = mean_sequence_logprobs(base_model, records)
    methods, logs = {}, {}
    for config in configs:
        params, log = train(config, records, init_model=base_model)
        ev = evaluate_model(params, eval_records, initial_model=base_model,
                            max_decode_len=spec.max_decode_len)
        train_c, train_r = mean_sequence_logprobs(params, records)
        entry = {
            "eval": ev,
            "train_delta_chosen_logprob": train_c - base_c,
            "train_delta_rejected_logprob": train_r - base_r,
        }
        if config.method == "gt_dpo":
            report = bias_trajectory_report(log)
            entry["fraction_ratio_below_1"] = report["summary"]["fraction_ratio_below_1"]
        methods[config.method] = entry
        logs[config.method] = log
    n_self = sum(1 for a, b in zip(records, injected) if a.rejected != b.rejected)
    return {
        "spec": asdict(spec),
        "n_self_response": n_self,
        "base_eval": base_eval,
        "methods": methods,
        "logs": logs,
    }


def write_experiment_json(result, path):
    """Serialize an experiment report (without the step logs)."""
    write_json({k: v for k, v in result.items() if k != "logs"}, path)


_TRAJECTORY_COLUMNS = ["step", "loss", "lr", "mean_chosen_logprob", "mean_rejected_logprob",
                       "t1", "t2", "p_dpo", "kl_to_reference"]


def write_trajectory_log_csv(log: TrajectoryLog, path):
    write_csv(_TRAJECTORY_COLUMNS, ([getattr(r, c) for c in _TRAJECTORY_COLUMNS] for r in log), path)
