"""Tiny conditional autoregressive model with an image-latent prefix.

The image latent occupies exactly one embedding slot via a linear
projector; question and answer tokens follow. Each next-token
distribution is produced from the running mean of all prefix embeddings
pushed through residual MLP blocks, which keeps the model causal and
fully differentiable without attention.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import write_json

__all__ = [
    "ModelParams",
    "init_params",
    "encode_context",
    "Batch",
    "pack",
    "batch_logprob_matrix",
    "token_logprob_matrix",
    "token_logprobs",
    "greedy_decode",
    "greedy_decode_batch",
    "save_checkpoint",
    "load_checkpoint",
    "params_hash",
]

CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    embed: Tensor      # (V, d) token embedding table
    img_proj: Tensor   # (k, d) image-latent projector
    blocks: list       # [(W1, W2), ...] residual MLP blocks, each (d, d)
    out: Tensor        # (d, V) output projection

    @property
    def vocab_size(self):
        return self.embed.values.shape[0]

    @property
    def dim(self):
        return self.embed.values.shape[1]

    @property
    def latent_dim(self):
        return self.img_proj.values.shape[0]

    @property
    def eos_id(self):
        return self.vocab_size - 1

    def named_tensors(self):
        yield "embed", self.embed
        yield "img_proj", self.img_proj
        for i, (w1, w2) in enumerate(self.blocks):
            yield f"blocks.{i}.w1", w1
            yield f"blocks.{i}.w2", w2
        yield "out", self.out

    def tensors(self):
        return [t for _, t in self.named_tensors()]

    def frozen(self):
        """A grad-free view sharing these arrays: a forward pass through it
        builds no graph. It sees later in-place updates of the arrays."""
        return ModelParams(
            embed=Tensor(self.embed.values),
            img_proj=Tensor(self.img_proj.values),
            blocks=[(Tensor(w1.values), Tensor(w2.values)) for w1, w2 in self.blocks],
            out=Tensor(self.out.values),
        )

    def clone(self, requires_grad=None):
        return ModelParams(
            embed=self.embed.copy(requires_grad),
            img_proj=self.img_proj.copy(requires_grad),
            blocks=[(w1.copy(requires_grad), w2.copy(requires_grad)) for w1, w2 in self.blocks],
            out=self.out.copy(requires_grad),
        )


def init_params(vocab_size, dim, latent_dim, n_blocks=2, seed=0, scale=0.1, requires_grad=True):
    if vocab_size < 16 or dim < 8:
        raise ValueError("desk-scale floor: vocab_size >= 16, dim >= 8")
    rng = np.random.default_rng(seed)

    def t(shape):
        return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)

    return ModelParams(
        embed=t((vocab_size, dim)),
        img_proj=t((latent_dim, dim)),
        blocks=[(t((dim, dim)), t((dim, dim))) for _ in range(n_blocks)],
        out=t((dim, vocab_size)),
    )


def encode_context(params, image_latent, question):
    """Prefix embeddings: one projected image slot, then question tokens."""
    latent = np.asarray(image_latent, dtype=np.float64)
    if latent.shape != (params.latent_dim,):
        raise ValueError(f"latent dim {latent.shape} != ({params.latent_dim},)")
    question = list(question)
    if not question or min(question) < 0 or max(question) >= params.vocab_size:
        raise ValueError("question must be non-empty with ids in [0, V)")
    img_slot = ad.matmul(Tensor(latent.reshape(1, -1)), params.img_proj)
    q_emb = ad.gather_rows(params.embed, question)
    return ad.concat_rows([img_slot, q_emb])


def _mlp(params, h):
    for w1, w2 in params.blocks:
        h = ad.add(h, ad.matmul(ad.sigmoid(ad.matmul(h, w1)), w2))
    return h


def _head(params, means):
    """Next-token log-probabilities from prefix means, one row each."""
    return ad.log_softmax(ad.matmul(_mlp(params, means), params.out))


@dataclass
class Batch:
    """Sequences packed into one forward pass.

    Sample b's rows are its image slot, its question and all but the
    last answer token, stored as gather ids into the table
    ``[embed; image slots]`` (id V + b is sample b's image slot). Answer
    position i of sample b is predicted from the mean of the sample's
    rows lo..hi-1, with hi growing by one per position; `offsets`
    delimits each sample's answer positions.
    """

    latents: np.ndarray  # (B, k)
    rows: np.ndarray     # (T,) gather ids
    lo: np.ndarray       # (N,) first row of each position's prefix
    hi: np.ndarray       # (N,) one past its last row
    targets: np.ndarray  # (N,) answer tokens
    offsets: np.ndarray  # (B + 1,) answer positions of sample b: offsets[b]:offsets[b+1]

    def segment_matrix(self):
        """(B, N) 0/1 array S with S[b, i] = 1 on sample b's positions, so
        S @ per-position values sums per sample."""
        return np.repeat(np.eye(len(self.offsets) - 1), np.diff(self.offsets), axis=1)


def pack(params, latents, questions, ys):
    """Pack (image latent, question, answer) triples into one `Batch`.

    Raises ValueError on a latent of the wrong size, an empty question or
    answer, or a token id outside [0, V) (which the packed gather would
    otherwise read as an image slot).
    """
    v = params.vocab_size
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[1] != params.latent_dim:
        raise ValueError(f"latent dim {latents.shape[1:]} != ({params.latent_dim},)")
    rows, lo, hi, targets, offsets = [], [], [], [], [0]
    for b, (question, y) in enumerate(zip(questions, ys)):
        question, y = list(question), list(y)
        if not question or not y:
            raise ValueError("question and y must be non-empty")
        if min(question + y) < 0 or max(question + y) >= v:
            raise ValueError("token id out of range")
        start, n_ctx = len(rows), 1 + len(question)
        rows += [v + b] + question + y[:-1]
        lo += [start] * len(y)
        hi += range(start + n_ctx, start + n_ctx + len(y))
        targets += y
        offsets.append(len(targets))
    if len(offsets) != len(latents) + 1:
        raise ValueError("need one latent, question and y per sample")
    return Batch(latents, np.array(rows, dtype=np.intp), np.array(lo, dtype=np.intp),
                 np.array(hi, dtype=np.intp), np.array(targets, dtype=np.intp),
                 np.array(offsets, dtype=np.intp))


def batch_logprob_matrix(params, batch):
    """(N, V) log-probabilities of every packed answer position."""
    slots = ad.matmul(Tensor(batch.latents), params.img_proj)
    stack = ad.gather_rows(ad.concat_rows([params.embed, slots]), batch.rows)
    return _head(params, ad.segment_mean(stack, batch.lo, batch.hi))


def token_logprob_matrix(params, x, y):
    """(L, V) log-probabilities: row i is log pi(. | y_<i, x)."""
    y = list(y)
    if not y:
        raise ValueError("y must be non-empty")
    if min(y) < 0 or max(y) >= params.vocab_size:
        raise ValueError("token id out of range")
    stack = ad.concat_rows([x, ad.gather_rows(params.embed, y[:-1])]) if len(y) > 1 else x
    n_ctx = x.values.shape[0]
    return _head(params, ad.segment_mean(stack, [0] * len(y), range(n_ctx, n_ctx + len(y))))


def token_logprobs(params, x, y):
    """Per-position log pi(y_i | y_<i, x) as a length-L tensor."""
    return ad.take_along_rows(token_logprob_matrix(params, x, y), list(y))


def greedy_decode(params, x, max_len):
    """Deterministic argmax decoding; stops at eos or max_len.

    Ties break toward the lowest token id (argmax convention).
    """
    return _decode(params, np.cumsum(x.values, axis=0)[-1:], [x.values.shape[0]], max_len)[0]


def greedy_decode_batch(params, latents, questions, max_len):
    """`greedy_decode` of many (image latent, question) contexts at once."""
    batch = pack(params, latents, questions, [[0]] * len(questions))  # validates the contexts
    slots = batch.latents @ params.img_proj.values
    ctx = np.zeros((len(questions), max(batch.hi - batch.lo), params.dim))
    for b, (lo, hi) in enumerate(zip(batch.lo, batch.hi)):
        ctx[b, 0] = slots[b]
        ctx[b, 1:hi - lo] = params.embed.values[batch.rows[lo + 1:hi]]
    # zero padding after a shorter context leaves its running sum unchanged
    return _decode(params, np.cumsum(ctx, axis=1)[:, -1], batch.hi - batch.lo, max_len)


def _decode(params, sums, counts, max_len):
    """Greedy decoding from running prefix sums: each step feeds one new
    mean per live sequence through the head, then adds the chosen token's
    embedding to that sequence's sum, so a step costs O(1) in the prefix."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    frozen = params.frozen()
    sums = np.array(sums, dtype=np.float64)
    counts = np.array(counts, dtype=np.float64)
    out = [[] for _ in counts]
    live = np.arange(len(counts))
    for _ in range(max_len):
        lp = _head(frozen, Tensor(sums[live] / counts[live, None])).values
        tokens = np.argmax(lp, axis=1)
        for b, tok in zip(live, tokens):
            out[b].append(int(tok))
        live, tokens = live[tokens != params.eos_id], tokens[tokens != params.eos_id]
        if not live.size:
            break
        sums[live] += params.embed.values[tokens]
        counts[live] += 1.0
    return out


# ---------------------------------------------------------------------------
# checkpointing (bit-exact JSON round trip; floats serialize via repr)


def save_checkpoint(params, path):
    doc = {
        "version": CHECKPOINT_VERSION,
        "arrays": {
            name: {"shape": list(t.values.shape), "values": t.values.reshape(-1).tolist()}
            for name, t in params.named_tensors()
        },
    }
    write_json(doc, path)


def load_checkpoint(path, requires_grad=True):
    """Read a checkpoint; ValueError on a gap in the block indices, on
    shapes that disagree with each other, or on a non-finite value."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {doc.get('version')}")
    arrays = doc["arrays"]

    def t(name):
        a = arrays[name]
        values = np.array(a["values"], dtype=np.float64).reshape(a["shape"])
        if not np.all(np.isfinite(values)):
            raise ValueError(f"checkpoint tensor {name} has non-finite values")
        return Tensor(values, requires_grad=requires_grad)

    block_ids = sorted({int(k.split(".")[1]) for k in arrays if k.startswith("blocks.")})
    if block_ids != list(range(len(block_ids))):
        raise ValueError(f"checkpoint block indices {block_ids} are not 0..n-1")
    params = ModelParams(
        embed=t("embed"),
        img_proj=t("img_proj"),
        blocks=[(t(f"blocks.{i}.w1"), t(f"blocks.{i}.w2")) for i in block_ids],
        out=t("out"),
    )
    if any(t.values.ndim != 2 for t in params.tensors()):
        raise ValueError("checkpoint tensors must be 2-D")
    v, d, k = params.vocab_size, params.dim, params.latent_dim
    expected = {"embed": (v, d), "img_proj": (k, d), "out": (d, v)}
    for name, tensor in params.named_tensors():
        shape = expected.get(name, (d, d))
        if tensor.values.shape != shape:
            raise ValueError(f"checkpoint tensor {name} has shape {tensor.values.shape}, "
                             f"expected {shape}")
    return params


def params_hash(params):
    h = hashlib.sha256()
    for name, t in params.named_tensors():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.values).tobytes())
    return h.hexdigest()
