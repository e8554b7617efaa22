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
from itertools import compress

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
    "prefix_means",
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
    if vocab_size < 16 or dim < 8 or n_blocks < 0:
        raise ValueError(f"desk-scale floor: vocab_size >= 16, dim >= 8, n_blocks >= 0; got "
                         f"{vocab_size}, {dim}, {n_blocks}")
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
    """Prefix embeddings: one projected image slot, then question tokens.

    With `token_logprob_matrix` and `greedy_decode` this is the
    single-sample path, the independent oracle for the packed one (`pack`,
    `greedy_decode_batch`). tests/test_model.py's
    test_batch_logprob_matrix_matches_single_samples and
    test_greedy_decode_batch_matches_single_decodes, and the eval_decode
    decode check in perfbench/workloads.py, rest on it. Do not fold it
    into `pack`: an oracle that runs the code it checks cannot catch its faults.
    """
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
        h = ad.mlp_block(h, w1, w2)
    return h


def _head(params, means):
    """Next-token log-probabilities from prefix means, one row each."""
    return ad.log_softmax(ad.matmul(_mlp(params, means), params.out))


@dataclass
class Batch:
    """Sequences packed into one forward pass.

    Position i predicts ``targets[i]`` from the mean of its prefix: its
    sample's image slot, question and answer tokens before it. That mean
    is row i of ``w_tok @ embed + w_img @ img_proj``, where row i of
    ``w_tok`` holds the prefix's token counts and row i of ``w_img`` the
    sample's latent, both divided by the prefix length. Only loss-carrying
    answer tokens are positions; a masked-out one is prefix only.
    `offsets` delimits each sample's positions.
    """

    w_tok: np.ndarray    # (N, V)
    w_img: np.ndarray    # (N, k)
    targets: np.ndarray  # (N,) answer tokens
    offsets: np.ndarray  # (B + 1,) positions of sample b: offsets[b]:offsets[b+1]

    def segment_matrix(self):
        """(B, N) 0/1 array S with S[b, i] = 1 on sample b's positions, so
        S @ per-position values sums per sample."""
        return np.repeat(np.eye(len(self.offsets) - 1), np.diff(self.offsets), axis=1)


def _token_counts(tokens, lo, hi, vocab_size):
    """(N, V) count of each token id in tokens[lo[i]:hi[i]], from one
    cumulative sum over a one-hot of the tokens."""
    onehot = np.zeros((len(tokens) + 1, vocab_size))
    onehot[np.arange(1, len(tokens) + 1), np.array(tokens, dtype=np.intp)] = 1.0
    csum = onehot.cumsum(axis=0)  # row j counts tokens[:j]
    return csum.take(hi, axis=0) - csum.take(lo, axis=0)


def pack(params, latents, questions, ys, masks=None):
    """Pack (image latent, question, answer) triples into one `Batch`.

    With `masks`, answer token i of sample b is a position only where
    ``masks[b][i]`` is true. Raises ValueError on no samples, on unequal
    counts of latents, questions, answers and masks, a latent of the wrong
    size, an empty question or answer, a mask of the wrong length or one
    that selects no position, or a token id outside [0, V).
    """
    counts = [len(latents), len(questions), len(ys)] + ([] if masks is None else [len(masks)])
    if len(set(counts)) != 1 or not counts[0]:
        raise ValueError(f"need >= 1 sample and equal latent, question, y, mask counts: {counts}")
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[1] != params.latent_dim:
        raise ValueError(f"latent dim {latents.shape[1:]} != ({params.latent_dim},)")
    # a position's prefix is tokens[lo:lo + end] and its target the token after it
    tokens, lo, ends, sample, offsets = [], [], [], [], [0]
    for b, (question, y) in enumerate(zip(questions, ys)):
        if not len(question) or not len(y):
            raise ValueError("question and y must be non-empty")
        positions = range(len(question), len(question) + len(y))
        if masks is not None:
            if len(masks[b]) != len(y):
                raise ValueError("mask length must equal |y|")
            positions = list(compress(positions, masks[b]))
            if not positions:
                raise ValueError(f"sample {b}'s mask selects no position")
        lo += [len(tokens)] * len(positions)
        ends += positions
        sample += [b] * len(positions)
        tokens += question
        tokens += y
        offsets.append(len(ends))
    if min(tokens) < 0 or max(tokens) >= params.vocab_size:
        raise ValueError("token id out of range")
    tokens = np.array(tokens, dtype=np.intp)
    lo = np.array(lo, dtype=np.intp)
    hi = lo + np.array(ends, dtype=np.intp)
    n = (hi - lo + 1.0)[:, None]  # the prefix length, image slot included
    return Batch(_token_counts(tokens, lo, hi, params.vocab_size) / n,
                 latents.take(np.array(sample, dtype=np.intp), axis=0) / n, tokens[hi],
                 np.array(offsets, dtype=np.intp))


def prefix_means(params, batch):
    """(N, d) prefix mean of every packed position: ``w_tok @ embed +
    w_img @ img_proj``, one node whose left operands are constants, so
    each backward is one ``w.T @ g``."""
    return ad.const_matmul_sum(batch.w_tok, params.embed, batch.w_img, params.img_proj)


def batch_logprob_matrix(params, batch):
    """(N, V) log-probabilities of every packed position."""
    return _head(params, prefix_means(params, batch))


def token_logprob_matrix(params, x, y):
    """(L, V) log-probabilities: row i is log pi(. | y_<i, x).

    Single-sample oracle for the packed path; see `encode_context`."""
    y = list(y)
    if not y:
        raise ValueError("y must be non-empty")
    if min(y) < 0 or max(y) >= params.vocab_size:
        raise ValueError("token id out of range")
    n_ctx = x.values.shape[0]
    n = np.arange(n_ctx, n_ctx + len(y), dtype=np.float64)[:, None]  # prefix lengths
    w_tok = _token_counts(y[:-1], np.zeros(len(y), dtype=np.intp), np.arange(len(y)),
                          params.vocab_size) / n
    w_ctx = np.ones((len(y), n_ctx)) / n
    return _head(params, ad.add(ad.matmul(w_ctx, x), ad.matmul(w_tok, params.embed)))


def token_logprobs(params, x, y):
    """Per-position log pi(y_i | y_<i, x) as a length-L tensor."""
    return ad.take_along_rows(token_logprob_matrix(params, x, y), list(y))


def greedy_decode(params, x, max_len):
    """Deterministic argmax decoding; stops at eos or max_len.

    Ties break toward the lowest token id (argmax convention). Single-sample
    oracle for `greedy_decode_batch` (see `encode_context`); the two share
    only `_decode`, whose tokens the tests check against the argmax of
    `token_logprob_matrix`.
    """
    return _decode(params, np.cumsum(x.values, axis=0)[-1:], [x.values.shape[0]], max_len)[0]


def greedy_decode_batch(params, latents, questions, max_len):
    """`greedy_decode` of many (image latent, question) contexts at once;
    no contexts decode to []. Raises ValueError on a latent of the wrong
    size, an empty question or a token id outside [0, V)."""
    if len(questions) == len(latents) == 0:
        return []
    latents = np.asarray(latents, dtype=np.float64)
    if latents.shape != (len(questions), params.latent_dim):
        raise ValueError(f"need one latent of size {params.latent_dim} per question")
    ids = [t for q in questions for t in q]
    if not all(questions) or min(ids) < 0 or max(ids) >= params.vocab_size:
        raise ValueError("questions must be non-empty with ids in [0, V)")
    # add.at sums each context's question embeddings onto its image slot left
    # to right, the float order of greedy_decode's cumsum over context rows
    lengths = [len(q) for q in questions]
    sums = latents @ params.img_proj.values
    np.add.at(sums, np.repeat(np.arange(len(questions)), lengths), params.embed.values[ids])
    return _decode(params, sums, [1 + n for n in lengths], max_len)


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


def load_checkpoint(path):
    """Read a checkpoint; ValueError on a gap in the block indices, on a
    missing or unexpected array, on shapes that disagree with each other,
    or on a non-finite value."""
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
        return Tensor(values, requires_grad=True)

    block_ids = sorted({int(k.split(".")[1]) for k in arrays if k.startswith("blocks.")})
    if block_ids != list(range(len(block_ids))):
        raise ValueError(f"checkpoint block indices {block_ids} are not 0..n-1")
    names = {"embed", "img_proj", "out", *(f"blocks.{i}.w{j}" for i in block_ids for j in "12")}
    if set(arrays) != names:
        raise ValueError(f"checkpoint arrays: unexpected {sorted(set(arrays) - names)}, "
                         f"missing {sorted(names - set(arrays))}")
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
