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
import math
from dataclasses import dataclass
from itertools import compress
from numbers import Integral

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import write_json

__all__ = [
    "param_shapes",
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


def param_shapes(vocab_size, dim, latent_dim, n_blocks):
    """The model's one list of tensors, an ordered name -> shape dict: the
    order `init_params` draws them, `params_hash` reads them and
    `load_checkpoint` rebuilds them. A new parameter is one entry here plus
    the forward code that reads it."""
    blocks = {f"blocks.{i}.{w}": (dim, dim) for i in range(n_blocks) for w in ("w1", "w2")}
    return {"embed": (vocab_size, dim), "img_proj": (latent_dim, dim), **blocks,
            "out": (dim, vocab_size)}


class ModelParams:
    """The model's tensors, from a name -> Tensor mapping in `param_shapes`
    order. The forward code reads `embed`, `img_proj`, `out` and `blocks`,
    each residual MLP block's tensors in table order."""

    def __init__(self, tensors):
        named = self._named = dict(tensors)
        self.embed, self.img_proj, self.out = named["embed"], named["img_proj"], named["out"]
        blocks = {}  # "blocks.<i>" -> that block's tensors, in table order
        for name, t in named.items():
            if name.startswith("blocks."):
                blocks.setdefault(name.rsplit(".", 1)[0], []).append(t)
        self.blocks = [tuple(ws) for ws in blocks.values()]

    @property
    def vocab_size(self):
        return self.embed.values.shape[0]

    @property
    def latent_dim(self):
        return self.img_proj.values.shape[0]

    @property
    def eos_id(self):
        return self.vocab_size - 1

    def named_tensors(self):
        """(name, Tensor) pairs in `param_shapes` order."""
        return self._named.items()

    def tensors(self):
        return list(self._named.values())

    def frozen(self):
        """A grad-free view sharing these arrays: a forward pass through it
        builds no graph. It sees later in-place updates of the arrays."""
        return ModelParams({name: Tensor(t.values) for name, t in self._named.items()})

    def clone(self):
        """A trainable copy: fresh arrays, every tensor requiring grad."""
        return ModelParams({name: Tensor(t.values.copy(), requires_grad=True)
                            for name, t in self._named.items()})


def init_params(vocab_size, dim, latent_dim, n_blocks=2, seed=0, scale=0.1):
    """Trainable parameters drawn from N(0, scale^2), in `param_shapes` order."""
    if vocab_size < 16 or dim < 8 or n_blocks < 0:
        raise ValueError(f"desk-scale floor: vocab_size >= 16, dim >= 8, n_blocks >= 0; got "
                         f"{vocab_size}, {dim}, {n_blocks}")
    rng = np.random.default_rng(seed)
    shapes = param_shapes(vocab_size, dim, latent_dim, n_blocks)
    return ModelParams({name: Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)
                        for name, shape in shapes.items()})


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


def _head(params, h):
    """Next-token log-probabilities from prefix means h, one row each."""
    for w1, w2 in params.blocks:
        h = ad.mlp_block(h, w1, w2)
    return ad.log_softmax(ad.matmul(h, params.out))


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


def pack(params, rows):
    """Pack rows (image_latent, question, y, mask), as `Conversation.flatten`
    gives them, into one `Batch`.

    Answer token i of row b is a position only where ``mask[i]`` is true.
    Raises ValueError on no rows, a latent of the wrong size, an empty
    question or answer, a mask of the wrong length or one that selects no
    position, or a token id outside [0, V).
    """
    if not len(rows):
        raise ValueError("need >= 1 row")
    latents = np.array([row[0] for row in rows], dtype=np.float64)  # ValueError if ragged
    if latents.shape != (len(rows), params.latent_dim):
        raise ValueError(f"latent dim {latents.shape[1:]} != ({params.latent_dim},)")
    # a position's prefix is tokens[lo:lo + end] and its target the token after it
    tokens, lo, ends, sample, offsets = [], [], [], [], [0]
    for b, (_, question, y, mask) in enumerate(rows):
        if not len(question) or not len(y):
            raise ValueError("question and y must be non-empty")
        if len(mask) != len(y):
            raise ValueError("mask length must equal |y|")
        positions = list(compress(range(len(question), len(question) + len(y)), mask))
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


def greedy_decode_batch(params, rows, max_len):
    """`greedy_decode` of each row's (image latent, question) context at
    once; a row's answer and mask are not read, and no rows decode to [].
    Raises ValueError on a latent of the wrong size, an empty question or
    a token id outside [0, V)."""
    if not len(rows):
        return []
    latents = np.array([row[0] for row in rows], dtype=np.float64)  # ValueError if ragged
    if latents.shape != (len(rows), params.latent_dim):
        raise ValueError(f"need one latent of size {params.latent_dim} per row")
    ids = np.array([t for row in rows for t in row[1]])  # a non-integer id fails to index
    lengths = np.array([len(row[1]) for row in rows])
    if not lengths.all() or ids.min() < 0 or ids.max() >= params.vocab_size:
        raise ValueError("questions must be non-empty with ids in [0, V)")
    # add question position j's embedding onto the image slot of every context
    # that long, j = 0, 1, ...: left to right, greedy_decode's cumsum order
    sums = latents @ params.img_proj.values
    starts = np.cumsum(lengths) - lengths
    for j in range(lengths.max()):
        within = lengths > j
        sums[within] += params.embed.values[ids[starts[within] + j]]
    return _decode(params, sums, lengths + 1, max_len)


def _decode(params, sums, counts, max_len):
    """Greedy decoding from running prefix sums: each step feeds one new
    mean per live sequence through the head, then adds the chosen token's
    embedding to that sequence's sum, so a step costs O(1) in the prefix.
    ValueError naming `max_len` unless it is an integer >= 1 (not a bool)."""
    if isinstance(max_len, bool) or not isinstance(max_len, Integral) or max_len < 1:
        raise ValueError(f"max_len must be an integer >= 1, got {max_len!r}")
    frozen = params.frozen()
    sums = np.array(sums, dtype=np.float64)
    counts = np.array(counts, dtype=np.float64)
    live = np.arange(len(counts))
    steps = []  # each step's (live rows, their tokens)
    for _ in range(max_len):
        lp = _head(frozen, Tensor(sums[live] / counts[live, None])).values
        tokens = np.argmax(lp, axis=1)
        steps.append((live, tokens))
        live, tokens = live[tokens != params.eos_id], tokens[tokens != params.eos_id]
        if not live.size:
            break
        sums[live] += params.embed.values[tokens]
        counts[live] += 1.0
    # a stable sort by row keeps each row's tokens in step order
    rows, tokens = (np.concatenate(a) for a in zip(*steps))
    flat = tokens[np.argsort(rows, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(counts))).tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


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
    """Read a checkpoint; ValueError on a file that is not a JSON object with
    an "arrays" object, an array entry without "shape" and "values", a shape
    that is not a list of non-negative integers, values that are not a flat
    list of as many finite numbers, or arrays whose names and shapes are not
    `param_shapes` of the stored `embed`, `img_proj` and block count. Each
    message names the array."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    if (version := doc.get("version")) != CHECKPOINT_VERSION or type(version) is not int:
        raise ValueError(f"unsupported checkpoint version: {version!r}")
    if not isinstance(arrays := doc.get("arrays"), dict):
        raise ValueError('checkpoint has no "arrays" object')

    def array(name):
        a = arrays[name]
        if not isinstance(a, dict) or not {"shape", "values"} <= a.keys():
            raise ValueError(f'checkpoint array {name} needs "shape" and "values"')
        shape, values = a["shape"], a["values"]
        if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
            raise ValueError(f"checkpoint array {name} has shape {shape!r}, "
                             "not a list of non-negative integers")
        # numpy reads a bool as 0 or 1, and fails on a string or a ragged list naming no array
        if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
            raise ValueError(f"checkpoint array {name} values are not a flat list of numbers")
        if len(values) != math.prod(shape):
            raise ValueError(f"checkpoint array {name} has {len(values)} values, "
                             f"but shape {shape} holds {math.prod(shape)}")
        try:
            values = np.array(values, dtype=np.float64).reshape(shape)
        except OverflowError:
            raise ValueError(f"checkpoint array {name} has a value beyond float range") from None
        if not np.all(np.isfinite(values)):
            raise ValueError(f"checkpoint tensor {name} has non-finite values")
        return Tensor(values, requires_grad=True)

    block_ids = sorted({name.split(".")[1] for name in arrays if name.startswith("blocks.")})
    names = param_shapes(0, 0, 0, len(block_ids))  # the names alone; the arrays give the shapes
    if set(arrays) != set(names):
        raise ValueError(f"checkpoint arrays with block indices {block_ids}: unexpected "
                         f"{sorted(set(arrays) - set(names))}, "
                         f"missing {sorted(set(names) - set(arrays))}")
    params = ModelParams({name: array(name) for name in names})
    if bad := [name for name, t in params.named_tensors() if t.values.ndim != 2]:
        raise ValueError(f"checkpoint tensors {bad} are not 2-D")
    shapes = param_shapes(*params.embed.values.shape, params.latent_dim, len(block_ids))
    for name, tensor in params.named_tensors():
        if tensor.values.shape != shapes[name]:
            raise ValueError(f"checkpoint tensor {name} has shape {tensor.values.shape}, "
                             f"expected {shapes[name]}")
    return params


def params_hash(params):
    h = hashlib.sha256()
    for name, t in params.named_tensors():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.values).tobytes())
    return h.hexdigest()
