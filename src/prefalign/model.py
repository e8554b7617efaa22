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
    "token_logprob_matrix",
    "token_logprobs",
    "greedy_decode",
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
    if not question or max(question) >= params.vocab_size:
        raise ValueError("question must be non-empty with ids < V")
    img_slot = ad.matmul(Tensor(latent.reshape(1, -1)), params.img_proj)
    q_emb = ad.gather_rows(params.embed, question)
    return ad.concat_rows([img_slot, q_emb])


def _prefix_mean_matrix(n_context, n_steps):
    """Constant (n_steps, n_context+n_steps-1) row-normalized prefix mask."""
    total = n_context + n_steps - 1
    a = np.zeros((n_steps, total), dtype=np.float64)
    for i in range(n_steps):
        a[i, : n_context + i] = 1.0 / (n_context + i)
    return Tensor(a)


def _mlp(params, h):
    for w1, w2 in params.blocks:
        h = ad.add(h, ad.matmul(ad.sigmoid(ad.matmul(h, w1)), w2))
    return h


def token_logprob_matrix(params, x, y):
    """(L, V) log-probabilities: row i is log pi(. | y_<i, x)."""
    y = list(y)
    if not y:
        raise ValueError("y must be non-empty")
    if max(y) >= params.vocab_size:
        raise ValueError("token id out of range")
    if len(y) > 1:
        y_emb = ad.gather_rows(params.embed, y[:-1])
        stack = ad.concat_rows([x, y_emb])
    else:
        stack = x
    n_ctx = x.values.shape[0]
    means = ad.matmul(_prefix_mean_matrix(n_ctx, len(y)), stack)
    logits = ad.matmul(_mlp(params, means), params.out)
    return ad.log_softmax(logits)


def token_logprobs(params, x, y):
    """Per-position log pi(y_i | y_<i, x) as a length-L tensor."""
    return ad.take_along_rows(token_logprob_matrix(params, x, y), list(y))


def greedy_decode(params, x, max_len):
    """Deterministic argmax decoding; stops at eos or max_len.

    Ties break toward the lowest token id (argmax convention).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out = []
    for _ in range(max_len):
        probe = out + [0]  # dummy final token; only the last row's distribution matters
        lp = token_logprob_matrix(params, x, probe).values
        tok = int(np.argmax(lp[-1]))
        out.append(tok)
        if tok == params.eos_id:
            break
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
