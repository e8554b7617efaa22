"""Toy conditional AR model: context encoding, factorization, decoding,
checkpointing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefalign.autodiff as ad
import prefalign.model
from prefalign.autodiff import Tensor, backward, finite_diff, relative_error
from prefalign.model import (
    batch_logprob_matrix,
    encode_context,
    greedy_decode,
    greedy_decode_batch,
    init_params,
    pack,
    load_checkpoint,
    param_shapes,
    params_hash,
    prefix_means,
    save_checkpoint,
    token_logprob_matrix,
    token_logprobs,
)

V, D, K = 16, 8, 4


def _params(seed=0, scale=0.1, n_blocks=2):
    return init_params(V, D, K, n_blocks=n_blocks, seed=seed, scale=scale)


def _numpy_forward(params, latent, question, y):
    """Plain-numpy reimplementation of the forward pass (oracle)."""
    embed = params.embed.values
    x = np.vstack([np.asarray(latent) @ params.img_proj.values, embed[list(question)]])
    if len(y) > 1:
        stack = np.vstack([x, embed[list(y[:-1])]])
    else:
        stack = x
    n_ctx = x.shape[0]
    rows = []
    for i in range(len(y)):
        h = stack[: n_ctx + i].mean(axis=0)
        for w1, w2 in params.blocks:
            h = h + (1.0 / (1.0 + np.exp(-(h @ w1.values)))) @ w2.values
        logits = h @ params.out.values
        shifted = logits - logits.max()
        rows.append(shifted - np.log(np.exp(shifted).sum()))
    return np.array(rows)


def test_encode_context_zero_projector_gives_zero_image_slot():
    params = _params()
    params.img_proj.values[...] = 0.0
    x = encode_context(params, np.zeros(K), [1, 2])
    assert np.array_equal(x.values[0], np.zeros(D))


def test_encode_context_length():
    params = _params()
    x = encode_context(params, np.ones(K), [0, 1, 2, 3])
    assert x.values.shape == (5, D)


def test_encode_context_matches_manual_concat():
    params = _params(seed=3)
    rng = np.random.default_rng(5)
    latent = rng.normal(size=K)
    q = [4, 9, 1]
    x = encode_context(params, latent, q)
    manual = np.vstack([latent @ params.img_proj.values, params.embed.values[q]])
    assert np.allclose(x.values, manual, rtol=0, atol=0)


def test_encode_context_rejects_bad_inputs():
    params = _params()
    with pytest.raises(ValueError):
        encode_context(params, np.zeros(K + 1), [1])
    with pytest.raises(ValueError):
        encode_context(params, np.zeros(K), [])
    with pytest.raises(ValueError):
        encode_context(params, np.zeros(K), [V])


def test_token_logprobs_uniform_for_zero_model():
    params = _params(scale=0.0)
    for t in params.tensors():
        t.values[...] = 0.0
    x = encode_context(params, np.zeros(K), [1, 2])
    lp = token_logprobs(params, x, [3, 4, 5]).values
    assert np.max(np.abs(lp - np.log(1.0 / V))) <= 1e-12


def test_token_logprobs_sum_equals_log_sequence_probability():
    params = _params(seed=1)
    x = encode_context(params, np.ones(K), [2])
    y = [3, 7, 0]
    lp = token_logprobs(params, x, y).values
    per_position = [
        float(token_logprob_matrix(params, x, y).values[i, y[i]]) for i in range(len(y))
    ]
    assert np.isclose(lp.sum(), np.sum(per_position), rtol=0, atol=1e-12)


def test_token_logprobs_match_numpy_oracle():
    params = _params(seed=7)
    rng = np.random.default_rng(11)
    latent = rng.normal(size=K)
    q = [5, 12]
    y = [3, 9, 15]
    x = encode_context(params, latent, q)
    got = token_logprob_matrix(params, x, y).values
    want = _numpy_forward(params, latent, q, y)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_each_position_distribution_sums_to_one():
    params = _params(seed=2)
    x = encode_context(params, np.ones(K), [1, 2, 3])
    mat = token_logprob_matrix(params, x, [0, 5, 10, 15]).values
    sums = np.exp(mat).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-10


def test_vocab_permutation_invariance():
    params = _params(seed=4)
    rng = np.random.default_rng(6)
    perm = rng.permutation(V)
    inv = np.argsort(perm)  # permuted row perm[t] holds the old row t
    permuted = params.clone()
    permuted.embed.values[...] = params.embed.values[inv]
    permuted.out.values[...] = params.out.values[:, inv]
    latent, q, y = np.ones(K), [2, 8], [1, 14, 6]
    x = encode_context(params, latent, q)
    lp = token_logprobs(params, x, y).values
    q_p = [int(perm[t]) for t in q]
    y_p = [int(perm[t]) for t in y]
    x_p = encode_context(permuted, latent, q_p)
    lp_p = token_logprobs(permuted, x_p, y_p).values
    assert np.max(np.abs(lp - lp_p)) <= 1e-10


def test_greedy_decode_emits_dominant_chain():
    params = _params(scale=0.0)
    for t in params.tensors():
        t.values[...] = 0.0
    params.embed.values[...] = 1.0
    params.out.values[:, 6] = 50.0  # token 6 dominates every step
    x = encode_context(params, np.zeros(K), [1])
    assert greedy_decode(params, x, 4) == [6, 6, 6, 6]


def test_greedy_decode_deterministic_and_tie_breaks_low():
    params = _params(seed=9)
    x = encode_context(params, np.ones(K), [3, 1])
    assert greedy_decode(params, x, 8) == greedy_decode(params, x, 8)
    zero = _params(scale=0.0)
    for t in zero.tensors():
        t.values[...] = 0.0
    xz = encode_context(zero, np.zeros(K), [1])
    assert greedy_decode(zero, xz, 3) == [0, 0, 0]  # all-tied logits pick id 0


def test_greedy_decode_matches_stepwise_argmax_oracle():
    params = _params(seed=13)
    x = encode_context(params, np.ones(K), [7])
    decoded = greedy_decode(params, x, 2)
    prefix = []
    for _ in range(2):
        lp = token_logprob_matrix(params, x, prefix + [0]).values
        tok = int(np.argmax(lp[-1]))
        prefix.append(tok)
        if tok == params.eos_id:
            break
    assert decoded == prefix


def test_greedy_decode_stops_at_eos():
    params = _params(scale=0.0)
    for t in params.tensors():
        t.values[...] = 0.0
    params.embed.values[...] = 1.0
    params.out.values[:, params.eos_id] = 50.0
    x = encode_context(params, np.zeros(K), [1])
    assert greedy_decode(params, x, 10) == [params.eos_id]


def _ragged_rows():
    """Seven rows (latent, question, y, mask) of ragged lengths, questions of
    1 to 7 tokens out of order, every answer token a position."""
    latents = np.random.default_rng(3).normal(size=(7, K))
    questions = [[1], [2, 3], [4, 5, 6], [7], [8, 9, 10, 11, 12, 13, 14], [0, 15, 3, 3],
                 [5, 4, 3, 2, 1, 0]]
    ys = [[9], [3, 1, 4, 1], [5, 9], [2, 6, 5], [7], [1, 2], [8, 8, 8]]
    return [(latent, q, y, [True] * len(y)) for latent, q, y in zip(latents, questions, ys)]


def test_batch_logprob_matrix_matches_single_samples():
    params = _params(seed=5, scale=0.5)
    rows = _ragged_rows()
    batch = pack(params, rows)
    got = batch_logprob_matrix(params, batch).values
    assert list(batch.targets) == [t for _, _, y, _ in rows for t in y]
    for b, (latent, q, y, _) in enumerate(rows):
        want = token_logprob_matrix(params, encode_context(params, latent, q), y).values
        rows = got[batch.offsets[b]:batch.offsets[b + 1]]
        assert np.max(np.abs(rows - want)) <= 1e-12


def _check_prefix_means(question_lens, answer_lens, masks, seed):
    """prefix_means against a per-position loop over the prefix rows, and
    its adjoint against finite differences."""
    rng = np.random.default_rng(seed)
    params = _params(seed=seed % 100, scale=0.5)
    latents = rng.normal(size=(len(question_lens), K))
    questions = [[int(t) for t in rng.integers(0, V, size=n)] for n in question_lens]
    ys = [[int(t) for t in rng.integers(0, V, size=n)] for n in answer_lens]
    batch = pack(params, list(zip(latents, questions, ys, masks)))
    want = []
    for latent, q, y, mask in zip(latents, questions, ys, masks):
        rows = [latent @ params.img_proj.values] + [params.embed.values[t] for t in q + y[:-1]]
        want += [np.mean(rows[:1 + len(q) + i], axis=0) for i in range(len(y)) if mask[i]]
    got = prefix_means(params, batch).values
    assert got.shape == (len(want), D)
    assert not want or np.max(np.abs(got - np.array(want))) <= 1e-12
    weights = Tensor(rng.normal(size=got.shape))

    def loss():
        return ad.tsum(ad.mul(prefix_means(params, batch), weights))

    tensors = [params.embed, params.img_proj]
    g = backward(loss(), tensors)
    g_fd = finite_diff(lambda: loss().item(), tensors)
    for t in tensors:
        assert relative_error(g[t], g_fd[t], floor=1e-6) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(
    seqs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 15)),
                  min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_prefix_means_match_loop_and_finite_diff(seqs, seed):
    question_lens, answer_lens, bits = zip(*seqs)
    # b % (2**n - 1) + 1 spans every mask of length n that selects a position
    masks = [[bool((b % (2**n - 1) + 1) >> i & 1) for i in range(n)]
             for n, b in zip(answer_lens, bits)]
    _check_prefix_means(question_lens, answer_lens, masks, seed)


@pytest.mark.parametrize("question_lens,answer_lens,masks", [
    ((1,), (1,), [[True]]),                            # one position, prefix of two rows
    ((1, 1, 1), (1, 1, 1), [[True]] * 3),              # every answer has length 1
    ((3,), (4,), [[True] * 4]),                        # a batch of one
    ((1, 4, 2), (3, 1, 5), [[True] * 3, [True], [True] * 5]),  # ragged lengths
    ((2, 1), (3, 4), [[False, True, False], [False, True, False, True]]),  # masked-out gaps
])
def test_prefix_means_edge_cases(question_lens, answer_lens, masks):
    _check_prefix_means(question_lens, answer_lens, masks, seed=7)


def test_pack_rejects_inconsistent_input():
    params = _params()
    z = np.zeros(K)
    for rows, match in (
        ([], "need >= 1 row"),
        ([(np.zeros(K + 1), [1], [2], [True])], "latent dim"),
        ([(np.zeros((1, K)), [1], [2], [True])], "latent dim"),  # a batch of one, not a latent
        # ragged latents: numpy's "setting an array element with a sequence"
        ([(z, [1], [2], [True]), (z[:-1], [1], [2], [True])], "latent dim|sequence"),
        ([(z, [], [2], [True])], "non-empty"),
        ([(z, [1], [], [])], "non-empty"),
        ([(z, [1], [2, 3], [True])], "mask length"),
        ([(z, [1], [2, 3], [True, True, False])], "mask length"),
        ([(z, [1], [2], [True]), (z, [1], [2, 3], [False, False])], "sample 1's mask selects no"),
        # an out-of-range last answer token, masked out: never a prefix token or a target
        ([(z, [1], [2, V], [True, False])], "token id out of range"),
        ([(z, [1], [2, -1], [True, False])], "token id out of range"),
    ):
        with pytest.raises(ValueError, match=match):
            pack(params, rows)


def test_packed_paths_reject_token_ids_outside_vocab():
    # an id >= V would otherwise gather an image-slot row of the packed table
    params = _params()
    x = encode_context(params, np.zeros(K), [1])
    for bad in (V, V + 1, -1):
        with pytest.raises(ValueError, match="token id out of range"):
            token_logprob_matrix(params, x, [1, bad])
        with pytest.raises(ValueError, match="token id out of range"):
            pack(params, [(np.zeros(K), [1], [2], [True]), (np.zeros(K), [1], [2, bad], [True] * 2)])
        with pytest.raises(ValueError, match="token id out of range"):
            pack(params, [(np.zeros(K), [bad], [2], [True])])
        with pytest.raises(ValueError):
            greedy_decode_batch(params, [(np.zeros(K), [bad], [2], [True])], 3)


def test_greedy_decode_batch_validates_contexts_and_decodes_none_to_empty():
    params = _params()
    assert greedy_decode_batch(params, [], 3) == []
    z = np.zeros(K)
    for rows in ([(np.zeros(K + 1), [1])],              # latent of the wrong size
                 [(np.zeros((1, K)), [1])],             # a batch of one, not a latent
                 [(z, [1]), (z[:-1], [1])],             # one latent of the wrong size
                 [(z, [1]), (z, [])]):                  # an empty question
        with pytest.raises(ValueError):
            greedy_decode_batch(params, rows, 3)


def test_greedy_decode_batch_matches_single_decodes():
    params = _params(seed=17, scale=0.5)
    params.out.values[:, params.eos_id] += 1.0  # some captions stop early, one runs to max_len
    rows = _ragged_rows()
    decoded = greedy_decode_batch(params, rows, 6)
    contexts = [encode_context(params, latent, q) for latent, q, _, _ in rows]
    assert decoded == [greedy_decode(params, x, 6) for x in contexts]
    assert len({len(d) for d in decoded}) > 1
    for x, out in zip(contexts, decoded):  # each token is the full forward's argmax
        assert list(np.argmax(token_logprob_matrix(params, x, out).values, axis=1)) == out


@pytest.mark.parametrize("max_len", [1, np.int64(6)])  # numpy integers pass
def test_greedy_decode_batch_matches_single_decodes_at_max_len(max_len):
    params = _params(seed=17, scale=0.5)
    params.out.values[:, params.eos_id] += 1.0
    rows = _ragged_rows()
    decoded = greedy_decode_batch(params, rows, max_len)
    assert decoded == [greedy_decode(params, encode_context(params, latent, q), max_len)
                       for latent, q, _, _ in rows]
    assert max(map(len, decoded)) == max_len


def test_greedy_decode_batch_sums_each_context_in_cumsum_order(monkeypatch):
    # greedy_decode's float order: the image slot, then each question embedding
    # added left to right. Argmax tokens seldom show a one-ulp change, so the
    # sums handed to the decoder are compared bit for bit.
    params = _params(seed=5, scale=0.5)
    rows = [(latent, q) for latent, q, _, _ in _ragged_rows()]
    sums = []
    monkeypatch.setattr(prefalign.model, "_decode", lambda *args: sums.append(args[1]))
    greedy_decode_batch(params, rows, 1)
    slots = np.array([latent for latent, _ in rows]) @ params.img_proj.values
    want = [np.cumsum(np.vstack([slot, params.embed.values[q]]), axis=0)[-1]
            for slot, (_, q) in zip(slots, rows)]
    assert np.array_equal(sums[0], want)


@pytest.mark.parametrize("max_len", [True, 2.5, 3.0, "3", None])
def test_decoding_rejects_a_max_len_that_is_not_an_integer_of_at_least_1(max_len):
    params = _params()
    row = (np.zeros(K), [1])
    with pytest.raises(ValueError, match="max_len"):
        greedy_decode_batch(params, [row], max_len)
    with pytest.raises(ValueError, match="max_len"):
        greedy_decode(params, encode_context(params, *row), max_len)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    # param_shapes is the order of the tensors, at every block count
    for n_blocks in range(4):
        params = _params(seed=21, n_blocks=n_blocks)
        shapes = param_shapes(V, D, K, n_blocks)
        assert [(name, t.shape) for name, t in params.named_tensors()] == list(shapes.items())
        assert len(params.blocks) == n_blocks
        path = tmp_path / f"model{n_blocks}.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert [name for name, _ in loaded.named_tensors()] == list(shapes)
        for a, b in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a.values, b.values)
        assert params_hash(params) == params_hash(loaded)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "arrays": {}}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _corrupted_checkpoint(tmp_path, corrupt):
    """A checkpoint file holding `corrupt`'s return value for a saved model's document."""
    path = tmp_path / "model.json"
    save_checkpoint(_params(seed=22), path)
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    return path


def _edit_arrays(edit):
    def corrupt(doc):
        edit(doc["arrays"])
        return doc
    return corrupt


def _drop_block_0(arrays):
    del arrays["blocks.0.w1"], arrays["blocks.0.w2"]


def _shrink_out(arrays):
    arrays["out"] = {"shape": [D, V - 1], "values": [0.0] * (D * (V - 1))}


def _nan_in_embed(arrays):
    arrays["embed"]["values"][3] = float("nan")


def _extra_array(arrays):
    arrays["extra"] = {"shape": [1, 1], "values": [0.0]}


def _drop_block_0_w2(arrays):
    del arrays["blocks.0.w2"]


def _block_index_not_a_number(arrays):
    arrays["blocks.x.w1"] = arrays.pop("blocks.1.w1")


def _bool_in_block(arrays):
    arrays["blocks.0.w1"]["values"][0] = True


def _beyond_float_range(arrays):
    arrays["out"]["values"][0] = 10**400


@pytest.mark.parametrize("corrupt, match", [
    (_edit_arrays(_drop_block_0), "block indices"), (_edit_arrays(_shrink_out), "shape"),
    (_edit_arrays(_nan_in_embed), "non-finite"),
    (_edit_arrays(_extra_array), r"unexpected \['extra'\], missing \[\]"),
    (_edit_arrays(_drop_block_0_w2), r"unexpected \[\], missing \['blocks.0.w2'\]"),
    (lambda doc: [doc], "must be a JSON object, got list"),
    (lambda doc: {"version": doc["version"]}, 'no "arrays" object'),
    (lambda doc: {**doc, "arrays": list(doc["arrays"])}, 'no "arrays" object'),
    (_edit_arrays(lambda arrays: arrays["embed"].pop("shape")), 'embed needs "shape" and "values"'),
    (_edit_arrays(lambda arrays: arrays["out"].pop("values")), 'out needs "shape" and "values"'),
    (_edit_arrays(lambda arrays: arrays["embed"].update(shape="ab")),
     "embed has shape 'ab', not a list of non-negative integers"),
    (_edit_arrays(lambda arrays: arrays["out"].update(shape=[D, -V])),
     "out has shape .*, not a list of non-negative integers"),
    (_edit_arrays(lambda arrays: arrays["img_proj"].update(shape=[K, 1.5])),
     "img_proj has shape .*, not a list of non-negative integers"),
    (_edit_arrays(lambda arrays: arrays["blocks.1.w1"].update(shape=[3, 3])),
     rf"blocks.1.w1 has {D * D} values, but shape \[3, 3\] holds 9"),
    (_edit_arrays(lambda arrays: arrays["embed"].update(values={"0": 1.0})),
     "embed values are not a flat list of numbers"),
    (_edit_arrays(lambda arrays: arrays["out"].update(values="0.5")),
     "out values are not a flat list of numbers"),
    (_edit_arrays(lambda arrays: arrays["img_proj"].update(values=[[0.0], [0.0, 0.0]])),
     "img_proj values are not a flat list of numbers"),
    (_edit_arrays(_bool_in_block), "blocks.0.w1 values are not a flat list of numbers"),
    (_edit_arrays(_block_index_not_a_number), r"unexpected \['blocks.x.w1'\]"),
    (_edit_arrays(_beyond_float_range), "out has a value beyond float range"),
    (lambda doc: {**doc, "version": True}, "unsupported checkpoint version: True"),
], ids=["block_index_gap", "shape_mismatch", "non_finite", "extra_array", "missing_array",
        "not_an_object", "no_arrays", "arrays_not_an_object", "entry_without_shape",
        "entry_without_values", "shape_not_a_list", "shape_negative", "shape_not_integers",
        "shape_disagrees_with_values", "values_an_object", "values_a_string",
        "values_ragged", "value_a_bool", "block_index_not_a_number", "value_beyond_float_range",
        "version_a_bool"])
def test_checkpoint_rejects_inconsistent_contents(tmp_path, corrupt, match):
    with pytest.raises(ValueError, match=match):
        load_checkpoint(_corrupted_checkpoint(tmp_path, corrupt))


def test_init_params_enforces_desk_scale_floor():
    with pytest.raises(ValueError):
        init_params(8, D, K)
    with pytest.raises(ValueError):
        init_params(V, 4, K)
    with pytest.raises(ValueError, match="n_blocks"):
        init_params(V, D, K, n_blocks=-1)
