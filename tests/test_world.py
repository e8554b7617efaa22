"""Synthetic world: scenes, captions, corruptions, dataset determinism."""

import json

import numpy as np
import pytest

from prefalign import world
from prefalign.world import (
    CAT_COUNT,
    CAT_FABRICATION,
    CORRUPTION_CATEGORIES,
    Scene,
    SceneObject,
    corrupt,
    diff_captions,
    featurize,
    generate_scene,
    latent_dim,
    make_preference_dataset,
    parse_caption,
    read_dataset_jsonl,
    render_caption,
    write_dataset_jsonl,
)


def test_generate_scene_deterministic():
    a, b = generate_scene(0), generate_scene(0)
    assert a.objects == b.objects


def test_scenes_satisfy_invariants_over_many_seeds():
    for seed in range(1000):
        s = generate_scene(seed)
        assert 1 <= len(s.objects) <= 3
        ids = [o.obj for o in s.objects]
        assert len(set(ids)) == len(ids)
        for o in s.objects:
            assert 0 <= o.obj < len(world.OBJECTS)
            assert 0 <= o.color < len(world.COLORS)
            assert 1 <= o.count <= len(world.COUNT_WORDS)


def test_featurization_dimension_constant():
    dim = latent_dim()
    assert dim == 3 * (len(world.OBJECTS) + len(world.COLORS) + len(world.COUNT_WORDS))
    for seed in range(50):
        v = featurize(generate_scene(seed))
        assert v.shape == (dim,)
        assert np.all(np.isin(v, (0.0, 1.0)))


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene([])
    with pytest.raises(ValueError):
        Scene([SceneObject(1, 0, 1)] * 2)


def test_render_single_object_is_one_clause_plus_eos():
    s = Scene([SceneObject(2, 3, 1)])
    tokens = render_caption(s)
    assert len(tokens) == 5
    assert tokens[-1] == world.EOS_ID


def test_render_parse_round_trip():
    for seed in range(300):
        s = generate_scene(seed)
        assert parse_caption(render_caption(s)) == s.objects


def test_render_caption_golden_seed_7():
    words = world.tokens_to_words(render_caption(generate_scene(7)))
    assert words == ["two", "brown", "chair", ".", "two", "blue", "ring", ".",
                     "four", "red", "lamp", ".", "<eos>"]


def test_parse_caption_rejects_malformed():
    good = render_caption(generate_scene(3))
    with pytest.raises(ValueError):
        parse_caption(good[:-1])  # missing eos
    with pytest.raises(ValueError):
        parse_caption(good[1:])  # clause misaligned
    with pytest.raises(ValueError):
        parse_caption([world.EOS_ID])  # no clauses


def test_corrupt_count_off_by_one_stays_bounded():
    hits = 0
    for seed in range(300):
        s = generate_scene(seed)
        _, corrs = corrupt(s, render_caption(s), seed + 10_000)
        for c in corrs:
            if c.category == CAT_COUNT:
                hits += 1
                assert abs(c.replacement[2] - c.original[2]) == 1
                assert 1 <= c.replacement[2] <= len(world.COUNT_WORDS)
    assert hits > 0


def test_corrupt_fabrication_adds_absent_object():
    hits = 0
    for seed in range(300):
        s = generate_scene(seed)
        rejected, corrs = corrupt(s, render_caption(s), seed + 20_000)
        for c in corrs:
            if c.category == CAT_FABRICATION:
                hits += 1
                assert c.replacement[0] not in s.object_ids()
                assert c.replacement[0] in {cl.obj for cl in parse_caption(rejected)}
    assert hits > 0


def test_corruptions_recoverable_by_caption_diff():
    for seed in range(1000):
        s = generate_scene(seed)
        caption = render_caption(s)
        rejected, recorded = corrupt(s, caption, seed + 500_009)
        diffed = diff_captions(parse_caption(caption), parse_caption(rejected))
        key = lambda c: (c.category, c.original, c.replacement)
        assert sorted(map(key, diffed)) == sorted(map(key, recorded))


def test_rejected_always_differs_and_corruptions_nonempty():
    for rec in make_preference_dataset(200, 5):
        assert rec.rejected != rec.chosen
        assert rec.corruptions


def test_dataset_single_sample_consistency():
    rec = make_preference_dataset(1, 0)[0]
    sample = rec.to_sample()
    assert np.array_equal(sample.context.image_latent, featurize(rec.scene))
    assert sample.chosen == render_caption(rec.scene)


def test_dataset_serialization_byte_identical(tmp_path):
    records = make_preference_dataset(20, 3)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset_jsonl(records, p1)
    write_dataset_jsonl(make_preference_dataset(20, 3), p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = read_dataset_jsonl(p1)
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]


def _write_edited(tmp_path, edit):
    path = tmp_path / "edited.jsonl"
    write_dataset_jsonl(make_preference_dataset(3, 4), path)
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    edit(docs[1])
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    return path


@pytest.mark.parametrize("bad_id", [world.VOCAB_SIZE, -1])
def test_read_dataset_rejects_token_ids_out_of_range(tmp_path, bad_id):
    def edit(doc):
        doc["rejected_tokens"][0] = bad_id
    with pytest.raises(ValueError, match="token id"):
        read_dataset_jsonl(_write_edited(tmp_path, edit))


def test_read_dataset_rejects_chosen_that_is_not_the_scene_rendering(tmp_path):
    def edit(doc):
        doc["chosen_tokens"], doc["rejected_tokens"] = doc["rejected_tokens"], doc["chosen_tokens"]
    with pytest.raises(ValueError, match="rendering"):
        read_dataset_jsonl(_write_edited(tmp_path, edit))


def test_dataset_category_balance_near_uniform():
    records = make_preference_dataset(500, 0)
    counts = {c: 0 for c in CORRUPTION_CATEGORIES}
    total = 0
    for rec in records:
        for c in rec.corruptions:
            counts[c.category] += 1
            total += 1
    uniform = 1.0 / len(CORRUPTION_CATEGORIES)
    for cat, n in counts.items():
        assert abs(n / total - uniform) <= 0.2 * uniform, (cat, n / total)


def test_dataset_object_pool_restriction():
    pool = set(range(12))
    records = make_preference_dataset(50, 0, object_pool=pool)
    assert len(records) == 50
    for rec in records:
        assert rec.scene.object_ids() <= pool
    again = make_preference_dataset(50, 0, object_pool=pool)
    assert [r.to_dict() for r in again] == [r.to_dict() for r in records]


def test_dataset_object_pool_validation():
    with pytest.raises(ValueError):
        make_preference_dataset(1, 0, object_pool=set())
    with pytest.raises(ValueError):
        make_preference_dataset(1, 0, object_pool={99})


def test_dataset_rejects_bad_n():
    with pytest.raises(ValueError):
        make_preference_dataset(0, 0)


def test_single_object_scene_never_omitted():
    for seed in range(500):
        s = generate_scene(seed)
        if len(s.objects) != 1:
            continue
        _, corrs = corrupt(s, render_caption(s), seed)
        assert all(c.category != world.CAT_OMISSION for c in corrs)


def test_token_word_round_trip():
    words = ["two", "red", "cup", ".", "<eos>"]
    assert world.tokens_to_words(world.words_to_tokens(words)) == words
