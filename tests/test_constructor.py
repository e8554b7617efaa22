"""Negative-supervision construction: error identification, corrective
conversations, balancing, assembly, and interchange formats."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefalign import world
from prefalign.cli import dispatch
from prefalign.constructor import (
    RuleBasedOracle,
    balance_yes_no,
    construct_conversation,
    conversation_to_llava_record,
    qa_row,
    qa_turns_from_clauses,
)
from prefalign.data import Conversation, Turn, write_jsonl
from prefalign.world import (
    CAT_COLOR,
    COLORS,
    COUNT_WORDS,
    OBJECTS,
    Scene,
    SceneObject,
    render_caption,
)

_YES = world.TOKEN_TO_ID["yes"]
_NO = world.TOKEN_TO_ID["no"]


def test_every_corruption_category_has_a_corrective_turn():
    s = Scene([SceneObject(2, 1, 2)])  # two blue cup
    triple = (2, 1, 2)
    for cat in world.CORRUPTION_CATEGORIES:
        error = world.Corruption(cat, 0, triple, triple)
        (turn,) = construct_conversation([error], s, world.featurize(s), k=1).turns
        assert turn.question and turn.answer[-1] == world.EOS_ID
    with pytest.raises(ValueError, match="no template"):
        construct_conversation([world.Corruption("scene/lighting", 0, triple, triple)],
                               s, world.featurize(s), k=1)


def test_identify_errors_empty_for_identical_captions():
    s = world.generate_scene(0)
    caption = render_caption(s)
    assert RuleBasedOracle().identify(caption, caption) == []


def test_identify_errors_color_swap():
    s = Scene([SceneObject(2, 1, 2)])  # two blue cup
    caption = render_caption(s)
    rejected = render_caption(Scene([SceneObject(2, 4, 2)]))  # color swapped
    assert RuleBasedOracle().identify(rejected, caption) == [
        world.Corruption(CAT_COLOR, 0, (2, 1, 2), (2, 4, 2))]


def _key(corruption):
    return corruption.category, corruption.original, corruption.replacement


def test_identify_errors_perfect_on_double_corruptions():
    oracle = RuleBasedOracle()
    seen_double = 0
    for rec in world.make_preference_dataset(300, 2):
        if len(rec.corruptions) != 2:
            continue
        seen_double += 1
        errors = oracle.identify(rec.rejected, rec.chosen)
        assert sorted(map(_key, errors)) == sorted(map(_key, rec.corruptions))
    assert seen_double > 20
    # a tie a self-response decode can make: both extra clauses have the missing
    # cat's color and count; the first in rejected order is the swap, the rest fabrications
    scene = Scene([SceneObject(0, 0, 1)])  # one red cat
    decode = world.words_to_tokens("one red dog . one red fish . <eos>".split())
    rec = world.PreferenceRecord(0, scene, render_caption(scene), decode)
    assert oracle.identify(decode, rec.chosen) == rec.corruptions == [
        world.Corruption(world.CAT_OBJECT_SWAP, 0, (0, 0, 1), (1, 0, 1)),
        world.Corruption(world.CAT_FABRICATION, -1, None, (8, 0, 1))]


def _answer_words(turn):
    return world.tokens_to_words([t for t in turn.answer if t != world.EOS_ID])


def test_construct_conversation_zero_errors_gives_k_gt_turns():
    s = world.generate_scene(4)
    conv = construct_conversation([], s, world.featurize(s), k=5)
    assert len(conv.turns) == 5
    assert np.array_equal(conv.image_latent, world.featurize(s))
    _assert_consistent_with_scene(conv, s)


def test_construct_conversation_fabrication_yields_no_answer():
    s = Scene([SceneObject(0, 0, 1)])  # one red cat
    fabricated = Scene([SceneObject(0, 0, 1), SceneObject(1, 2, 2)])  # adds dog
    caption = render_caption(s)
    rejected = render_caption(fabricated)
    errors = RuleBasedOracle().identify(rejected, caption)
    conv = construct_conversation(errors, s, world.featurize(s), k=5)
    q = world.words_to_tokens(["is", "there", "a", "dog", "?"])
    corrective = [t for t in conv.turns if t.question == q]
    assert len(corrective) == 1
    assert _answer_words(corrective[0]) == ["no"]


def test_construct_conversation_color_swap_asserts_correct_color():
    s = Scene([SceneObject(3, 0, 2)])  # two red hat
    caption = render_caption(s)
    rejected = render_caption(Scene([SceneObject(3, 1, 2)]))  # blue instead
    errors = RuleBasedOracle().identify(rejected, caption)
    conv = construct_conversation(errors, s, world.featurize(s), k=3)
    q = world.words_to_tokens(["what", "color", "is", "the", "hat", "?"])
    corrective = [t for t in conv.turns if t.question == q]
    assert corrective and _answer_words(corrective[0]) == ["red"]


def _assert_consistent_with_scene(conv, scene):
    """Every answer must agree with the scene (and hence with y_c)."""
    by_obj = {o.obj: o for o in scene.objects}
    for turn in conv.turns:
        words = world.tokens_to_words(turn.question)
        answer = _answer_words(turn)
        if words[:3] == ["is", "there", "a"]:
            obj = OBJECTS.index(words[3])
            assert answer == (["yes"] if obj in by_obj else ["no"])
        elif words[:2] == ["what", "color"]:
            obj = OBJECTS.index(words[4])
            assert answer == [COLORS[by_obj[obj].color]]
        elif words[:2] == ["how", "many"]:
            obj = OBJECTS.index(words[2])
            assert answer == [COUNT_WORDS[by_obj[obj].count - 1]]
        else:
            raise AssertionError(f"unexpected question template: {words}")


def test_constructed_answers_never_contradict_chosen():
    oracle = RuleBasedOracle()
    for rec in world.make_preference_dataset(200, 8):
        # corrections about fabricated/swapped-in objects answer "no" about
        # objects absent from the scene, which the checker also covers
        errors = oracle.identify(rec.rejected, rec.chosen)
        conv = construct_conversation(errors, rec.scene, world.featurize(rec.scene), k=5)
        _assert_consistent_with_scene(conv, rec.scene)


def test_construct_conversation_rejects_bad_k():
    s = world.generate_scene(1)
    with pytest.raises(ValueError):
        construct_conversation([], s, world.featurize(s), k=0)


def _yes_no_conversation(n_yes, n_no):
    turns = [Turn(world.words_to_tokens(["is", "there", "a", "cat", "?"]),
                  [_YES, world.EOS_ID]) for _ in range(n_yes)]
    turns += [Turn(world.words_to_tokens(["is", "there", "a", "dog", "?"]),
                   [_NO, world.EOS_ID]) for _ in range(n_no)]
    return Conversation(np.zeros(world.latent_dim()), turns)


def _yes_fraction(conv):
    yn = [t for t in conv.turns if t.answer[0] in (_YES, _NO)]
    return sum(1 for t in yn if t.answer[0] == _YES) / len(yn)


def test_balance_yes_no_all_yes_unchanged():
    conv = _yes_no_conversation(4, 0)
    out = balance_yes_no(conv, 0.4, seed=0)
    assert len(out.turns) == 4


def test_balance_yes_no_reaches_band():
    conv = _yes_no_conversation(1, 9)
    out = balance_yes_no(conv, 0.4, seed=0)
    n_no = sum(1 for t in out.turns if t.answer[0] == _NO)
    assert 1 <= n_no <= 2
    assert 0.4 <= _yes_fraction(out) <= 0.6


def test_balance_yes_no_deterministic():
    conv = _yes_no_conversation(2, 8)
    a = balance_yes_no(conv, 0.4, seed=7)
    b = balance_yes_no(conv, 0.4, seed=7)
    assert [(t.question, t.answer) for t in a.turns] == [(t.question, t.answer) for t in b.turns]


def test_balance_yes_no_never_removes_yes_or_non_yes_no_turns():
    conv = _yes_no_conversation(2, 6)
    color_q = Turn(world.words_to_tokens(["what", "color", "is", "the", "cat", "?"]),
                   world.words_to_tokens(["red"]) + [world.EOS_ID])
    conv.turns.append(color_q)
    out = balance_yes_no(conv, 0.4, seed=3)
    assert sum(1 for t in out.turns if t.answer[0] == _YES) == 2
    assert any(t.question == color_q.question for t in out.turns)


def test_balance_yes_no_keeps_no_turns_it_cannot_balance():
    conv = _yes_no_conversation(0, 3)
    out = balance_yes_no(conv, 0.4, seed=0)
    assert [(t.question, t.answer) for t in out.turns] == [(t.question, t.answer) for t in conv.turns]


def test_balance_yes_no_validates_band():
    conv = _yes_no_conversation(1, 1)
    with pytest.raises(ValueError):
        balance_yes_no(conv, 1.2, seed=0)


# sha256 of the balanced turns of the 500 acceptance records
# (`make_preference_dataset(500, 123)`) at six floors and k in (1, 5, 9),
# recorded when the balancing took a (floor, upper edge) band: the same digest
# at upper edges floor, (floor + 1) / 2 and 1, so the upper edge changed nothing
BALANCED_TURNS_SHA256 = "e011843a93b2a59a6c750ce0f53a8b48978f22c3d585f2db7bf6057640a36bec"


def test_balance_yes_no_matches_recorded_digest():
    records = world.make_preference_dataset(500, 123)
    oracle = RuleBasedOracle()
    convs = {k: [construct_conversation(oracle.identify(r.rejected, r.chosen), r.scene,
                                        r.to_sample().context.image_latent, k=k)
                 for r in records] for k in (1, 5, 9)}
    h = hashlib.sha256()
    for floor in (0.0, 0.2, 0.4, 0.5, 0.75, 1.0):
        for k in (1, 5, 9):
            for rec, conv in zip(records, convs[k]):
                for t in balance_yes_no(conv, floor, seed=rec.seed).turns:
                    h.update(bytes(t.question) + b"?" + bytes(t.answer) + b";")
                h.update(b"|")
    assert h.hexdigest() == BALANCED_TURNS_SHA256


def test_construct_rejects_mode_flag(tmp_path, capsys):
    # construct writes one layout, so the flag that chose between two is gone
    data = tmp_path / "world.jsonl"
    world.write_dataset_jsonl(world.make_preference_dataset(2, 4), data)
    code = dispatch(["construct", "--in", str(data), "--out", str(tmp_path / "out.jsonl"),
                     "--mode", "concat_separate"])
    assert code == 2 and "unrecognized arguments: --mode" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_qa_turns_from_clauses_consistent():
    s = world.generate_scene(6)
    rng = np.random.default_rng(0)
    turns = qa_turns_from_clauses(list(s.objects), rng, 20)
    conv = Conversation(world.featurize(s), turns)
    _assert_consistent_with_scene(conv, s)


def test_llava_jsonl_round_trip(tmp_path):
    s = world.generate_scene(9)
    conv = construct_conversation([], s, world.featurize(s), k=2)
    rec = conversation_to_llava_record(conv, "scene-9", "seed://9")
    assert [c["from"] for c in rec["conversations"]] == ["human", "gpt"] * 2
    path = tmp_path / "convs.jsonl"
    write_jsonl([rec], path)
    assert [json.loads(line) for line in path.read_text().splitlines()] == [rec]


# Recorded on the commit before qa_turns_from_clauses stopped calling
# rng.choice: the same turns, and the generator left in the same state.
GOLDEN_QA_TURNS = [
    "how many shoe ? four <eos> | how many shoe ? four <eos> | is there a leaf ? no <eos> | what color is the shoe ? purple <eos>",
    "is there a tree ? yes <eos> | is there a tree ? yes <eos> | what color is the tree ? purple <eos> | is there a tree ? yes <eos>",
    "is there a hat ? no <eos> | what color is the box ? purple <eos> | how many box ? four <eos> | is there a box ? yes <eos>",
    "is there a drum ? no <eos> | how many dog ? one <eos> | is there a dog ? yes <eos> | what color is the dog ? purple <eos>",
    "what color is the fish ? purple <eos> | how many star ? one <eos> | how many fish ? three <eos> | what color is the star ? brown <eos>",
    "is there a dog ? no <eos> | is there a fish ? yes <eos> | what color is the bird ? brown <eos> | how many bird ? one <eos>",
    "is there a cat ? no <eos> | how many car ? four <eos> | is there a bird ? no <eos> | what color is the car ? black <eos>",
    "how many car ? three <eos> | what color is the car ? black <eos> | is there a key ? yes <eos> | is there a cup ? no <eos>",
]


def test_qa_turns_from_clauses_match_golden():
    rng = np.random.default_rng(5)
    got = []
    for rec in world.make_preference_dataset(4, 11):
        for clauses in (list(rec.scene.objects), world.parse_caption(rec.rejected)):
            turns = qa_turns_from_clauses(clauses, rng, 4)
            got.append(" | ".join(" ".join(world.tokens_to_words(t.question + t.answer))
                                  for t in turns))
    assert got == GOLDEN_QA_TURNS
    assert rng.integers(0, 2**31) == 1244563294


def test_qa_row_matches_golden_turns_flattened():
    rng_turns, rng_row = np.random.default_rng(5), np.random.default_rng(5)
    for rec in world.make_preference_dataset(4, 11):
        latent = world.featurize(rec.scene)
        for clauses in (list(rec.scene.objects), world.parse_caption(rec.rejected)):
            want = Conversation(latent, qa_turns_from_clauses(clauses, rng_turns, 4)).flatten()
            got = qa_row(latent, clauses, rng_row, 4)
            assert got[0] is latent and got[1:] == want[1:]
    assert rng_row.integers(0, 2**31) == rng_turns.integers(0, 2**31) == 1244563294
    with pytest.raises(ValueError, match="no turns"):
        qa_row(latent, clauses, rng_row, 0)


_CLAUSE = st.builds(SceneObject, obj=st.integers(0, len(OBJECTS) - 1),
                    color=st.integers(0, len(COLORS) - 1), count=st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(clauses=st.lists(_CLAUSE, min_size=1, max_size=len(OBJECTS) - 1, unique_by=lambda c: c.obj),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_qa_row_is_flattened_qa_turns(clauses, seed, n):
    latent = np.arange(world.latent_dim(), dtype=np.float64)
    rng_turns, rng_row = np.random.default_rng(seed), np.random.default_rng(seed)
    want = Conversation(latent, qa_turns_from_clauses(clauses, rng_turns, n)).flatten()
    got = qa_row(latent, clauses, rng_row, n)
    assert got[0] is latent and got[1:] == want[1:]
    assert rng_row.bit_generator.state == rng_turns.bit_generator.state
    for tokens in got[1:3]:  # copies: no token table is aliased
        tokens.append(-1)
    assert qa_row(latent, clauses, np.random.default_rng(seed), n)[1:] == want[1:]
