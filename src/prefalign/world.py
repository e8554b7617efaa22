"""Deterministic synthetic world: attribute scenes, captions, corruptions.

A scene is 1-3 (object, color, count) triples. Captions are template
renderings over a closed token vocabulary and parse back to the scene
exactly, so every injected corruption is recoverable by diffing parsed
captions. All generation is a pure function of integer seeds.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .data import InputContext, PreferenceSample, flatten_pairs, write_jsonl

__all__ = [
    "OBJECTS",
    "COLORS",
    "COUNT_WORDS",
    "TOKENS",
    "TOKEN_TO_ID",
    "VOCAB_SIZE",
    "EOS_ID",
    "CAPTION_QUESTION",
    "CAT_FABRICATION",
    "CAT_OMISSION",
    "CAT_OBJECT_SWAP",
    "CAT_COLOR",
    "CAT_COUNT",
    "CORRUPTION_CATEGORIES",
    "SceneObject",
    "Scene",
    "Corruption",
    "PreferenceRecord",
    "generate_scene",
    "featurize",
    "latent_dim",
    "render_caption",
    "parse_caption",
    "diff_captions",
    "corrupt",
    "make_preference_dataset",
    "write_dataset_jsonl",
    "read_dataset_jsonl",
    "tokens_to_words",
    "words_to_tokens",
]

COUNT_WORDS = ["one", "two", "three", "four"]
COLORS = ["red", "blue", "green", "yellow", "black", "white", "brown", "purple"]
OBJECTS = [
    "cat", "dog", "cup", "hat", "box", "car", "tree", "bird", "fish", "book",
    "ball", "chair", "lamp", "shoe", "key", "star", "leaf", "ring", "fork", "drum",
]
_FUNCTION_WORDS = ["is", "there", "a", "the", "what", "color", "how", "many", "yes", "no"]

TOKENS = COUNT_WORDS + COLORS + OBJECTS + _FUNCTION_WORDS + [".", "?", "<eos>"]
TOKEN_TO_ID = {w: i for i, w in enumerate(TOKENS)}
VOCAB_SIZE = len(TOKENS)
EOS_ID = VOCAB_SIZE - 1  # decode terminator lives at the top id

_COUNT_BASE = 0
_COLOR_BASE = len(COUNT_WORDS)
_OBJECT_BASE = _COLOR_BASE + len(COLORS)
OBJECT_TOKEN_BASE = _OBJECT_BASE
_SEP_ID = TOKEN_TO_ID["."]

CAPTION_QUESTION = [TOKEN_TO_ID[w] for w in ("what", "is", "there", "?")]

CAT_FABRICATION = "existence/fabrication"
CAT_OMISSION = "existence/omission"
CAT_OBJECT_SWAP = "category/object-swap"
CAT_COLOR = "attribute/color"
CAT_COUNT = "counting/count"
CORRUPTION_CATEGORIES = [CAT_FABRICATION, CAT_OMISSION, CAT_OBJECT_SWAP, CAT_COLOR, CAT_COUNT]

_MAX_OBJECTS = 3


def tokens_to_words(tokens):
    return [TOKENS[t] for t in tokens]


def words_to_tokens(words):
    return [TOKEN_TO_ID[w] for w in words]


@dataclass(frozen=True)
class SceneObject:
    obj: int    # index into OBJECTS
    color: int  # index into COLORS
    count: int  # 1..4


@dataclass
class Scene:
    objects: list[SceneObject]

    def __post_init__(self):
        if not 1 <= len(self.objects) <= _MAX_OBJECTS:
            raise ValueError("scene must hold 1-3 objects")
        ids = [o.obj for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate object ids in scene")
        bounds = {"obj": (0, len(OBJECTS)), "color": (0, len(COLORS)),
                  "count": (1, len(COUNT_WORDS) + 1)}
        for o in self.objects:
            for name, (lo, hi) in bounds.items():
                if type(value := getattr(o, name)) is not int or not lo <= value < hi:
                    raise ValueError(f"scene object {name} {value!r} is not an int or outside [{lo}, {hi})")

    def object_ids(self):
        return {o.obj for o in self.objects}


@dataclass
class Corruption:
    """Ground-truth record of one injected caption error."""

    category: str
    target_index: int          # clause index in the chosen caption (-1 for insertion)
    original: tuple | None     # (obj, color, count) before the edit, None for insertion
    replacement: tuple | None  # (obj, color, count) after the edit, None for omission

    def to_dict(self):
        return {
            "category": self.category,
            "target_index": self.target_index,
            "original": list(self.original) if self.original else None,
            "replacement": list(self.replacement) if self.replacement else None,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            category=d["category"],
            target_index=d["target_index"],
            original=tuple(d["original"]) if d["original"] else None,
            replacement=tuple(d["replacement"]) if d["replacement"] else None,
        )


def generate_scene(seed):
    """Deterministic scene draw: 1-3 distinct objects with attributes."""
    rng = np.random.default_rng(int(seed))
    n = int(rng.integers(1, _MAX_OBJECTS + 1))
    objs = rng.choice(len(OBJECTS), size=n, replace=False)
    colors = rng.integers(0, len(COLORS), size=n)
    counts = rng.integers(1, len(COUNT_WORDS) + 1, size=n)
    return Scene([SceneObject(int(o), int(c), int(k)) for o, c, k in zip(objs, colors, counts)])


def latent_dim():
    return _MAX_OBJECTS * (len(OBJECTS) + len(COLORS) + len(COUNT_WORDS))


def featurize(scene):
    """Fixed-size one-hot concat of per-slot attributes; absent slots zero."""
    per_slot = len(OBJECTS) + len(COLORS) + len(COUNT_WORDS)
    v = np.zeros(latent_dim(), dtype=np.float64)
    for i, o in enumerate(scene.objects):
        base = i * per_slot
        v[base + o.obj] = 1.0
        v[base + len(OBJECTS) + o.color] = 1.0
        v[base + len(OBJECTS) + len(COLORS) + o.count - 1] = 1.0
    return v


def _render_clauses(clauses):
    out = []
    for o in clauses:
        out.extend([
            _COUNT_BASE + o.count - 1,
            _COLOR_BASE + o.color,
            _OBJECT_BASE + o.obj,
            _SEP_ID,
        ])
    out.append(EOS_ID)
    return out


def render_caption(scene):
    """Template caption: 'two red cup . one blue dog . <eos>' as token ids."""
    return _render_clauses(scene.objects)


def parse_caption(tokens):
    """Inverse of render_caption; raises ValueError on malformed input."""
    toks = list(tokens)
    if not toks or toks[-1] != EOS_ID:
        raise ValueError("caption must end with <eos>")
    body = toks[:-1]
    if len(body) % 4 != 0:
        raise ValueError("caption clauses must be 4 tokens each")
    clauses = []
    for i in range(0, len(body), 4):
        cnt, col, obj, sep = body[i:i + 4]
        if not (_COUNT_BASE <= cnt < _COLOR_BASE):
            raise ValueError(f"bad count token at {i}")
        if not (_COLOR_BASE <= col < _OBJECT_BASE):
            raise ValueError(f"bad color token at {i + 1}")
        if not (_OBJECT_BASE <= obj < _OBJECT_BASE + len(OBJECTS)):
            raise ValueError(f"bad object token at {i + 2}")
        if sep != _SEP_ID:
            raise ValueError(f"missing separator at {i + 3}")
        clauses.append(SceneObject(obj - _OBJECT_BASE, col - _COLOR_BASE, cnt - _COUNT_BASE + 1))
    if not clauses:
        raise ValueError("caption has no clauses")
    return clauses


def diff_captions(chosen_clauses, rejected_clauses):
    """Recover the corruption list by diffing two parsed captions.

    Clauses are keyed by object; a later clause of an object replaces the
    earlier one, in its place. A shared object can make a color and a count
    error. Each chosen clause whose object is gone takes, as an object swap,
    the first unpaired rejected clause of a new object with its color and
    count, or else is an omission; the unpaired ones are fabrications.
    """
    chosen = {cl.obj: (i, cl) for i, cl in enumerate(chosen_clauses)}
    rejected = {cl.obj: cl for cl in rejected_clauses}
    extra = [cl for obj, cl in rejected.items() if obj not in chosen]
    out = []
    for obj, (i, cl) in chosen.items():
        if obj in rejected and rejected[obj].color != cl.color:
            out.append(Corruption(CAT_COLOR, i, _triple(cl), (cl.obj, rejected[obj].color, cl.count)))
        if obj in rejected and rejected[obj].count != cl.count:
            out.append(Corruption(CAT_COUNT, i, _triple(cl), (cl.obj, cl.color, rejected[obj].count)))
    for i, cl in [(i, cl) for obj, (i, cl) in chosen.items() if obj not in rejected]:
        swap = next((e for e in extra if (e.color, e.count) == (cl.color, cl.count)), None)
        if swap is None:
            out.append(Corruption(CAT_OMISSION, i, _triple(cl), None))
        else:
            extra.remove(swap)
            out.append(Corruption(CAT_OBJECT_SWAP, i, _triple(cl), _triple(swap)))
    return out + [Corruption(CAT_FABRICATION, -1, None, _triple(cl)) for cl in extra]


def _triple(cl):
    return (cl.obj, cl.color, cl.count)


def corrupt(caption, corruption_seed):
    """Inject 1-2 known corruptions into a caption that names each object once.

    Returns (rejected_tokens, corruption list). The rejected caption is
    always parseable and differs from the chosen one; a single-clause
    caption never receives an omission. Omission is never combined with
    fabrication or swap so the caption diff stays exact. ValueError, naming
    the object, on a caption that names one twice, which no scene renders.
    """
    clauses = parse_caption(caption)
    objs = [cl.obj for cl in clauses]
    if twice := [OBJECTS[o] for o in objs if objs.count(o) > 1]:
        raise ValueError(f"caption names {twice[0]!r} twice")
    rng = np.random.default_rng(int(corruption_seed))
    cats = _draw_categories(rng, clauses, int(rng.integers(1, 3)))
    edited = list(clauses)  # indexed like `clauses`, None for an omission; fabrications append
    free = list(range(len(clauses)))
    recorded = []
    for cat in cats:
        # union with the original clauses: re-adding a swapped-out
        # object would make the caption diff ambiguous
        present = {cl.obj for cl in clauses + edited if cl is not None}
        absent = [o for o in range(len(OBJECTS)) if o not in present]
        if cat == CAT_FABRICATION:
            obj = int(rng.choice(absent))
            # redraw the color and count of a co-injected swap original: the diff
            # pairs the swap first anyway, but every seeded dataset holds these draws
            swapped = [c.original[1:] for c in recorded if c.category == CAT_OBJECT_SWAP]
            while True:
                color = int(rng.integers(0, len(COLORS)))
                count = int(rng.integers(1, len(COUNT_WORDS) + 1))
                if (color, count) not in swapped:
                    break
            edited.append(SceneObject(obj, color, count))
            recorded.append(Corruption(CAT_FABRICATION, -1, None, (obj, color, count)))
            continue
        idx = int(rng.choice(free))
        free.remove(idx)
        cl = clauses[idx]
        if cat == CAT_OMISSION:
            repl = None
        elif cat == CAT_OBJECT_SWAP:
            repl = SceneObject(int(rng.choice(absent)), cl.color, cl.count)
        elif cat == CAT_COLOR:
            color = int(rng.choice([c for c in range(len(COLORS)) if c != cl.color]))
            repl = SceneObject(cl.obj, color, cl.count)
        else:
            delta = 1 if cl.count == 1 else (-1 if cl.count == len(COUNT_WORDS) else int(rng.choice([-1, 1])))
            repl = SceneObject(cl.obj, cl.color, cl.count + delta)
        edited[idx] = repl
        recorded.append(Corruption(cat, idx, _triple(cl), None if repl is None else _triple(repl)))
    return _render_clauses([cl for cl in edited if cl is not None]), recorded


# draw weights compensate for applicability constraints (omission needs a
# multi-object scene and excludes fabrication/swap) so realized category
# frequencies stay near uniform
_CATEGORY_DRAW_WEIGHTS = {
    CAT_FABRICATION: 0.75,
    CAT_OMISSION: 2.0,
    CAT_OBJECT_SWAP: 1.15,
    CAT_COLOR: 1.0,
    CAT_COUNT: 1.0,
}


def _draw_categories(rng, clauses, n_corr):
    """Draw 1-2 corruption categories respecting injection constraints."""
    def applicable(cat, chosen_so_far):
        if cat == CAT_OMISSION:
            # must leave at least one clause standing
            if sum(c == CAT_OMISSION for c in chosen_so_far) + 1 >= len(clauses):
                return False
            if any(c in (CAT_FABRICATION, CAT_OBJECT_SWAP) for c in chosen_so_far):
                return False
        if cat in (CAT_FABRICATION, CAT_OBJECT_SWAP) and CAT_OMISSION in chosen_so_far:
            return False
        if cat == CAT_FABRICATION and CAT_FABRICATION in chosen_so_far:
            return False
        # instance-level corruptions need a free target clause
        if cat in (CAT_OBJECT_SWAP, CAT_COLOR, CAT_COUNT, CAT_OMISSION):
            n_instance = sum(c != CAT_FABRICATION for c in chosen_so_far)
            if n_instance >= len(clauses):
                return False
        return True

    cats = []
    for _ in range(n_corr):
        options = [c for c in CORRUPTION_CATEGORIES if applicable(c, cats)]
        if not options:
            break
        w = np.array([_CATEGORY_DRAW_WEIGHTS[c] for c in options])
        cats.append(str(rng.choice(options, p=w / w.sum())))
    return cats


@dataclass
class PreferenceRecord:
    """One dataset row: scene, chosen/rejected captions, corruption truth.
    ValueError unless `seed` >= 0, token ids are ints in [0, VOCAB_SIZE),
    `chosen` renders `scene`, and `rejected` differs, parses, names each object
    once and makes an error; `corruptions` are those errors (default: the diff)."""

    seed: int
    scene: Scene
    chosen: list[int]
    rejected: list[int]
    corruptions: list[Corruption] | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not all(type(t) is int and 0 <= t < VOCAB_SIZE for t in self.chosen + self.rejected):
            raise ValueError(f"a token id is not an int in [0, {VOCAB_SIZE})")
        if self.chosen != render_caption(self.scene):
            raise ValueError("chosen caption is not its scene's rendering")
        if self.rejected == self.chosen:
            raise ValueError("rejected caption equals the chosen one")
        try:
            clauses = parse_caption(self.rejected)
        except ValueError as exc:
            raise ValueError(f"rejected caption: {exc}") from None
        if len({cl.obj for cl in clauses}) != len(clauses):
            raise ValueError("rejected caption names an object twice")
        # the rendering check makes the scene's objects the chosen clauses
        errors = diff_captions(self.scene.objects, clauses)
        if not errors:
            raise ValueError("rejected caption makes no error: it reorders the chosen clauses")
        if self.corruptions is None:
            self.corruptions = errors
        elif len(self.corruptions) != len(errors) or any(
                self.corruptions.count(e) != errors.count(e) for e in errors):
            raise ValueError("corruptions are not the caption diff of rejected against chosen")

    def caption_rows(self):
        """The (chosen, rejected) caption rows, the model's input: each is
        `to_sample().context.caption_conversation(y).flatten()`, built directly.
        They share one latent array; their token lists are fresh copies."""
        latent = featurize(self.scene)
        return (flatten_pairs(latent, [(CAPTION_QUESTION, self.chosen)]),
                flatten_pairs(latent, [(CAPTION_QUESTION, self.rejected)]))

    def to_sample(self):
        return PreferenceSample(
            context=InputContext(featurize(self.scene), list(CAPTION_QUESTION)),
            chosen=list(self.chosen),
            rejected=list(self.rejected),
        )

    def to_dict(self):
        return {
            "seed": self.seed,
            "scene": [[o.obj, o.color, o.count] for o in self.scene.objects],
            "chosen_tokens": list(self.chosen),
            "rejected_tokens": list(self.rejected),
            "corruptions": [c.to_dict() for c in self.corruptions],
        }

    @classmethod
    def from_dict(cls, d):
        """ValueError naming the missing or malformed field, or the record check failed."""
        if not isinstance(d, dict):
            raise ValueError(f"a record must be a JSON object, got {type(d).__name__}")
        def get(key, convert):
            try:
                return convert(d[key])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"field {key!r} is missing or malformed: {exc!r}") from None

        def seed(v):
            if type(v) is bool:  # operator.index reads true as 1
                raise TypeError("a seed is an int, not a bool")
            return operator.index(v)

        return cls(
            seed=get("seed", seed),
            scene=get("scene", lambda v: Scene([SceneObject(*o) for o in v])),
            chosen=get("chosen_tokens", list),
            rejected=get("rejected_tokens", list),
            corruptions=get("corruptions", lambda v: [Corruption.from_dict(c) for c in v]),
        )


def make_preference_dataset(n, seed, object_pool=None):
    """n deterministic preference records; per-item seeds derive from `seed`.

    With `object_pool` (a set of object ids) only scenes drawn entirely
    from the pool are kept; candidate seeds that fall outside it are
    skipped, so pooled datasets stay deterministic in `seed`.
    """
    ids = [] if object_pool is None else list(object_pool)
    for name, value in [("n", n), ("seed", seed)] + [("object_pool id", o) for o in ids]:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):  # numpy integers pass
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if object_pool is not None:
        object_pool = set(map(int, ids))
        if not object_pool or any(not 0 <= o < len(OBJECTS) for o in object_pool):
            raise ValueError("object_pool must be a nonempty set of valid object ids")
    records = []
    i = 0
    while len(records) < n:
        item_seed = int(seed) * 1_000_003 + i
        i += 1
        scene = generate_scene(item_seed)
        if object_pool is not None and not all(o.obj in object_pool for o in scene.objects):
            continue
        chosen = render_caption(scene)
        rejected, corruptions = corrupt(chosen, item_seed + 500_009)
        records.append(PreferenceRecord(item_seed, scene, chosen, rejected, corruptions))
    return records


def write_dataset_jsonl(records, path):
    write_jsonl((rec.to_dict() for rec in records), path)


def read_dataset_jsonl(path):
    """Read records written by `write_dataset_jsonl`, skipping blank lines.
    ValueError naming the line on one that is not a JSON object, a missing
    or malformed field (named too), or a record that `PreferenceRecord`
    rejects."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(PreferenceRecord.from_dict(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
    return records
