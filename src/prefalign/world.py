"""Deterministic synthetic world: attribute scenes, captions, corruptions.

A scene is 1-3 (object, color, count) triples. Captions are template
renderings over a closed token vocabulary and parse back to the scene
exactly, so every injected corruption is recoverable by diffing parsed
captions. All generation is a pure function of integer seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import InputContext, PreferenceSample, read_jsonl, write_jsonl

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
                if not lo <= getattr(o, name) < hi:
                    raise ValueError(f"scene object {name} {getattr(o, name)} outside [{lo}, {hi})")

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

    Matching is by object id; a (missing, extra) pair sharing color and
    count is a swap; leftovers are omissions/fabrications. The injector
    guarantees combinations stay unambiguous under this rule.
    """
    c_by_obj = {cl.obj: (i, cl) for i, cl in enumerate(chosen_clauses)}
    r_by_obj = {cl.obj: (j, cl) for j, cl in enumerate(rejected_clauses)}
    out = []
    missing, extra = [], []
    for obj, (i, cl) in c_by_obj.items():
        if obj in r_by_obj:
            rcl = r_by_obj[obj][1]
            if rcl.color != cl.color:
                out.append(Corruption(CAT_COLOR, i, _triple(cl), (cl.obj, rcl.color, cl.count)))
            if rcl.count != cl.count:
                out.append(Corruption(CAT_COUNT, i, _triple(cl), (cl.obj, cl.color, rcl.count)))
        else:
            missing.append((i, cl))
    for obj, (j, cl) in r_by_obj.items():
        if obj not in c_by_obj:
            extra.append((j, cl))
    used = set()
    for i, mcl in missing:
        swap = None
        for k, (j, ecl) in enumerate(extra):
            if k not in used and ecl.color == mcl.color and ecl.count == mcl.count:
                swap = (k, ecl)
                break
        if swap is not None:
            used.add(swap[0])
            out.append(Corruption(CAT_OBJECT_SWAP, i, _triple(mcl), _triple(swap[1])))
        else:
            out.append(Corruption(CAT_OMISSION, i, _triple(mcl), None))
    for k, (j, ecl) in enumerate(extra):
        if k not in used:
            out.append(Corruption(CAT_FABRICATION, -1, None, _triple(ecl)))
    return out


def _triple(cl):
    return (cl.obj, cl.color, cl.count)


def corrupt(caption, corruption_seed):
    """Inject 1-2 known corruptions into a caption.

    Returns (rejected_tokens, corruption list). The rejected caption is
    always parseable and differs from the chosen one; a single-clause
    caption never receives an omission. Omission is never combined with
    fabrication or swap so the caption diff stays exact.
    """
    rng = np.random.default_rng(int(corruption_seed))
    clauses = parse_caption(caption)
    n_corr = int(rng.integers(1, 3))
    cats = _draw_categories(rng, clauses, n_corr)

    new_clauses = list(clauses)
    recorded = []
    used_targets = set()
    omitted = []
    swap_originals = []
    for cat in cats:
        if cat == CAT_FABRICATION:
            # union with the original clauses: re-adding a swapped-out
            # object would make the caption diff ambiguous
            present = {cl.obj for cl in clauses} | {cl.obj for cl in new_clauses}
            candidates = [o for o in range(len(OBJECTS)) if o not in present]
            obj = int(rng.choice(candidates))
            color = int(rng.integers(0, len(COLORS)))
            count = int(rng.integers(1, len(COUNT_WORDS) + 1))
            # avoid (color,count) collision with a co-injected swap original,
            # which would confuse the positional-free diff pairing
            while any((color, count) == (cl.color, cl.count) for cl in swap_originals):
                color = int(rng.integers(0, len(COLORS)))
                count = int(rng.integers(1, len(COUNT_WORDS) + 1))
            fab = SceneObject(obj, color, count)
            new_clauses.append(fab)
            recorded.append(Corruption(CAT_FABRICATION, -1, None, _triple(fab)))
            continue
        idx = int(rng.choice([i for i in range(len(clauses)) if i not in used_targets]))
        used_targets.add(idx)
        cl = clauses[idx]
        if cat == CAT_OMISSION:
            omitted.append(cl)
            recorded.append(Corruption(CAT_OMISSION, idx, _triple(cl), None))
        elif cat == CAT_OBJECT_SWAP:
            present = {c.obj for c in clauses} | {c.obj for c in new_clauses}
            obj = int(rng.choice([o for o in range(len(OBJECTS)) if o not in present]))
            repl = SceneObject(obj, cl.color, cl.count)
            new_clauses[new_clauses.index(cl)] = repl
            swap_originals.append(cl)
            recorded.append(Corruption(CAT_OBJECT_SWAP, idx, _triple(cl), _triple(repl)))
        elif cat == CAT_COLOR:
            color = int(rng.choice([c for c in range(len(COLORS)) if c != cl.color]))
            repl = SceneObject(cl.obj, color, cl.count)
            new_clauses[new_clauses.index(cl)] = repl
            recorded.append(Corruption(CAT_COLOR, idx, _triple(cl), _triple(repl)))
        elif cat == CAT_COUNT:
            delta = 1 if cl.count == 1 else (-1 if cl.count == len(COUNT_WORDS) else int(rng.choice([-1, 1])))
            repl = SceneObject(cl.obj, cl.color, cl.count + delta)
            new_clauses[new_clauses.index(cl)] = repl
            recorded.append(Corruption(CAT_COUNT, idx, _triple(cl), _triple(repl)))
    new_clauses = [cl for cl in new_clauses if cl not in omitted]
    assert new_clauses  # omission is never drawn for 1-object scenes
    rejected = _render_clauses(new_clauses)
    assert rejected != list(caption)
    return rejected, recorded


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
    """One dataset row: scene, chosen/rejected captions, corruption truth."""

    seed: int
    scene: Scene
    chosen: list[int]
    rejected: list[int]
    corruptions: list[Corruption] = field(default_factory=list)

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
        return cls(
            seed=d["seed"],
            scene=Scene([SceneObject(*o) for o in d["scene"]]),
            chosen=list(d["chosen_tokens"]),
            rejected=list(d["rejected_tokens"]),
            corruptions=[Corruption.from_dict(c) for c in d["corruptions"]],
        )


def make_preference_dataset(n, seed, object_pool=None):
    """n deterministic preference records; per-item seeds derive from `seed`.

    With `object_pool` (a set of object ids) only scenes drawn entirely
    from the pool are kept; candidate seeds that fall outside it are
    skipped, so pooled datasets stay deterministic in `seed`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if object_pool is not None:
        object_pool = {int(o) for o in object_pool}
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
    """Read records written by `write_dataset_jsonl`; ValueError on a token
    id outside [0, VOCAB_SIZE) or a chosen caption that is not the
    rendering of its scene."""
    records = [PreferenceRecord.from_dict(d) for d in read_jsonl(path)]
    for rec in records:
        if not all(0 <= t < VOCAB_SIZE for t in rec.chosen + rec.rejected):
            raise ValueError(f"record {rec.seed}: token id outside [0, {VOCAB_SIZE})")
        if rec.chosen != render_caption(rec.scene):
            raise ValueError(f"record {rec.seed}: chosen caption is not its scene's rendering")
    return records
