"""Span tracing of prefalign's public functions, installed from outside.

A `Tracer` replaces each traced function with a wrapper at every place
callers resolve it: every attribute of every loaded ``prefalign`` module
that holds the function (modules import many of them by name), the
class for methods, and the ``checks.CHECKS`` table. The Tensor
operators call ``autodiff``'s module globals, so patching that module
covers them too. `uninstall` restores every original object.

Each call records one span (name, start, end, parent) in flat arrays.
Self time is a span's duration minus the durations of its direct
children; it is computed once, after the run, from the arrays.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

AUTODIFF_OPS = ("matmul", "add", "mul", "gather_rows", "take_along_rows", "log_softmax",
                "tsum", "sigmoid", "log_sigmoid", "texp", "concat_rows")

# (metric prefix, module, attribute path); reported as .calls and .self_s
SELF_TIMED = tuple(
    [("autodiff.backward", "autodiff", "backward"),
     ("autodiff.finite_diff", "autodiff", "finite_diff")]
    + [(f"autodiff.{op}", "autodiff", op) for op in AUTODIFF_OPS]
    + [(f"model.{f}", "model", f) for f in
       ("init_params", "encode_context", "token_logprob_matrix", "token_logprobs", "greedy_decode")]
    + [(f"losses.{f}", "losses", f) for f in
       ("sequence_logprob", "conversation_sft_loss", "per_token_kl", "sft_loss", "dpo_loss", "dpo_logit")]
    + [(f"world.{f}", "world", f) for f in ("make_preference_dataset", "parse_caption", "diff_captions")]
    + [(f"constructor.{f}", "constructor", f) for f in
       ("RuleBasedOracle.identify", "construct_conversation", "balance_yes_no", "qa_turns_from_clauses")]
    + [("metrics.chair", "metrics", "chair"),
       ("theory.bias_trajectory_report", "theory", "bias_trajectory_report")]
)

# training phases; reported as .calls and inclusive seconds .s
PHASES = tuple((f"training.{f}", "training", f) for f in
               ("make_base_model", "train", "build_training_views", "self_response_records",
                "evaluate_model", "mean_sequence_logprobs"))

TRAIN_METHODS = ("cont_sft", "gt_dpo", "nsft", "sft_kl")


class _KeepsCode:
    """Callable standing in for a check function in ``checks.CHECKS``.

    ``run_all_checks`` reads ``fn.__code__`` to decide whether to pass
    ``seeds``, so the stand-in exposes the original function's code.
    """

    def __init__(self, wrapper, original):
        self._wrapper = wrapper
        self.__code__ = original.__code__

    def __call__(self, *args, **kwargs):
        return self._wrapper(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []
        self.counters = defaultdict(float)

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, label=None, observe=None):
        nid = self._nid(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid if label is None else self._nid(label(args, kwargs)))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- per-function observers for the derived per-layer counts --------

    def _observe_decode(self, args, kwargs, out):
        self.counters["decode.tokens"] += len(out)
        self.counters["decode.eos"] += bool(out) and out[-1] == args[0].eos_id

    def _bound(self, fn, args, kwargs):
        ba = inspect.signature(fn).bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    def install(self):
        from prefalign import checks  # the package __init__ does not import checks

        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "prefalign" or name.startswith("prefalign.")) and mod is not None}
        replace = {}

        for prefix, modname, attr in SELF_TIMED + PHASES:
            owner = modules[f"prefalign.{modname}"]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            fn = getattr(owner, fname)
            label = observe = None
            if prefix == "model.greedy_decode":
                observe = self._observe_decode
            elif prefix == "training.train":
                label = self._train_label(fn)
                observe = self._observe_train(fn)
            elif prefix == "training.make_base_model":
                observe = self._observe_pretrain(fn)
            elif prefix == "training.self_response_records":
                observe = self._observe_self_response(fn)
            wrapper = self._wrap(fn, prefix, label, observe)
            if cls_path:
                self._set(owner, fname, wrapper)
            else:
                replace[id(fn)] = (fn, wrapper)

        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, key, hit[1])

        table = checks.CHECKS
        original_table = list(table)
        for i, (name, fn) in enumerate(original_table):
            table[i] = (name, _KeepsCode(self._wrap(fn, f"checks.{name}"), fn))
        self._undo.append(lambda: table.__setitem__(slice(None), original_table))
        return self

    def _set(self, owner, key, value):
        old = owner.__dict__[key]
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, old))

    def _train_label(self, fn):
        return lambda args, kwargs: f"training.train.{self._bound(fn, args, kwargs)['config'].method}"

    def _observe_train(self, fn):
        def observe(args, kwargs, result):
            config = self._bound(fn, args, kwargs)["config"]
            self.counters[f"train.{config.method}.steps"] += config.steps
        return observe

    def _observe_pretrain(self, fn):
        def observe(args, kwargs, result):
            self.counters["pretrain.steps"] += self._bound(fn, args, kwargs)["steps"]
        return observe

    def _observe_self_response(self, fn):
        def observe(args, kwargs, out):
            records = self._bound(fn, args, kwargs)["records"]
            self.counters["self_response.records"] += len(records)
            self.counters["self_response.usable"] += sum(
                a.rejected != b.rejected for a, b in zip(out, records))
        return observe

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def save(self, path):
        np.savez(path, **self.arrays())

    def per_layer(self):
        """Per-layer metrics from the recorded spans; 0 for layers that never ran."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)
        incl = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        calls = np.bincount(a["name_id"], minlength=n_names)

        def get(arr, name):
            i = self._name_ids.get(name)
            return float(arr[i]) if i is not None else 0.0

        c = self.counters
        m = {}
        for prefix, _, _ in SELF_TIMED:
            m[f"{prefix}.calls"] = get(calls, prefix)
            m[f"{prefix}.self_s"] = get(self_time, prefix)
        m["model.greedy_decode.tokens"] = c["decode.tokens"]
        decodes = get(calls, "model.greedy_decode")
        m["model.greedy_decode.eos_ratio"] = c["decode.eos"] / decodes if decodes else 0.0
        for prefix, _, _ in PHASES:
            if prefix == "training.train":
                labels = [n for n in self.names if n.startswith("training.train.")]
                m[f"{prefix}.calls"] = sum(get(calls, n) for n in labels)
                m[f"{prefix}.s"] = sum(get(incl, n) for n in labels)
            else:
                m[f"{prefix}.calls"] = get(calls, prefix)
                m[f"{prefix}.s"] = get(incl, prefix)
        pre_steps = c["pretrain.steps"]
        m["training.make_base_model.ms_per_step"] = (
            1e3 * m["training.make_base_model.s"] / pre_steps if pre_steps else 0.0)
        n_sr = c["self_response.records"]
        m["training.self_response.usable_ratio"] = c["self_response.usable"] / n_sr if n_sr else 0.0
        for method in TRAIN_METHODS:
            steps = c[f"train.{method}.steps"]
            s = get(incl, f"training.train.{method}")
            m[f"training.train.{method}.ms_per_step"] = 1e3 * s / steps if steps else 0.0
        from prefalign import checks
        for name, _ in checks.CHECKS:
            m[f"checks.{name}.self_s"] = get(self_time, f"checks.{name}")
            m[f"checks.{name}.s"] = get(incl, f"checks.{name}")
        m["trace.spans"] = float(len(dur))
        return m
