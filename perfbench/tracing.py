"""Spans around calls into the stochmatch modules, recorded from outside.

A Tracer rebinds public functions in the module that calls them, so the
package itself is unchanged.  Rebinding in the caller's module means a
recursive public function (``subtree_value``) is timed once per outer call,
not once per recursion step.  Each wrapped call records a span: name, parent
span, start, end and an optional count (states solved, nodes walked, ...).
Spans stay in memory until ``write`` stores them; ``uninstall`` restores the
original bindings.
"""

from __future__ import annotations

import base64
import json
from array import array
from time import perf_counter

# (module, name bound there, span name, count kind).  The benchmark's own
# calls go through the defining module's attribute, so a binding in the
# defining module covers them; calls inside the package are covered by the
# binding in the calling module.
BINDINGS = (
    ("generator", "generate_instances", "generator.generate_instances", "len"),
    ("core", "parse_instance", "core.parse_instance", None),
    ("core", "format_instance", "core.format_instance", None),
    ("proofcheck", "check_chain", "proofcheck.check_chain", None),
    ("proofcheck", "transform_optprime", "proofcheck.transforms", None),
    ("proofcheck", "value_algL", "proofcheck.transforms", None),
    ("proofcheck", "value_algR", "proofcheck.transforms", None),
    ("proofcheck", "check_key_lemma", "proofcheck.key_lemma", None),
    ("proofcheck", "optimal_value", "proofcheck.resolve", "memo"),
    ("proofcheck", "build_tree", "policy.build_tree", "tree"),
    ("proofcheck", "subtree_value", "policy.subtree_value", None),
    ("proofcheck", "event_probability", "events.event_probability", "walked"),
    ("proofcheck", "conditional_probability", "events.conditional_probability", "none"),
    # conditional_probability's own two queries.
    ("events", "event_probability", "events.event_probability", "walked"),
    ("proofcheck", "optimal_policy", "solver.policy", "factory"),
    ("proofcheck", "greedy_policy", "policy.greedy", "factory"),
    ("solver", "optimal_value", "solver.optimal_value", "memo"),
    ("solver", "optimal_policy", "solver.policy", "factory"),
    ("policy", "greedy_policy", "policy.greedy", "factory"),
    ("policy", "build_tree", "policy.build_tree", "tree"),
    ("policy", "tree_value", "policy.tree_value", None),
    ("montecarlo", "simulate", "montecarlo.simulate", "trials"),
    ("montecarlo", "apply_success", "core.transitions", None),
    ("montecarlo", "apply_failure", "core.transitions", None),
)

# Time spent computing counts; a child of whatever span is open, so it is
# excluded from that span's self time and shows only as tracing overhead.
BOOKKEEPING = "trace.bookkeeping"


def _tree_size(t):
    size = 0
    stack = [t]
    while stack:
        node = stack.pop()
        size += 1
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)
    return size


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]
        self._restore = []
        # id(tree) -> (tree, node count); the tree is held so the id stays
        # unique.  Cleared whenever the outermost span closes.
        self._tree_sizes = {}
        self._bookkeeping = self._name_id(BOOKKEEPING)

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        if len(self._stack) == 1:
            self._tree_sizes.clear()

    def _size_of(self, tree):
        cached = self._tree_sizes.get(id(tree))
        if cached is not None:
            return cached[1]
        idx = self._open(self._bookkeeping)
        t0 = perf_counter()
        size = _tree_size(tree)
        self._close(idx, t0, perf_counter())
        self._tree_sizes[id(tree)] = (tree, size)
        return size

    def _counter(self, kind):
        if kind == "len":
            return lambda args, result: len(result)
        if kind == "memo":
            return lambda args, result: len(result[1])
        if kind == "tree":
            return lambda args, result: self._size_of(result)
        if kind == "walked":
            return lambda args, result: self._size_of(args[0])
        if kind == "none":
            return lambda args, result: int(result is None)
        if kind == "trials":
            return lambda args, result: result.trials
        return None

    def wrap(self, fn, name, kind=None):
        """A callable that records one span per call of fn."""
        nid = self._name_id(name)
        count = self._counter(kind)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if count is not None:
                self.count[idx] = count(args, result)
            return result

        return traced

    def _wrap_factory(self, factory, name):
        """Wrap a policy factory so every decision of its policy is a span."""

        def traced_factory(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), name)

        return traced_factory

    def install(self, modules):
        """Rebind every name in BINDINGS; modules maps short names to modules."""
        for mod_name, attr, span, kind in BINDINGS:
            module = getattr(modules, mod_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            if kind == "factory":
                setattr(module, attr, self._wrap_factory(original, span))
            else:
                setattr(module, attr, self.wrap(original, span, kind))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def totals(self):
        """Per span name: calls, busy seconds, self seconds and summed count."""
        child = [0.0] * len(self.name_of)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i, nid in enumerate(self.name_of):
            dur = self.end[i] - self.start[i]
            entry = out.setdefault(self.names[nid], [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
            entry[3] += self.count[i]
        return out

    def write(self, path):
        """Store every span as JSON, each array base64 in native byte order."""
        fields = {}
        for field in ("name_of", "parent", "start", "end", "count"):
            arr = getattr(self, field)
            fields[field] = {
                "typecode": arr.typecode,
                "data": base64.b64encode(arr.tobytes()).decode("ascii"),
            }
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "spans": len(self.name_of), "fields": fields}, f)
