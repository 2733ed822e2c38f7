"""Instances of the stochastic matching model and probe-state transitions.

An instance is an undirected graph with a success probability on every edge
and a patience number on every vertex.  A state is one int, its packed key:
which edges are still alive and how much patience is left at each vertex
whose patience is below its degree, the only vertices whose patience can run
out.  Every alive edge of a key is probeable, but two keys can share a
future (see kernel).  The layout is fixed per instance and known to this
module alone, which computes its transition rows (an immutable tuple) and
initial key once per instance, shared by every evaluator.  Every key comes
from initial_state and the transitions, so none is checked against the layout.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

# States a solve's memo or a decision tree may hold unless forced.  A memo entry
# costs about 170 B of RSS and a tree node 235 B, so a refusal stops below 250 MiB.
MAX_STATES = 1_000_000


class InstanceError(ValueError):
    """An instance breaks a rule: reason names it, and kind ("line", "edge"
    or "vertex") and index say where, if known, as "<kind> <index>: <reason>"."""

    def __init__(self, reason, kind=None, index=None):
        self.reason, self.kind, self.index = reason, kind, index
        super().__init__(reason if kind is None else f"{kind} {index}: {reason}")


class SizeCapError(Exception):
    """A solve or tree build needs more than MAX_STATES states (force lifts it)."""


class Instance:
    """Graph with edge probabilities and vertex patience numbers.

    Vertices are 0..n-1; edges holds (u, v, p) with u < v, kept in
    construction order and identified by index for the instance's whole
    lifetime; patience holds n numbers, each >= 1.  edges, each edge and
    patience must be tuples, so an instance hashes; n, the endpoints and the
    patience numbers must be ints and p any real in range that mixes with
    floats (a Fraction does, a Decimal does not), none a bool.  The one check
    of values: InstanceError names the edge or vertex at fault.
    An instance is immutable, and == and hash go by (n, edges, patience).
    """

    def __init__(self, n, edges, patience):
        if type(n) is not int or n < 0:
            raise InstanceError(f"vertex count must be an int >= 0, got {n!r}")
        if not (isinstance(edges, tuple) and isinstance(patience, tuple)):
            raise InstanceError("edges and patience must be tuples")
        if len(patience) != n:
            raise InstanceError("patience length must equal vertex count")
        low = sys.float_info.min  # a subnormal p overflows the chain's (1 - p) / p
        seen = set()
        for i, edge in enumerate(edges):
            if not (isinstance(edge, tuple) and len(edge) == 3):
                raise InstanceError("must be a (u, v, p) tuple", "edge", i)
            u, v, p = edge
            if not (type(u) is int and type(v) is int):
                raise InstanceError("each endpoint must be an int", "edge", i)
            if not 0 <= u < v < n:
                if u == v:
                    raise InstanceError(f"self-loop {u} {v}", "edge", i)
                raise InstanceError(f"endpoints {u} {v} must satisfy 0 <= u < v < {n}", "edge", i)
            try:  # the evaluators compute 1.0 - p, which a Decimal p refuses
                in_range = low <= p <= 1.0 and p is not True and 1.0 - p >= 0.0
            except TypeError:
                in_range = False
            if not in_range:
                reason = (
                    "probability must be a real in (0, 1] that mixes with floats, "
                    f"neither subnormal nor a bool, got {p!r}"
                )
                raise InstanceError(reason, "edge", i)
            pair = u * n + v  # one int per endpoint pair, as 0 <= u < v < n
            if pair in seen:
                raise InstanceError(f"duplicate edge {u} {v}", "edge", i)
            seen.add(pair)
        for v, t in enumerate(patience):
            if type(t) is not int or t < 1:
                raise InstanceError(f"patience must be an int >= 1, got {t!r}", "vertex", v)
        self.__dict__.update(n=n, edges=edges, patience=patience)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return self.n, self.edges, self.patience

    def __reduce__(self):  # copy and pickle rebuild through __init__, which validates
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"Instance(n={self.n!r}, edges={self.edges!r}, patience={self.patience!r})"

    @property
    def m(self):
        return len(self.edges)

    @cached_property
    def _table(self):
        """(kernel rows, initial key), worked out once per instance.  A vertex
        whose patience is below its degree gets a field patience.bit_length()
        bits wide, above the m alive bits and the fields of lower vertices.
        See kernel.
        """
        inc = [0] * self.n
        for e, (u, v, _) in enumerate(self.edges):
            inc[u] |= 1 << e
            inc[v] |= 1 << e
        field = [0] * self.n
        top = self.m
        root = (1 << top) - 1
        for v, t in enumerate(self.patience):
            if t < inc[v].bit_count():
                field[v] = ((1 << t.bit_length()) - 1) << top
                root |= t << top
                top += t.bit_length()
        rows = tuple(
            (
                field[u],
                field[v],
                inc[u] & ~(1 << e) if field[u] else 0,
                inc[v] & ~(1 << e) if field[v] else 0,
                ~(inc[u] | inc[v] | field[u] | field[v]),
                # e's bit, and one unit of each endpoint's field: its low bit
                (1 << e) + (field[u] & -field[u]) + (field[v] & -field[v]),
                p,
                1.0 - p,
            )
            for e, (u, v, p) in enumerate(self.edges)
        )
        return rows, root


def state_budget(force=False):
    """MAX_STATES, read at each call so that tests can lower it; no limit if force (a bool)."""
    if type(force) is not bool:
        raise ValueError(f"force must be a bool, got {force!r}")
    return math.inf if force else MAX_STATES


def parse_instance(text):
    """Parse the instance file format into an Instance.

    Format (UTF-8, '#' comments, blank lines ignored):
        stochmatch 1
        <n> <m>
        <t_0> ... <t_{n-1}>
        <u> <v> <p>        (m lines)

    Lines end at '\n' only, less one trailing '\r', so CRLF text parses.
    Outside comments a line holds printable ASCII, spaces and tabs only: no
    '_' and no other control character.  Comments are free text.
    """
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        # every reader of a line splits it on whitespace
        content = raw.removesuffix("\r").split("#", 1)[0]
        if not content.isascii() or "_" in content:
            raise InstanceError("non-ASCII or '_' outside a comment", "line", lineno)
        if not content.replace("\t", " ").isprintable():  # on ASCII, false at 0x00-0x1f, 0x7f
            raise InstanceError("control character outside a comment", "line", lineno)
        if content.strip():
            lines.append((lineno, content))

    if not lines:
        raise InstanceError("empty input")

    lineno, header = lines[0]
    if header.split() != ["stochmatch", "1"]:
        raise InstanceError("expected header 'stochmatch 1'", "line", lineno)

    if len(lines) < 2:
        raise InstanceError("missing '<n> <m>' line", "line", lineno)
    lineno, counts = lines[1]
    parts = counts.split()
    if len(parts) != 2:
        raise InstanceError("expected '<n> <m>'", "line", lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InstanceError("vertex/edge counts must be integers", "line", lineno)
    if n < 0 or m < 0:
        raise InstanceError("counts must be non-negative", "line", lineno)

    if len(lines) == 2 and n == 0:
        lines.append((lineno, ""))  # a 0-vertex instance's patience line is blank
    if len(lines) < 3:
        raise InstanceError("missing patience line")
    lineno, pat_line = lines[2]
    parts = pat_line.split()
    if len(parts) != n:
        raise InstanceError(f"expected {n} patience values, got {len(parts)}", "line", lineno)
    try:
        patience = [int(tok) for tok in parts]
    except ValueError:
        raise InstanceError("patience values must be integers", "line", lineno)

    if len(lines) != 3 + m:
        raise InstanceError(f"expected {m} edge lines, got {len(lines) - 3}")
    edges = []
    for lineno, edge_line in lines[3:]:
        parts = edge_line.split()
        if len(parts) != 3:
            raise InstanceError("expected '<u> <v> <p>'", "line", lineno)
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise InstanceError("endpoints must be integers and p a number", "line", lineno)

    try:  # Instance judges the values, and its error moves to the line at fault
        return Instance(n=n, edges=tuple(edges), patience=tuple(patience))
    except InstanceError as err:  # lines[2] holds the patience, lines[3 + i] edge i
        lineno = lines[3 + err.index if err.kind == "edge" else 2][0]
        raise InstanceError(err.reason, "line", lineno) from None


def format_instance(inst):
    """Serialize an Instance into the file format, which parses back to an
    equal one; a p with no exact float form raises InstanceError."""
    out = ["stochmatch 1", f"{inst.n} {inst.m}"]
    out.append(" ".join(str(t) for t in inst.patience))
    for i, (u, v, p) in enumerate(inst.edges):
        if float(p) != p:
            raise InstanceError(f"probability {p!r} has no exact float form", "edge", i)
        out.append(f"{u} {v} {float(p)!r}")
    return "\n".join(out) + "\n"


def kernel(inst):
    """Per-edge transition rows of the instance's packed state keys.

    A key is one int: the alive-edge bits are its low m bits, and above them
    sits a patience field for each vertex whose patience is below its degree,
    patience.bit_length() bits wide.  A vertex whose patience is at least its
    degree has no field: each probe at it removes one of its edges, so its
    patience can never run out while it has an edge, and states that differ
    only in what is left of it have the same future.  No key has an alive
    edge at a vertex whose field is 0, so an alive edge is a probeable one.
    Keys are not fully canonical: states that differ only in a field holding
    more patience than its vertex has alive edges have the same future (the
    2,000 scan instances at seed 1 have 53,747 DP keys, 42,406 with each field
    clamped to its alive degree; the clamp made the DP slower).  rows[e] is
    (field of u, field of v, u's other edges, v's other edges, success mask,
    failure decrement, p, 1 - p), where a vertex with no field has field 0 and
    other edges 0.  A success child is key & keep; a failure child is
    key - dec, less the other edges of an endpoint whose field reaches 0.
    The rows are an immutable tuple, computed once per instance and shared by
    every evaluator: each call returns the same object.
    """
    return inst._table[0]


def initial_state(inst):
    """Key with all edges alive and full patience."""
    return inst._table[1]


def check_stop(inst, key):
    """Raise ValueError unless a policy may stop at key: no edge is alive."""
    if key & ((1 << inst.m) - 1):
        raise ValueError("policy stopped while edges were probeable")


def probeable_edges(inst, key):
    """Alive edges of a key, which are the probeable ones, ascending."""
    return [e for e in range(inst.m) if key >> e & 1]


def apply_success(rows, key, e):
    """Match edge e: drop both endpoints and every edge incident to them.
    The one judge of a policy's edge: e must be an int (not a bool) whose
    edge is alive in key, or ValueError."""
    if not (type(e) is int and 0 <= e < len(rows) and key >> e & 1):
        raise ValueError(f"edge {e!r} is not alive in this state")
    return key & rows[e][4]


def apply_failure(rows, key, e):
    """Failed probe of e: drop e and one unit of patience at both endpoints.
    e is judged as in apply_success."""
    if not (type(e) is int and 0 <= e < len(rows) and key >> e & 1):
        raise ValueError(f"edge {e!r} is not alive in this state")
    fu, fv, ou, ov, _, dec, _, _ = rows[e]
    key -= dec
    if key & ou and not key & fu:
        key -= key & ou
    if key & ov and not key & fv:
        key -= key & ov
    return key
