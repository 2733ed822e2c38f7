"""Instances of the stochastic matching model and probe-state transitions.

An instance is an undirected graph with a success probability on every edge
and a patience number on every vertex.  A state tracks which edges are still
alive (as a bitmask over edge indices) and how much patience each vertex has
left.  All types are immutable values; transitions return new states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Default size caps keeping exact tree/DP evaluation tractable.
MAX_EDGES = 24
MAX_TOTAL_PATIENCE = 64


class InstanceError(Exception):
    """Malformed instance text: syntax or semantic violation."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SizeCapError(Exception):
    """Instance exceeds the size caps for exact evaluation."""


@dataclass(frozen=True)
class Instance:
    """Graph with edge probabilities and vertex patience numbers.

    Vertices are 0..n-1; edges keep their construction order and are
    identified by index for the instance's whole lifetime.
    """

    n: int
    edges: tuple  # tuple of (u, v, p) with u < v
    patience: tuple  # length n, each >= 1
    incidence: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        if len(self.patience) != self.n:
            raise ValueError("patience length must equal vertex count")
        seen = set()
        for i, (u, v, p) in enumerate(self.edges):
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {i}: endpoints must satisfy 0 <= u < v < n")
            if not (0.0 < p <= 1.0):
                raise ValueError(f"edge {i}: probability must be in (0, 1]")
            if (u, v) in seen:
                raise ValueError(f"edge {i}: duplicate edge ({u}, {v})")
            seen.add((u, v))
        for v, t in enumerate(self.patience):
            if t < 1:
                raise ValueError(f"vertex {v}: patience must be >= 1")
        inc = [0] * self.n
        for i, (u, v, _) in enumerate(self.edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        object.__setattr__(self, "incidence", tuple(inc))

    @property
    def m(self):
        return len(self.edges)

    def check_caps(self, force=False):
        """Raise SizeCapError if the instance is too large for exact work."""
        if force:
            return
        if self.m > MAX_EDGES:
            raise SizeCapError(f"{self.m} edges exceeds cap of {MAX_EDGES}")
        if sum(self.patience) > MAX_TOTAL_PATIENCE:
            raise SizeCapError(
                f"total patience {sum(self.patience)} exceeds cap of {MAX_TOTAL_PATIENCE}"
            )


@dataclass(frozen=True)
class State:
    """Alive-edge bitmask plus remaining patience per vertex."""

    alive: int
    patience_left: tuple


def parse_instance(text):
    """Parse the instance file format into an Instance.

    Format (UTF-8, '#' comments, blank lines ignored):
        stochmatch 1
        <n> <m>
        <t_0> ... <t_{n-1}>
        <u> <v> <p>        (m lines)
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))

    if not lines:
        raise InstanceError("empty input")

    lineno, header = lines[0]
    if header.split() != ["stochmatch", "1"]:
        raise InstanceError("expected header 'stochmatch 1'", line=lineno)

    if len(lines) < 2:
        raise InstanceError("missing '<n> <m>' line", line=lineno)
    lineno, counts = lines[1]
    parts = counts.split()
    if len(parts) != 2:
        raise InstanceError("expected '<n> <m>'", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InstanceError("vertex/edge counts must be integers", line=lineno)
    if n < 0 or m < 0:
        raise InstanceError("counts must be non-negative", line=lineno)

    if len(lines) == 2 and n == 0:
        lines.append((lineno, ""))  # a 0-vertex instance's patience line is blank
    if len(lines) < 3:
        raise InstanceError("missing patience line")
    lineno, pat_line = lines[2]
    parts = pat_line.split()
    if len(parts) != n:
        raise InstanceError(f"expected {n} patience values, got {len(parts)}", line=lineno)
    patience = []
    for col, tok in enumerate(parts):
        try:
            t = int(tok)
        except ValueError:
            raise InstanceError(f"patience '{tok}' is not an integer", line=lineno, column=col)
        if t < 1:
            raise InstanceError(f"patience must be >= 1, got {t}", line=lineno, column=col)
        patience.append(t)

    if len(lines) != 3 + m:
        raise InstanceError(f"expected {m} edge lines, got {len(lines) - 3}")
    edges = []
    seen = set()
    for lineno, edge_line in lines[3:]:
        parts = edge_line.split()
        if len(parts) != 3:
            raise InstanceError("expected '<u> <v> <p>'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InstanceError("endpoints must be integers", line=lineno)
        try:
            p = float(parts[2])
        except ValueError:
            raise InstanceError(f"probability '{parts[2]}' is not a number", line=lineno)
        if u == v:
            raise InstanceError(f"self-loop {u} {v}", line=lineno)
        if not (0 <= u < v < n):
            raise InstanceError(f"endpoints must satisfy 0 <= u < v < {n}", line=lineno)
        if not (0.0 < p <= 1.0):
            raise InstanceError(f"probability {p} outside (0, 1]", line=lineno)
        if (u, v) in seen:
            raise InstanceError(f"duplicate edge {u} {v}", line=lineno)
        seen.add((u, v))
        edges.append((u, v, p))

    return Instance(n=n, edges=tuple(edges), patience=tuple(patience))


def format_instance(inst):
    """Serialize an Instance back into the text file format."""
    out = ["stochmatch 1", f"{inst.n} {inst.m}"]
    out.append(" ".join(str(t) for t in inst.patience))
    for u, v, p in inst.edges:
        out.append(f"{u} {v} {p!r}")
    return "\n".join(out) + "\n"


def initial_state(inst):
    """State with all edges alive and full patience."""
    return State(alive=(1 << inst.m) - 1, patience_left=inst.patience)


def is_probeable(inst, s, e):
    u, v, _ = inst.edges[e]
    return bool((s.alive >> e) & 1) and s.patience_left[u] > 0 and s.patience_left[v] > 0


def probeable_edges(inst, s):
    """Alive edges whose both endpoints still have patience, ascending index."""
    alive = s.alive
    pat = s.patience_left
    return [
        e
        for e, (u, v, _) in enumerate(inst.edges)
        if (alive >> e) & 1 and pat[u] > 0 and pat[v] > 0
    ]


def apply_success(inst, s, e):
    """Match edge e: drop both endpoints and every edge incident to them."""
    if not is_probeable(inst, s, e):
        raise ValueError(f"edge {e} is not probeable in this state")
    u, v, _ = inst.edges[e]
    alive = s.alive & ~(inst.incidence[u] | inst.incidence[v])
    pat = list(s.patience_left)
    pat[u] = 0
    pat[v] = 0
    return State(alive=alive, patience_left=tuple(pat))


def apply_failure(inst, s, e):
    """Failed probe of e: drop e and decrement patience at both endpoints."""
    if not is_probeable(inst, s, e):
        raise ValueError(f"edge {e} is not probeable in this state")
    u, v, _ = inst.edges[e]
    pat = list(s.patience_left)
    pat[u] -= 1
    pat[v] -= 1
    return State(alive=s.alive & ~(1 << e), patience_left=tuple(pat))

