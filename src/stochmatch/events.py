"""Path-event queries over decision trees.

An event is a predicate on a root-to-leaf path.  Each path step records the
probed edge, its endpoints and whether the probe succeeded.  Probabilities
are computed by exhaustive leaf enumeration, never by sampling.  A
conditional probability is undefined iff its condition's mass is exactly 0.
"""

from __future__ import annotations

from typing import NamedTuple


class PathStep(NamedTuple):
    edge: int
    u: int
    v: int
    success: bool

    def touches(self, vertex):
        return self.u == vertex or self.v == vertex


class Event:
    def holds(self, path):
        raise NotImplementedError


class ProbesEdge(Event):
    def __init__(self, edge):
        self.edge = edge

    def holds(self, path):
        return any(step.edge == self.edge for step in path)


class TakesEdge(Event):
    def __init__(self, edge):
        self.edge = edge

    def holds(self, path):
        return any(step.edge == self.edge and step.success for step in path)


class TakesVertex(Event):
    """Some edge incident to the vertex is probed successfully."""

    def __init__(self, vertex):
        self.vertex = vertex

    def holds(self, path):
        return any(step.touches(self.vertex) and step.success for step in path)


def _kth_touch(path, vertex, k):
    """The k-th step touching the vertex, or None if fewer occur."""
    count = 0
    for step in path:
        if step.touches(vertex):
            count += 1
            if count == k:
                return step
    return None


class ProbesVertexKth(Event):
    """The path contains a k-th probe touching the vertex."""

    def __init__(self, vertex, k):
        self.vertex = vertex
        self.k = k

    def holds(self, path):
        return _kth_touch(path, self.vertex, self.k) is not None


class TakesVertexAtKth(Event):
    """The k-th probe touching the vertex occurs and succeeds."""

    def __init__(self, vertex, k):
        self.vertex = vertex
        self.k = k

    def holds(self, path):
        step = _kth_touch(path, self.vertex, self.k)
        return step is not None and step.success


class FailsKthOfVertex(Event):
    """The k-th probe touching the vertex occurs and fails."""

    def __init__(self, vertex, k):
        self.vertex = vertex
        self.k = k

    def holds(self, path):
        step = _kth_touch(path, self.vertex, self.k)
        return step is not None and not step.success


class Not(Event):
    def __init__(self, inner):
        self.inner = inner

    def holds(self, path):
        return not self.inner.holds(path)


class And(Event):
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def holds(self, path):
        return self.a.holds(path) and self.b.holds(path)


def event_probability(t, q):
    """Probability that a root-to-leaf path of the tree satisfies the event."""
    total = 0.0
    path = []

    def walk(node, prob):
        nonlocal total
        if node.is_leaf:
            if q.holds(path):
                total += prob
            return
        path.append(PathStep(node.edge, node.u, node.v, True))
        walk(node.left, prob * node.p)
        path[-1] = PathStep(node.edge, node.u, node.v, False)
        walk(node.right, prob * (1.0 - node.p))
        path.pop()

    walk(t, 1.0)
    return total


def conditional_probability(t, a, b):
    """P(a | b), or None iff P(b), a sum of leaf masses, is exactly 0.

    Callers multiply a None by its zero condition probability and treat the
    product as zero.
    """
    pb = event_probability(t, b)
    if pb == 0.0:
        return None
    pab = event_probability(t, And(a, b))
    return pab / pb
