"""Instance is the one judge of an instance's values.

A value fault gets the same reason from a file and from code: parse_instance
names the line ("line L: R"), Instance the edge or vertex ("edge i: R",
"vertex v: R").  Whatever Instance accepts either round-trips through the
file format to an equal instance, or format_instance refuses it.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochmatch.core import Instance, InstanceError, format_instance, parse_instance

# (case, n, patience, edges, where in code, line in the file that _text writes)
FAULTS = [
    ("self-loop", 3, (1, 1, 1), ((0, 1, 0.5), (2, 2, 0.5)), "edge 1", 6),
    ("unordered", 2, (1, 1), ((1, 0, 0.5),), "edge 0", 5),
    ("out-of-range", 2, (1, 1), ((0, 2, 0.5),), "edge 0", 5),
    ("p-zero", 2, (1, 1), ((0, 1, 0.0),), "edge 0", 5),
    ("p-above-one", 2, (1, 1), ((0, 1, 1.5),), "edge 0", 5),
    ("nan", 2, (1, 1), ((0, 1, math.nan),), "edge 0", 5),
    ("subnormal", 2, (1, 1), ((0, 1, 5e-324),), "edge 0", 5),
    ("duplicate", 3, (1, 1, 1), ((0, 1, 0.5), (1, 2, 0.5), (0, 1, 0.6)), "edge 2", 7),
    ("patience-zero", 2, (1, 0), ((0, 1, 0.5),), "vertex 1", 3),
]


def _text(n, patience, edges):
    """The file of an instance, with a comment line between patience and edges."""
    lines = ["stochmatch 1", f"{n} {len(edges)}", " ".join(map(str, patience)), "# edges"]
    return "\n".join(lines + [f"{u} {v} {p!r}" for u, v, p in edges]) + "\n"


@pytest.mark.parametrize(
    "n, patience, edges, where, line", [case[1:] for case in FAULTS], ids=[c[0] for c in FAULTS]
)
def test_file_and_code_give_one_reason(n, patience, edges, where, line):
    with pytest.raises(InstanceError) as from_file:
        parse_instance(_text(n, patience, edges))
    with pytest.raises(ValueError) as from_code:
        Instance(n, edges, patience)
    file_at, file_reason = str(from_file.value).split(": ", 1)
    code_at, code_reason = str(from_code.value).split(": ", 1)
    assert (file_at, code_at) == (f"line {line}", where)
    assert file_reason == code_reason


dyadic = st.integers(0, 64).flatmap(
    lambda e: st.integers(0, 2**e).map(lambda k: Fraction(k, 2**e))
)
probabilities = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(0.0, 1.0)
    | st.integers(-1, 2)
    | st.booleans()
    | dyadic
    | st.fractions(0, 1)
)


@st.composite
def raw_instances(draw):
    """(n, edges, patience) of ints, bools, floats and fractions, often invalid."""
    n = draw(st.sampled_from((2, 3, 4, True)))
    patience = tuple(draw(st.lists(st.sampled_from((1, 2, 3, True)), min_size=n, max_size=n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)) if pairs else []

    def endpoint(x):  # 0 and 1 may be drawn as False and True
        return draw(st.sampled_from((x, x, x == 1))) if x < 2 else x

    edges = tuple((endpoint(u), endpoint(v), draw(probabilities)) for u, v in chosen)
    return n, edges, patience


@settings(max_examples=300)
@given(raw_instances())
@example((2, ((0, 1, 0.5),), (True, 1)))  # was written as "True"
@example((2, ((0, 1, Fraction(1, 3)),), (1, 1)))  # was written as "Fraction(1, 3)"
@example((2, ((0, 1, Fraction(1, 2)),), (1, 1)))
@example((2, ((0, 1, 1),), (1, 1)))
def test_accepted_instance_round_trips_or_is_refused(raw):
    try:
        inst = Instance(*raw)
    except ValueError:
        return
    try:
        text = format_instance(inst)
    except ValueError as err:
        assert str(err).startswith("edge ")
        assert any(float(p) != p for _, _, p in inst.edges)
        return
    assert parse_instance(text) == inst
