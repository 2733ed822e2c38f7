import copy
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    canonical_key,
    random_instances,
    raw_failure,
    raw_initial_state,
    raw_probeable_edges,
    raw_success,
    reference_dp,
    unpack_key,
)

from stochmatch import core
from stochmatch.core import (
    Instance,
    InstanceError,
    SizeCapError,
    apply_failure,
    apply_success,
    format_instance,
    initial_state,
    kernel,
    parse_instance,
    probeable_edges,
)
from stochmatch.policy import build_tree, greedy_policy, policy_value
from stochmatch.proofcheck import check_chain, check_subtree_optimality
from stochmatch.solver import optimal_policy, optimal_value

SINGLE = "stochmatch 1\n2 1\n1 1\n0 1 0.5\n"


@st.composite
def instances(draw):
    """Any valid instance on up to 8 vertices, edges in any order."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    prob = st.floats(min_value=sys.float_info.min, max_value=1.0)
    edges = tuple((u, v, draw(prob)) for u, v in chosen)
    patience = tuple(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)))
    return Instance(n=n, edges=edges, patience=patience)


class TestParse:
    def test_minimal(self):
        inst = parse_instance(SINGLE)
        assert inst.n == 2
        assert inst.m == 1
        assert inst.edges == ((0, 1, 0.5),)
        assert inst.patience == (1, 1)

    def test_comments_and_blank_lines(self):
        text = "# header\nstochmatch 1\n\n2 1  # counts\n1 1\n0 1 0.5\n"
        assert parse_instance(text).m == 1
        text = "# header_1 \u00e9\nstochmatch 1\n2 1  # counts \uff11_0\n1 1\n0 1 0.5\n"
        assert parse_instance(text).m == 1  # comments are free text

    def test_lines_end_at_newline_only(self):
        # str.splitlines() also broke lines at these, so a comment holding one
        # turned its tail into a content line: "expected 1 edge lines, got 2".
        for brk in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
            assert parse_instance(f"stochmatch 1\n2 1\n1 1\n0 1 0.5  # p{brk}ok\n").m == 1
        assert parse_instance(SINGLE.replace("\n", "\r\n")) == parse_instance(SINGLE)
        assert parse_instance("stochmatch 1\n2\t1\n1 1\n0 1 0.5\n").m == 1  # tab is whitespace

    def test_control_character_outside_comment_rejected(self):
        # Accepted: str.split() read \x1f as whitespace (edge 0-1), and
        # str.splitlines() broke the header at \x1e and the patience at \x0c.
        for text, lineno in (
            ("stochmatch 1\n2 1\n1 1\n0\x1f1 0.5\n", 4),
            ("stochmatch 1\x1e2 1\n1 1\n0 1 0.5\n", 1),
            ("stochmatch 1\n2 1\n1\x0c1\n0 1 0.5\n", 3),
            ("stochmatch 1\n2 1\n1 1\r0 1 0.5\n", 3),
            ("stochmatch 1\n2 1\n1 1\n0 1 0.5\r\r\n", 4),
            ("stochmatch 1\n2 1\n1 1\n0 1\x000.5\n", 4),
            ("stochmatch 1\n2 1\n1 1\n0 1 0.5\x7f\n", 4),
        ):
            with pytest.raises(InstanceError, match=f"line {lineno}: control character outside"):
                parse_instance(text)

    def test_edge_order_is_file_order(self):
        text = "stochmatch 1\n4 3\n1 1 1 1\n2 3 0.2\n0 1 0.9\n0 2 0.5\n"
        inst = parse_instance(text)
        assert inst.edges == ((2, 3, 0.2), (0, 1, 0.9), (0, 2, 0.5))

    def test_bad_header(self):
        with pytest.raises(InstanceError):
            parse_instance("stochmatch 2\n2 1\n1 1\n0 1 0.5\n")

    def test_p_zero_rejected(self):
        with pytest.raises(InstanceError, match="probability"):
            parse_instance("stochmatch 1\n2 1\n1 1\n0 1 0\n")

    def test_p_above_one_rejected(self):
        with pytest.raises(InstanceError, match="probability"):
            parse_instance("stochmatch 1\n2 1\n1 1\n0 1 1.5\n")

    def test_subnormal_p_rejected(self):
        # Below the smallest normal float the chain's (1 - p) / p overflows.
        with pytest.raises(InstanceError, match="subnormal"):
            parse_instance("stochmatch 1\n2 1\n1 1\n0 1 5e-324\n")
        with pytest.raises(ValueError):
            Instance(n=2, edges=((0, 1, 5e-324),), patience=(1, 1))
        assert parse_instance(f"stochmatch 1\n2 1\n1 1\n0 1 {sys.float_info.min!r}\n").m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InstanceError, match="self-loop"):
            parse_instance("stochmatch 1\n3 1\n1 1 1\n2 2 0.5\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InstanceError, match="duplicate"):
            parse_instance("stochmatch 1\n2 2\n1 1\n0 1 0.5\n0 1 0.6\n")

    def test_patience_below_one_rejected(self):
        with pytest.raises(InstanceError, match="patience"):
            parse_instance("stochmatch 1\n2 1\n1 0\n0 1 0.5\n")

    def test_index_out_of_range(self):
        with pytest.raises(InstanceError):
            parse_instance("stochmatch 1\n2 1\n1 1\n0 2 0.5\n")

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance("stochmatch 1\n2 1\n1 1\n1 0 0.5\n")

    def test_error_reports_line(self):
        with pytest.raises(InstanceError, match="line 4"):
            parse_instance("stochmatch 1\n2 1\n1 1\n0 1 bogus\n")
        # Accepted: int and float read "1_0" as 10 and a full-width digit as
        # 1, and str.split() drops a no-break space.
        for text, lineno in (
            ("stochmatch 1\n2 1\n1_0 \uff11\n0 1 0.5\n", 3),
            ("stochmatch 1\n2 1\n1 1\n0 1 0.2_5\n", 4),
            ("stochmatch 1\n2 1\n1 1\n0 \uff11 0.5\n", 4),
            ("stochmatch 1\n2_0 1\n1 1\n0 1 0.5\n", 2),
            ("stochmatch 1\n2 1\n1 1\u00a0\n0 1 0.5\n", 3),
        ):
            with pytest.raises(InstanceError, match=f"line {lineno}: non-ASCII or '_'"):
                parse_instance(text)

    @pytest.mark.parametrize(
        "source, refusal",
        [
            ("", "empty input"),
            ("# c\n\n", "empty input"),
            ("stochmatch 1\n", "line 1: missing '<n> <m>' line"),
            ("stochmatch 1\n2\n", "line 2: expected '<n> <m>'"),
            ("stochmatch 1\n-1 0\n", "line 2: counts must be non-negative"),
            ("stochmatch 1\n2 -1\n1 1\n", "line 2: counts must be non-negative"),
            ("stochmatch 1\n2 0\n", "missing patience line"),
            ("stochmatch 1\n2 1\n1 1\n0 1\n", "line 4: expected '<u> <v> <p>'"),
            ((2, (), (1,)), "patience length must equal vertex count"),
            ("stochmatch 1\n3 1\n1 1 1\n0 1 0.5\n1 2 0.5\n", "expected 1 edge lines, got 2"),
        ],
    )
    def test_refusal_message(self, source, refusal):
        # A str is parsed; a tuple holds Instance's n, edges and patience.
        with pytest.raises(InstanceError) as err:
            parse_instance(source) if isinstance(source, str) else Instance(*source)
        assert str(err.value) == refusal

    def test_roundtrip(self):
        inst = parse_instance("stochmatch 1\n3 2\n2 1 3\n0 1 0.25\n1 2 1\n")
        assert parse_instance(format_instance(inst)) == inst

    @given(instances())
    @example(Instance(n=0, edges=(), patience=()))  # its patience line is blank
    def test_roundtrip_any_instance(self, inst):
        assert parse_instance(format_instance(inst)) == inst


class TestTransitions:
    def test_initial_state(self, p4):
        # Patience 2 is at least every p4 vertex's degree: no vertex has a field.
        assert unpack_key(p4, initial_state(p4)) == (0b111, (None,) * 4)
        star = Instance(n=3, edges=((0, 1, 0.5), (0, 2, 0.5)), patience=(1, 2, 2))
        assert unpack_key(star, initial_state(star)) == (0b11, (1, None, None))

    def test_initial_state_empty(self, empty_graph):
        assert unpack_key(empty_graph, initial_state(empty_graph))[0] == 0

    def test_success_removes_shared_endpoint_edges(self, p4):
        # p4's path with patience 1, so that b and c have fields.
        path = Instance(n=4, edges=p4.edges, patience=(1, 1, 1, 1))
        key = apply_success(kernel(path), initial_state(path), 0)  # edge a-b
        alive, patience = unpack_key(path, key)
        assert not (alive >> 1) & 1  # b-c gone too
        assert (alive >> 2) & 1  # c-d survives
        assert patience == (None, 0, 1, None)

    def test_success_keeps_disjoint_edge(self, disjoint_pair):
        key = apply_success(kernel(disjoint_pair), initial_state(disjoint_pair), 0)
        assert probeable_edges(disjoint_pair, key) == [1]

    def test_success_on_star_spoke_kills_all(self):
        star = Instance(
            n=4, edges=((0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5)), patience=(3, 1, 1, 1)
        )
        key = apply_success(kernel(star), initial_state(star), 1)
        assert unpack_key(star, key)[0] == 0

    def test_failure_single_edge(self, single_edge):
        key = apply_failure(kernel(single_edge), initial_state(single_edge), 0)
        assert unpack_key(single_edge, key) == (0, (None, None))

    def test_failure_exhausts_star_center(self):
        # The center's other edge is cleared with its patience: the key is canonical.
        star = Instance(n=3, edges=((0, 1, 0.5), (0, 2, 0.5)), patience=(1, 2, 2))
        key = apply_failure(kernel(star), initial_state(star), 0)
        assert probeable_edges(star, key) == []
        assert unpack_key(star, key) == (0, (0, None, None))

    def test_failure_patient_star_center(self, star2):
        key = apply_failure(kernel(star2), initial_state(star2), 0)
        assert probeable_edges(star2, key) == [1]

    def test_not_probeable_raises(self, single_edge):
        rows = kernel(single_edge)
        key = apply_failure(rows, initial_state(single_edge), 0)
        with pytest.raises(ValueError):
            apply_success(rows, key, 0)
        with pytest.raises(ValueError):
            apply_failure(rows, key, 0)

    def test_kernel_is_one_shared_tuple(self, p4):
        rows = kernel(p4)
        assert type(rows) is tuple and len(rows) == p4.m
        assert kernel(p4) is rows

    def test_probeable_initially_all(self, p4):
        assert probeable_edges(p4, initial_state(p4)) == [0, 1, 2]

    def test_transitions_match_raw_model(self):
        # Every raw state reachable under any policy: each transition's key is
        # the canonical key of the raw model's child.
        for inst in random_instances(seed=28, count=60) + [
            Instance(n=4, edges=((0, 1, 0.3), (0, 2, 0.6), (1, 2, 0.5), (2, 3, 0.8)),
                     patience=(5, 4, 2, 6)),
        ]:
            rows = kernel(inst)
            assert initial_state(inst) == canonical_key(inst, raw_initial_state(inst))
            for s in reference_dp(inst):
                key = canonical_key(inst, s)
                assert probeable_edges(inst, key) == raw_probeable_edges(inst, s)
                for e in raw_probeable_edges(inst, s):
                    assert apply_success(rows, key, e) == canonical_key(inst, raw_success(inst, s, e))
                    assert apply_failure(rows, key, e) == canonical_key(inst, raw_failure(inst, s, e))


class TestInvariants:
    def test_transitions_shrink_measure(self, p4):
        # (|alive|, sum of the fields) drops lexicographically on every
        # transition; p4's own patience gives no fields, patience 1 gives b and c one.
        for inst in (p4, Instance(n=4, edges=p4.edges, patience=(1, 1, 1, 1))):
            rows = kernel(inst)
            stack = [initial_state(inst)]
            while stack:
                key = stack.pop()
                alive, fields = unpack_key(inst, key)
                before = (bin(alive).count("1"), sum(filter(None, fields)))
                for e in probeable_edges(inst, key):
                    for nxt in (apply_success(rows, key, e), apply_failure(rows, key, e)):
                        alive, fields = unpack_key(inst, nxt)
                        after = (bin(alive).count("1"), sum(filter(None, fields)))
                        assert after < before
                        stack.append(nxt)

    def test_invalid_instances_rejected(self):
        with pytest.raises(ValueError):
            Instance(n=2, edges=((0, 1, 0.0),), patience=(1, 1))
        with pytest.raises(ValueError):
            Instance(n=2, edges=((1, 0, 0.5),), patience=(1, 1))
        with pytest.raises(ValueError):
            Instance(n=2, edges=((0, 1, 0.5),), patience=(0, 1))

    @pytest.mark.parametrize(
        "n, edges, patience",
        [
            (2.0, ((0, 1, 0.5),), (1, 1)),
            (2, ((0.0, 1, 0.5),), (1, 1)),
            (2, ((0, 1.0, 0.5),), (1, 1)),
            (2, ((0, 1, 0.5),), (1.5, 1)),
            (2, ((0, 1, 0.5),), (1, 1.0)),
            (2, ((0, 1, 0.5),), ("1", 1)),
        ],
    )
    def test_non_int_fields_rejected(self, n, edges, patience):
        # Accepted, these failed later: a float patience with AttributeError
        # in the solve, a float endpoint with TypeError in kernel.
        with pytest.raises(ValueError, match="must be an int"):
            Instance(n=n, edges=edges, patience=patience)

    @pytest.mark.parametrize(
        "edges, patience, message",
        [
            (((0, 1, "0.5"),), (1, 1), "probability"),
            (((0, 1, None),), (1, 1), "probability"),
            (((0, 1, 0.5),), [1, 1], "tuples"),
            ([(0, 1, 0.5)], (1, 1), "tuples"),
            (([0, 1, 0.5],), (1, 1), "tuple"),
            (((0, 1),), (1, 1), "tuple"),
            (((0, 1, 0.5, 1),), (1, 1), "tuple"),
            (((0, 1, Decimal("0.5")),), (1, 1), "edge 0: probability"),
        ],
    )
    def test_malformed_fields_rejected(self, edges, patience, message):
        # Accepted or half-checked, these raised TypeError: a string p from
        # the range comparison, a list field from hash(inst).  An edge of two
        # or four items failed to unpack, with a message that named no edge.
        # A Decimal p was accepted, and every evaluator's 1.0 - p then failed.
        with pytest.raises(ValueError, match=message):
            Instance(n=2, edges=edges, patience=patience)

    def test_any_real_probability_accepted(self):
        inst = Instance(n=2, edges=((0, 1, Fraction(1, 2)),), patience=(1, 1))
        assert inst.edges[0][2] == 0.5
        assert hash(inst) == hash(Instance(n=2, edges=((0, 1, 0.5),), patience=(1, 1)))

    def test_immutable(self, p4):
        for name in ("n", "edges", "patience", "m"):
            with pytest.raises(AttributeError):
                setattr(p4, name, getattr(p4, name))
            with pytest.raises(AttributeError):
                delattr(p4, name)

    def test_positional_equals_keyword(self, p4):
        inst = Instance(p4.n, p4.edges, p4.patience)
        assert inst == p4
        assert hash(inst) == hash(p4)
        assert inst != Instance(p4.n, p4.edges, (1,) * p4.n)
        assert inst != (p4.n, p4.edges, p4.patience)
        assert repr(inst) == f"Instance(n={p4.n}, edges={p4.edges!r}, patience={p4.patience!r})"

    def test_copies_rebuild_through_the_constructor(self, p4):
        initial_state(p4)  # fills the cached table, which a copy recomputes
        assert "_table" in vars(p4)
        for twin in (pickle.loads(pickle.dumps(p4)), copy.copy(p4), copy.deepcopy(p4)):
            assert twin == p4
            assert "_table" not in vars(twin)
            assert initial_state(twin) == initial_state(p4)


class TestStateBudget:
    """core.MAX_STATES bounds the states a solve stores and the nodes a tree
    holds (see test_policy for the node count); it is read when the work
    starts, and force lifts it."""

    ENTRY_POINTS = {
        "optimal_value": lambda inst, force: optimal_value(inst, force=force),
        "optimal_policy": lambda inst, force: optimal_policy(inst, force=force)(
            initial_state(inst)
        ),
        "build_tree": lambda inst, force: build_tree(inst, greedy_policy(inst), force=force),
        "policy_value": lambda inst, force: policy_value(inst, greedy_policy(inst), force=force),
        "check_chain": lambda inst, force: check_chain(inst, force=force),
        "check_subtree_optimality": lambda inst, force: check_subtree_optimality(
            inst, build_tree(inst, greedy_policy(inst), force=True), force=force
        ),
    }

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_refused_unless_forced(self, name, p4, monkeypatch):
        run = self.ENTRY_POINTS[name]
        expected = run(p4, False)
        monkeypatch.setattr(core, "MAX_STATES", 2)
        with pytest.raises(SizeCapError):
            run(p4, False)
        assert run(p4, True) == expected

    @pytest.mark.parametrize("force", ["no", [0], 1, 0.0, None])
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_force_must_be_a_bool(self, name, force, p4):
        # Truthy values once lifted the budget and falsy ones kept it.
        with pytest.raises(ValueError) as err:
            self.ENTRY_POINTS[name](p4, force)
        assert str(err.value) == f"force must be a bool, got {force!r}"

    def test_solve_at_budget_and_one_past(self, p4, monkeypatch):
        value, memo = optimal_value(p4)
        monkeypatch.setattr(core, "MAX_STATES", len(memo))
        assert optimal_value(p4) == (value, memo)
        monkeypatch.setattr(core, "MAX_STATES", len(memo) - 1)
        with pytest.raises(SizeCapError, match=f"more than {len(memo) - 1} states"):
            optimal_value(p4)

    def test_subtree_optimality_under_force(self, p4, monkeypatch):
        # A tree built with force is checked with force, not under the budget.
        # Greedy is not optimal on P4, so its report has violations.
        expected = check_subtree_optimality(p4, build_tree(p4, greedy_policy(p4)))
        assert not expected.ok
        monkeypatch.setattr(core, "MAX_STATES", 2)
        t = build_tree(p4, greedy_policy(p4), force=True)
        assert check_subtree_optimality(p4, t, force=True) == expected
        with pytest.raises(SizeCapError):
            check_subtree_optimality(p4, t)
        opt = build_tree(p4, optimal_policy(p4, force=True), force=True)
        assert check_subtree_optimality(p4, opt, force=True).ok
