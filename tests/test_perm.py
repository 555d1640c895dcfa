"""Permutations as images tuples: composition order, parity, cycle text."""

from functools import partial
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from varikon import perm, words

perms5 = st.permutations(range(5)).map(tuple)
perms8 = st.permutations(range(8)).map(tuple)


def test_identity():
    assert perm.identity(4) == (0, 1, 2, 3)
    assert perm.parity(perm.identity(9)) == 0


def test_compose_applies_left_factor_first():
    a = perm.parse_cycles("(1,2,3)", 3)
    b = perm.parse_cycles("(1,2)", 3)
    assert perm.compose(a, b) == perm.parse_cycles("(2,3)", 3)
    assert perm.compose(b, a) == perm.parse_cycles("(1,3)", 3)


def test_compose_size_mismatch():
    for a, b in (((0, 1), (0, 1, 2)), ((), (0,)), ((0,), ()),
                 (tuple(range(6)), (1, 0))):
        with pytest.raises(ValueError, match="size mismatch"):
            perm.compose(a, b)


@pytest.mark.parametrize("a, b, expected", [
    ((), (), ()),
    ((0,), (0,), (0,)),
    (perm.parse_cycles("(1,2,3)(4,5,6)", 6), perm.parse_cycles("(1,2)", 6),
     perm.parse_cycles("(2,3)(4,5,6)", 6)),
])
def test_compose_on_zero_one_and_six_points(a, b, expected):
    for x, y in ((a, b), (list(a), list(b))):
        product = perm.compose(x, y)
        assert product == expected and type(product) is tuple


def test_compose_is_the_pointwise_product_on_s4():
    s4 = list(permutations(range(4)))
    for a in s4:
        for b in s4:
            assert perm.compose(a, b) == tuple(b[x] for x in a)


@given(perms5, perms5)
def test_parity_is_a_homomorphism(a, b):
    assert perm.parity(perm.compose(a, b)) == (perm.parity(a) + perm.parity(b)) % 2


@given(perms8)
def test_inverse_round_trip(p):
    assert perm.compose(p, perm.inverse(p)) == perm.identity(8)
    assert perm.compose(perm.inverse(p), p) == perm.identity(8)


@given(perms5, perms5, perms5)
def test_compose_is_associative(a, b, c):
    assert perm.compose(perm.compose(a, b), c) == perm.compose(a, perm.compose(b, c))


@given(perms8)
def test_cycle_text_round_trip(p):
    assert perm.parse_cycles(perm.format_cycles(p), 8) == p


def test_cycles_partition_the_points_in_order_of_least_point():
    for n in range(7):
        for p in permutations(range(n)):
            cycles = list(perm.cycles(p))
            assert sorted(x for c in cycles for x in c) == list(range(n))
            for c in cycles:
                assert c[0] == min(c)
                assert [p[x] for x in c] == c[1:] + c[:1]
            assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


def test_parity_examples():
    assert perm.parity(perm.parse_cycles("(1,2,3)", 5)) == 0
    assert perm.parity(perm.parse_cycles("(1,2)", 5)) == 1
    assert perm.parity(perm.parse_cycles("(1,2)(4,5)", 5)) == 0


def test_parse_cycles_identity_and_layout():
    assert perm.parse_cycles("()", 6) == perm.identity(6)
    assert perm.format_cycles(perm.identity(6)) == "()"
    assert perm.format_cycles(perm.parse_cycles("(5,6,7)", 8)) == "(5,6,7)"
    assert perm.format_cycles(perm.parse_cycles("(4,5)(1,2)", 5)) == "(1,2)(4,5)"


def test_parse_cycles_rejects_bad_text():
    for text, message in (
            ("(1,1)", "repeated point 1"),
            ("(0,2)", "point 0 out of range 1..8"),
            ("(1,9)", "point 9 out of range 1..8"),
            # a half-bracketed text is turned away whole, by either end
            ("(1,2", "malformed cycle notation: '(1,2'"),
            ("1,2)", "malformed cycle notation: '1,2)'"),
            ("junk", "malformed cycle notation: 'junk'"),
            ("(1,2)(2,3)", "repeated point 2")):
        with pytest.raises(ValueError) as exc:
            perm.parse_cycles(text, 8)
        assert str(exc.value) == message, text


def test_generate_small_groups():
    a5 = words.build_table([perm.parse_cycles("(1,2,3)", 5),
                            perm.parse_cycles("(3,4,5)", 5)]).entries
    assert len(a5) == 60
    s3 = words.build_table([perm.parse_cycles("(1,2)", 3),
                            perm.parse_cycles("(2,3)", 3)]).entries
    assert len(s3) == 6
    single = words.build_table([perm.parse_cycles("(1,2,3)", 3)]).entries
    assert len(single) == 3
    assert set(words.build_table([(1, 0)]).entries) == {(0, 1), (1, 0)}


def test_generate_on_one_point():
    assert set(words.build_table([(0,)]).entries) == {(0,)}


@pytest.mark.parametrize("n", range(1, 8))
def test_all_even_matches_the_parity_route(n):
    # all_even reads parity off the Lehmer codes; parity counts cycles
    assert perm.all_even(n) == {p for p in permutations(range(n))
                                if perm.parity(p) == 0}


def test_all_even():
    evens = perm.all_even(4)
    assert len(evens) == 12
    assert all(perm.parity(p) == 0 for p in evens)
    assert perm.parse_cycles("(1,2,3)", 4) in evens
    assert perm.parse_cycles("(1,2)", 4) not in evens


TAKE_TABLE = [10, 11, 12, 13, 14]


@pytest.mark.parametrize("keys", [[], [3], [4, 0, 4, 2], range(5)])
def test_take_gathers_any_number_of_keys(keys):
    # itemgetter alone gives a bare item on one key and refuses none
    assert perm.take(TAKE_TABLE, keys) == tuple(TAKE_TABLE[k] for k in keys)


def test_take_reads_a_generator_or_a_set_once():
    keys = {0, 2, 3}
    assert perm.take(TAKE_TABLE, keys) == tuple(TAKE_TABLE[k] for k in keys)
    assert perm.take(TAKE_TABLE, (k for k in [1])) == (11,)
    assert perm.take(TAKE_TABLE, (k for k in [])) == ()
    assert perm.take("abc", iter([2, 0])) == ("c", "a")


# r1 and r2 are the roots; b is reachable from both, d from b by either label
BFS_GRAPH = {
    "r1": {"x": "a", "y": "b"},
    "r2": {"x": "b", "y": "c"},
    "a": {"x": "r1", "y": "r1"},
    "b": {"x": "d", "y": "d"},
    "c": {"x": "c", "y": "c"},
    "d": {"x": "d", "y": "d"},
}


def _graph_moves(labels):
    """BFS_GRAPH's neighbours of a state, in the order of labels."""
    return lambda s: [BFS_GRAPH[s][m] for m in labels]


def _product_moves(gens):
    """A perm's products with each of gens, in order."""
    return lambda p: [perm.compose(p, g) for g in gens]


@pytest.mark.parametrize("labels, expected", [
    ("xy", [("r1", (None, None)), ("r2", (None, None)), ("a", ("r1", "x")),
            ("b", ("r1", "y")), ("c", ("r2", "y")), ("d", ("b", "x"))]),
    ("yx", [("r1", (None, None)), ("r2", (None, None)), ("b", ("r1", "y")),
            ("a", ("r1", "x")), ("c", ("r2", "y")), ("d", ("b", "y"))]),
])
def test_bfs_discovery_order_and_first_edge(labels, expected):
    tree = perm.bfs(["r1", "r2"], labels, _graph_moves(labels))
    assert list(tree.items()) == expected


def test_bfs_pairs_each_neighbour_with_the_label_at_its_position():
    # moves gives the neighbours as a one-pass iterator, called once per
    # state; the label list is longer than that, and its tail never shows
    calls = []

    def moves(state):
        calls.append(state)
        return iter({"r": ("p", "q"), "p": ("r", "q"), "q": ()}[state])

    tree = perm.bfs(["r"], ["first", "second", "unused"], moves)
    assert tree == {"r": (None, None), "p": ("r", "first"),
                    "q": ("r", "second")}
    assert calls == ["r", "p", "q"]


def test_bfs_tree_edges_are_moves():
    gens = [perm.parse_cycles("(1,2,3)", 5), perm.parse_cycles("(3,4,5)", 5)]
    tree = perm.bfs([perm.identity(5)], gens, _product_moves(gens))
    assert set(tree) == perm.all_even(5)
    order = {p: i for i, p in enumerate(tree)}
    for p, (prev, g) in tree.items():
        if prev is not None:
            assert perm.compose(prev, g) == p
            assert order[prev] < order[p]


def _graph_steps(labels):
    return [partial(map, lambda s, m=m: BFS_GRAPH[s][m]) for m in labels]


@pytest.mark.parametrize("labels", ["xy", "yx"])
def test_orbit_is_the_bfs_reached_set(labels):
    tree = perm.bfs(["r1", "r2"], labels, _graph_moves(labels))
    assert perm.orbit(["r1", "r2"], _graph_steps(labels)) == set(tree)
    # roots that reach part of the graph only
    assert perm.orbit(["c"], _graph_steps(labels)) == {"c"}
    assert perm.orbit(["b"], _graph_steps(labels)) == {"b", "d"}


def test_orbit_of_the_a5_generators():
    gens = [perm.parse_cycles("(1,2,3)", 5), perm.parse_cycles("(3,4,5)", 5)]
    steps = [partial(map, lambda p, g=g: perm.compose(p, g)) for g in gens]
    reached = perm.orbit([perm.identity(5)], steps)
    assert reached == set(perm.bfs([perm.identity(5)], gens,
                                   _product_moves(gens)))
    assert reached == set(words.build_table(gens).entries) == perm.all_even(5)


def test_orbit_without_steps_is_the_roots():
    assert perm.orbit(["r1", "r2", "r1"], []) == {"r1", "r2"}
    assert perm.orbit([], _graph_steps("xy")) == set()
