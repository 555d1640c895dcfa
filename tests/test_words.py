"""Shortest-word tables over 3-cycle generators and the factored identities."""

import random
from unittest import mock

import pytest

from varikon import perm, words
from varikon.report import Check, Report

A5_HISTOGRAM = [(0, 1), (1, 4), (2, 8), (3, 16), (4, 24), (5, 6), (6, 1)]
A6_HISTOGRAM = [(0, 1), (1, 6), (2, 24), (3, 96), (4, 187), (5, 46)]


def test_table_sizes(a5_table, a6_table):
    assert len(a5_table) == 60
    assert len(a6_table) == 360
    assert len(a5_table.entries[perm.identity(5)]) == 0
    assert len(a6_table.entries[perm.identity(6)]) == 0


def test_length_histograms(a5_table, a6_table):
    assert a5_table.length_histogram() == A5_HISTOGRAM
    assert a6_table.length_histogram() == A6_HISTOGRAM


def test_every_entry_recomposes(a5_table, a6_table):
    for table in (a5_table, a6_table):
        for element in table.entries:
            assert table.compose_word(table.entries[element]) == element


def _bfs_tree_table(gens):
    """The table read off perm.bfs's tree with perm.compose products, kept
    as the reference for words.build_table."""
    table = words.WordTable(tuple(gens), {})
    images = list(table.letters.values())
    tree = perm.bfs([perm.identity(len(table.gens[0]))], table.letters,
                    lambda p: [perm.compose(p, g) for g in images])
    for p, (prev, s) in tree.items():  # parents come before children
        table.entries[p] = () if prev is None else table.entries[prev] + (s,)
    return table


@pytest.mark.parametrize("cycles,n", [
    (words.A5_GENERATOR_CYCLES, 5), (words.A6_GENERATOR_CYCLES, 6),
    (("(2,6,3)", "(3,5,1)", "(1,4,2)"), 6), (("(1,2)", "(1,2,3,4)"), 4)])
def test_build_table_matches_the_bfs_tree(cycles, n):
    # the same words in the same discovery order, on the two tables, a
    # relabelling of the A6 generators and a generating set of S4
    gens = [perm.parse_cycles(t, n) for t in cycles]
    assert list(words.build_table(gens).entries.items()) == \
        list(_bfs_tree_table(gens).entries.items())


def test_generator_words_are_single_letters(a5_table):
    assert a5_table.entries[perm.parse_cycles("(1,2,3)", 5)] == (1,)
    assert a5_table.entries[perm.parse_cycles("(3,4,5)", 5)] == (2,)
    assert a5_table.entries[perm.parse_cycles("(3,5,4)", 5)] == (-2,)


def test_inverse_has_equal_length(a5_table, a6_table):
    for table in (a5_table, a6_table):
        for element in table.entries:
            assert (len(table.entries[element])
                    == len(table.entries[perm.inverse(element)]))


def test_triangle_inequality(a6_table):
    rng = random.Random(21)
    elements = sorted(a6_table.entries)
    for _ in range(200):
        g, h = rng.choice(elements), rng.choice(elements)
        assert (len(a6_table.entries[perm.compose(g, h)])
                <= len(a6_table.entries[g]) + len(a6_table.entries[h]))


def test_a5_unique_longest_element(a5_table):
    assert a5_table.max_length() == 6
    worst = a5_table.elements_of_length(6)
    assert worst == [perm.parse_cycles("(1,2)(4,5)", 5)]
    assert a5_table.entries[worst[0]] == (1, 2, -1, -2, 1, 2)


def test_a6_longest_elements(a6_table):
    assert a6_table.max_length() == 5
    worst = a6_table.elements_of_length(5)
    assert len(worst) == 46
    target = perm.parse_cycles("(2,4,6)", 6)
    assert target in worst
    assert a6_table.entries[target] == (1, 2, 1, 3, 1)


def test_factored_identity_for_a5_validates():
    chk = words.check_factorization(
        "factored identity for (1,2)(4,5)",
        words.A5_MAX_FACTORS, words.A5_MAX_ELEMENT, 5)
    assert chk.passed
    assert "left-to-right" in chk.note


def test_factored_identity_for_a6_mismatch_is_reported():
    # the reference product does not hit (2,4,6) under either
    # composition convention; the check must say so and show both
    chk = words.check_factorization(
        "factored identity for (2,4,6)",
        words.A6_EXAMPLE_FACTORS, words.A6_EXAMPLE_ELEMENT, 6)
    assert not chk.passed
    assert "(2,3,6)" in chk.note
    assert "(2,6,4)" in chk.note


def test_a6_mismatch_names_its_two_single_edit_repairs():
    # of the five exponent flips and ten swaps, under either order, exactly
    # two edits compose the quoted factors to (2,4,6)
    repairs = ["swap factors 1 and 2 (left-to-right)",
               "flip factor 3's exponent (right-to-left)"]
    ps = words._factor_perms(words.A6_EXAMPLE_FACTORS, 6)
    assert words._single_edit_repairs(
        ps, perm.parse_cycles(words.A6_EXAMPLE_ELEMENT, 6), 6) == repairs
    chk = words.check_factorization(
        "factored identity for (2,4,6)",
        words.A6_EXAMPLE_FACTORS, words.A6_EXAMPLE_ELEMENT, 6)
    assert chk.note.endswith("; single-edit repairs: " + ", ".join(repairs))


def test_a5_factorization_runs_no_repair_search():
    with mock.patch.object(words, "_single_edit_repairs") as search:
        chk = words.check_factorization(
            "factored identity for (1,2)(4,5)",
            words.A5_MAX_FACTORS, words.A5_MAX_ELEMENT, 5)
    assert chk.passed
    search.assert_not_called()


def test_a_factorization_with_no_single_edit_repair_says_none():
    chk = words.check_factorization("one factor", (("(1,2,3)", +1),),
                                    "(1,2)(4,5)", 5)
    assert not chk.passed
    assert chk.note.endswith("; single-edit repairs: none")


def test_both_composition_conventions_of_the_a6_product():
    l2r = words.compose_factors(words.A6_EXAMPLE_FACTORS, 6)
    r2l = words.compose_factors(words.A6_EXAMPLE_FACTORS[::-1], 6)
    assert perm.format_cycles(l2r) == "(2,3,6)"
    assert perm.format_cycles(r2l) == "(2,6,4)"


def test_compose_factors_takes_only_unit_exponents():
    for e in (0, 2):
        with pytest.raises(ValueError, match="not \\+1 or -1"):
            words.compose_factors((("(1,2,3)", +1), ("(3,4,5)", e)), 6)


def test_report_values():
    first, second = Report("x"), Report("x")
    first.add("claim", 1, 1)
    assert second.checks == []
    assert Check("claim", 1, 2).note == ""
    assert first.checks == [Check("claim", 1, 1)]


def test_a5_report_catches_a_second_max_element(monkeypatch):
    # one length-5 entry given a sixth letter: two elements at length 6,
    # and "unique max element" fails with both listed
    table = words.build_a5_table()
    p = table.elements_of_length(5)[0]
    table.entries[p] += (1,)
    monkeypatch.setattr(words, "build_a5_table", lambda: table)
    [chk] = words.a5_report().failures()
    assert chk.claim == "unique max element"
    assert chk.computed == sorted([words.A5_MAX_ELEMENT,
                                   perm.format_cycles(p)])


def test_reports():
    assert words.a5_report().passed
    rep = words.a6_report()
    failures = rep.failures()
    assert len(failures) == 1
    assert failures[0].claim == "factored identity for (2,4,6)"
