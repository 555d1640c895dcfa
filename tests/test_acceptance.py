"""Acceptance suite: the numbered claims this package commits to.

One test per criterion (criterion 8 is split so its failing clause is
isolated); run with -v to get one pass/fail line each. Time budgets are
asserted where a criterion carries one. Criterion 8's product identity
for (2,4,6) is a known mismatch: the reference factorization does not
produce that element under either composition convention, and the test
records the fact honestly instead of patching the factors.
"""

import csv
import itertools
import random
import time
from pathlib import Path

from varikon import box, fifteen, groups, perm, solver, words

GOLDEN = Path(__file__).parent / "golden" / "varikon_depth_histogram.csv"


def test_criterion_01_reachable_state_count():
    t0 = time.perf_counter()
    enumerated = box.enumerate_reachable()
    pieces = (1, 2, 3, 4, 5, 6, 7, box.BLANK)
    predicted = {c for c in itertools.permutations(pieces) if box.is_reachable(c)}
    elapsed = time.perf_counter() - t0
    assert len(enumerated) == 20160
    assert enumerated == predicted
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: 20160 states, BFS = parity predicate, {elapsed:.2f}s")


def test_criterion_02_gods_number_and_histogram():
    t0 = time.perf_counter()
    table = groups.build_distance_table()
    elapsed = time.perf_counter() - t0
    assert table.max_depth == 19
    with GOLDEN.open() as f:
        golden = [(int(d), int(n)) for d, n in list(csv.reader(f))[1:]]
    assert table.histogram() == golden
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 2: max depth 19, histogram matches golden, {elapsed:.2f}s")


def test_criterion_03_center(distance_table, center_elements):
    assert len(center_elements) == 4
    rep = groups.verify_center_words(distance_table, center_elements)
    assert rep.passed, [c.row() for c in rep.failures()]
    print("criterion 3: |Z| = 4; the words have order 2, half-turn images "
          "and with e exhaust the center")


def test_criterion_04_kernel(distance_table):
    rep = groups.verify_K_is_A7(groups.subgroup_K())
    assert rep.passed, [c.row() for c in rep.failures()]
    print("criterion 4: |K| = 2520, piece permutations = all even 7-perms")


def test_criterion_05_structure(distance_table, center_elements):
    t0 = time.perf_counter()
    rep = groups.verify_structure(distance_table, center_elements,
                                  groups.subgroup_K())
    elapsed = time.perf_counter() - t0
    assert rep.passed, [c.row() for c in rep.failures()]
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"criterion 5: structure checks (b)-(e) all pass, {elapsed:.2f}s")


def test_criterion_06_dihedral_pairs(distance_table):
    # the pairs verify checks: cyclic, so R^2, U^2 and B^2 each come up
    for x, y in (("R", "U"), ("U", "B"), ("B", "R")):
        checks = box.dihedral_check(x, y, distance_table)
        assert all(c.passed for c in checks), [c.row() for c in checks]
    print("criterion 6: all three letter pairs generate D6, order 12")


def test_criterion_07_a5_words(a5_table):
    assert len(a5_table) == 60
    assert a5_table.max_length() == 6
    worst = a5_table.elements_of_length(6)
    assert worst == [perm.parse_cycles("(1,2)(4,5)", 5)]
    chk = words.check_factorization("factored identity for (1,2)(4,5)",
                                    words.A5_MAX_FACTORS,
                                    words.A5_MAX_ELEMENT, 5)
    assert chk.passed, chk.note
    print("criterion 7: 60 entries, unique max (1,2)(4,5) at 6, product verifies")


def test_criterion_08_a6_word_table(a6_table):
    assert len(a6_table) == 360
    assert a6_table.max_length() == 5
    worst = a6_table.elements_of_length(5)
    assert len(worst) == 46
    assert perm.parse_cycles("(2,4,6)", 6) in worst
    print("criterion 8 (table): 360 entries, max 5 with multiplicity 46")


def test_criterion_08_a6_product_identity():
    # known mismatch, kept as an honest failure: the factors compose to
    # (2,3,6) left-to-right and (2,6,4) right-to-left, never (2,4,6)
    chk = words.check_factorization("factored identity for (2,4,6)",
                                    words.A6_EXAMPLE_FACTORS,
                                    words.A6_EXAMPLE_ELEMENT, 6)
    assert chk.passed, chk.note
    print("criterion 8 (product): factored identity reproduces (2,4,6)")


def test_criterion_09_heuristic_solver(box_solver):
    t0 = time.perf_counter()
    summary, _ = box_solver.compare_all(mode="rotation")
    elapsed = time.perf_counter() - t0
    # validity of every emitted solution is asserted inside the solver
    # for all 20160 configs and both methods; a violation raises
    assert summary["configs"] == 20160
    assert summary["optimal_max"] == 19
    assert summary["a6_max"] <= 22, (
        f"bound exceeded at {summary['a6_argmax']} "
        f"with {summary['a6_max']} moves")
    sol6 = box_solver.solve_heuristic_a6(box.parse_config("1,5,2,4,3,6,7,_"))
    sol5 = box_solver.solve_heuristic_a5(box.parse_config("1,3,2,4,5,7,6,_"))
    assert sol6.phase_length("word-expansion") == 20
    assert sol5.phase_length("word-expansion") == 24
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"criterion 9: sweep max {summary['a6_max']} <= 22 (rotation "
          f"targets), pinned phases 20/24, {elapsed:.2f}s")


def test_criterion_10_fifteen_puzzle():
    swapped = fifteen.parse_config("1,2,3,4,5,6,7,8,9,10,11,12,13,15,14,_")
    assert not fifteen.is_solvable(swapped)

    rng = random.Random(101)
    cells = list(fifteen.SOLVED)
    for _ in range(1000):
        rng.shuffle(cells)
        c = tuple(cells)
        assert fifteen.apply_word(c, "R4") == c
        assert fifteen.apply_word(c, "U4") == c

    assert fifteen.apply_word(fifteen.SOLVED, "U3R") == (
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, None, 11, 13, 14, 15, 12)
    assert fifteen.apply_word(fifteen.SOLVED, "RU3R3U") == (
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 13, 14, 11, None)

    family = fifteen.three_cycle_family()
    assert len(family) == 13
    thirds = set()
    for p in family.values():
        moved = {i + 1 for i in range(16) if p[i] != i}
        assert len(moved) == 3 and {11, 12} <= moved
        thirds |= moved - {11, 12}
    assert thirds == set(range(1, 16)) - {11, 12}
    print("criterion 10: unsolvable config, R4/U4 identity, pinned images, "
          "13-cycle family")


def test_criterion_11_phi_homomorphism():
    rng = random.Random(202)
    start = box.apply_word(box.SOLVED, "URB")
    for _ in range(10000):
        v = "".join(rng.choice(box.LETTERS) for _ in range(rng.randrange(12)))
        w = "".join(rng.choice(box.LETTERS) for _ in range(rng.randrange(12)))
        assert box.phi(v + w) == tuple(
            (a + b) % 2 for a, b in zip(box.phi(v), box.phi(w)))
        d = box.blank_cell(box.apply_word(start, w)) ^ box.blank_cell(start)
        r, u, b = box.phi(w)
        assert (d & 1, (d >> 2) & 1, (d >> 1) & 1) == (r, u, b)
    print("criterion 11: phi additive and equal to blank displacement "
          "on 10000 words")
