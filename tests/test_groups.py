"""Group elements as ranks, BFS distances, structure checks."""

import copy
import random
import subprocess
import sys
from pathlib import Path

import pytest

import varikon
from varikon import box, groups, perm, solver, words

FROZEN_HISTOGRAM = [
    (0, 1), (1, 3), (2, 6), (3, 12), (4, 24), (5, 48), (6, 93), (7, 180),
    (8, 351), (9, 675), (10, 1191), (11, 1963), (12, 3015), (13, 3772),
    (14, 3732), (15, 2837), (16, 1589), (17, 572), (18, 78), (19, 18),
]


def test_multiply_basics(distance_table):
    t = distance_table
    g = t.walk(t.root, "RBRB")
    assert t.walk(t.root, t.word_to(g)) == g
    r = t.walk(t.root, "R")
    assert t.walk(r, t.word_to(r)) == t.root
    square = t.walk(g, t.word_to(g))
    assert box.unrank(square) == box.apply_word(box.SOLVED, "RBRBRBRB")
    assert perm.format_cycles(box.piece_perm(box.unrank(square))) == "(5,7,6)"


def test_commutes_is_symmetric_on_examples(distance_table):
    t = distance_table
    g = t.walk(t.root, "RBRB")
    h = t.walk(t.root, "RURU")
    assert t.commutes(g, t.word_to(g))
    assert t.commutes(g, t.word_to(h)) == t.commutes(h, t.word_to(g))


def test_commutes_matches_the_tuple_route(distance_table):
    # the route the rank test replaced: replay both products on tuples.
    # Half the pairs lie in one dihedral <X,Y> of order 12, where about
    # half of all pairs commute, so both answers are exercised.
    rng = random.Random(13)
    answers = set()
    for i in range(500):
        letters = rng.sample(box.LETTERS, 2) if i % 2 else box.LETTERS
        word, w = ("".join(rng.choice(letters)
                           for _ in range(rng.randrange(25)))
                   for _ in range(2))
        r = distance_table.walk(distance_table.root, word)
        g = distance_table.word_to(r)
        expected = (box.apply_word(box.SOLVED, g + w)
                    == box.apply_word(box.SOLVED, w + g))
        assert distance_table.commutes(r, w) == expected, (r, w)
        answers.add(expected)
    assert answers == {True, False}


def test_depths(distance_table):
    assert distance_table.depth[box.rank(box.SOLVED)] == 0
    assert distance_table.depth[box.rank(box.apply_word(box.SOLVED, "RBRB"))] <= 4
    assert distance_table.max_depth == 19
    assert distance_table.histogram() == FROZEN_HISTOGRAM


# mode -> (maximum depth, depth sum over the 20,160 ranks)
MODE_DEPTHS = {"strict": (19, 261504), "center": (15, 212208),
               "rotation": (14, 182688)}


@pytest.mark.parametrize("mode", sorted(MODE_DEPTHS))
def test_mode_tables_are_rooted_at_the_targets(mode_tables, mode):
    table = mode_tables[mode]
    assert (table.max_depth, sum(table.depth)) == MODE_DEPTHS[mode]
    assert {r for r, d in enumerate(table.depth) if d == 0} == {
        box.rank(rot.target()) for rot in box.TARGET_FRAMES[mode]}
    # only the identity-rooted tree defines the left action
    assert bool(table.left_rank) == (mode == "strict")


def test_mode_depths_match_the_strict_table(distance_table, mode_tables):
    # a second route: the distance from c to a target t is the strict depth
    # of g_c^-1 g_t, reached from the identity by c's descent word and then
    # word_to(t); a mode's depth is the least over its targets
    t = distance_table
    words_to = {mode: [t.word_to(box.rank(rot.target()))
                       for rot in box.TARGET_FRAMES[mode]]
                for mode in ("center", "rotation")}
    for r in range(box.N_REACHABLE):
        inverse = t.walk(t.root, t.descend(r))
        for mode, words in words_to.items():
            assert mode_tables[mode].depth[r] == min(
                t.depth[t.walk(inverse, w)] for w in words), (mode, r)


def test_neighboring_depths_differ_by_one(distance_table):
    rng = random.Random(3)
    for _ in range(500):
        r = rng.randrange(box.N_REACHABLE)
        for m in box.LETTERS:
            nr = distance_table.move_rank[m][r]
            assert abs(distance_table.depth[r] - distance_table.depth[nr]) == 1


def test_move_tables_match_tuple_moves(distance_table):
    # the tuple route the tables are built without: unrank, move, rank
    for m in box.LETTERS:
        assert distance_table.move_rank[m] == tuple(
            box.rank(box.apply_move(box.unrank(r), m))
            for r in range(box.N_REACHABLE))
    rng = random.Random(5)
    for r in rng.sample(range(box.N_REACHABLE), 2000):
        for m in box.LETTERS:
            left = box.apply_word(box.SOLVED, m + distance_table.word_to(r))
            assert distance_table.left_rank[m][r] == box.rank(left)


def test_left_rank_commutes_with_every_right_move(distance_table):
    # left and right multiplication commute, and m + (empty word) is m's
    # move at the root; the action is transitive, so these pin all 60,480
    # left_rank entries whatever tree the table was filled along
    move, left, root = (distance_table.move_rank, distance_table.left_rank,
                        distance_table.root)
    for m in box.LETTERS:
        assert left[m][root] == move[m][root]
        for x in box.LETTERS:
            assert [left[m][s] for s in move[x]] == [
                move[x][s] for s in left[m]], (m, x)


@pytest.mark.parametrize("mode", sorted(MODE_DEPTHS))
def test_depth_is_the_bfs_tree_depth(mode_tables, mode):
    # a reference route kept here: perm.bfs's tree, a rank's depth one
    # more than its parent's
    roots = [box.rank(rot.target()) for rot in box.TARGET_FRAMES[mode]]
    rows = list(mode_tables[mode].move_rank.values())
    tree = perm.bfs(roots, rows, lambda r: [row[r] for row in rows])
    depth = {}
    for r, (prev, _) in tree.items():
        depth[r] = 0 if prev is None else depth[prev] + 1
    assert mode_tables[mode].depth == [depth[r]
                                       for r in range(box.N_REACHABLE)]


def test_every_distance_table_shares_the_move_rows(mode_tables, box_solver):
    # the three modes' tables and a solver's hold the very row objects
    # box.move_tables() returns, not copies of them
    shared = box.move_tables()
    tables = [*mode_tables.values(), *map(box_solver.distance, solver.MODES)]
    assert all(t.move_rank[m] is shared[m]
               for t in tables for m in box.LETTERS)


def test_move_tables_are_built_once_per_process():
    # every route to a distance table in one process reads one build of
    # the rows: the modes' tables, a solver's, an optimal solver's and a
    # verify pass
    src = str(Path(varikon.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from varikon import box, cli, groups, solver; "
            "[groups.build_distance_table(m) for m in solver.MODES]; "
            "solver.Solver().distance('center'); "
            "solver.OptimalSolver().solve_optimal(box.unrank(7), 'rotation'); "
            "cli.build_verify_reports(); "
            "info = box.move_tables.cache_info(); "
            "print(info.misses, info.hits)")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 5\n"


def test_unreached_ranks_are_refused(monkeypatch):
    # identity rows reach nothing past the root
    monkeypatch.setattr(box, "move_tables", lambda: {
        m: list(range(box.N_REACHABLE)) for m in box.LETTERS})
    with pytest.raises(AssertionError, match="BFS did not reach every rank"):
        groups.DistanceTable()


def test_word_to_is_a_shortest_witness(distance_table):
    rng = random.Random(4)
    for _ in range(300):
        c = box.unrank(rng.randrange(box.N_REACHABLE))
        w = distance_table.word_to(box.rank(c))
        assert box.apply_word(box.SOLVED, w) == c
        assert len(w) == distance_table.depth[box.rank(c)]


def test_center_is_identity_plus_half_turns(distance_table, center_elements):
    # the solver's center mode aims at exactly the computed center
    assert set(center_elements) == {
        box.rank(r.target()) for r in box.TARGET_FRAMES["center"]}
    for z in center_elements:
        assert (box.apply_word(box.SOLVED, distance_table.word_to(z))
                == box.unrank(z))


def test_center_matches_the_letter_commutation_test(distance_table,
                                                    center_elements):
    assert center_elements == [
        r for r in range(box.N_REACHABLE)
        if all(distance_table.commutes(r, m) for m in "RUB")]


@pytest.mark.parametrize("letter", ["U", "B"])
def test_center_tests_every_letter(distance_table, center_elements, letter):
    # center screens on R's rows; a rank whose U or B action is broken
    # must still drop out
    z = next(r for r in center_elements if r != distance_table.root)
    table = copy.copy(distance_table)
    table.left_rank = {m: list(row) for m, row in table.left_rank.items()}
    table.left_rank[letter][z] = table.move_rank[letter][z] ^ 1
    assert groups.center(table) == [r for r in center_elements if r != z]


def test_center_words_report(distance_table, center_elements):
    rep = groups.verify_center_words(distance_table, center_elements)
    assert rep.passed, [c.row() for c in rep.failures()]


def failed_claims(rep):
    return {c.claim for c in rep.failures()}


EXHAUST = "center words + identity exhaust the center"
CONCLUSION = "conclusion: G is the direct product of K<R> and Z"


@pytest.mark.parametrize("edit", ["drop", "swap"])
def test_exhaust_catches_a_center_without_a_word(distance_table,
                                                 center_elements, edit):
    # a center missing word 2's rank, alone or with RU (order 6) in its
    # place, fails the exhaust check: no per-word "in the computed center",
    # |Z| or per-element order check is needed
    t = distance_table
    z = t.walk(t.root, groups.CENTER_WORDS[1])
    ranks = [r for r in center_elements if r != z]
    if edit == "swap":
        ranks.append(t.walk(t.root, "RU"))
    rep = groups.verify_center_words(t, ranks)
    assert failed_claims(rep) == {EXHAUST}
    if edit == "swap":
        # four elements, so structure's (d) passes; no structure check
        # looks at Z's shape, so the conclusion reads exhaust's verdict
        rep.checks += groups.verify_structure(t, ranks, groups.subgroup_K(),
                                              rep.passed).checks
        assert failed_claims(rep) == {EXHAUST, CONCLUSION}


def test_exhaust_catches_a_word_that_fails_to_commute(distance_table):
    # word 1's rank no longer commutes with U by left_rank, so center
    # drops it: exhaust fails where a "word 1 central" check would
    t = copy.copy(distance_table)
    z = t.walk(t.root, groups.CENTER_WORDS[0])
    t.left_rank = {m: list(row) for m, row in t.left_rank.items()}
    t.left_rank["U"][z] = t.move_rank["U"][z] ^ 1
    rep = groups.verify_center_words(t, groups.center(t))
    assert failed_claims(rep) == {EXHAUST}


def test_structure_catches_r_inside_the_kernel(distance_table,
                                               center_elements):
    # R's row sends the root into block 7 (K), two entries swapped so it
    # stays a permutation: K and <R> meet in more than the identity, and
    # K<R> reads 5039, not 5040
    t, kernel = copy.copy(distance_table), groups.subgroup_K()
    row = list(t.move_rank["R"])
    k = next(r for r in kernel if r != t.root)
    x = row[k]  # R's rows are involutions, so row[x] is k
    row[t.root], row[x] = k, row[t.root]
    t.move_rank = {**t.move_rank, "R": tuple(row)}
    rep = groups.verify_structure(t, center_elements, kernel, True)
    [chk] = [c for c in rep.failures() if c.claim == "(b) |K<R>|"]
    assert chk.computed == 5039


def test_a_center_word_of_order_six_fails_its_order_check(
        monkeypatch, distance_table, center_elements):
    monkeypatch.setattr(groups, "CENTER_WORDS",
                        ("RU",) + groups.CENTER_WORDS[1:])
    rep = groups.verify_center_words(distance_table, center_elements)
    assert "word 1 order 2" in failed_claims(rep)


@pytest.mark.parametrize("mask", [3, 5, 6])
def test_a_missing_half_turn_frame_fails_its_word(monkeypatch, distance_table,
                                                  center_elements, mask):
    # the center's images are the solved state and the three half-turn
    # images: exhaust pins the center to the words, and each word's image
    # is checked against the frame of its flip mask
    frames = box.TARGET_FRAMES["center"]
    monkeypatch.setitem(box.TARGET_FRAMES, "center",
                        tuple(r for r in frames if r.mask != mask))
    [i] = [i for i, w in enumerate(groups.CENTER_WORDS, start=1)
           if box.blank_cell(box.apply_word(box.SOLVED, w)) ^ 7 == mask]
    rep = groups.verify_center_words(distance_table, center_elements)
    assert failed_claims(rep) == {f"word {i} image is a half-turn image"}


def test_half_turn_images():
    images = {r.mask: r.target() for r in box.TARGET_FRAMES["center"]}
    assert images[6] == (7, None, 5, 6, 3, 4, 1, 2)
    assert images[5] == (6, 5, None, 7, 2, 1, 4, 3)
    assert images[3] == (4, 3, 2, 1, None, 7, 6, 5)


def test_kernel_report(distance_table):
    kernel = groups.subgroup_K()
    rep = groups.verify_K_is_A7(kernel)
    assert rep.passed, [c.row() for c in rep.failures()]


@pytest.mark.parametrize("edit", ["drop an even", "add an odd"])
def test_kernel_report_names_a_mismatched_permutation(monkeypatch, edit):
    # the K = A7 line shows sizes and the least element in only one of the
    # sets; the comparison under it must still be exact
    even = perm.all_even(7)
    p = sorted(even)[1260]  # a middle one, not the least by accident
    stray = p if edit == "drop an even" else (p[1], p[0]) + p[2:]  # odd
    monkeypatch.setattr(perm, "all_even", lambda n: even ^ {stray})
    rep = groups.verify_K_is_A7(groups.subgroup_K())
    [chk] = [c for c in rep.failures() if c.claim.startswith("piece perm")]
    assert chk.computed == (2520, stray)
    assert chk.expected == (len(even ^ {stray}), None)


def test_kernel_report_catches_an_odd_piece_permutation(monkeypatch):
    # one block 7 sequence with its last two pieces swapped is odd, and the
    # sizes still match; the exact comparison with all_even fails on it
    block_sequences = box.block_sequences
    seqs = list(block_sequences(7))
    s = seqs[1260]
    seqs[1260] = s[:5] + (s[6], s[5])
    monkeypatch.setattr(box, "block_sequences",
                        lambda b: seqs if b == 7 else block_sequences(b))
    rep = groups.verify_K_is_A7(groups.subgroup_K())
    [chk] = rep.failures()
    assert chk.claim.startswith("piece permutations of K")
    assert chk.computed[0] == 2520


def test_kernel_is_normal_on_samples(distance_table):
    kernel = groups.subgroup_K()
    rng = random.Random(11)
    for k in rng.sample(kernel, 40):
        for x in box.LETTERS:
            conj = box.apply_word(box.SOLVED,
                                  x + distance_table.word_to(k) + x)
            assert box.blank_cell(conj) == 7


def test_phi_factors_through_canon(distance_table):
    rng = random.Random(12)
    for _ in range(100):
        w = "".join(rng.choice(box.LETTERS) for _ in range(rng.randrange(20)))
        canon = box.apply_word(box.SOLVED, w)
        assert box.phi(w) == box.phi(distance_table.word_to(box.rank(canon)))


def test_structure_report(distance_table, center_elements):
    kernel = groups.subgroup_K()
    words_passed = groups.verify_center_words(distance_table,
                                              center_elements).passed
    rep = groups.verify_structure(distance_table, center_elements, kernel,
                                  words_passed)
    assert rep.passed, [c.row() for c in rep.failures()]


@pytest.mark.parametrize("size", [3, 5])
def test_structure_report_catches_a_center_of_the_wrong_size(
        distance_table, center_elements, size):
    # (b) pins |K<R>| at 5040, so (d) fails whenever |Z| is not 4
    t = distance_table
    ranks = (center_elements[:3] if size == 3
             else center_elements + [t.walk(t.root, "RU")])
    rep = groups.verify_structure(t, ranks, groups.subgroup_K(), True)
    assert "(d) |K<R>| * |Z|" in failed_claims(rep)
    assert "(b) |K<R>|" not in failed_claims(rep)


def test_named_3_cycles_generate_exactly_the_even_piece_permutations():
    # verify counts this closure; the set itself is checked here against
    # the Lehmer-code route, as verify_structure builds the generators
    gens = [perm.parse_cycles(t, 8)[:7] for t in groups.K_GENERATOR_CYCLES]
    assert set(words.build_table(gens).entries) == perm.all_even(7)


def test_structure_report_fails_on_too_few_kernel_generators(
        monkeypatch, distance_table, center_elements):
    # one 3-cycle generates neither A7 nor, with R, the group K<R>
    monkeypatch.setattr(groups, "K_GENERATOR_CYCLES", ("(5,6,1)",))
    rep = groups.verify_structure(distance_table, center_elements,
                                  groups.subgroup_K(), True)
    failed = {c.claim for c in rep.failures()}
    assert {"(e) named 3-cycles generate all even piece permutations",
            "(e) closure of R + the 3-cycles equals K<R>"} <= failed
