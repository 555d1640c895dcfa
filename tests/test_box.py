"""2x2x2 box model: moves, parity predicate, ranking, letter-pair cycles."""

import contextlib
import copy
import tracemalloc
from functools import cache, reduce
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from varikon import box, perm

box_words = st.lists(st.sampled_from("RUB"), max_size=16).map("".join)


def test_single_move_images():
    assert box.apply_move(box.SOLVED, "R") == (1, 2, 3, 4, 5, 6, None, 7)
    assert box.apply_move(box.SOLVED, "B") == (1, 2, 3, 4, 5, None, 7, 6)
    assert box.apply_move(box.SOLVED, "U") == (1, 2, 3, None, 5, 6, 7, 4)


def test_each_letter_toggles_its_axis_bit():
    for m, bit in box.AXIS_BIT.items():
        c = box.apply_move(box.SOLVED, m)
        assert box.blank_cell(c) ^ box.blank_cell(box.SOLVED) == 1 << bit


@given(box_words, st.sampled_from("RUB"))
def test_moves_are_involutions(w, m):
    c = box.apply_word(box.SOLVED, w)
    assert box.apply_move(box.apply_move(c, m), m) == c


@given(box_words, box_words)
def test_apply_word_folds_moves(v, w):
    c = box.apply_word(box.SOLVED, "RUBRU")
    assert box.apply_word(c, v + w) == box.apply_word(box.apply_word(c, v), w)


@given(st.integers(0, box.N_REACHABLE - 1).map(box.unrank),
       st.lists(st.sampled_from("RUB"), max_size=40).map("".join))
def test_apply_word_is_the_fold_of_apply_move(c, w):
    assert box.apply_word(c, w) == reduce(box.apply_move, w, c)


def test_apply_word_edge_cases():
    c = box.apply_word(box.SOLVED, "RUBRU")
    assert box.apply_word(c, "") is c
    # a list comes back as its tuple, the empty word too
    assert type(box.apply_word(list(c), "")) is tuple
    assert box.apply_word(list(c), "") == c
    for bad in ("X", "RUx", "R B"):
        with pytest.raises(ValueError):
            box.apply_word(c, bad)


def test_word_grammar_rejects_bad_letters():
    for bad in ("X", "r", "R U", "R3"):
        with pytest.raises(ValueError):
            box.parse_word(bad)


def test_bad_word_errors_name_the_first_bad_character():
    cases = {
        "RxU": "unknown move letter 'x' in 'RxU'",
        "R U": "unknown move letter ' ' in 'R U'",
        "rub": "unknown move letter 'r' in 'rub'",
        "RU\n": "unknown move letter '\\n' in 'RU\\n'",
        "RÜBx": "unknown move letter 'Ü' in 'RÜBx'",
        b"RUB": "word must be a string",
    }
    for bad, message in cases.items():
        for check in (box.parse_word,
                      lambda w: box.apply_word(box.SOLVED, w)):
            with pytest.raises(ValueError) as err:
                check(bad)
            assert str(err.value) == message, bad


def test_alternating_pairs_are_three_cycles():
    atoms = box.three_cycle_atoms()
    assert len(atoms) == 6
    assert perm.format_cycles(atoms[("R", "B")]) == "(5,6,7)"
    assert perm.format_cycles(atoms[("B", "R")]) == "(5,7,6)"
    names = {perm.format_cycles(p) for p in atoms.values()}
    assert names == {"(5,6,7)", "(5,7,6)", "(3,4,7)", "(3,7,4)",
                     "(2,4,6)", "(2,6,4)"}
    for (x, y), p in atoms.items():
        assert p[0] == 0  # piece 1 never moves
        assert atoms[(y, x)] == perm.inverse(p)  # reversal inverts


def test_atoms_report_fails_an_atom_moving_piece_1():
    # (1,5,6) moves three pieces but not as a 3-cycle fixing piece 1: its
    # own line fails, and so does the set of cycle names
    atoms = box.three_cycle_atoms()
    atoms[("R", "B")] = perm.parse_cycles("(1,5,6)", 7)
    with mock.patch.object(box, "three_cycle_atoms", return_value=atoms):
        rep = box.atoms_report()
    assert [c.claim for c in rep.failures()] == [
        "RB cycle is a 3-cycle fixing piece 1", "unordered cycles"]


def test_phi_examples():
    assert box.phi("RUBUBR") == (0, 0, 0)
    assert box.phi("") == (0, 0, 0)
    assert box.phi("RBRB") == (0, 0, 0)
    assert box.phi("R") == (1, 0, 0)
    assert box.phi("U") == (0, 1, 0)
    assert box.phi("B") == (0, 0, 1)


@given(box_words, box_words)
def test_phi_is_a_homomorphism(v, w):
    pv, pw, pvw = box.phi(v), box.phi(w), box.phi(v + w)
    assert pvw == tuple((a + b) % 2 for a, b in zip(pv, pw))


@given(box_words)
def test_phi_equals_blank_displacement(w):
    c = box.apply_word(box.SOLVED, "BRU")
    d = box.blank_cell(box.apply_word(c, w)) ^ box.blank_cell(c)
    r, u, b = box.phi(w)
    assert (d & 1, (d >> 2) & 1, (d >> 1) & 1) == (r, u, b)


def test_reachability_examples():
    assert box.is_reachable(box.SOLVED)
    # every piece swapped with its opposite corner
    assert not box.is_reachable(box.parse_config("_,7,6,5,4,3,2,1"))
    # odd piece permutation with the blank home
    assert not box.is_reachable(box.parse_config("1,2,3,4,6,5,7,_"))
    # a repeated piece, a 7-token board, a board without a blank, and a
    # 9-token board: none is an arrangement of the pieces and the blank
    for c in ((1, 1, 3, 4, 5, 6, 7, None), (1, 2, 3, 4, 5, 6, None),
              (1, 2, 3, 4, 5, 6, 7, 8), box.SOLVED + (None,)):
        assert not box.is_reachable(c)


@given(box_words)
def test_reachability_is_move_invariant(w):
    assert box.is_reachable(box.apply_word(box.SOLVED, w))
    bad = box.parse_config("1,2,3,4,6,5,7,_")
    assert not box.is_reachable(box.apply_word(bad, w))


def test_enumeration_matches_predicate(reachable_set):
    assert len(reachable_set) == box.N_REACHABLE
    assert all(box.is_reachable(c) for c in reachable_set)


def test_rank_unrank_round_trip():
    for r in range(box.N_REACHABLE):
        assert box.rank(box.unrank(r)) == r


def test_target_frames_nest_from_identity_to_every_rotation():
    frames = box.TARGET_FRAMES
    assert list(frames) == ["strict", "center", "rotation"]
    assert frames["strict"] == (box.IDENTITY_ROTATION,)
    center = frames["center"]
    assert len(center) == 4
    assert {r.bit_perm for r in center} == {(0, 1, 2)}
    assert {r.mask for r in center} == {0, 3, 5, 6}
    assert frames["rotation"] == box.ROTATIONS
    assert len(box.ROTATIONS) == 12
    assert set(frames["strict"]) < set(center) < set(frames["rotation"])


def test_rank_rejects_out_of_range():
    for r in (-1, box.N_REACHABLE):
        with pytest.raises(ValueError):
            box.unrank(r)
    # unreachable configs: each has the piece sequence of the other parity
    for text in ("1,2,3,4,6,5,7,_", "_,7,6,5,4,3,2,1"):
        with pytest.raises(ValueError, match=f"unreachable config: {text}"):
            box.rank(box.parse_config(text))
    # malformed boards: no blank, a repeated piece, nine tokens
    for c in ((1, 2, 3, 4, 5, 6, 7, 8), (1, 1, 3, 4, 5, 6, 7, None),
              (1, 2, 3, 4, 5, 6, 7, None, None)):
        for board in (c, list(c)):
            with pytest.raises(ValueError, match="not a board"):
                box.rank(board)
    # a list is ranked as its tuple
    for c in (box.SOLVED, box.parse_config("_,7,6,5,4,2,3,1")):
        assert box.rank(list(c)) == box.rank(c)


def test_rank_order_is_blank_major_then_lex(reachable_set):
    # pins the rank format by a route that reads no sequence list
    def key(c):
        return c.index(None), [v for v in c if v is not None]
    ordered = [box.unrank(r) for r in range(box.N_REACHABLE)]
    assert ordered == sorted(reachable_set, key=key)
    # block(b) is the run of ranks whose blank sits in cell b
    assert [b for b in range(8) for _ in box.block(b)] == \
        [c.index(None) for c in ordered]


def test_lex_sequences_are_built_once():
    # move tables, rank and unrank share one build of the sequence lists;
    # the move tables are cached too, so each call here is a real build
    build = mock.Mock(wraps=box._lex_sequences.__wrapped__)
    with mock.patch.object(box, "_lex_sequences", cache(build)):
        box.move_tables.__wrapped__()
        box.move_tables.__wrapped__()
        assert box.unrank(box.rank(box.SOLVED)) == box.SOLVED
    assert build.call_count == 1


def test_move_tables_map_only_seven_blocks_through_the_index():
    # R's block pairs and B's between cells 5 and 7 keep the first five
    # slots, so their slices are the blocks themselves: one build reads
    # the sequences of 0 blocks for R, 3 for B and 4 for U
    sequences = mock.Mock(wraps=box.block_sequences)
    with mock.patch.object(box, "block_sequences", sequences):
        box.move_tables.__wrapped__()
    assert sequences.call_count == 7


def test_move_rows_share_the_ranks_ints(distance_table):
    # ranks above 256 are not interned by Python, so a row that made its
    # own ints would hold 20,160 new objects; block(b) stays a range, so
    # a membership test on it is O(1)
    assert box.ranks() == tuple(range(box.N_REACHABLE))
    assert all(isinstance(box.block(b), range) for b in range(8))
    rows = [*box.move_tables().values(), *distance_table.move_rank.values(),
            *distance_table.left_rank.values()]
    # each row a permutation of the ranks made of ranks()' own objects
    ids = sorted(map(id, box.ranks()))
    assert len(rows) == 9 and all(sorted(map(id, row)) == ids for row in rows)


def test_move_tables_retain_no_int_per_rank():
    # with the shared ranks and the sequence lists warm, one build keeps
    # three rows of references (3 x 20,160 x 8 bytes, about 0.48 MB); a
    # row of its own ints would add 28 bytes an entry, 1.7 MB in all
    box.ranks()
    box._lex_sequences()
    tracemalloc.start()
    try:
        tables = box.move_tables.__wrapped__()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tables) == 3 and retained <= 0.6e6


def test_move_rows_are_read_only():
    # the rows are built once per process and shared, so no caller may
    # change what a later one gets: a row refuses item assignment, and an
    # edit of the returned mapping leaves the next call's rows as they were
    tables = box.move_tables()
    rows = dict(tables)
    with pytest.raises(TypeError):
        tables["R"][0] = tables["R"][0]
    with contextlib.suppress(TypeError):
        tables["R"] = list(box.ranks())
    again = box.move_tables()
    assert list(again) == list(box.LETTERS)
    assert all(again[m] is rows[m] for m in box.LETTERS)


def test_dihedral_check_allocates_no_identity(distance_table):
    # the identities X^2 and (XY)^6 are compared against are ranks(), so
    # a check's peak is its own gathers, not a fresh tuple of new ints
    box.ranks()
    tracemalloc.start()
    try:
        checks = box.dihedral_check("R", "U", distance_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks) and peak <= 1.0e6


def test_block_parity_reads_reachability_once_per_blank_cell():
    # each block's sequence parity is is_reachable on one sorted sequence,
    # read in the cached sequence-list build, so no number of rank and
    # unrank calls makes more than 8
    reachable = mock.Mock(wraps=box.is_reachable)
    sequences = cache(box._lex_sequences.__wrapped__)
    with mock.patch.object(box, "is_reachable", reachable), \
            mock.patch.object(box, "_lex_sequences", sequences):
        for _ in range(3):
            for r in range(0, box.N_REACHABLE, 7):
                assert box.rank(box.unrank(r)) == r
    assert 0 < reachable.call_count <= 8


def test_random_reachable_is_deterministic():
    assert box.random_reachable(42) == box.random_reachable(42)
    assert box.random_reachable(0) != box.random_reachable(1)
    assert all(box.is_reachable(box.random_reachable(s)) for s in range(100))


def test_random_reachable_is_uniform():
    # fixed seed family, so the statistic is deterministic; the band is
    # +-6 standard deviations of the chi-square null
    trials = 200000
    counts = [0] * box.N_REACHABLE
    for seed in range(trials):
        counts[box.rank(box.random_reachable(seed))] += 1
    expected = trials / box.N_REACHABLE
    stat = sum((o - expected) ** 2 / expected for o in counts)
    dof = box.N_REACHABLE - 1
    assert abs(stat - dof) < 6 * (2 * dof) ** 0.5


def test_subgroup_orders():
    assert box.subgroup_order("R") == 2
    assert box.subgroup_order("RU") == 12
    assert box.subgroup_order("RUB") == box.N_REACHABLE


def test_dihedral_relations_hold(distance_table):
    for x, y in (("R", "U"), ("R", "B"), ("U", "B")):
        checks = box.dihedral_check(x, y, distance_table)
        assert all(c.passed for c in checks), [c.row() for c in checks]


# the letter pairs verify checks: cyclic, so each letter's involution is
# checked once
CYCLIC_PAIRS = (("R", "U"), ("U", "B"), ("B", "R"))


def failed_dihedral_claims(table):
    return {c.claim for x, y in CYCLIC_PAIRS
            for c in box.dihedral_check(x, y, table) if not c.passed}


def with_row(table, letter, row):
    broken = copy.copy(table)
    broken.move_rank = {**table.move_rank, letter: tuple(row)}
    return broken


@pytest.mark.parametrize("fault", ("swap", "duplicate", "U"))
def test_dihedral_checks_catch_a_broken_row(distance_table, fault):
    # "swap" and "duplicate" break R's row; "U" swaps two entries of U's,
    # which R^2 = e misses and the (U,B) pair's U^2 = e catches. The
    # letter's involution fails, and so does (XY)^6 in both of its pairs
    letter = "U" if fault == "U" else "R"
    row = list(distance_table.move_rank[letter])
    if fault == "duplicate":
        row[5] = row[12780]
    else:
        row[5], row[12780] = row[12780], row[5]
    assert failed_dihedral_claims(with_row(distance_table, letter, row)) == {
        f"{letter}^2 = e"} | {f"({x}{y})^6 = e" for x, y in CYCLIC_PAIRS
                              if letter in (x, y)}


def test_only_xy_sixth_power_catches_a_rewired_involution(distance_table):
    # cells 5 and 900 swap partners in R's row: row[5] and row[900] trade
    # images, and the row is still an involution, so R^2 = e passes and
    # |<R,U>| counts tuple moves, not rows. (XY)^6 = e is the one check
    # that reads R's row with another letter's, which is why it stays
    row = list(distance_table.move_rank["R"])
    a, b = row[5], row[900]
    assert len({5, 900, a, b}) == 4
    row[5], row[b], row[900], row[a] = b, 5, a, 900
    assert failed_dihedral_claims(with_row(distance_table, "R", row)) == {
        "(RU)^6 = e", "(BR)^6 = e"}


def test_dihedral_check_needs_distinct_letters(distance_table):
    with pytest.raises(ValueError):
        box.dihedral_check("R", "R", distance_table)


def test_config_text_round_trip():
    assert box.format_config(box.SOLVED) == "1,2,3,4,5,6,7,_"
    text = "3,1,2,4,5,6,7,_"
    c = box.parse_config(text)
    assert box.format_config(c) == text
    assert box.config_of(box.config_perm(c)) == c


def test_config_text_rejects_bad_input():
    once = "config must contain each of 1..7 and _ once"
    for bad, message in (
            ("1,2,3", "expected 8 tokens, got 3"),
            ("1,2,3,4,5,6,7,8", "piece 8 out of range 1..7"),
            ("1,1,3,4,5,6,7,_", once), ("_,_,3,4,5,6,7,1", once),
            ("1,2,3,4,5,6,x,_", "bad token 'x'"),
            ("0,2,3,4,5,6,7,_", "piece 0 out of range 1..7"),
            # only ASCII decimal pieces: Arabic-Indic one, fullwidth three
            ("\u0661,2,3,4,5,6,7,_", "bad token '\u0661'"),
            ("1,2,\uff13,4,5,6,7,_", "bad token '\uff13'")):
        with pytest.raises(ValueError) as exc:
            box.parse_config(bad)
        assert str(exc.value) == message
