"""15-Puzzle model: wrap-around moves, word grammar, the 3-cycle family."""

import random
from functools import reduce

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from varikon import box, fifteen, perm

move_words = st.lists(st.sampled_from("RU"), max_size=20).map("".join)
# runs of up to four of a letter, so that a word crosses the row and the
# column wrap from any blank cell
wrapping_words = st.lists(st.sampled_from("RU").flatmap(
    lambda m: st.integers(1, 4).map(m.__mul__)), max_size=12).map("".join)


def scrambled(seed: int):
    cells = list(fifteen.SOLVED)
    random.Random(seed).shuffle(cells)
    return tuple(cells)


def test_slide_into_blank():
    c = fifteen.apply_move(fifteen.SOLVED, "R")
    assert c == tuple(range(1, 15)) + (None, 15)
    assert fifteen.blank_cell(c) == 14  # row 3, col 2


def test_row_wrap_left():
    c = fifteen.apply_word(fifteen.SOLVED, "R3")
    assert c[12:] == (None, 13, 14, 15)
    assert fifteen.apply_move(c, "R")[12:] == (13, 14, 15, None)


def test_r_has_order_four():
    assert fifteen.apply_word(fifteen.SOLVED, "R4") == fifteen.SOLVED


def test_column_wrap_down():
    c = fifteen.apply_move(fifteen.SOLVED, "U")
    assert c == (1, 2, 3, None, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12)
    assert fifteen.apply_word(fifteen.SOLVED, "U4") == fifteen.SOLVED


def test_u_cubed_blank_lands_mid_column():
    c = fifteen.apply_word(fifteen.SOLVED, "U3")
    assert fifteen.blank_cell(c) == 11  # row 2, col 3


def test_setup_word_image():
    assert fifteen.apply_word(fifteen.SOLVED, "U3R") == (
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, None, 11, 13, 14, 15, 12)


def test_conjugator_core_is_a_three_cycle():
    c = fifteen.apply_word(fifteen.SOLVED, "RU3R3U")
    assert c == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 13, 14, 11, None)
    assert perm.format_cycles(fifteen.config_perm(c)) == "(11,12,15)"


def test_word_grammar():
    assert fifteen.parse_word("U3R") == "UUUR"
    assert fifteen.parse_word("R12") == "R" * 12
    assert fifteen.parse_word("") == ""
    # exponents are ASCII decimal, like board pieces
    for bad in ("X", "3R", "R-1", "r", "R 3", "RU?", "R\uff13", "U\u0661R"):
        with pytest.raises(ValueError):
            fifteen.parse_word(bad)


@given(move_words)
def test_invert_word_round_trip(w):
    c = scrambled(5)
    assert fifteen.apply_word(fifteen.apply_word(c, w), fifteen.invert_word(w)) == c


@given(move_words, move_words)
def test_apply_word_folds_moves(v, w):
    c = scrambled(9)
    assert fifteen.apply_word(c, v + w) == fifteen.apply_word(fifteen.apply_word(c, v), w)


@given(st.permutations(fifteen.SOLVED).map(tuple), wrapping_words)
@example(fifteen.SOLVED, "RRRRUUUU")  # both wraps from the home corner
def test_apply_word_is_the_fold_of_apply_move(c, w):
    assert fifteen.apply_word(c, w) == reduce(fifteen.apply_move, w, c)


def test_apply_word_edge_cases():
    c = fifteen.apply_word(fifteen.SOLVED, "RU3R")
    assert fifteen.apply_word(c, "") == c
    # a list comes back as its tuple, the empty word too
    assert type(fifteen.apply_word(list(c), "")) is tuple
    assert fifteen.apply_word(list(c), "") == c
    assert type(fifteen.apply_word(list(c), "R")) is tuple
    for bad in ("X", "RUx", "R U", "B"):
        with pytest.raises(ValueError):
            fifteen.apply_word(c, bad)


def test_solvable_examples():
    assert fifteen.is_solvable(fifteen.SOLVED)
    assert fifteen.is_solvable(fifteen.apply_move(fifteen.SOLVED, "R"))
    swapped = fifteen.parse_config("1,2,3,4,5,6,7,8,9,10,11,12,13,15,14,_")
    assert not fifteen.is_solvable(swapped)


@pytest.mark.parametrize("board", (
    (1,) * 15 + (None,),                 # a repeated piece
    tuple(range(1, 15)) + (None,),       # fifteen tokens
    tuple(range(1, 17)),                 # sixteen tokens, no blank
    tuple(range(1, 16)) + ([None],),     # an unhashable token
    5,                                   # not a sequence
    None,
    set(fifteen.SOLVED),                 # the sixteen tokens, unordered
    dict.fromkeys(fifteen.SOLVED),
))
def test_non_boards_are_not_solvable(board):
    inputs = (board, list(board)) if isinstance(board, tuple) else (board,)
    for c in inputs:
        assert fifteen.is_solvable(c) is False


def test_board_test_takes_the_board_size():
    # box.is_board is the one board test of both puzzles
    assert box.is_board(fifteen.SOLVED, 16)
    assert not box.is_board(fifteen.SOLVED)
    assert not box.is_board(box.SOLVED, 16)


@given(move_words)
def test_solvability_is_move_invariant(w):
    assert fifteen.is_solvable(fifteen.apply_word(fifteen.SOLVED, w))
    swapped = fifteen.parse_config("1,2,3,4,5,6,7,8,9,10,11,12,13,15,14,_")
    assert not fifteen.is_solvable(fifteen.apply_word(swapped, w))


def test_sigma_zero_acts_as_identity():
    assert fifteen.apply_word(fifteen.SOLVED, fifteen.sigma_word(0)) == fifteen.SOLVED


def test_sigma_rejects_negative():
    with pytest.raises(ValueError):
        fifteen.sigma_word(-1)


def test_sigma_one_cycles_thirteen_pieces():
    p = fifteen.config_perm(fifteen.apply_word(fifteen.SOLVED, fifteen.sigma_word(1)))
    assert perm.format_cycles(p) == "(1,5,6,10,9,13,14,15,7,8,4,3,2)"


def test_three_cycle_family():
    family = fifteen.three_cycle_family()
    assert sorted(family) == list(range(13))
    thirds = []
    for n in range(13):
        cycle = {i + 1 for i in range(16) if family[n][i] != i}
        assert len(cycle) == 3 and {11, 12} <= cycle
        thirds.append((cycle - {11, 12}).pop())
    assert thirds == [15, 7, 8, 4, 3, 2, 1, 5, 6, 10, 9, 13, 14]
    assert perm.format_cycles(family[0]) == "(11,12,15)"
    assert perm.format_cycles(family[1]) == "(7,11,12)"  # 11 -> 12 -> 7


def test_config_text_round_trip():
    text = "1,2,3,4,5,6,7,8,9,10,11,12,13,15,14,_"
    assert fifteen.format_config(fifteen.parse_config(text)) == text


def test_config_text_rejects_bad_input():
    once = "config must contain each of 1..15 and _ once"
    for bad, message in (
        ("1,2,3", "expected 16 tokens, got 3"),
        ("1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",          # no blank
         "piece 16 out of range 1..15"),
        ("1,1,3,4,5,6,7,8,9,10,11,12,13,14,15,_", once),    # repeat
        ("_,_,3,4,5,6,7,8,9,10,11,12,13,14,15,1", once),    # two blanks
        ("1,2,3,4,5,6,7,8,9,10,11,12,13,14,x,_", "bad token 'x'"),
        ("0,2,3,4,5,6,7,8,9,10,11,12,13,14,15,_",
         "piece 0 out of range 1..15"),
        ("\u0661,2,3,4,5,6,7,8,9,10,11,12,13,14,15,_",      # Arabic-Indic 1
         "bad token '\u0661'"),
        ("1,2,\uff13,4,5,6,7,8,9,10,11,12,13,14,15,_",      # fullwidth 3
         "bad token '\uff13'"),
        ("1,2,3,4,5,6,7,8,9,1_0,11,12,13,14,15,_",          # int() digit group
         "bad token '1_0'"),
    ):
        with pytest.raises(ValueError) as exc:
            fifteen.parse_config(bad)
        assert str(exc.value) == message
