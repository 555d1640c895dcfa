"""15-Puzzle with wrap-around rows and columns.

Cells are indexed row-major, 4*row + col, rows top to bottom and
columns left to right. R slides a piece right into the blank (the blank
moves one column left), U slides a piece up (the blank moves one row
down); at the boundary the whole row or column shifts cyclically, so
both moves are total and have order 4.
"""

import re
from . import box, perm
from .box import BLANK, blank_cell, config_perm, format_config
from .report import Report

SOLVED = tuple(range(1, 16)) + (BLANK,)

_WORD_TOKEN = re.compile(r"([RU])([0-9]*)")


def apply_move(c, m: str):
    """The blank steps one cell along its line, cyclically: left along its
    row for R, down its column for U. The line's other three pieces keep
    their cyclic order, so from the last cell the whole line shifts."""
    cells = list(c)
    row, col = divmod(blank_cell(c), 4)
    if m == "R":
        line, new = slice(4 * row, 4 * row + 4), (col - 1) % 4
    elif m == "U":
        line, new = slice(col, 16, 4), (row + 1) % 4
    else:
        raise ValueError(f"unknown move letter {m!r}")
    pieces = cells[line]
    pieces.remove(BLANK)
    pieces.insert(new, BLANK)
    cells[line] = pieces
    return tuple(cells)


def parse_word(text: str) -> str:
    """Expand a word over {R,U} with optional decimal exponents, e.g.
    "U3R" -> "UUUR". Returns the flat letter string."""
    if not isinstance(text, str):
        raise ValueError("word must be a string")
    pos = 0
    out = []
    for match in _WORD_TOKEN.finditer(text):
        if match.start() != pos:
            raise ValueError(f"malformed word at offset {pos}: {text!r}")
        letter, exp = match.groups()
        out.append(letter * (int(exp) if exp else 1))
        pos = match.end()
    if pos != len(text):
        raise ValueError(f"malformed word at offset {pos}: {text!r}")
    return "".join(out)


def invert_word(text: str) -> str:
    """Formal inverse of a word: letters reversed, each replaced by its
    cube (R has order 4, so R^-1 = R^3; likewise U)."""
    return "".join(letter + "3" for letter in reversed(parse_word(text)))


# _PATH[m][b]: the cells the blank passes through on letter m from cell
# b. A wrap step is the three steps back along the line: the line's
# other pieces each slide one cell, as apply_move's rotation does.
_PATH = {
    "R": [(b + 1, b + 2, b + 3) if b % 4 == 0 else (b - 1,)
          for b in range(16)],
    "U": [(b - 4, b - 8, b - 12) if b >= 12 else (b + 4,)
          for b in range(16)],
}


def apply_word(c, text: str):
    """The board reached from c by the word's moves, in one pass: the
    blank walks its path through the letters, each step sliding the
    piece from its new cell into its old one (box.apply_word's walk)."""
    cells = list(c)
    b = blank_cell(c)
    for path in map(_PATH.__getitem__, parse_word(text)):
        for j in path[b]:
            cells[b] = cells[j]
            b = j
    cells[b] = BLANK
    return tuple(cells)


def is_solvable(c) -> bool:
    """Parity test: solvable iff the 16-point permutation parity equals
    the parity of the blank's taxicab distance to the home corner. An
    input that box.is_board(c, 16) turns away is not."""
    if not box.is_board(c, 16):
        return False
    row, col = divmod(blank_cell(c), 4)
    distance = (3 - row) + (3 - col)
    return perm.parity(config_perm(c)) == distance % 2


INNER_CYCLE = "U3R3U3R3UR3URUR2U3"


def sigma_word(n: int) -> str:
    """The conjugating word (U3R)(U3R3U3R3UR3URUR2U3)^n (U3R)^-1."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    return "U3R" + INNER_CYCLE * n + invert_word("U3R")


def three_cycle_word(n: int) -> str:
    """sigma_n (RU3R3U) sigma_n^-1."""
    s = sigma_word(n)
    return s + "RU3R3U" + invert_word(s)


def three_cycle_family() -> dict[int, perm.Perm]:
    """Permutations effected by three_cycle_word(n) for n = 0..12;
    family_report checks that they are the claimed 3-cycles."""
    return {n: config_perm(apply_word(SOLVED, three_cycle_word(n)))
            for n in range(13)}


def family_report() -> Report:
    """Each family member must be a 3-cycle moving 11, 12 and one other
    piece; together they cover every third piece except 11 and 12."""
    family = three_cycle_family()
    rep = Report("three-cycle family from the conjugated words")
    rep.add("family size", 13, len(family))
    covered = set()
    for n, p in sorted(family.items()):
        moved = {i + 1 for i in range(16) if p[i] != i}
        covered |= moved - {11, 12}
        rep.add(f"n={n} cycle", True, {11, 12} <= moved and len(moved) == 3,
                note=perm.format_cycles(p))
    rep.add("third points cover 1..15 minus 11,12",
            set(range(1, 16)) - {11, 12}, covered)
    return rep


def parse_config(text: str):
    """16 comma-separated tokens, pieces 1..15 and "_" for the blank."""
    return box.parse_config(text, 16)
