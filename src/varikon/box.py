"""2x2x2 Varikon Box state model.

Eight cells indexed by i = x + 2y + 4z over coordinates (x,y,z) in
{0,1}^3. The solved state has piece k in cell k-1 and the blank in
cell 7. A move slides the piece adjacent to the blank along one axis
into the blank, i.e. it toggles one coordinate bit of the blank's cell;
every move is an involution.

Letter-to-bit assignment: R toggles bit 0, B toggles bit 1, U toggles
bit 2. This is the assignment under which RBRB cycles pieces (5,6,7),
which pins down everything else (see three_cycle_atoms).
"""

import random
from collections import namedtuple
from functools import cache
from itertools import permutations, product
from operator import itemgetter
from . import perm
from .report import Check, Report

BLANK = None
SOLVED = (1, 2, 3, 4, 5, 6, 7, BLANK)
LETTERS = "RUB"
AXIS_BIT = {"R": 0, "B": 1, "U": 2}
STEP = {m: 1 << bit for m, bit in AXIS_BIT.items()}  # blank cell XOR
_DROP_LETTERS = str.maketrans("", "", LETTERS)
_TOKENS = {n: frozenset((*range(1, n), BLANK)) for n in (8, 16)}

N_REACHABLE = 20160  # 8!/2
BLOCK = N_REACHABLE // 8  # ranks per blank cell: the 7!/2 piece sequences


def blank_cell(c) -> int:
    return c.index(BLANK)


def apply_move(c, m: str):
    b = c.index(BLANK)
    j = b ^ STEP[m]
    cells = list(c)
    cells[b], cells[j] = cells[j], cells[b]
    return tuple(cells)


def parse_word(text: str) -> str:
    if not isinstance(text, str):
        raise ValueError("word must be a string")
    rest = text.translate(_DROP_LETTERS)  # what is left is not a letter
    if rest:
        raise ValueError(f"unknown move letter {rest[0]!r} in {text!r}")
    return text


def apply_word(c, text: str):
    """The config reached from c by the word's moves, in one pass: the
    blank walks through the letters, each step sliding the piece from its
    new cell into its old one."""
    if not parse_word(text):
        return tuple(c)
    cells = list(c)
    b = c.index(BLANK)
    for step in map(STEP.__getitem__, text):
        j = b ^ step
        cells[b] = cells[j]
        b = j
    cells[b] = BLANK
    return tuple(cells)


def phi(text: str) -> tuple[int, int, int]:
    """Letter counts of a word, mod 2, as (r, u, b).

    Equals the blank's coordinate displacement: each letter toggles its
    bit of the blank cell, so only counts mod 2 survive.
    """
    w = parse_word(text)
    return (w.count("R") % 2, w.count("U") % 2, w.count("B") % 2)


def config_perm(c) -> perm.Perm:
    """The configuration as a permutation relative to the solved state,
    the blank counted as the last point (point 8 of the box, point 16 of
    the 15-puzzle)."""
    last = len(c) - 1
    return tuple(last if v is BLANK else v - 1 for v in c)


def config_of(p: perm.Perm):
    """The config whose config_perm is p."""
    last = len(p) - 1
    return tuple(BLANK if v == last else v + 1 for v in p)


def piece_perm(c) -> perm.Perm:
    """The 7-point piece permutation of a config whose blank is home."""
    if c[7] is not BLANK:
        raise ValueError("blank not in its home cell")
    return tuple([v - 1 for v in c[:7]])


def is_board(c, cells: int = 8) -> bool:
    """Whether c is a tuple or list holding pieces 1..cells-1 and the
    blank once each: a box board, or with cells=16 a 15-puzzle board."""
    try:
        return (isinstance(c, (tuple, list)) and len(c) == cells
                and set(c) == _TOKENS[cells])
    except TypeError:  # an unhashable token
        return False


def is_reachable(c) -> bool:
    """Parity test: reachable iff the 8-point permutation parity equals
    the parity of the blank's Hamming distance from cell 7. An input
    that is_board turns away is not."""
    if not is_board(c):
        return False
    distance = (blank_cell(c) ^ 7).bit_count()
    return perm.parity(config_perm(c)) == distance % 2


def enumerate_reachable() -> set:
    """BFS from the solved state over {R,U,B}."""
    return set(perm.bfs([SOLVED], LETTERS, apply_move))


# ---------------------------------------------------------------------------
# Whole-box rotations and the solve targets. A rotation is a permutation of
# the 3 coordinate bits combined with a coordinate flip mask; it is
# orientation-preserving (a physical rotation, not a reflection) iff the
# bit permutation parity matches the flip count parity.

# cells: physical cell i -> rotated cell index; bit_perm: physical axis
# bit a -> rotated axis bit; mask: the coordinate flips
class Rotation(namedtuple("Rotation", "cells bit_perm mask")):
    __slots__ = ()

    def target(self):
        """Image of the solved state in this rotated frame: the config
        that looks solved once the box is turned by the rotation."""
        return config_of(self.cells)


def all_rotations() -> list[Rotation]:
    out = []
    for bp in permutations(range(3)):
        moved = [sum(1 << bp[a] for a in range(3) if i >> a & 1)
                 for i in range(8)]
        for mask in range(8):
            if perm.parity(bp) == mask.bit_count() % 2:
                out.append(Rotation(tuple(c ^ mask for c in moved), bp, mask))
    return out


IDENTITY_ROTATION = Rotation(tuple(range(8)), (0, 1, 2), 0)

# the rotations whose rotated-solved image can actually be reached: exactly
# 12 of the 24 (the parity rule rules out the rest)
ROTATIONS = tuple(r for r in all_rotations() if is_reachable(r.target()))

# each solve mode's targets: strict, the solved state; center, solved up to
# the rotations that keep the axes in place (the solved state and its three
# half-turn images, the center of the move group); rotation, all of them
TARGET_FRAMES = {
    "strict": (IDENTITY_ROTATION,),
    "center": tuple(r for r in ROTATIONS if r.bit_perm == (0, 1, 2)),
    "rotation": ROTATIONS,
}


# ---------------------------------------------------------------------------
# Perfect-hash ranking: rank = blank_cell * BLOCK + the lex index of the
# piece sequence (cells in order, blank skipped) among the 2,520 sequences
# of the parity is_reachable fixes for the blank cell. rank, unrank and
# move_tables read the one pair of lex-ordered lists that _lex_sequences
# builds, and rank is where an unreachable board is turned away.


def block(b: int) -> range:
    """The ranks of the configs with the blank in cell b."""
    return range(b * BLOCK, (b + 1) * BLOCK)


@cache
def _seq_parity_for_blank(b: int) -> int:
    """The parity of block b's piece sequences: 0 exactly when the sorted
    sequence with the blank in cell b is reachable."""
    seq = tuple(range(1, 8))
    return int(not is_reachable(seq[:b] + (BLANK,) + seq[b:]))


@cache
def _lex_sequences():
    """(seqs, index): seqs[p] the piece sequences of parity p in lex order,
    index[p] their positions. Sequences 2h and 2h+1 differ in the last
    two pieces, and their first five Lehmer digits are h's digits in
    radices 7,6,5,4,3, so the even one is 2h + (digit sum of h) % 2."""
    lex = list(permutations(range(1, 8)))
    flips = [sum(d) % 2 for d in product(*map(range, (7, 6, 5, 4, 3)))]
    seqs = ([lex[2 * h + f] for h, f in enumerate(flips)],
            [lex[2 * h + 1 - f] for h, f in enumerate(flips)])
    return seqs, [dict(zip(s, range(BLOCK))) for s in seqs]


def rank(c) -> int:
    if not is_board(c):
        raise ValueError(f"not a board of the box: {c!r}")
    c = tuple(c)
    b = blank_cell(c)
    h = _lex_sequences()[1][_seq_parity_for_blank(b)].get(c[:b] + c[b + 1:])
    if h is None:
        raise ValueError(f"unreachable config: {format_config(c)}")
    return b * BLOCK + h


def unrank(r: int):
    if not 0 <= r < N_REACHABLE:
        raise ValueError(f"rank out of range: {r}")
    b, h = divmod(r, BLOCK)
    seq = _lex_sequences()[0][_seq_parity_for_blank(b)][h]
    return seq[:b] + (BLANK,) + seq[b:]


def move_tables() -> dict[str, list[int]]:
    """{letter: row}, row[r] the rank one move away from rank r. No config
    is built or ranked: a move from blank cell b to cell j reorders the
    piece sequence by a position map that depends only on (b, j), so the
    slice of block b is one map over its lex-ordered sequences, looked up
    in the index of the sequences of block j's parity. Where the map keeps
    the sequence (adjacent cells, R's moves) and both blocks index one
    lex list, the slice is block j itself."""
    seqs, index = _lex_sequences()
    tables = {}
    for m in LETTERS:
        row = tables[m] = []
        for b in range(8):
            j = b ^ STEP[m]
            # the piece from cell j now sits in cell b, and the new
            # sequence skips cell j; a cell's old slot skipped cell b
            cells = [j if c == b else c for c in range(8) if c != j]
            slots = [c - (c > b) for c in cells]
            parity = _seq_parity_for_blank(b)
            if slots == list(range(7)) and parity == _seq_parity_for_blank(j):
                row.extend(block(j))
                continue
            lookup = index[_seq_parity_for_blank(j)].__getitem__
            row.extend(map((j * BLOCK).__add__, map(lookup, map(
                itemgetter(*slots), seqs[parity]))))
    return tables


def random_reachable(seed: int):
    """Uniform over the 20,160 reachable configs; deterministic in seed."""
    return unrank(random.Random(seed).randrange(N_REACHABLE))


# ---------------------------------------------------------------------------

def three_cycle_atoms() -> dict[tuple[str, str], perm.Perm]:
    """Piece permutation of solved*(XYXY) for each ordered letter pair;
    atoms_report checks that they are the claimed 3-cycles."""
    return {(x, y): piece_perm(apply_word(SOLVED, (x + y) * 2))
            for x in LETTERS for y in LETTERS if x != y}


def atoms_report() -> Report:
    """Each atom must be a 3-cycle fixing piece 1, and the six atoms must
    be (5,6,7), (3,4,7), (2,4,6) and their inverses."""
    atoms = three_cycle_atoms()
    rep = Report("alternating-pair 3-cycles")
    for pair, p in sorted(atoms.items()):
        rep.add(f"{''.join(pair)} cycle is a 3-cycle fixing piece 1", True,
                p[0] == 0 and sum(1 for i in range(7) if p[i] != i) == 3,
                note=perm.format_cycles(p))
    names = {perm.format_cycles(p) for p in atoms.values()}
    rep.add("unordered cycles", {"(5,6,7)", "(3,4,7)", "(2,4,6)",
                                 "(5,7,6)", "(3,7,4)", "(2,6,4)"}, names)
    return rep


def subgroup_order(letters) -> int:
    """Orbit size of the solved state under the subgroup generated by the
    given letters. The action is regular, so this is the subgroup order."""
    return len(perm.bfs([SOLVED], letters, apply_move))


def dihedral_check(x: str, y: str, table) -> list:
    """Verify the dihedral presentation of <X,Y> as maps on every
    reachable rank: X^2 = e, (XY)^6 = e, XY*X = X*(XY)^-1, order 12.
    Letters act through table.move_rank (a groups.DistanceTable)."""
    if x == y or x not in AXIS_BIT or y not in AXIS_BIT:
        raise ValueError(f"need two distinct move letters, got {x!r},{y!r}")
    mx, my = table.move_rank[x], table.move_rank[y]
    ranks = list(range(N_REACHABLE))
    xy = [my[s] for s in mx]  # the action of XY as one rank map
    xy3 = [xy[s] for s in [xy[s] for s in xy]]  # (XY)^6 is its square
    # (XY)^-1 computed as the inverse of the XY action map, not by word
    # manipulation, so the braid relation check does not presuppose that
    # letters are involutions. It holds the ranks list's own ints; a rank
    # that XY misses (a broken table) keeps None and fails the compare.
    xy_inverse = [None] * N_REACHABLE
    for r, s in zip(ranks, xy):
        xy_inverse[s] = r
    braid = [mx[s] for s in xy] == [xy_inverse[s] for s in mx]

    return [
        Check(f"{x}^2 = e", True, [mx[s] for s in mx] == ranks),
        Check(f"({x}{y})^6 = e", True, [xy3[s] for s in xy3] == ranks),
        Check(f"{x}{y}.{x} = {x}.({x}{y})^-1", True, braid),
        Check(f"|<{x},{y}>| = 12", 12, subgroup_order(x + y)),
    ]


def parse_config(text: str, cells: int = 8):
    """A board of `cells` comma-separated tokens: pieces 1..cells-1 in
    ASCII decimal and "_" for the blank (8 for the box, 16 for the
    15-puzzle)."""
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != cells:
        raise ValueError(f"expected {cells} tokens, got {len(tokens)}")
    pieces = cells - 1
    config = []
    for t in tokens:
        if t == "_":
            config.append(BLANK)
        elif t.isascii() and t.isdigit():
            v = int(t)
            if not 1 <= v <= pieces:
                raise ValueError(f"piece {v} out of range 1..{pieces}")
            config.append(v)
        else:
            raise ValueError(f"bad token {t!r}")
    if not is_board(config, cells):
        raise ValueError(f"config must contain each of 1..{pieces} and _ once")
    return tuple(config)


def format_config(c) -> str:
    return ",".join("_" if v is BLANK else str(v) for v in c)
