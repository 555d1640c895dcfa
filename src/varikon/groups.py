"""Group elements as ranks, and the structural checks.

The move group acts on the reachable configurations; the stabilizer of
the solved state is trivial and the orbit is everything, so an element
is determined by its image of the solved state, and is carried as the
rank of that image. The element g followed by the word w is
DistanceTable.walk(g, w); g commutes with w exactly when walk(g, w)
equals the rank of w + word_to(g) (DistanceTable.commutes).

One trap shapes the code below: the cell trajectory of a word depends
on where the blank starts, so a group element has no single well
defined cell permutation. Products, commutators and centralizers are
evaluated on the action itself, never by composing 8-point permutations;
those appear only where every element involved keeps the blank in one
place.
"""

import random
from collections import Counter
from itertools import islice

from . import box, perm
from .report import Report


# ---------------------------------------------------------------------------

def _walk_rows(r: int, rows) -> int:
    """The rank reached from rank r through move_rank rows in turn."""
    for row in rows:
        r = row[r]
    return r


class DistanceTable:
    """Shortest word lengths from the identity over {R,U,B} (perm.bfs on
    ranks), indexed by the perfect-hash rank of each reachable config."""

    def __init__(self):
        self.move_rank = move_rank = box.move_tables()
        self.root = root = box.rank(box.SOLVED)
        # the rows themselves are the BFS labels, in R,U,B order
        tree = perm.bfs([root], move_rank.values(), lambda r, row: row[r])
        if len(tree) != box.N_REACHABLE:
            raise AssertionError("BFS did not reach every rank")
        # left_rank[m][r]: the rank of m + (the BFS-tree word to r); m's
        # move at the root, the parent's entry moved by the row below it
        self.depth = depth = [0] * box.N_REACHABLE
        self.left_rank = left = {m: [row[root]] * box.N_REACHABLE
                                 for m, row in move_rank.items()}
        for r, (prev, move) in islice(tree.items(), 1, None):  # parents first
            depth[r] = depth[prev] + 1
            for row in left.values():
                row[r] = move[row[prev]]
        self.max_depth = max(depth)

    def histogram(self) -> list[tuple[int, int]]:
        return sorted(Counter(self.depth).items())

    def descend(self, r: int) -> str:
        """A shortest word taking rank r to the solved state: at each step
        the first letter (in R,U,B order) that lowers the depth."""
        depth, move_rank = self.depth, self.move_rank
        letters = []
        while depth[r] > 0:
            for m in box.LETTERS:
                if depth[move_rank[m][r]] < depth[r]:
                    break
            else:
                raise AssertionError("no descending move; table corrupt")
            letters.append(m)
            r = move_rank[m][r]
        return "".join(letters)

    def word_to(self, r: int) -> str:
        """A shortest word taking the solved state to rank r (the descent
        read backwards; letters are involutions)."""
        return self.descend(r)[::-1]

    def walk(self, r: int, word: str) -> int:
        """The rank reached from rank r by applying word's letters."""
        return _walk_rows(r, map(self.move_rank.__getitem__, word))

    def commutes(self, r: int, word: str) -> bool:
        """Whether element r commutes with word: r then word (walk) lands
        on the rank of word + word_to(r) (left_rank, last letter first)."""
        left, lr = r, self.left_rank
        for letter in reversed(word):
            left = lr[letter][left]
        return self.walk(r, word) == left


def build_distance_table() -> DistanceTable:
    """God's algorithm: exhaustive BFS (perm.bfs) over the Cayley graph."""
    return DistanceTable()


# ---------------------------------------------------------------------------

def center(table: DistanceTable) -> list[int]:
    """Ranks of the elements commuting with the three single-letter
    generators (sufficient, since the letters generate the whole group):
    r commutes with letter m exactly when move_rank[m][r] equals
    left_rank[m][r] (DistanceTable.commutes), so one pass over the rows
    compares all three letters."""
    moves = zip(*(table.move_rank[m] for m in box.LETTERS))
    lefts = zip(*(table.left_rank[m] for m in box.LETTERS))
    return [r for r, (moved, left) in enumerate(zip(moves, lefts))
            if moved == left]


# The three 18-move words realizing the nontrivial central elements;
# their images of the solved state are the three half-turn images of the
# whole box (one per axis).
CENTER_WORDS = (
    "RURURBRBUBRBRBUBRB",
    "RURURBRURUBUBURURB",
    "RURUBUBRBUBUBRBUBU",
)

# the axis a half-turn keeps, named by its letter: the one bit its mask
# leaves alone
_AXIS_OF_MASK = {7 ^ (1 << k): m for m, k in box.AXIS_BIT.items()}


def verify_center_words(table: DistanceTable, center_ranks) -> Report:
    """The center words against the computed center, whose images must be
    the solver's center targets (box.TARGET_FRAMES["center"]): the solved
    state and the three half-turn images, keyed by their flip masks."""
    images = {r.mask: r.target() for r in box.TARGET_FRAMES["center"]}
    rep = Report("center words")
    center_canons = {box.unrank(z) for z in center_ranks}
    rep.add("|Z|", 4, len(center_ranks))
    for z in center_ranks:
        if z != table.root:
            rep.add(f"order of center element at rank {z}", box.SOLVED,
                    box.unrank(table.walk(z, table.word_to(z))),
                    note="order 2")

    word_canons = set()
    rng = random.Random(0)
    for i, w in enumerate(CENTER_WORDS, start=1):
        z = table.walk(table.root, w)
        canon = box.unrank(z)
        word_canons.add(canon)
        rep.add(f"word {i} central (commutes with R,U,B)", True,
                all(table.commutes(z, m) for m in box.LETTERS))
        rep.add(f"word {i} order 2", box.SOLVED,
                box.unrank(table.walk(z, w)))
        rep.add(f"word {i} in computed center", True, z in center_ranks)
        mask = box.blank_cell(canon) ^ 7
        rep.add(f"word {i} image is a half-turn image",
                images.get(mask) if mask else None, canon,
                note=f"axis {_AXIS_OF_MASK.get(mask, '?')}")
        sample = ["".join(rng.choice(box.LETTERS) for _ in range(rng.randrange(1, 25)))
                  for _ in range(100)]
        rep.add(f"word {i} commutes with 100 random words", True,
                all(table.commutes(z, v) for v in sample))

    rep.add("center words + identity exhaust the center",
            center_canons, word_canons | {box.SOLVED})
    rep.add("center images are the solved state and its three half-turns",
            set(images.values()), center_canons)
    return rep


# ---------------------------------------------------------------------------

def subgroup_K() -> range:
    """The kernel of the parity-vector homomorphism: the elements whose
    image keeps the blank home, the blank-cell-7 block of ranks."""
    return box.block(7)


def verify_K_is_A7(kernel) -> Report:
    rep = Report("kernel acts as the even permutations of the pieces")
    rep.add("|K|", 2520, len(kernel))
    piece_perms = {box.piece_perm(box.unrank(k)) for k in kernel}
    rep.add("piece permutations of K = all even 7-point permutations",
            perm.all_even(7), piece_perms)
    rep.add("every K element has even piece permutation", True,
            all(perm.parity(p) == 0 for p in piece_perms))
    rep.add("RBRB element lies in K", True,
            box.rank(box.apply_word(box.SOLVED, "RBRB")) in kernel)
    return rep


# Five 3-cycles through the fixed pair (5,6) generate the even
# permutations of the seven pieces; used as an explicit generating set
# for K in the commutation sweep below.
K_GENERATOR_CYCLES = ("(5,6,1)", "(5,6,2)", "(5,6,3)", "(5,6,4)", "(5,6,7)")


def verify_structure(table: DistanceTable, center_ranks, kernel) -> Report:
    rep = Report("group structure")
    root = table.root

    # (a) K and <R> meet trivially
    rep.add("(a) K intersect <R>", {box.SOLVED},
            {box.unrank(r) for r in (root, table.walk(root, "R"))
             if r in kernel})

    # (b) the product set K<R> has order 5040
    mr, lr = table.move_rank["R"], table.left_rank["R"]
    kr_ranks = set(kernel) | set(map(mr.__getitem__, kernel))
    rep.add("(b) |K<R>|", 5040, len(kr_ranks))

    # (c) K<R> meets the center trivially
    rep.add("(c) K<R> intersect Z", {box.SOLVED},
            {box.unrank(z) for z in center_ranks if z in kr_ranks})

    # (d) order bookkeeping |K<R>| * |Z| = |G|
    rep.add("(d) |K<R>| * |Z|", box.N_REACHABLE,
            len(kr_ranks) * len(center_ranks))
    rep.add("(d) |G| from the regular action", box.N_REACHABLE,
            len(table.depth))

    # (e) the center of K<R> is trivial, which upgrades K<R> from
    # "A7 x Z2 or S7" to S7
    kgen_perms = [perm.parse_cycles(t, 8) for t in K_GENERATOR_CYCLES]
    rep.add("(e) named 3-cycles generate all even piece permutations",
            2520, len(perm.generate([p[:7] for p in kgen_perms])))

    # generating elements of K<R>: the letter R plus one element per
    # named 3-cycle (cycle direction is irrelevant to generation and to
    # commutation, so the element built from the cycle image serves)
    gen_words = ["R"] + [table.word_to(box.rank(box.config_of(p)))
                         for p in kgen_perms]
    # each word walked as its letters' move_rank rows, split once
    gen_rows = [tuple(map(table.move_rank.__getitem__, w)) for w in gen_words]
    closure = perm.bfs([root], gen_rows, _walk_rows)
    rep.add("(e) closure of R + the 3-cycles equals K<R>", True,
            closure.keys() == kr_ranks)

    # commuting with R is screened on R's rows first, as center does
    central = [box.unrank(r) for r in sorted(kr_ranks) if mr[r] == lr[r]
               and all(table.commutes(r, gw) for gw in gen_words[1:])]
    rep.add("(e) center of K<R>", [box.SOLVED], central)

    # (f) Z is a Klein four-group
    rep.add("(f) |Z|", 4, len(center_ranks))
    rep.add("(f) every nontrivial center element has order 2", True,
            all(table.walk(z, table.word_to(z)) == root
                for z in center_ranks))

    conclusion = "S7 x (Z2)^2" if rep.passed else "unresolved"
    rep.add("conclusion: G is the direct product of K<R> and Z",
            "S7 x (Z2)^2", conclusion)
    return rep
