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

from collections import Counter
from functools import partial, reduce
from itertools import compress
from operator import eq

from . import box, perm
from .report import Report


# ---------------------------------------------------------------------------

def _rows_step(rows):
    """A perm.orbit step: ranks gathered through move_rank rows in turn."""
    return partial(reduce, lambda ranks, row: perm.take(row, ranks), rows)


class DistanceTable:
    """Shortest word lengths over {R,U,B} to a mode's nearest target, by
    rank: a breadth-first fill over the ranks from box.TARGET_FRAMES[mode].
    move_rank is box.move_tables(), the rows every table shares. Only the
    strict table, rooted at the identity, has left_rank."""

    def __init__(self, mode: str = "strict"):
        # the queue starts at the roots and is read while it grows
        queue = [box.rank(rot.target()) for rot in box.target_frames(mode)]
        self.move_rank = move_rank = box.move_tables()
        self.root = root = box.rank(box.SOLVED)
        rows = list(move_rank.values())  # R,U,B order, as descend tries them
        self.depth = depth = [-1] * box.N_REACHABLE  # -1: not reached yet
        for r in queue:
            depth[r] = 0
        # left_rank[m][s]: the rank of m + (a word to s), m's move at the
        # root; s = row[r] takes m + word(r) moved by row, whichever r
        strict = queue == [root]
        self.left_rank = {m: [row[root]] * box.N_REACHABLE
                          for m, row in move_rank.items() if strict}
        lr, lu, lb = self.left_rank.values() if strict else (None,) * 3
        for r in queue:
            for row in rows:
                s = row[r]
                if depth[s] < 0:
                    depth[s] = depth[r] + 1
                    queue.append(s)
                    if strict:
                        lr[s] = row[lr[r]]
                        lu[s] = row[lu[r]]
                        lb[s] = row[lb[r]]
        if len(queue) != box.N_REACHABLE:
            raise AssertionError("BFS did not reach every rank")
        self.max_depth = max(depth)

    def histogram(self) -> list[tuple[int, int]]:
        return sorted(Counter(self.depth).items())

    def descend(self, r: int) -> str:
        """A shortest word taking rank r to depth 0, any root: at each step
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
        """A shortest word taking a root (strict: the solved state) to rank
        r (the descent read backwards; letters are involutions)."""
        return self.descend(r)[::-1]

    def walk(self, r: int, word: str) -> int:
        """The rank reached from rank r by applying word's letters."""
        for row in map(self.move_rank.__getitem__, word):
            r = row[r]
        return r

    def commutes(self, r: int, word: str) -> bool:
        """Whether element r commutes with word: r then word (walk) lands
        on the rank of word + word_to(r) (strict left_rank, last first)."""
        left, lr = r, self.left_rank
        for letter in reversed(word):
            left = lr[letter][left]
        return self.walk(r, word) == left


def build_distance_table(mode: str = "strict") -> DistanceTable:
    """God's algorithm: an exhaustive BFS over the Cayley graph, by rank."""
    return DistanceTable(mode)


# ---------------------------------------------------------------------------

def center(table: DistanceTable) -> list[int]:
    """Ranks of the elements commuting with the three single-letter
    generators (sufficient, since the letters generate the whole group):
    r commutes with letter m exactly when move_rank[m][r] equals
    left_rank[m][r] (DistanceTable.commutes). R's rows screen every rank
    in one C-level pass; U and B are tested on the survivors only."""
    move, left = table.move_rank, table.left_rank
    ranks = compress(box.ranks(), map(eq, move["R"], left["R"]))
    return [r for r in ranks
            if move["U"][r] == left["U"][r] and move["B"][r] == left["B"][r]]


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
    """The center words against the computed center: with the identity
    they exhaust it, and their images are the solver's other center
    targets (box.TARGET_FRAMES["center"]), keyed by their flip masks.
    Exhaust also makes each word central (center keeps only ranks that
    commute with R, U and B) and, with three distinct images, |Z| = 4."""
    images = {r.mask: r.target() for r in box.TARGET_FRAMES["center"]}
    rep = Report("center words")
    word_canons = set()
    for i, w in enumerate(CENTER_WORDS, start=1):
        z = table.walk(table.root, w)
        canon = box.unrank(z)
        word_canons.add(canon)
        rep.add(f"word {i} order 2", box.SOLVED,
                box.unrank(table.walk(z, w)))
        mask = box.blank_cell(canon) ^ 7
        rep.add(f"word {i} image is a half-turn image",
                images.get(mask) if mask else None, canon,
                note=f"axis {_AXIS_OF_MASK.get(mask, '?')}")

    rep.add("center words + identity exhaust the center",
            {box.unrank(z) for z in center_ranks}, word_canons | {box.SOLVED})
    return rep


# ---------------------------------------------------------------------------

def subgroup_K() -> range:
    """The kernel of the parity-vector homomorphism: the elements whose
    image keeps the blank home, the blank-cell-7 block of ranks."""
    return box.block(7)


def verify_K_is_A7(kernel) -> Report:
    rep = Report("kernel acts as the even permutations of the pieces")
    rep.add("|K|", 2520, len(kernel))
    # K is the blank-home block: piece_perm of each is a block 7 sequence
    piece_perms = {tuple([v - 1 for v in s]) for s in box.block_sequences(7)}
    even = perm.all_even(7)
    # the sets compare exactly, but the line shows only each size and the
    # least element of their symmetric difference (None when they are equal)
    rep.add("piece permutations of K = all even 7-point permutations",
            (len(even), None),
            (len(piece_perms), min(even ^ piece_perms, default=None)),
            note="size, least element in only one of the sets")
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

    # (b) the product set K<R> has order 5040; this also shows (a), that
    # K and <R> meet trivially, for were R in K then K<R> would be K
    mr, lr = table.move_rank["R"], table.left_rank["R"]
    kr_ranks = set(kernel) | set(map(mr.__getitem__, kernel))
    rep.add("(b) |K<R>|", 5040, len(kr_ranks))

    # (c) K<R> meets the center trivially
    rep.add("(c) K<R> intersect Z", {box.SOLVED},
            {box.unrank(z) for z in center_ranks if z in kr_ranks})

    # (d) order bookkeeping |K<R>| * |Z| = |G|
    rep.add("(d) |K<R>| * |Z|", box.N_REACHABLE,
            len(kr_ranks) * len(center_ranks))

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
    # each word walked as its letters' move_rank rows, a frontier at a time
    closure = perm.orbit([root], [
        _rows_step([table.move_rank[m] for m in w]) for w in gen_words])
    rep.add("(e) closure of R + the 3-cycles equals K<R>", True,
            closure == kr_ranks)

    # commuting with R is screened on R's rows first, as center does
    central = [box.unrank(r) for r in sorted(kr_ranks) if mr[r] == lr[r]
               and all(table.commutes(r, gw) for gw in gen_words[1:])]
    rep.add("(e) center of K<R>", [box.SOLVED], central)

    # (f), Z a Klein four-group, is the center words' report: they exhaust
    # Z with the identity and each has order 2
    conclusion = "S7 x (Z2)^2" if rep.passed else "unresolved"
    rep.add("conclusion: G is the direct product of K<R> and Z",
            "S7 x (Z2)^2", conclusion)
    return rep
