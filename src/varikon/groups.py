"""Move sequences as group elements, and the structural checks.

The move group acts on the reachable configurations; the stabilizer of
the solved state is trivial and the orbit is everything, so an element
is determined by the image of the solved state under any word realizing
it. Elements are therefore carried as (canon config, witness word)
pairs and compared by canon.

One trap shapes the code below: the cell trajectory of a word depends
on where the blank starts, so a group element has no single well
defined cell permutation. Products, commutators and centralizers are
evaluated on the action itself by concatenating witness words, never by
composing 8-point permutations; those appear only where every element
involved keeps the blank in one place.
"""

import random
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from . import box, perm
from .report import Check, Report


@dataclass(frozen=True)
class GroupElement:
    canon: tuple
    witness: str
    rank: int | None = None  # box.rank(canon), when the maker knows it


IDENTITY = GroupElement(box.SOLVED, "")


def element(word: str) -> GroupElement:
    return GroupElement(box.apply_word(box.SOLVED, word), word)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(box.apply_word(g.canon, h.witness),
                        g.witness + h.witness)


def commutes(g: GroupElement, h: GroupElement) -> bool:
    return multiply(g, h).canon == multiply(h, g).canon


def config_of(p: perm.Perm):
    return tuple(box.BLANK if v == 7 else v + 1 for v in p)


# ---------------------------------------------------------------------------

class DistanceTable:
    """Shortest word lengths from the identity over {R,U,B} (perm.bfs on
    ranks), indexed by the perfect-hash rank of each reachable config."""

    def __init__(self):
        self.move_rank = move_rank = box.move_tables()
        root = box.rank(box.SOLVED)
        tree = perm.bfs([root], box.LETTERS, lambda r, m: move_rank[m][r])
        if len(tree) != box.N_REACHABLE:
            raise AssertionError("BFS did not reach every rank")
        # left_rank[m][r]: the rank of m + (the BFS-tree word to r); m's
        # move at the root, the parent's entry moved by the label below it
        self.depth = depth = [0] * box.N_REACHABLE
        self.left_rank = left = {m: [row[root]] * box.N_REACHABLE
                                 for m, row in move_rank.items()}
        for r, (prev, label) in islice(tree.items(), 1, None):  # parents first
            depth[r] = depth[prev] + 1
            for row in left.values():
                row[r] = move_rank[label][row[prev]]
        self.max_depth = max(depth)

    def histogram(self) -> list[tuple[int, int]]:
        return sorted(Counter(self.depth).items())

    def depth_of(self, c) -> int:
        return self.depth[box.rank(c)]

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
        mr = self.move_rank
        for letter in word:
            r = mr[letter][r]
        return r

    def left_walk(self, r: int, word: str) -> int:
        """The rank of word + word_to(r): left_rank, last letter first."""
        lr = self.left_rank
        for letter in reversed(word):
            r = lr[letter][r]
        return r


def build_distance_table() -> DistanceTable:
    """God's algorithm: exhaustive BFS (perm.bfs) over the Cayley graph."""
    return DistanceTable()


# ---------------------------------------------------------------------------

def center(table: DistanceTable) -> list[GroupElement]:
    """Elements commuting with the three single-letter generators
    (sufficient, since the letters generate the whole group).

    g commutes with letter m iff the words (witness + m) and
    (m + witness) land on the same rank: move_rank against left_rank.
    """
    mr, lr = table.move_rank, table.left_rank
    return [GroupElement(box.unrank(r), table.word_to(r), r)
            for r in range(box.N_REACHABLE)
            if all(mr[m][r] == lr[m][r] for m in box.LETTERS)]


# The three 18-move words realizing the nontrivial central elements;
# their images of the solved state are the three half-turn images of the
# whole box (one per axis).
CENTER_WORDS = (
    "RURURBRBUBRBRBUBRB",
    "RURURBRURUBUBURURB",
    "RURUBUBRBUBUBRBUBU",
)

_AXIS_OF_MASK = {3: "U", 5: "B", 6: "R"}  # mask flips the other two bits


def half_turn_image(mask: int):
    """Image of the solved state under the 180-degree whole-box rotation
    that maps cell j to j ^ mask (mask has two bits set)."""
    return tuple(box.SOLVED[j ^ mask] for j in range(8))


def verify_center_words(center_elements) -> Report:
    rep = Report("center words")
    center_canons = {z.canon for z in center_elements}
    rep.add("|Z|", 4, len(center_elements))
    for z in center_elements:
        if z.canon != box.SOLVED:
            rep.add(f"order of center element at rank {z.rank}",
                    box.SOLVED, multiply(z, z).canon, note="order 2")

    word_canons = set()
    rng = random.Random(0)
    for i, w in enumerate(CENTER_WORDS, start=1):
        z = element(w)
        word_canons.add(z.canon)
        rep.add(f"word {i} central (commutes with R,U,B)", True,
                all(commutes(z, element(m)) for m in box.LETTERS))
        rep.add(f"word {i} order 2", box.SOLVED, multiply(z, z).canon)
        rep.add(f"word {i} in computed center", True, z.canon in center_canons)
        mask = box.blank_cell(z.canon) ^ 7
        rep.add(f"word {i} image is a half-turn image",
                half_turn_image(mask) if mask in _AXIS_OF_MASK else None,
                z.canon,
                note=f"axis {_AXIS_OF_MASK.get(mask, '?')}")
        sample = ["".join(rng.choice(box.LETTERS) for _ in range(rng.randrange(1, 25)))
                  for _ in range(100)]
        rep.add(f"word {i} commutes with 100 random words", True,
                all(commutes(z, element(v)) for v in sample))

    rep.add("center words + identity exhaust the center",
            center_canons, word_canons | {box.SOLVED})
    rep.add("center images are the solved state and its three half-turns",
            {box.SOLVED} | {half_turn_image(m) for m in (3, 5, 6)},
            center_canons)
    return rep


# ---------------------------------------------------------------------------

def subgroup_K(table: DistanceTable) -> list[GroupElement]:
    """The kernel of the parity-vector homomorphism: elements whose
    canon keeps the blank home."""
    return [GroupElement(box.unrank(r), table.word_to(r), r)
            for r in range(7 * 2520, 8 * 2520)]  # blank cell 7 block


def verify_K_is_A7(kernel) -> Report:
    rep = Report("kernel acts as the even permutations of the pieces")
    rep.add("|K|", 2520, len(kernel))
    piece_perms = {box.piece_perm(k.canon) for k in kernel}
    rep.add("piece permutations of K = all even 7-point permutations",
            perm.all_even(7), piece_perms)
    rep.add("every K element has even piece permutation", True,
            all(perm.parity(p) == 0 for p in piece_perms))
    rep.add("RBRB element lies in K", True,
            element("RBRB").canon in {k.canon for k in kernel})
    return rep


# Five 3-cycles through the fixed pair (5,6) generate the even
# permutations of the seven pieces; used as an explicit generating set
# for K in the commutation sweep below.
K_GENERATOR_CYCLES = ("(5,6,1)", "(5,6,2)", "(5,6,3)", "(5,6,4)", "(5,6,7)")


def verify_structure(table: DistanceTable, center_elements, kernel) -> Report:
    rep = Report("group structure")
    k_canons = {k.canon for k in kernel}
    r_subgroup = {box.SOLVED, element("R").canon}

    # (a) K and <R> meet trivially
    rep.add("(a) K intersect <R>", {box.SOLVED}, k_canons & r_subgroup)

    # (b) the product set K<R> has order 5040
    k_ranks = {k.rank for k in kernel}
    kr_ranks = k_ranks | {table.walk(r, "R") for r in k_ranks}
    rep.add("(b) |K<R>|", 5040, len(kr_ranks))

    # (c) K<R> meets the center trivially
    rep.add("(c) K<R> intersect Z", {box.SOLVED},
            {z.canon for z in center_elements if z.rank in kr_ranks})

    # (d) order bookkeeping |K<R>| * |Z| = |G|
    rep.add("(d) |K<R>| * |Z|", box.N_REACHABLE,
            len(kr_ranks) * len(center_elements))
    rep.add("(d) |G| from the regular action", box.N_REACHABLE,
            len(table.depth))

    # (e) the center of K<R> is trivial, which upgrades K<R> from
    # "A7 x Z2 or S7" to S7
    kgen_perms = [perm.parse_cycles(t, 8) for t in K_GENERATOR_CYCLES]
    rep.add("(e) named 3-cycles generate all even piece permutations",
            2520, len(perm.generate([p[:7] for p in kgen_perms])))

    # generating elements of K<R>: the letter R plus one element per
    # named 3-cycle (cycle direction is irrelevant to generation and to
    # commutation, so the canon built from the cycle image serves)
    gen_words = ["R"] + [table.word_to(box.rank(config_of(p)))
                         for p in kgen_perms]
    closure = perm.bfs([box.rank(box.SOLVED)], gen_words, table.walk)
    rep.add("(e) closure of R + the 3-cycles equals K<R>", True,
            closure.keys() == kr_ranks)

    central = [box.unrank(r) for r in sorted(kr_ranks)
               if all(table.walk(r, gw) == table.left_walk(r, gw)
                      for gw in gen_words)]
    rep.add("(e) center of K<R>", [box.SOLVED], central)

    # (f) Z is a Klein four-group
    rep.add("(f) |Z|", 4, len(center_elements))
    rep.add("(f) every nontrivial center element has order 2", True,
            all(multiply(z, z).canon == box.SOLVED for z in center_elements))

    conclusion = "S7 x (Z2)^2" if rep.passed else "unresolved"
    rep.add("conclusion: G is the direct product of K<R> and Z",
            "S7 x (Z2)^2", conclusion)
    return rep
