"""Permutation algebra on {0..n-1}.

A permutation is a plain tuple of images: p[i] is where point i goes.
Composition is left-to-right throughout: compose(a, b) means "apply a,
then b". Cycle notation at the I/O boundary is 1-indexed; everything
internal is 0-indexed.
"""

from itertools import permutations, product
from operator import itemgetter

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """Left-to-right product: (a*b)(x) = b(a(x))."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return take(b, a)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycles(p: Perm):
    """The cycles of p, each a list of points from its least point, in
    order of least point; a fixed point is a 1-cycle."""
    seen = [False] * len(p)
    for i in range(len(p)):
        if not seen[i]:
            cycle = []
            j = i
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = p[j]
            yield cycle


def parity(p: Perm) -> int:
    """0 for even, 1 for odd, via cycle count: (n - #cycles) mod 2."""
    return (len(p) - len(list(cycles(p)))) % 2


def parse_cycles(text: str, n: int) -> Perm:
    """Parse 1-indexed disjoint cycle notation like "(1,2)(4,5)".

    "()" (or an all-whitespace string) is the identity.
    """
    text = text.strip()
    if text in ("", "()"):
        return identity(n)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(n))
    used: set[int] = set()
    for chunk in text[1:-1].split(")("):
        try:
            points = [int(tok) - 1 for tok in chunk.split(",")]
        except ValueError:
            raise ValueError(f"malformed cycle: ({chunk})") from None
        if len(points) < 2:
            raise ValueError(f"cycle too short: ({chunk})")
        for pt in points:
            if not 0 <= pt < n:
                raise ValueError(f"point {pt + 1} out of range 1..{n}")
            if pt in used:
                raise ValueError(f"repeated point {pt + 1}")
            used.add(pt)
        for src, dst in zip(points, points[1:] + points[:1]):
            images[src] = dst
    return tuple(images)


def format_cycles(p: Perm) -> str:
    """Canonical cycle notation: cycles sorted by smallest element, each
    cycle starting at its smallest element, fixed points omitted,
    identity printed "()"."""
    return "".join("(" + ",".join(str(x + 1) for x in cycle) + ")"
                   for cycle in cycles(p) if len(cycle) > 1) or "()"


def take(table, keys) -> tuple:
    """tuple(table[k] for k in keys) as one itemgetter gather (which gives
    a bare item on one key and needs one at least)."""
    keys = tuple(keys)
    return itemgetter(*keys)(table) if len(keys) > 1 else tuple(
        [table[k] for k in keys])


def bfs(roots, labels, moves) -> dict:
    """Breadth-first search from the roots, where moves(state) gives the
    state's neighbours in the order of labels, a neighbour reached along
    the edge that the label at its position names. Returns {state:
    (parent, label)} in discovery order, each root mapped to (None, None).
    A state records the first edge that reached it."""
    tree = dict.fromkeys(roots, (None, None))
    # the queue starts at the roots and is read while it grows
    queue = list(tree)
    for state in queue:
        for label, nxt in zip(labels, moves(state)):
            if nxt not in tree:
                tree[nxt] = (state, label)
                queue.append(nxt)
    return tree


def orbit(roots, steps) -> set:
    """The states reachable from the roots, a frontier at a time: each of
    the steps (a sequence) maps an iterable of states to their images
    along one kind of edge, and the images not seen before are the next
    frontier. For the reached set only; bfs keeps the tree. It serves the
    tuple orbits of box (enumerate_reachable, subgroup_order) and the
    K<R> rank closure in groups.verify_structure."""
    seen = frontier = set(roots)
    while frontier:
        images = set()
        for step in steps:
            images.update(step(frontier))
        frontier = images - seen
        seen |= frontier
    return seen


def all_even(n: int) -> set:
    """All even permutations of n points, independent of the word tables'
    search (words.build_table); used to cross-check generated groups. The
    Lehmer codes, the digit tuples of product(range(n), range(n - 1), ...,
    range(1)), come in the lex order of permutations(), and a code's digit
    sum counts its permutation's inversions, so the sum mod 2 is the
    parity."""
    codes = product(*map(range, range(n, 0, -1)))
    return {p for p, d in zip(permutations(range(n)), map(sum, codes))
            if not d % 2}
