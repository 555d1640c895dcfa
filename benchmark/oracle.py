"""Independent oracle for the 2x2x2 Varikon Box benchmark.

Nothing here imports varikon. The move rule is re-derived from the
documented convention: cells are indexed x + 2y + 4z, and the letters
R, B, U swap the blank with the piece in the cell whose bit 0, 1, 2
differs from the blank's cell. A configuration is a tuple of eight
cells holding pieces 1..7 and None for the blank, the same text-free
form the package uses, so solver inputs and outputs compare directly.
"""

from array import array
from collections import Counter, deque
from itertools import permutations

SOLVED = (1, 2, 3, 4, 5, 6, 7, None)
LETTER_BIT = {"R": 0, "B": 1, "U": 2}
MODES = ("strict", "center", "rotation")


def move(config, letter):
    """Slide the piece across the given axis into the blank."""
    cells = list(config)
    blank = cells.index(None)
    other = blank ^ (1 << LETTER_BIT[letter])
    cells[blank], cells[other] = cells[other], cells[blank]
    return tuple(cells)


def replay(config, word):
    for letter in word:
        config = move(config, letter)
    return config


def _odd(seq) -> bool:
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return inversions % 2 == 1


def cube_rotations():
    """The 24 proper rotations of the cube as cell maps, each paired with
    whether it keeps every axis in place. A signed axis permutation is a
    rotation iff its determinant, the permutation sign times (-1) per
    flipped axis, is +1."""
    out = []
    for axes in permutations(range(3)):
        for flips in range(8):
            if _odd(axes) != (bin(flips).count("1") % 2 == 1):
                continue
            cells = tuple(
                sum(((i >> a) & 1) << axes[a] for a in range(3)) ^ flips
                for i in range(8))
            out.append((cells, axes == (0, 1, 2)))
    return out


def rotated_solved(cells):
    """The solved box turned by a rotation: the piece in cell i moves to
    cell cells[i]."""
    out = [None] * 8
    for i, j in enumerate(cells):
        out[j] = SOLVED[i]
    return tuple(out)


class Oracle:
    """Depths from the solved state and distances to each target set,
    over every reachable config.

    Each config is stored once, in `states` (BFS order from the solved
    state) and `index`; the distances are bytearrays indexed by that
    position, so the oracle adds little to a run's peak memory."""

    def __init__(self):
        self.states = [SOLVED]
        self.index = {SOLVED: 0}
        # the three neighbours of states[i] are neighbours[3i:3i+3]
        self.neighbours = array("I")
        for config in self.states:  # grows while it is walked: a BFS
            for letter in "RUB":
                nxt = move(config, letter)
                if nxt not in self.index:
                    self.index[nxt] = len(self.states)
                    self.states.append(nxt)
                self.neighbours.append(self.index[nxt])
        images = [(rotated_solved(cells), fixes_axes)
                  for cells, fixes_axes in cube_rotations()]
        self.targets = {
            "strict": {SOLVED},
            "center": {c for c, fixes_axes in images
                       if fixes_axes and c in self.index},
            "rotation": {c for c, _ in images if c in self.index},
        }
        self.distance = {mode: self._bfs(self.targets[mode])
                         for mode in MODES}

    def _bfs(self, sources):
        """Distance from the nearest source to every reachable config.

        Every move is its own inverse, so distance to a set equals
        distance from it."""
        dist = bytearray(b"\xff") * len(self.states)
        queue = deque(sorted(self.index[c] for c in sources))
        for i in queue:
            dist[i] = 0
        while queue:
            i = queue.popleft()
            d = dist[i] + 1
            for j in self.neighbours[3 * i:3 * i + 3]:
                if dist[j] == 0xFF:
                    dist[j] = d
                    queue.append(j)
        return dist

    def distance_to(self, mode, config):
        """Moves from a reachable config to the nearest `mode` target."""
        return self.distance[mode][self.index[config]]

    def histogram(self):
        return sorted(Counter(self.distance["strict"]).items())


# ---------------------------------------------------------------------------
# Permutations on 0..n-1 as image tuples, for checking word tables.

def product(a, b):
    """Apply a, then b."""
    return tuple(b[a[i]] for i in range(len(a)))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def parse_cycles(text, n):
    """1-indexed disjoint cycles such as "(1,2)(4,5)"; "()" is the identity."""
    images = list(range(n))
    body = text.strip()
    if body != "()":
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad cycle text {text!r}")
        for chunk in body[1:-1].split(")("):
            points = [int(t) - 1 for t in chunk.split(",")]
            for src, dst in zip(points, points[1:] + points[:1]):
                images[src] = dst
    if sorted(images) != list(range(n)):
        raise ValueError(f"not a permutation: {text!r}")
    return tuple(images)


GENERATORS = {"a5": ("(1,2,3)", "(3,4,5)"),
              "a6": ("(1,2,3)", "(3,4,5)", "(5,6,1)")}
GROUP_POINTS = {"a5": 5, "a6": 6}


def signed_generators(group):
    n = GROUP_POINTS[group]
    gens = [parse_cycles(t, n) for t in GENERATORS[group]]
    return {s: (g if s > 0 else inverse(g))
            for i, g in enumerate(gens, start=1) for s in (i, -i)}


def word_element(group, word):
    """Left-to-right product of a signed generator word such as (+1, -2)."""
    letters = signed_generators(group)
    out = tuple(range(GROUP_POINTS[group]))
    for s in word:
        out = product(out, letters[s])
    return out


def shortest_lengths(group):
    """Shortest signed-generator word length of every element of the group."""
    letters = list(signed_generators(group).values())
    ident = tuple(range(GROUP_POINTS[group]))
    dist = {ident: 0}
    queue = deque([ident])
    while queue:
        p = queue.popleft()
        for g in letters:
            q = product(p, g)
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist
