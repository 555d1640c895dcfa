"""Solvers for the box to a mode's targets (box.TARGET_FRAMES): optimal
descent on the mode's distance table, and the setup + shortest-word
heuristic.

The heuristic brings piece 1 opposite the blank with a short move
prefix, reads the remaining six pieces as an even permutation, looks up
its shortest word over the three 3-cycle generators, and expands each
abstract letter into a 4-move alternating pair. "Orientation freely
changed" is realized as conjugation by a whole-box rotation: the chosen
rotation relabels cells and move letters consistently and costs no
moves. The usable rotations are box.ROTATIONS (half of the 24), and a
mode's share of them is its target frames; this constrains where the
blank may sit after setup, so the setup search deepens past the nominal
two moves when required.

Both heuristics follow one plan rule: of the shortest prefixes homing
abstract point 6 (A5: up to two generator applications; A6: only the
empty one), the one leaving the shortest table word. Every answer,
optimal too, is replayed by one check. A list is solved as its tuple,
and anything but one of the 20,160 reachable configs raises ValueError
from box.rank.
"""

from collections import namedtuple
from itertools import permutations, product
from operator import itemgetter

from . import box, groups, perm, words

MODES = tuple(box.TARGET_FRAMES)

_BIT_LETTER = {bit: letter for letter, bit in box.AXIS_BIT.items()}


# ---------------------------------------------------------------------------
# Relabeling the six unsolved pieces onto the abstract points 1..6.

# beta: piece k (k = 2..7) -> abstract point beta[k-2] (0-based);
# assign: the ordered letter pair realizing +g, per generator index
Relabel = namedtuple("Relabel", "beta assign")


_SUBPROBLEM_PAIRS = (("R", "B"), ("R", "U"), ("U", "B"))


def _atom_on_six(atom7: perm.Perm) -> perm.Perm:
    if atom7[0] != 0:
        raise ValueError("alternating pair moved piece 1")
    return tuple(atom7[i + 1] - 1 for i in range(6))


def _relabel_candidates(letters: dict) -> list:
    """(inverted matches, bijection, hits) for each of the 720 bijections
    {pieces 2..7} -> {points 1..6} conjugating the three alternating-pair
    cycles onto signed generators in letters ({+k: generator k, -k: its
    inverse}, as words.WordTable.letters), hits naming the generator each
    cycle goes to. Six bijections qualify for the A6 generators."""
    signed = {p: s for s, p in letters.items()}
    atoms = box.three_cycle_atoms()
    sigmas = [_atom_on_six(atoms[pair]) for pair in _SUBPROBLEM_PAIRS]
    # if b conjugates sigma onto g, then g(b(x)) = b(sigma(x)) for every
    # point x, so b carries x, sigma(x), sigma^2(x) onto a walk of g: the
    # screens keep the bijections doing so along each sigma's longest cycle
    walks = {(i, g[i], g[g[i]]) for g in letters.values() for i in range(6)}
    screened = permutations(range(6))
    for sigma in sigmas:
        screen = itemgetter(*max(perm.cycles(sigma), key=len))
        screened = [bimg for bimg in screened if screen(bimg) in walks]
    candidates = []
    for bimg in screened:
        hits = []
        for sigma in sigmas:
            conj = [0] * 6
            for i in range(6):
                conj[bimg[i]] = bimg[sigma[i]]
            hit = signed.get(tuple(conj))
            if hit is None or -hit in hits or hit in hits:
                break
            hits.append(hit)
        else:
            candidates.append((sum(hit < 0 for hit in hits), bimg, hits))
    return candidates


def relabel_map(letters: dict) -> Relabel:
    """The relabel candidate with the fewest inverted matches (then least
    image tuple), so the choice is deterministic."""
    candidates = _relabel_candidates(letters)
    if not candidates:
        raise AssertionError("no bijection conjugates the pair cycles "
                             "onto the generators; move semantics broken")
    _, bimg, hits = min(candidates)
    pair_for_gen = [None, None, None]
    for (x, y), hit in zip(_SUBPROBLEM_PAIRS, hits):
        pair_for_gen[abs(hit) - 1] = (y, x) if hit < 0 else (x, y)
    return Relabel(bimg, tuple(pair_for_gen))


# ---------------------------------------------------------------------------

_ODD_RESIDUAL = "set-up residual is odd; frame admission is broken"
_EMPTY = 0xFF  # a setup slot not yet filled; a pair has at most 36 candidates


def _rank_or_fault(c) -> AssertionError:
    """box.rank turns away a non-board or an unreachable board; setups keep
    parity, so a board it ranks whose residual reads odd has broken frames."""
    box.rank(c)
    return AssertionError(_ODD_RESIDUAL)


# read: state -> the pieces in the cells of abstract points 0..5;
# expansion: signed generator -> physical XYXY, the letter's alternating
# pair conjugated through the frame rotation; target: as box.Rotation.target
_Frame = namedtuple("_Frame", "read expansion target")


# phases: (label, word) pairs; target: the config actually reached
class Solution(namedtuple("Solution", "method moves phases target")):
    __slots__ = ()

    @property
    def total(self) -> int:
        return len(self.moves)

    def phase_length(self, label: str) -> int:
        return sum(len(w) for lab, w in self.phases if lab == label)

    def replayed(self, c) -> "Solution":
        """The solution, once applying its moves to c reaches its target."""
        if box.apply_word(c, self.moves) != self.target:
            raise AssertionError(f"{self.method} produced an invalid "
                                 f"solution for {box.format_config(c)}")
        return self


class Solver:
    """Holds the built tables; all solve calls are pure given them."""

    def __init__(self):
        self.table5 = words.build_a5_table()
        self.table6 = words.build_a6_table()
        self.relabel = relabel_map(self.table6.letters)
        piece_at = perm.inverse(self.relabel.beta)  # point -> piece - 2
        pairs = {}
        for k, (x, y) in enumerate(self.relabel.assign, start=1):
            pairs[k], pairs[-k] = x + y, y + x
        self._frame: dict[box.Rotation, _Frame] = {}
        for rot in box.ROTATIONS:
            # point q is read from the cell where the frame's target holds
            # the piece that beta sends to q
            cell_of = perm.inverse(rot.cells)
            physical = {m: _BIT_LETTER[rot.bit_perm.index(bit)]
                        for m, bit in box.AXIS_BIT.items()}
            self._frame[rot] = _Frame(
                itemgetter(*(cell_of[i + 1] for i in piece_at)),
                {s: 2 * "".join(map(physical.get, xy))
                 for s, xy in pairs.items()},
                rot.target())
        self._distances: dict[str, groups.DistanceTable] = {}
        # the A6 residuals in table order, and each one's place keyed by the
        # pieces an input holds in the abstract points' cells
        self._residuals = list(self.table6.entries)
        pieces = [i + 2 for i in piece_at]
        self._place = {itemgetter(*a)(pieces): i
                       for i, a in enumerate(self._residuals)}
        # the setup memo (see setup_phase), filled on use: mode ->
        # (admitted frames per blank cell, each pair's distance to a goal,
        # pair -> its shortest (word, cells)); (mode, blank cell, piece-1
        # cell) -> _setup_choice; pattern -> (reorderings, slots)
        self._setup_graphs: dict[str, tuple] = {}
        self._setup_choices: dict[tuple, tuple] = {}
        self._patterns: dict[tuple, tuple] = {}
        # the shortest A5 prefixes (at most two generator applications) per
        # point they home, as (prefix, effect) in alphabet order; the effect
        # is the point action of performing the prefix's letters in order,
        # so the last performed acts first
        a5_prefixes: dict[int, list] = {}
        for plen in range(3):
            for prefix in product(self.table6.letters, repeat=plen):
                effect = self.table6.compose_word(prefix[::-1])
                group = a5_prefixes.setdefault(effect[5], [])
                if not group or len(group[0][0]) == plen:
                    group.append((prefix, effect))
        if len(a5_prefixes) != 6:
            raise AssertionError("piece 6 not homed within two generator "
                                 "applications")
        # per method: word table, homing prefixes and plan memo (see
        # _solve_heuristic); A6 is the A5 plan rule over the empty prefix
        self._methods = {
            "heuristic-a6": (self.table6, dict.fromkeys(
                range(6), [((), perm.identity(6))]), {}),
            "heuristic-a5": (self.table5, a5_prefixes, {})}

    def distance(self, mode: str = "strict") -> groups.DistanceTable:
        """The mode's distance table, built on first use."""
        table = self._distances.get(mode)
        if table is None:
            table = self._distances[mode] = groups.build_distance_table(mode)
        return table

    # -- optimal ------------------------------------------------------

    def solve_optimal(self, c, mode: str = "strict") -> Solution:
        """Descent on the mode's table, checked by replay: the target is
        where the word ends, or none if that is not depth 0."""
        r = box.rank(c)  # turns a bad input away before the table is built
        table = self.distance(mode)
        word = table.descend(r)
        end = table.walk(r, word)
        target = None if table.depth[end] else box.unrank(end)
        return Solution("optimal", word, (("optimal", word),),
                        target).replayed(c)

    # -- setup --------------------------------------------------------

    def residual_abstract(self, state, rot: box.Rotation) -> perm.Perm:
        """The six unsolved pieces of a set-up state, as a permutation of
        the abstract points."""
        place = self._place.get(self._frame[rot].read(state))
        if place is None:  # the table holds exactly the even permutations
            raise AssertionError(_ODD_RESIDUAL)
        return self._residuals[place]

    def setup_phase(self, c, mode: str = "strict"):
        """Shortest move word making piece 1 opposite the blank with an
        admissible frame for the mode. Among shortest setups the one
        whose residual has the shortest table word wins (then word text,
        then frame order). Returns (word, rotation, residual); the set-up
        state is box.apply_word(c, word).

        Whether a state ends a setup depends only on its blank's cell and
        piece 1's, and a word moves cells alike on every config with the
        same blank cell, so the candidates are the mode's setup words for
        the input's (blank, piece-1) pair, built on the pair's first solve
        from the lists of the pairs one move closer to a goal. They all
        read the six cells holding neither the blank nor piece 1, so each
        one's residual is a fixed reordering of the first one's, a0: the
        pair's pattern of reorderings, grouped and checked even on the
        pair's first solve, is the one model of its candidates' residuals.
        The memo keeps the winner per pattern and place of a0 in the A6
        table (at most patterns x 360 slots, filled on use): a setup reads
        a0 once, and only an empty slot scores the candidates. A non-board
        goes to box.rank, as an odd a0 does.
        """
        if not box.is_board(c):
            raise _rank_or_fault(c)
        key = mode, box.blank_cell(c), c.index(1)
        choice = self._setup_choices.get(key)
        if choice is None:
            choice = self._setup_choices[key] = self._setup_choice(*key)
        entries, read0, reorders, slots = choice
        place = self._place.get(read0(c))
        if place is None:
            raise _rank_or_fault(c)
        a0 = self._residuals[place]
        k = slots[place]
        if k == _EMPTY:
            k = slots[place] = self._first_shortest(a0, reorders)
        w, _, rot = entries[k]
        return w, rot, reorders[k](a0)

    def _setup_choice(self, mode: str, b: int, p: int) -> tuple:
        """The pair's candidates, the first one's read of the input, and
        its pattern's memo: per candidate, the itemgetter taking a0 to its
        residual, and the winner's index per place of a0."""
        entries = self._setup_words(mode, b, p)
        sources = [self._frame[rot].read(cells) for _, cells, rot in entries]
        six = set(range(8)) - {b, p}
        if any(set(src) != six for src in sources):
            raise AssertionError("a setup candidate reads a cell outside "
                                 "the six its pair leaves to the pieces")
        pattern = tuple(tuple(map(sources[0].index, src)) for src in sources)
        # a0 is even, so a candidate's residual is even iff its reordering is
        if any(tau not in self.table6.entries for tau in pattern):
            raise AssertionError(_ODD_RESIDUAL)
        memo = self._patterns.get(pattern)
        if memo is None:
            memo = self._patterns[pattern] = (
                [itemgetter(*tau) for tau in pattern],
                bytearray([_EMPTY]) * len(self._residuals))
        return (entries, itemgetter(*sources[0])) + memo

    def _first_shortest(self, a0, reorders) -> int:
        """Index of the first candidate whose residual, its reordering of
        a0, has the shortest table word."""
        entries = self.table6.entries
        lengths = [len(entries[reorder(a0)]) for reorder in reorders]
        return lengths.index(min(lengths))

    def _setup_words(self, mode: str, b: int, p: int) -> list:
        """(word, cells, frame) for every shortest setup word of the mode
        from blank cell b and piece-1 cell p, and every frame admitted
        where the word leaves the blank (the mode's frames that rotate that
        cell to cell 7, the blank's home), sorted by (word, bit_perm,
        mask). The mode's pair distances come from a BFS out of the goal
        pairs, those with piece 1 opposite an admitted blank; moves are
        involutions, so they are the distances to the goals."""
        graph = self._setup_graphs.get(mode)
        if graph is None:
            frames = box.target_frames(mode)
            by_blank = [[rot for rot in frames if rot.cells.index(7) == b]
                        for b in range(8)]
            goals = [(b, b ^ 7) for b in range(8) if by_blank[b]]
            dist = {}
            for pair, (prev, _) in perm.bfs(goals, box.LETTERS,
                                            _pair_moves).items():
                dist[pair] = 0 if prev is None else dist[prev] + 1
            graph = self._setup_graphs[mode] = by_blank, dist, {}
        by_blank, dist, built = graph
        return sorted(((w, cells, rot) for w, cells in
                       _shortest_pair_words((b, p), dist, built)
                       for rot in by_blank[cells.index(b)]),
                      key=lambda e: (e[0], e[2].bit_perm, e[2].mask))

    # -- heuristics ---------------------------------------------------

    def _solve_heuristic(self, c, mode: str, method: str) -> Solution:
        """Setup, the plan rule's letters for the residual a, their
        expansion in the setup's frame, and the replay check. A plan
        depends on the residual alone, so each method keeps one memo of
        them (at most 360), filled on first use."""
        table, prefixes, plans = self._methods[method]
        setup_word, rot, a = self.setup_phase(c, mode)
        performed = plans.get(a)
        if performed is None:
            n = len(table.gens[0])
            # compose(effect, a) maps point 5 to a[effect[5]], so it homes
            # point 5 exactly when effect[5] is the point that a sends to 5
            _, _, prefix, word = min(
                (len(w), i, prefix, w)
                for i, (prefix, effect) in enumerate(prefixes[a.index(5)])
                for w in (table.entries[
                    perm.inverse(perm.compose(effect, a)[:n])],))
            # The residual composes contravariantly with performed letters
            # (the last letter performed acts first on the points), so the
            # canceling sequence is the reversed table word of the inverse.
            performed = plans[a] = prefix + word[::-1]
        frame = self._frame[rot]
        phys = "".join(map(frame.expansion.__getitem__, performed))
        return Solution(method, setup_word + phys,
                        (("setup", setup_word), ("word-expansion", phys)),
                        frame.target).replayed(c)

    def solve_heuristic_a6(self, c, mode: str = "strict") -> Solution:
        return self._solve_heuristic(c, mode, "heuristic-a6")

    def solve_heuristic_a5(self, c, mode: str = "strict") -> Solution:
        """Like the A6 path, but first homes the piece at abstract point
        6 with at most two extra generator applications, then uses the
        two-generator table on the remaining five points."""
        return self._solve_heuristic(c, mode, "heuristic-a5")

    # -- exhaustive comparison ----------------------------------------

    def compare_all(self, mode: str = "strict"):
        """Optimal and heuristic lengths over every reachable config.

        Returns (summary dict, rows); rows are per-rank tuples of
        (rank, optimal, a6 total, a5 total), optimal the strict distance in
        every mode (criterion 9 pins its max at 19). Every heuristic
        solution is verified by application inside the solve calls.
        """
        table = self.distance()
        rows = []
        for r in range(box.N_REACHABLE):
            c = box.unrank(r)
            rows.append((r, table.depth[r],
                         self.solve_heuristic_a6(c, mode).total,
                         self.solve_heuristic_a5(c, mode).total))
        summary = {
            "mode": mode,
            "configs": len(rows),
            "optimal_max": max(row[1] for row in rows),
            "optimal_mean": sum(row[1] for row in rows) / len(rows),
        }
        for label, col in (("a6", 2), ("a5", 3)):
            totals = [row[col] for row in rows]
            gaps = [t - row[1] for t, row in zip(totals, rows)]
            summary[f"{label}_max"] = max(totals)
            summary[f"{label}_mean"] = sum(totals) / len(totals)
            summary[f"{label}_max_gap"] = max(gaps)
            summary[f"{label}_argmax"] = box.format_config(
                box.unrank(totals.index(max(totals))))
        return summary, rows


class OptimalSolver(Solver):
    """A Solver that builds only what solve_optimal reads, the distance
    tables; it has no tables for the heuristic methods."""

    def __init__(self):
        self._distances: dict[str, groups.DistanceTable] = {}


def _pair_moves(pair) -> list:
    """The R, U and B moves acting on (blank cell, piece-1 cell): the
    blank toggles the letter's bit, and piece 1 moves only if it is the
    piece slid."""
    b, p = pair
    return [(nb, b if p == nb else p)
            for nb in (b ^ box.STEP[m] for m in box.LETTERS)]


def _shortest_pair_words(pair, dist: dict, built: dict) -> tuple:
    """Every shortest word from the (blank, piece-1) pair to the pairs at
    distance 0 in dist, R,U,B-lexicographic, as (word, cells): the word
    takes a config c with that blank cell to tuple(c[i] for i in cells).
    Of the words with one cell map, which reach one state from every such
    config (e.g. RBRBRB and BRBRBR), only the first is kept, as a
    breadth-first search would. A pair's list is built on first use from
    the lists of the pairs one move closer, and kept in built."""
    found = built.get(pair)
    if found is None:
        first = {} if dist[pair] else {tuple(range(8)): ""}  # cells -> word
        for m, nxt in zip(box.LETTERS, _pair_moves(pair)):
            if dist[nxt] == dist[pair] - 1:
                # m swaps the blank's cell with nxt's before w acts
                swap = list(range(8))
                swap[pair[0]], swap[nxt[0]] = nxt[0], pair[0]
                for w, cells in _shortest_pair_words(nxt, dist, built):
                    first.setdefault(itemgetter(*cells)(swap), m + w)
        found = built[pair] = tuple((w, cells) for cells, w in first.items())
    return found
