"""Heuristic and optimal solving: relabeling, frames, sweeps, pinned lengths."""

import random
from collections import deque
from itertools import permutations
from operator import itemgetter
from unittest import mock

import pytest

from varikon import box, groups, perm, solver, words

A6_GENS = [perm.parse_cycles(t, 6) for t in words.A6_GENERATOR_CYCLES]


def test_relabeling_is_the_frozen_choice(a6_table):
    rel = solver.relabel_map(a6_table.letters)
    assert rel.beta == (1, 5, 0, 3, 2, 4)
    assert rel.assign == (("U", "B"), ("B", "R"), ("R", "U"))


def _unscreened_relabel_candidates(letters):
    """The relabel search over all 720 bijections with no screen, kept as
    the reference for solver._relabel_candidates."""
    signed = {p: s for s, p in letters.items()}
    atoms = box.three_cycle_atoms()
    sigmas = [solver._atom_on_six(atoms[pair])
              for pair in solver._SUBPROBLEM_PAIRS]
    candidates = []
    for bimg in permutations(range(6)):
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


def test_relabel_screen_keeps_every_candidate(a6_table):
    reference = _unscreened_relabel_candidates(a6_table.letters)
    assert len(reference) == 6
    assert solver._relabel_candidates(a6_table.letters) == reference
    _, bimg, hits = min(reference)
    rel = solver.relabel_map(a6_table.letters)
    assert rel.beta == bimg
    for (x, y), hit in zip(solver._SUBPROBLEM_PAIRS, hits):
        assert rel.assign[abs(hit) - 1] == ((y, x) if hit < 0 else (x, y))


@pytest.mark.parametrize("seed", range(4))
def test_relabel_screen_on_relabelled_generators(seed):
    # conjugating the generators by a point bijection q moves the
    # candidates elsewhere among the 720; the screen must keep them all
    q = tuple(random.Random(seed).sample(range(6), 6))
    gens = [perm.compose(perm.compose(perm.inverse(q), g), q)
            for g in A6_GENS]
    letters = words.WordTable(tuple(gens), {}).letters
    reference = _unscreened_relabel_candidates(letters)
    assert len(reference) == 6
    assert solver._relabel_candidates(letters) == reference


def test_expansion_pairs_realize_the_generators(box_solver, a6_table):
    rel = solver.relabel_map(a6_table.letters)
    rot = box.IDENTITY_ROTATION
    for g, gen in enumerate(A6_GENS, start=1):
        for signed, expected in ((g, gen), (-g, perm.inverse(gen))):
            image = box.apply_word(box.SOLVED,
                                   box_solver._frame[rot].expansion[signed])
            on_six = solver._atom_on_six(box.piece_perm(image))
            # beta carries the piece permutation onto the abstract points
            relabeled = [0] * 6
            for i in range(6):
                relabeled[rel.beta[i]] = rel.beta[on_six[i]]
            assert tuple(relabeled) == expected
            assert box_solver.residual_abstract(image, rot) == expected


def test_rotation_catalogue():
    rotations = box.all_rotations()
    assert len(rotations) == 24
    assert len({r.cells for r in rotations}) == 24
    assert box.IDENTITY_ROTATION in rotations
    # rotations are values: equal ones hash alike and serve as dict keys
    fresh = box.Rotation(tuple(range(8)), (0, 1, 2), 0)
    assert hash(fresh) == hash(box.IDENTITY_ROTATION)
    assert {r: i for i, r in enumerate(rotations)}[fresh] == \
        rotations.index(box.IDENTITY_ROTATION)
    reachable = box.ROTATIONS
    assert len(reachable) == 12
    for r in rotations:
        assert box.is_reachable(r.target()) == (r in reachable)


def test_identity_frame_keeps_letters(box_solver):
    rel = box_solver.relabel
    frame = box_solver._frame[box.IDENTITY_ROTATION]
    for k, (x, y) in enumerate(rel.assign, start=1):
        assert frame.expansion[k] == 2 * (x + y)
        assert frame.expansion[-k] == 2 * (y + x)


def _set_up_states(rot, rng, count):
    """Reachable configs with the blank and piece 1 where the frame's
    target has them, the other six pieces shuffled."""
    blank, one = rot.cells.index(7), rot.cells.index(0)
    rest = [i for i in range(8) if i not in (blank, one)]
    states = []
    while len(states) < count:
        pieces = rng.sample(range(2, 8), 6)
        c = [box.BLANK] * 8
        c[one] = 1
        for i, piece in zip(rest, pieces):
            c[i] = piece
        if box.is_reachable(tuple(c)):
            states.append(tuple(c))
    return states


def test_every_frame_expands_letters_onto_the_generators(box_solver):
    # performing a letter's expansion in any frame composes the letter's
    # generator before the residual, as the word phase assumes
    rng = random.Random(36)
    letters = box_solver.table6.letters
    assert len(box_solver._frame) == 12
    for rot in box.ROTATIONS:
        for x in _set_up_states(rot, rng, 30):
            a = box_solver.residual_abstract(x, rot)
            for s in letters:
                moved = box.apply_word(x, box_solver._frame[rot].expansion[s])
                assert box_solver.residual_abstract(moved, rot) == \
                    perm.compose(letters[s], a)


def test_solved_input_needs_no_moves(box_solver):
    for mode in solver.MODES:
        assert box_solver.solve_heuristic_a6(box.SOLVED, mode).total == 0
        assert box_solver.solve_heuristic_a5(box.SOLVED, mode).total == 0
        assert box_solver.solve_optimal(box.SOLVED, mode).total == 0


def test_setup_on_solved_is_empty(box_solver):
    word, rot, residual = box_solver.setup_phase(box.SOLVED, "strict")
    assert word == ""
    assert box.apply_word(box.SOLVED, word) == box.SOLVED
    assert rot == box.IDENTITY_ROTATION
    assert residual == perm.identity(6)


def test_unreachable_input_is_rejected(box_solver):
    bad = box.parse_config("1,2,3,4,6,5,7,_")
    with pytest.raises(ValueError):
        box_solver.solve_optimal(bad)
    with pytest.raises(ValueError):
        box_solver.solve_heuristic_a6(bad)
    with pytest.raises(ValueError):
        box_solver.solve_heuristic_a5(bad)
    for mode in solver.MODES:
        with pytest.raises(ValueError, match="unreachable config"):
            box_solver.setup_phase(bad, mode)


def test_odd_residual_of_a_reachable_input_is_a_fault():
    # an odd residual marks an unreachable input only while the frames
    # read the right cells: with two of them swapped, the solved state
    # reads odd and the setup reports broken frames
    s = solver.Solver()
    rot = box.IDENTITY_ROTATION
    cells = s._frame[rot].read.__reduce__()[1]
    s._frame[rot] = s._frame[rot]._replace(
        read=itemgetter(cells[1], cells[0], *cells[2:]))
    with pytest.raises(AssertionError, match="frame admission is broken"):
        s.setup_phase(box.SOLVED)


def test_odd_reordering_of_a_later_candidate_is_a_fault():
    # a pair's reorderings are checked when it is grouped: a frame that
    # only a later candidate uses, with two cells swapped, reorders the
    # first residual oddly, and the pair's first solve reports it
    s = solver.Solver()
    (b, p), entries = next(
        (pair, entries) for pair, entries in _setup_table(s, "rotation").items()
        if any(rot != entries[0][2] for _, _, rot in entries))
    rot = next(rot for _, _, rot in entries if rot != entries[0][2])
    cells = s._frame[rot].read.__reduce__()[1]
    s._frame[rot] = s._frame[rot]._replace(
        read=itemgetter(cells[1], cells[0], *cells[2:]))
    c = next(c for c in map(box.unrank, range(box.N_REACHABLE))
             if (box.blank_cell(c), c.index(1)) == (b, p))
    with pytest.raises(AssertionError, match="frame admission is broken"):
        s.setup_phase(c, "rotation")


@pytest.mark.parametrize("board", (
    (1, 1, 3, 4, 5, 6, 7, None),    # a repeated piece
    (1, 2, 3, 4, 5, 6, None),       # seven tokens
    (1, 2, 3, 4, 5, 6, 7, 8),       # eight tokens, no blank
    (1, 2, 3, 4, 5, 6, 7, [None]),  # an unhashable token
    5,                              # not a sequence
    None,
    # the eight tokens, but not as a tuple or list
    set(box.SOLVED), frozenset(box.SOLVED), dict.fromkeys(box.SOLVED),
    deque(box.SOLVED),
))
def test_malformed_input_is_rejected(box_solver, board):
    inputs = (board, list(board)) if isinstance(board, tuple) else (board,)
    for c in inputs:
        assert box.is_board(c) is False
        assert box.is_reachable(c) is False
        for solve in (box.rank, box_solver.solve_optimal,
                      box_solver.solve_heuristic_a6,
                      box_solver.solve_heuristic_a5, box_solver.setup_phase):
            with pytest.raises(ValueError, match="not a board of the box"):
                solve(c)


def test_list_input_is_solved_as_its_tuple(box_solver):
    rng = random.Random(40)
    configs = [box.SOLVED] + [box.unrank(rng.randrange(box.N_REACHABLE))
                              for _ in range(20)]
    for c in configs:
        assert box_solver.solve_optimal(list(c)) == \
            box_solver.solve_optimal(c)
        for mode in solver.MODES:
            assert box_solver.setup_phase(list(c), mode) == \
                box_solver.setup_phase(c, mode)
            for method in (box_solver.solve_heuristic_a6,
                           box_solver.solve_heuristic_a5):
                assert method(list(c), mode) == method(c, mode)


def _admissible_frames(b, mode):
    """The mode's frames usable with the blank in cell b: those whose
    blank home, the cell they rotate to cell 7, is b."""
    return [rot for rot in box.target_frames(mode) if rot.cells.index(7) == b]


PAIRS = [(b, p) for b in range(8) for p in range(8) if b != p]


def _setup_table(s, mode):
    """(blank cell, piece-1 cell) -> the solver's setup candidates, for
    all 56 pairs."""
    return {pair: s._setup_words(mode, *pair) for pair in PAIRS}


def _setup_goals(mode):
    """The goal pairs of a mode: piece 1 opposite an admitted blank."""
    return [(b, b ^ 7) for b in range(8) if _admissible_frames(b, mode)]


def _pair_distances(goals):
    dist = {}
    for pair, (prev, _) in perm.bfs(goals, box.LETTERS,
                                    solver._pair_moves).items():
        dist[pair] = 0 if prev is None else dist[prev] + 1
    return dist


def _layered_pair_words(goals):
    """Every pair's shortest words to the goals, built a distance layer at
    a time over all 56 pairs, kept as the reference for the solver's
    per-pair build."""
    dist = _pair_distances(goals)
    table = {goal: (("", tuple(range(8))),) for goal in goals}
    for pair in sorted(dist.keys() - table.keys(), key=dist.get):
        first = {}  # cells -> first word
        for m, nxt in zip(box.LETTERS, solver._pair_moves(pair)):
            if dist[nxt] == dist[pair] - 1:
                # m swaps the blank's cell with nxt's before w acts
                swap = list(range(8))
                swap[pair[0]], swap[nxt[0]] = nxt[0], pair[0]
                for w, cells in table[nxt]:
                    first.setdefault(itemgetter(*cells)(swap), m + w)
        table[pair] = tuple((w, cells) for cells, w in first.items())
    return table


@pytest.mark.parametrize("mode", solver.MODES)
def test_setup_words_match_the_layered_build(mode):
    s = solver.Solver()
    reference = _layered_pair_words(_setup_goals(mode))
    assert sorted(reference) == PAIRS
    for b, p in PAIRS:
        expected = sorted(
            ((w, cells, rot) for w, cells in reference[b, p]
             for rot in _admissible_frames(cells.index(b), mode)),
            key=lambda e: (e[0], e[2].bit_perm, e[2].mask))
        assert s._setup_words(mode, b, p) == expected


@pytest.mark.parametrize("mode,built", (("strict", 15), ("rotation", 2)))
def test_first_solve_builds_only_its_pairs_words(mode, built):
    # a fresh solver builds setup words for the input's pair and the pairs
    # its shortest words pass through, each one move closer to a goal
    s = solver.Solver()
    c = box.parse_config("_,5,3,1,4,7,6,2")
    assert (box.blank_cell(c), c.index(1)) == (0, 3)
    s.solve_heuristic_a6(c, mode)
    s.solve_heuristic_a5(c, mode)
    dist = _pair_distances(_setup_goals(mode))
    closer, queue = {(0, 3)}, [(0, 3)]
    for pair in queue:
        for nxt in solver._pair_moves(pair):
            if dist[nxt] == dist[pair] - 1 and nxt not in closer:
                closer.add(nxt)
                queue.append(nxt)
    assert s._setup_graphs[mode][2].keys() == closer
    assert len(closer) == built < len(PAIRS)


def _reference_setup(s, c, mode):
    """Breadth-first setup search over whole configs, kept as the oracle
    for the (blank, piece-1) word table behind `Solver.setup_phase`; the
    winner's word replays to the state it was found at."""
    seen = {c}
    layer = [("", c)]
    while True:
        candidates = []
        for w, state in layer:
            b = box.blank_cell(state)
            if state[b ^ 7] != 1:
                continue
            for rot in _admissible_frames(b, mode):
                a = s.residual_abstract(state, rot)
                key = (len(s.table6.entries[perm.inverse(a)]), w,
                       rot.bit_perm, rot.mask)
                candidates.append((key, w, state, rot, a))
        if candidates:
            _, w, state, rot, a = min(candidates)
            assert box.apply_word(c, w) == state
            return w, rot, a
        nxt = []
        for w, state in layer:
            for m in box.LETTERS:
                ns = box.apply_move(state, m)
                if ns not in seen:
                    seen.add(ns)
                    nxt.append((w + m, ns))
        layer = nxt


@pytest.mark.parametrize("mode,total,n_words,per_pair,depth", (
    ("strict", 194, 194, 19, 11), ("center", 160, 160, 12, 5),
    ("rotation", 480, 160, 36, 5)))
def test_setup_word_table(box_solver, mode, total, n_words, per_pair,
                          depth):
    table = _setup_table(box_solver, mode)
    assert len(table) == 56
    assert sum(len(entries) for entries in table.values()) == total
    assert sum(len({w for w, _, _ in entries})
               for entries in table.values()) == n_words
    assert max(len(entries) for entries in table.values()) == per_pair
    assert max(len(w) for entries in table.values()
               for w, _, _ in entries) == depth
    for entries in table.values():
        assert len({len(w) for w, _, _ in entries}) == 1
        keys = [(w, rot.bit_perm, rot.mask) for w, _, rot in entries]
        assert keys == sorted(set(keys))
        maps = {w: cells for w, cells, _ in entries}
        assert len(set(maps.values())) == len(maps)
        assert all(type(cells) is tuple for cells in maps.values())


@pytest.mark.parametrize("mode", solver.MODES)
def test_setup_cell_maps_replay_their_words(box_solver, mode):
    rng = random.Random(35)
    table = _setup_table(box_solver, mode)
    pairs = set()
    for _ in range(600):
        c = box.unrank(rng.randrange(box.N_REACHABLE))
        pair = box.blank_cell(c), c.index(1)
        pairs.add(pair)
        for w, cells, rot in table[pair]:
            end = box.apply_word(c, w)
            assert tuple(c[i] for i in cells) == end
            b = box.blank_cell(end)
            assert end[b ^ 7] == 1
            assert rot in _admissible_frames(b, mode)
    assert pairs == set(table)


@pytest.mark.parametrize("mode", solver.MODES)
def test_setup_reorderings_give_each_candidates_residual(box_solver, mode):
    # each candidate's reordering of the first residual a0, read off the
    # input, is exactly the residual its frame reads off its word's end
    # state
    rng = random.Random(38)
    pools = {}
    for r in range(box.N_REACHABLE):
        c = box.unrank(r)
        pools.setdefault((box.blank_cell(c), c.index(1)), []).append(c)
    table = _setup_table(box_solver, mode)
    assert pools.keys() == table.keys()
    for pair, candidates in table.items():
        sample = rng.sample(pools[pair], 10)
        box_solver.setup_phase(sample[0], mode)
        entries, read0, reorders, _ = box_solver._setup_choices[(mode,) + pair]
        assert entries == candidates and len(reorders) == len(entries)
        for c in sample:
            a0 = box_solver._residuals[box_solver._place[read0(c)]]
            for (w, _, rot), reorder in zip(entries, reorders):
                assert reorder(a0) == box_solver.residual_abstract(
                    box.apply_word(c, w), rot)


def test_setup_phase_reads_no_residual_off_a_state(box_solver):
    # candidates are scored as their reorderings of the first residual,
    # and the winner's residual is its reordering, never read off a set-up
    # state
    rng = random.Random(39)
    with mock.patch.object(box_solver, "residual_abstract",
                           wraps=box_solver.residual_abstract) as residual:
        for _ in range(50):
            c = box.unrank(rng.randrange(box.N_REACHABLE))
            for mode in solver.MODES:
                box_solver.setup_phase(c, mode)
    assert residual.call_count == 0


def test_replay_rejects_a_wrong_word(box_solver):
    c = box.parse_config("1,5,2,4,3,6,7,_")
    _, rot, _ = box_solver.setup_phase(c)
    sol = box_solver.solve_heuristic_a6(c)
    assert sol.replayed(c) is sol
    with pytest.raises(AssertionError, match="produced an invalid solution"):
        sol._replace(moves=sol.moves[:-1]).replayed(c)
    # an expansion that drops a letter is caught by the replay as well
    frame = box_solver._frame[rot]
    short = frame._replace(expansion={s: xy[:-1] for s, xy
                                      in frame.expansion.items()})
    with mock.patch.dict(box_solver._frame, {rot: short}):
        with pytest.raises(AssertionError,
                           match="produced an invalid solution"):
            box_solver.solve_heuristic_a6(c)
    assert box_solver.solve_heuristic_a6(c) == sol
    # the optimal descent goes through the same replay check in every
    # mode: a word cut short ends off depth 0, so it declares no target
    descend = groups.DistanceTable.descend
    for mode in solver.MODES:
        optimal = box_solver.solve_optimal(c, mode)
        assert optimal.total > 0
        with mock.patch.object(groups.DistanceTable, "descend",
                               lambda table, r: descend(table, r)[:-1]):
            with pytest.raises(AssertionError,
                               match="produced an invalid solution"):
                box_solver.solve_optimal(c, mode)
        assert box_solver.solve_optimal(c, mode) == optimal


@pytest.mark.parametrize("mode", solver.MODES)
def test_setup_phase_matches_breadth_first_search(box_solver, mode):
    rng = random.Random(34)
    for _ in range(300):
        c = box.unrank(rng.randrange(box.N_REACHABLE))
        assert box_solver.setup_phase(c, mode) == _reference_setup(
            box_solver, c, mode)


def test_setup_phase_reads_residuals_without_perm_work(box_solver):
    # frames are compiled when the solver is built: a setup reads each
    # residual off its frame's cells, with no inverse or parity per
    # candidate, and checks its input as a board, leaving the parity
    # test to an input whose residual reads odd
    rng = random.Random(37)
    inverse = mock.Mock(wraps=perm.inverse)
    parity = mock.Mock(wraps=perm.parity)
    reachable = mock.Mock(wraps=box.is_reachable)
    with mock.patch.object(perm, "inverse", inverse), \
            mock.patch.object(perm, "parity", parity), \
            mock.patch.object(box, "is_reachable", reachable):
        for _ in range(50):
            c = box.unrank(rng.randrange(box.N_REACHABLE))
            for mode in solver.MODES:
                box_solver.setup_phase(c, mode)
    assert (reachable.call_count, inverse.call_count,
            parity.call_count) == (0, 0, 0)


def test_warm_solves_do_no_perm_work():
    # each residual's letter plan is worked out once per solver: solving
    # the same configs again costs no inverse, compose or parity
    s = solver.Solver()
    rng = random.Random(41)
    configs = [box.unrank(rng.randrange(box.N_REACHABLE)) for _ in range(200)]
    calls = {name: mock.Mock(wraps=getattr(perm, name))
             for name in ("inverse", "compose", "parity")}
    for mode in solver.MODES:
        first = [(s.solve_heuristic_a6(c, mode), s.solve_heuristic_a5(c, mode))
                 for c in configs]
        with mock.patch.multiple(perm, **calls):
            again = [(s.solve_heuristic_a6(c, mode),
                      s.solve_heuristic_a5(c, mode)) for c in configs]
        assert again == first
        assert {name: m.call_count for name, m in calls.items()} == \
            {"inverse": 0, "compose": 0, "parity": 0}, mode
    # plans are keyed by residual alone: a whole sweep keeps at most one
    # plan per even permutation of the six points
    s.compare_all("rotation")
    for _, _, plans in s._methods.values():
        assert 0 < len(plans) <= len(s.table6)


def test_cold_and_warm_solvers_agree(box_solver):
    # fill every plan of the session solver: with the blank home and
    # piece 1 in cell 0 the strict setup is empty and the 360 residuals
    # are the 360 arrangements of the other six pieces
    for r in box.block(7):
        c = box.unrank(r)
        if c[0] == 1:
            box_solver.solve_heuristic_a6(c)
            box_solver.solve_heuristic_a5(c)
    assert [len(plans) for _, _, plans in box_solver._methods.values()] \
        == [len(box_solver.table6)] * 2
    rng = random.Random(42)
    configs = [box.unrank(rng.randrange(box.N_REACHABLE)) for _ in range(300)]
    for mode in solver.MODES:
        cold = solver.Solver()
        for c in configs:
            for method in ("solve_heuristic_a6", "solve_heuristic_a5"):
                assert getattr(cold, method)(c, mode) == \
                    getattr(box_solver, method)(c, mode), (mode, method, c)


@pytest.mark.parametrize("mode", solver.MODES)
def test_solver_build_and_first_solves_take_few_products(mode):
    # the word tables take each product as one bytes translate, so
    # perm.compose is left to the A5 prefixes and the plans (80 calls,
    # against 2,480 with a product per Cayley-graph edge)
    compose = mock.Mock(wraps=perm.compose)
    c = box.unrank(box.N_REACHABLE // 2)
    with mock.patch.object(perm, "compose", compose):
        s = solver.Solver()
        s.solve_heuristic_a6(c, mode)
        s.solve_heuristic_a5(c, mode)
    assert compose.call_count <= 150


def test_setup_phase_rejects_unknown_mode(box_solver):
    # every method, and the table build, turn the mode away in one place
    for solve in (box_solver.setup_phase, box_solver.solve_heuristic_a6,
                  box_solver.solve_heuristic_a5, box_solver.solve_optimal):
        with pytest.raises(ValueError, match="unknown target mode 'bogus'"):
            solve(box.SOLVED, "bogus")
    with pytest.raises(ValueError, match="unknown target mode 'bogus'"):
        groups.build_distance_table("bogus")


def test_optimal_length_matches_bfs_depth(box_solver, distance_table):
    rng = random.Random(31)
    for _ in range(300):
        c = box.unrank(rng.randrange(box.N_REACHABLE))
        sol = box_solver.solve_optimal(c)
        assert sol.total == distance_table.depth[box.rank(c)]
        assert box.apply_word(c, sol.moves) == box.SOLVED


def test_pinned_word_phase_lengths(box_solver):
    hard_a6 = box.parse_config("1,5,2,4,3,6,7,_")
    hard_a5 = box.parse_config("1,3,2,4,5,7,6,_")
    sol6 = box_solver.solve_heuristic_a6(hard_a6)
    sol5 = box_solver.solve_heuristic_a5(hard_a5)
    assert sol6.phase_length("setup") == 0
    assert sol6.phase_length("word-expansion") == 20
    assert sol6.total == len(sol6.moves) == 20
    assert sol5.phase_length("setup") == 0
    assert sol5.phase_length("word-expansion") == 24
    # a freely chosen frame shortens the first case
    assert box_solver.solve_heuristic_a6(hard_a6, mode="rotation").total == 16


def test_word_phase_is_a_multiple_of_four(box_solver):
    rng = random.Random(32)
    for _ in range(60):
        c = box.unrank(rng.randrange(box.N_REACHABLE))
        for mode in solver.MODES:
            for method in (box_solver.solve_heuristic_a6,
                           box_solver.solve_heuristic_a5):
                assert method(c, mode).phase_length("word-expansion") % 4 == 0


def test_solutions_reach_their_declared_target(box_solver):
    rng = random.Random(33)
    for _ in range(80):
        c = box.unrank(rng.randrange(box.N_REACHABLE))
        for mode in solver.MODES:
            targets = {rot.target() for rot in box.TARGET_FRAMES[mode]}
            for method in (box_solver.solve_heuristic_a6,
                           box_solver.solve_heuristic_a5,
                           box_solver.solve_optimal):
                sol = method(c, mode)
                assert box.apply_word(c, sol.moves) == sol.target
                assert sol.target in targets
                if mode == "strict":
                    assert sol.target == box.SOLVED


# per mode and method (a6, a5): max, total, max gap and argmax of the
# answer lengths; the optimal column is the strict distance in every mode
SWEEPS = {
    "strict": ((27, 368372, 16, "_,2,5,6,3,4,7,1"),
               (37, 438576, 26, "5,4,7,_,3,2,6,1")),
    "center": ((23, 314288, 16, "_,1,2,3,6,5,7,4"),
               (33, 385520, 26, "_,2,4,1,5,6,7,3")),
    "rotation": ((21, 263328, 14, "_,2,3,1,4,6,7,5"),
                 (32, 324976, 24, "2,_,6,5,4,3,7,1")),
}


def _pinned_summary(mode):
    """compare_all's whole summary for the mode, each mean as an exact
    total over the 20,160 configs."""
    summary = {"mode": mode, "configs": box.N_REACHABLE, "optimal_max": 19,
               "optimal_mean": 261504 / 20160}
    for label, (top, total, gap, argmax) in zip(("a6", "a5"), SWEEPS[mode]):
        summary.update({f"{label}_max": top, f"{label}_mean": total / 20160,
                        f"{label}_max_gap": gap, f"{label}_argmax": argmax})
    return summary


def test_strict_sweep_statistics(box_solver):
    summary, rows = box_solver.compare_all(mode="strict")
    assert summary["configs"] == box.N_REACHABLE
    assert summary["optimal_max"] == 19
    assert summary["optimal_mean"] == 261504 / 20160
    assert summary["a6_max"] == 27
    assert summary["a5_max"] == 37
    assert summary == _pinned_summary("strict")
    # solving to the strict target can never beat the optimal word
    assert all(row[2] >= row[1] and row[3] >= row[1] for row in rows)


def test_center_sweep_statistics(box_solver):
    summary, _ = box_solver.compare_all(mode="center")
    assert summary["a6_max"] == 23
    assert summary["a5_max"] == 33
    assert summary["a5_argmax"] == "_,2,4,1,5,6,7,3"
    assert summary == _pinned_summary("center")


def test_rotation_sweep_statistics(box_solver):
    summary, _ = box_solver.compare_all(mode="rotation")
    assert summary["a6_max"] == 21
    assert summary["a5_max"] == 32
    assert summary == _pinned_summary("rotation")


PATTERNS = {"strict": 23, "center": 8, "rotation": 8}


def _slots_of(s, mode):
    """The slots of the mode's patterns, one per pattern, by pattern."""
    used = {id(slots) for (m, _, _), (*_, slots)
            in s._setup_choices.items() if m == mode}
    return {pattern: slots for pattern, (_, slots) in s._patterns.items()
            if id(slots) in used}


class _CountedReads(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_setup_memo_is_exact_and_bounded(box_solver):
    # a filled slot holds the first candidate of least table word among
    # its pattern's reorderings of the first residual, scored afresh
    s = box_solver
    for mode in solver.MODES:
        s.compare_all(mode)
        patterns = _slots_of(s, mode)
        assert len(patterns) == PATTERNS[mode]
        filled = 0
        for pattern, slots in patterns.items():
            assert len(slots) == len(s.table6)
            for place, k in enumerate(slots):
                if k == solver._EMPTY:
                    continue
                filled += 1
                a0 = s._residuals[place]
                lengths = [len(s.table6.entries[tuple(a0[t] for t in tau)])
                           for tau in pattern]
                assert k == lengths.index(min(lengths)), (mode, pattern)
        # a sweep meets every residual of every pair: the bound is reached
        assert filled == len(patterns) * len(s.table6)
    # a warm sweep scores no candidate: each setup reads the first
    # residual once, and nothing else
    configs = [box.unrank(r) for r in range(box.N_REACHABLE)]
    with mock.patch.object(s, "_place", _CountedReads(s._place)), \
            mock.patch.object(s, "_first_shortest",
                              wraps=s._first_shortest) as scored:
        for mode in solver.MODES:
            for c in configs:
                s.setup_phase(c, mode)
        assert scored.call_count == 0
        assert s._place.reads == len(solver.MODES) * len(configs)


def test_setup_slots_fill_one_per_scoring():
    s = solver.Solver()
    rng = random.Random(43)
    configs = [box.unrank(rng.randrange(box.N_REACHABLE)) for _ in range(500)]
    with mock.patch.object(s, "_first_shortest",
                           wraps=s._first_shortest) as scored:
        for c in configs:
            s.setup_phase(c, "rotation")
    filled = sum(k != solver._EMPTY for _, slots in s._patterns.values()
                 for k in slots)
    assert 0 < scored.call_count == filled < len(configs)
    # pairs are grouped on first use, not when the table is built
    assert {(b, p) for _, b, p in s._setup_choices} == \
        {(box.blank_cell(c), c.index(1)) for c in configs}


def test_setup_memo_fill_order_does_not_matter():
    warm = solver.Solver()
    for mode in solver.MODES:
        for r in reversed(range(box.N_REACHABLE)):
            warm.setup_phase(box.unrank(r), mode)
    rng = random.Random(44)
    configs = [box.unrank(rng.randrange(box.N_REACHABLE))
               for _ in range(2000)]
    cold = solver.Solver()
    for mode in solver.MODES:
        for method in ("solve_heuristic_a6", "solve_heuristic_a5"):
            for c in configs:
                assert getattr(cold, method)(c, mode) == \
                    getattr(warm, method)(c, mode), (mode, method, c)


def test_warm_setup_memo_still_rejects_an_unreachable_board(box_solver):
    bad = box.parse_config("1,2,3,4,6,5,7,_")
    for mode in solver.MODES:
        box_solver.setup_phase(box.SOLVED, mode)  # the same pair
        *_, slots = box_solver._setup_choices[mode, 7, 0]
        assert any(k != solver._EMPTY for k in slots)
        for solve in (box_solver.setup_phase, box_solver.solve_heuristic_a6,
                      box_solver.solve_heuristic_a5):
            with pytest.raises(ValueError, match="unreachable config"):
                solve(bad, mode)


def test_setup_candidates_must_read_their_pairs_six_cells():
    # the memo is exact only while every candidate of a pair reads the
    # cells holding neither the blank nor piece 1
    s = solver.Solver()
    rot = box.IDENTITY_ROTATION
    cells = s._frame[rot].read.__reduce__()[1]
    s._frame[rot] = s._frame[rot]._replace(read=itemgetter(7, *cells[1:]))
    with pytest.raises(AssertionError, match="outside the six"):
        s.setup_phase(box.SOLVED)
