"""Exhaustive golden corpus: every reachable config solved by each
heuristic in each target mode, pinned by total length and by a sha256
over the move strings in rank order."""

import hashlib

import pytest

from varikon import box

# (mode, method) -> (sum of solution lengths, sha256 of the moves joined
# one per line, ranks 0..20159 in order)
GOLDEN = {
    ("strict", "a6"): (368372, "66dad4f0711152b3e49126c5a31701f6"
                               "8dc46b1403bc3e6bdc9a3de160f78d8f"),
    ("strict", "a5"): (438576, "a164f7e648c5cb5d10ce228804e87b0d"
                               "fd4d39e1dd080979a900dfa34c34dfad"),
    ("center", "a6"): (314288, "5a5e54b32eea6af29add61b1af983453"
                               "73c9d5ae8d4172c57340c9856846dc62"),
    ("center", "a5"): (385520, "9ed35533fb2ae95add0469ce802f6ac1"
                               "e636e1d26ec0789041368e183bafc50e"),
    ("rotation", "a6"): (263328, "0975dd16676682147a6a8234c0c25aec"
                                 "49b0d0c77427616e7b9ee2652fd474a2"),
    ("rotation", "a5"): (324976, "04aed65c15c0ac19c1385db889ce1c3a"
                                 "90160dc3b3d8e3dfcc047a34ba3b61a5"),
}


@pytest.fixture(scope="module")
def all_configs():
    return [box.unrank(r) for r in range(box.N_REACHABLE)]


@pytest.mark.parametrize("mode,method", sorted(GOLDEN))
def test_exhaustive_solutions_match_golden(box_solver, all_configs,
                                           mode, method):
    solve = getattr(box_solver, f"solve_heuristic_{method}")
    digest = hashlib.sha256()
    total = 0
    for c in all_configs:
        moves = solve(c, mode).moves
        total += len(moves)
        digest.update((moves + "\n").encode())
    assert (total, digest.hexdigest()) == GOLDEN[(mode, method)]


# sha256 of solve_optimal's moves joined one per line, ranks 0..20159
OPTIMAL_SHA256 = ("e388603cfd29cb7a5e19f464af6d65eb"
                  "ac6cc3bc7b4cc5dd4557dba964eece70")


def test_exhaustive_optimal_solutions_match_golden(box_solver, all_configs):
    digest = hashlib.sha256()
    for c in all_configs:
        digest.update((box_solver.solve_optimal(c).moves + "\n").encode())
    assert digest.hexdigest() == OPTIMAL_SHA256


# mode -> (sum of solve_optimal(c, mode)'s lengths, the sha256 of its moves
# as OPTIMAL_SHA256)
MODE_OPTIMAL = {
    "center": (212208, "f733d28dab6257acaf7fa5386fd534ac"
                       "6c49a99dec3e67762661a4d47169466e"),
    "rotation": (182688, "e6f6981b2b2470018afe8e1afca0b20b"
                         "3c355379e57d355fcfbcf86665729103"),
}


@pytest.mark.parametrize("mode", sorted(MODE_OPTIMAL))
def test_exhaustive_optimal_solutions_to_a_target_set_match_golden(
        box_solver, all_configs, mode):
    digest = hashlib.sha256()
    total = 0
    for c in all_configs:
        moves = box_solver.solve_optimal(c, mode).moves
        total += len(moves)
        digest.update((moves + "\n").encode())
    assert (total, digest.hexdigest()) == MODE_OPTIMAL[mode]
