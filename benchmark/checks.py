"""Output checks, each made against the oracle or a property the method
must have. Every check returns a list of problems; an empty list passes.
"""

from oracle import (GROUP_POINTS, parse_cycles, replay, shortest_lengths,
                    word_element)

# Longest admissible word phase: a6 table words have at most 5 letters,
# a5 words at most 6 plus a two-letter prefix; each letter is 4 moves.
WORD_PHASE_MAX = {"a6": 20, "a5": 32}
HEURISTIC_PHASES = ("setup", "word-expansion")
KNOWN_FAILING_CLAIM = "factored identity for (2,4,6)"
TABLE_SIZE = {"a5": 60, "a6": 360}


def check_solution(oracle, config, mode, method, moves, phases, target):
    """A solve result: `phases` is a list of (label, word) pairs,
    `method` one of optimal, a6, a5."""
    problems = []
    if set(moves) - set("RUB"):
        return [f"move text {moves!r} has letters outside R, U, B"]
    if "".join(w for _, w in phases) != moves:
        problems.append("phases do not concatenate to the move text")
    if replay(config, moves) != target:
        problems.append("replaying the moves does not reach the declared target")
    if target not in oracle.targets[mode]:
        problems.append(f"declared target is not a {mode} target")
    best = oracle.distance_to(mode, config)
    if method == "optimal":
        if len(moves) != best:
            problems.append(f"optimal length {len(moves)} != distance {best}")
    else:
        if len(moves) < best:
            problems.append(f"length {len(moves)} below distance {best}")
        labels = tuple(label for label, _ in phases)
        if labels != HEURISTIC_PHASES:
            problems.append(f"phase labels {labels}, expected "
                            f"{HEURISTIC_PHASES}")
        else:
            word = len(phases[1][1])
            if word % 4 or word > WORD_PHASE_MAX[method]:
                problems.append(f"word phase of {word} moves for {method}")
    return problems


def check_verify_checks(checks):
    """`checks` is a list of (claim, passed) pairs over every report:
    all pass except exactly the known criterion-8 mismatch."""
    failing = [claim for claim, passed in checks if not passed]
    if failing != [KNOWN_FAILING_CLAIM]:
        return [f"failing checks {failing}, expected [{KNOWN_FAILING_CLAIM!r}]"]
    return []


def check_histogram(oracle, histogram):
    if [tuple(row) for row in histogram] != oracle.histogram():
        return ["depth histogram differs from the oracle's"]
    return []


def check_word_table(group, rows):
    """`rows` are (element cycle text, length, signed word text) triples,
    as in `varikon words --format csv` without its header."""
    n = GROUP_POINTS[group]
    lengths = shortest_lengths(group)
    problems = []
    if len(rows) != TABLE_SIZE[group]:
        problems.append(f"{len(rows)} entries, expected {TABLE_SIZE[group]}")
    seen = set()
    for element, length, text in rows:
        p = parse_cycles(element, n)
        word = tuple(int(t) for t in text.split())
        seen.add(p)
        if word_element(group, word) != p:
            problems.append(f"word {text!r} does not compose to {element}")
        elif not int(length) == len(word) == lengths[p]:
            problems.append(f"word {text!r} for {element} is not shortest")
    if seen != set(lengths):
        problems.append("table does not cover the group")
    return problems
