"""Shortest-word tables over 3-cycle generators, for the two sliding
sub-problems (alternating groups on 5 and 6 points).

A table word is a tuple of signed 1-based generator indices: +k means
the k-th generator, -k its inverse. Products are left-to-right (the
first letter is applied first). BFS from the identity with the letter
alphabet ordered +1, -1, +2, -2, ... yields, for every element, the
lexicographically least word among the shortest ones: the search takes
a state's products in that order and keeps the first path found. It
holds each state p as bytes, whose hash is computed once, and p's
product with a letter g is p.translate over g's bytes, the gather
perm.compose(p, g) is.
"""

from collections import Counter
from functools import reduce
from itertools import combinations

from . import perm
from .report import Check, Report

A5_GENERATOR_CYCLES = ("(1,2,3)", "(3,4,5)")
A6_GENERATOR_CYCLES = ("(1,2,3)", "(3,4,5)", "(5,6,1)")


class WordTable:
    def __init__(self, gens: tuple, entries: dict):
        self.gens = gens
        # Perm -> word (tuple of signed generator indices)
        self.entries = entries
        # {+k: k-th generator, -k: its inverse}, ordered +1, -1, +2, -2, ...
        self.letters = {s: g if s > 0 else perm.inverse(g)
                        for k, g in enumerate(gens, start=1) for s in (k, -k)}

    def __len__(self):
        return len(self.entries)

    def max_length(self) -> int:
        return max(len(w) for w in self.entries.values())

    def elements_of_length(self, k: int):
        return [p for p, w in self.entries.items() if len(w) == k]

    def length_histogram(self) -> list[tuple[int, int]]:
        return sorted(Counter(len(w) for w in self.entries.values()).items())

    def compose_word(self, word) -> perm.Perm:
        """Re-expand a signed-index word to the element it denotes."""
        return reduce(perm.compose, (self.letters[s] for s in word),
                      perm.identity(len(self.gens[0])))

    def csv_rows(self):
        rows = [("element", "length", "word")]
        for p in sorted(self.entries):
            w = self.entries[p]
            rows.append((perm.format_cycles(p), str(len(w)),
                         " ".join(f"{s:+d}" for s in w)))
        return rows


def build_table(gens) -> WordTable:
    table = WordTable(tuple(gens), {})
    # per letter: its one-letter word and the table translating i to g[i]
    letters = [((s,), bytes(g).ljust(256, b"\0"))
               for s, g in table.letters.items()]
    queue = [bytes(perm.identity(len(table.gens[0])))]
    found = {queue[0]: ()}
    for p in queue:  # read while it grows
        w = found[p]
        for s, g in letters:
            q = p.translate(g)
            if q not in found:
                found[q] = w + s
                queue.append(q)
    table.entries.update(zip(map(tuple, found), found.values()))
    return table


def build_a5_table() -> WordTable:
    return build_table(perm.parse_cycles(t, 5) for t in A5_GENERATOR_CYCLES)


def build_a6_table() -> WordTable:
    return build_table(perm.parse_cycles(t, 6) for t in A6_GENERATOR_CYCLES)


# ---------------------------------------------------------------------------
# Reference factorizations quoted for the extremal elements, as
# (cycle, exponent) factor lists.

A5_MAX_ELEMENT = "(1,2)(4,5)"
A5_MAX_FACTORS = (("(3,4,5)", -1), ("(1,2,3)", +1), ("(3,4,5)", +1),
                  ("(1,2,3)", -1), ("(3,4,5)", -1), ("(1,2,3)", +1))

A6_EXAMPLE_ELEMENT = "(2,4,6)"
A6_EXAMPLE_FACTORS = (("(1,2,3)", +1), ("(3,4,5)", -1), ("(5,6,1)", -1),
                      ("(3,4,5)", +1), ("(1,2,3)", -1))


def _factor_perms(factors, n: int) -> list:
    """Each factor's perm, raised to its exponent, its cycle parsed once.
    An exponent other than +1 or -1 raises ValueError."""
    if any(e not in (1, -1) for _, e in factors):
        raise ValueError(f"an exponent is not +1 or -1: {factors}")
    return [perm.parse_cycles(t, n) if e == 1 else perm.inverse(perm.parse_cycles(t, n))
            for t, e in factors]


def _product(ps, n: int) -> perm.Perm:
    return reduce(perm.compose, ps, perm.identity(n))


def compose_factors(factors, n: int) -> perm.Perm:
    """Left-to-right product; factors[::-1] gives the right-to-left one.
    An exponent other than +1 or -1 raises ValueError."""
    return _product(_factor_perms(factors, n), n)


def _single_edit_repairs(ps, expected: perm.Perm, n: int) -> list:
    """Each single edit of the factor perms ps, one exponent flipped or two
    factors swapped, whose product is expected, named with the order it
    holds in: left-to-right repairs first, then right-to-left, flips before
    swaps, factors numbered from 1."""
    edits = [(f"flip factor {i + 1}'s exponent",
              ps[:i] + [perm.inverse(q)] + ps[i + 1:])
             for i, q in enumerate(ps)]
    for i, j in combinations(range(len(ps)), 2):
        swapped = list(ps)
        swapped[i], swapped[j] = ps[j], ps[i]
        edits.append((f"swap factors {i + 1} and {j + 1}", swapped))
    return [f"{edit} ({order})"
            for order, step in (("left-to-right", 1), ("right-to-left", -1))
            for edit, edited in edits if _product(edited[::step], n) == expected]


def check_factorization(name: str, factors, expected_text: str, n: int):
    """Compose a quoted factorization under the left-to-right convention;
    if it misses, retry right-to-left and report which convention (if
    either) validates. Where neither does, the note names the single-edit
    repairs (see _single_edit_repairs)."""
    expected = perm.parse_cycles(expected_text, n)
    ps = _factor_perms(factors, n)
    l2r = _product(ps, n)
    if l2r == expected:
        return Check(name, expected_text, perm.format_cycles(l2r),
                     note="validates left-to-right")
    r2l = _product(ps[::-1], n)
    if r2l == expected:
        return Check(name, expected_text, perm.format_cycles(r2l),
                     note="validates right-to-left only")
    repairs = _single_edit_repairs(ps, expected, n)
    return Check(name, expected_text, perm.format_cycles(l2r),
                 note=f"neither convention: left-to-right gives "
                      f"{perm.format_cycles(l2r)}, right-to-left gives "
                      f"{perm.format_cycles(r2l)}; single-edit repairs: "
                      f"{', '.join(repairs) or 'none'}")


def a5_report() -> Report:
    table = build_a5_table()
    rep = Report("A5 word table")
    rep.add("table size", 60, len(table))
    rep.add("max word length", 6, table.max_length())
    longest = table.elements_of_length(6)
    # one element's cycles; with more or fewer, their sorted list, so this
    # check fails whenever the count at max length is not 1
    rep.add("unique max element", A5_MAX_ELEMENT,
            perm.format_cycles(longest[0]) if len(longest) == 1 else
            sorted(perm.format_cycles(p) for p in longest))
    rep.checks.append(check_factorization(
        f"factored identity for {A5_MAX_ELEMENT}",
        A5_MAX_FACTORS, A5_MAX_ELEMENT, 5))
    rep.add("length histogram", table.length_histogram(),
            table.length_histogram(), note="informational")
    return rep


def a6_report() -> Report:
    table = build_a6_table()
    rep = Report("A6 word table")
    rep.add("table size", 360, len(table))
    rep.add("max word length", 5, table.max_length())
    longest = table.elements_of_length(5)
    rep.add("elements at max length", 46, len(longest))
    rep.add(f"{A6_EXAMPLE_ELEMENT} among the max-length elements", True,
            perm.parse_cycles(A6_EXAMPLE_ELEMENT, 6) in set(longest))
    rep.checks.append(check_factorization(
        f"factored identity for {A6_EXAMPLE_ELEMENT}",
        A6_EXAMPLE_FACTORS, A6_EXAMPLE_ELEMENT, 6))
    rep.add("length histogram", table.length_histogram(),
            table.length_histogram(), note="informational")
    return rep
