"""Small pass/fail reporting structures shared by the verification ops."""

from collections import namedtuple


def render(value) -> str:
    """repr, except that a non-empty set prints its members sorted by
    repr, so the text does not depend on hash order (string hashes are
    randomized per process, and so is hash(None) on some versions)."""
    if isinstance(value, (set, frozenset)) and value:
        return "{" + ", ".join(sorted(map(repr, value))) + "}"
    return repr(value)


class Check(namedtuple("Check", "claim expected computed note",
                        defaults=("",))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    def row(self) -> dict:
        d = {"claim": self.claim, "expected": render(self.expected),
             "computed": render(self.computed), "pass": self.passed}
        if self.note:
            d["note"] = self.note
        return d


class Report:
    def __init__(self, title: str):
        self.title = title
        self.checks = []

    def add(self, claim, expected, computed, note=""):
        self.checks.append(Check(claim, expected, computed, note))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def row(self) -> dict:
        return {"title": self.title, "pass": self.passed,
                "checks": [c.row() for c in self.checks]}

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            line = (f"[{status}] {c.claim}: expected {render(c.expected)}, "
                    f"got {render(c.computed)}")
            if c.note:
                line += f" ({c.note})"
            out.append(line)
        return out
