"""Structured validation reports shared by the algebra and graph checkers,
the message of a search that ran past its guard, and the one search over
assignments that the cycle, motif and isomorphism searches share."""

from __future__ import annotations

from dataclasses import dataclass, field

STRUCTURE = "structure"
AXIOM = "axiom"


@dataclass(frozen=True)
class Violation:
    """One failed check: `kind` separates malformed data from broken laws."""

    kind: str  # STRUCTURE or AXIOM
    code: str  # e.g. "associativity", "unit", "non-square"
    message: str
    witness: tuple = ()


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, code: str, message: str, witness: tuple = ()) -> None:
        self.violations.append(Violation(kind, code, message, witness))

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.kind}/{v.code}] {v.message}" for v in self.violations]
        return "\n".join(lines)


def _over_guard(space: str, allowed: int) -> str:
    """`space` against the guard `allowed`, spelt in digits or as a power
    of ten, whichever is shorter: 5000 stays 5000, 1000000 is 10^6 and
    2000000 is 2*10^6."""
    digits = str(allowed)
    head = digits.rstrip("0")
    power = ("" if head == "1" else head + "*") + f"10^{len(digits) - len(head)}"
    return f"{space} > guard {min(digits, power, key=len)}"


def _assignments(k: int, extend):
    """Each assignment of values to levels 0..k-1, depth first.
    `extend(level, assignment)` iterates the values that fit at `level`,
    the earlier levels placed; the one list is yielded, reused, whenever
    all `k` are (once when `k` is 0).  No call recurses."""
    assignment = [None] * k
    untried = [extend(0, assignment)] if k else []  # per level being placed, the values left to try
    if not k:
        yield assignment
    while untried:
        level = len(untried) - 1
        for assignment[level] in untried[-1]:
            if level + 1 == k:
                yield assignment
            else:
                untried.append(extend(level + 1, assignment))
                break
        else:
            untried.pop()
