"""Structured validation reports shared by the algebra and graph checkers,
and the message of a search that ran past its guard."""

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
    """`space` against the guard `allowed`, writing 1000000 as 10^6 and 2000000 as 2*10^6."""
    digits, head = str(allowed), str(allowed).rstrip("0")
    if len(head) == 1 and head != digits:
        digits = ("" if head == "1" else head + "*") + f"10^{len(digits) - 1}"
    return f"{space} > guard {digits}"
