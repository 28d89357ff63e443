"""Structured validation reports shared by the algebra and graph checkers."""

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
