"""Uniform pass/fail reports shared by validation, axiom, and oracle checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        body = f"{self.name}: {mark}"
        return f"{body} ({self.detail})" if self.detail else body


@dataclass
class Report:
    title: str
    results: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Some passing check rests on a bounded enumeration; a PASS header says so.
    bounded: bool = False

    def add(self, name: str, passed: bool, detail: str = "") -> CheckResult:
        result = CheckResult(name, bool(passed), detail)
        self.results.append(result)
        return result

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def lines(self) -> list[str]:
        verdict = ("PASS (bounded)" if self.bounded else "PASS") if self.passed else "FAIL"
        out = [f"[{self.title}] {verdict}"]
        out.extend("  " + r.line() for r in self.results)
        out.extend("  note: " + n for n in self.notes)
        return out

    def render(self) -> str:
        return "\n".join(self.lines())
