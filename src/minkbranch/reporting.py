"""Uniform pass/fail reports shared by validation, axiom, and oracle checks."""

from __future__ import annotations

from .minkowski import _Value


class CheckResult(_Value):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._store(name=name, passed=passed, detail=detail)

    def line(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        body = f"{self.name}: {mark}"
        return f"{body} ({self.detail})" if self.detail else body


class Report(_Value):
    """A titled list of check results and notes; it grows as checks run."""

    #: `bounded`: some passing check rests on a bounded enumeration; a PASS header says so.
    __slots__ = _fields = ("title", "results", "notes", "bounded")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, title: str, results: list[CheckResult] | None = None,
                 notes: list[str] | None = None, bounded: bool = False):
        self.title, self.bounded = title, bounded
        self.results = [] if results is None else results
        self.notes = [] if notes is None else notes

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
