"""Structured verification reports with stable JSON serialization."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple, Sequence

from schubres.exactlin import Subspace


def subspace_witness(s: Subspace) -> list[list[int]]:
    """Canonical basis matrix of a subspace, JSON-ready."""
    return [list(row) for row in s.basis]


class Check(NamedTuple):
    """One named pass/fail entry of a report.

    Informational checks record empirical observations (finite-field
    surjectivity of maps that are only proven surjective over an
    algebraically closed field); they are serialized but do not decide
    the overall verdict.
    """

    name: str
    passed: bool
    detail: str = ""
    witnesses: Sequence[Any] = ()
    informational: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witnesses": self.witnesses,
            "informational": self.informational,
        }


class EnumReport:
    """A command's report: its configuration, counts, checks and wall time.

    Reports are equal when all five fields are.
    """

    __slots__ = ("command", "config", "counts", "checks", "wall_time_s")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        command: str,
        config: dict[str, Any],
        counts: dict[str, Any] | None = None,
        checks: list[Check] | None = None,
        wall_time_s: float = 0.0,
    ) -> None:
        self.command = command
        self.config = config
        self.counts = {} if counts is None else counts
        self.checks = [] if checks is None else checks
        self.wall_time_s = wall_time_s

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not EnumReport:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        return (
            f"EnumReport(command={self.command!r}, config={self.config!r}, "
            f"counts={self.counts!r}, checks={self.checks!r}, wall_time_s={self.wall_time_s!r})"
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def add(
        self,
        name: str,
        passed: bool,
        detail: str = "",
        witnesses: Sequence[Any] = (),
        informational: bool = False,
    ) -> Check:
        check = Check(name, bool(passed), detail, witnesses, informational)
        self.checks.append(check)
        return check

    def as_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "config": self.config,
            "counts": self.counts,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


@contextmanager
def timed(report: EnumReport) -> Iterator[EnumReport]:
    start = time.perf_counter()
    try:
        yield report
    finally:
        report.wall_time_s = time.perf_counter() - start
