"""Structured verification reports with stable JSON serialization."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from schubres.exactlin import Subspace


def subspace_witness(s: Subspace) -> list[list[int]]:
    """Canonical basis matrix of a subspace, JSON-ready."""
    return [list(row) for row in s.basis]


@dataclass
class Check:
    """One named pass/fail entry of a report.

    Informational checks record empirical observations (finite-field
    surjectivity of maps that are only proven surjective over an
    algebraically closed field); they are serialized but do not decide
    the overall verdict.
    """

    name: str
    passed: bool
    detail: str = ""
    witnesses: list[Any] = field(default_factory=list)
    informational: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witnesses": self.witnesses,
            "informational": self.informational,
        }


@dataclass
class EnumReport:
    command: str
    config: dict[str, Any]
    counts: dict[str, Any] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def add(
        self,
        name: str,
        passed: bool,
        detail: str = "",
        witnesses: list[Any] | None = None,
        informational: bool = False,
    ) -> Check:
        check = Check(name, bool(passed), detail, witnesses or [], informational)
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


def merge_reports(command: str, config: dict[str, Any], **parts: EnumReport) -> EnumReport:
    """One report from several, in keyword order: each part's checks
    renamed ``<keyword>.<name>``, the counts united (a later part wins a
    shared key) and the wall times summed."""
    merged = EnumReport(command, config)
    for prefix, part in parts.items():
        merged.counts.update(part.counts)
        merged.checks += [replace(c, name=f"{prefix}.{c.name}") for c in part.checks]
        merged.wall_time_s += part.wall_time_s
    return merged


@contextmanager
def timed(report: EnumReport) -> Iterator[EnumReport]:
    start = time.perf_counter()
    try:
        yield report
    finally:
        report.wall_time_s = time.perf_counter() - start
