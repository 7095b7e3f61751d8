"""Structured verification reports with stable JSON serialization."""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from schubres.exactlin import Subspace

if TYPE_CHECKING:
    from schubres.grassfib import FrameConfig
    from schubres.permcomb import Permutation


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


class EnumReport:
    """A command's report: its configuration, counts, checks and wall time.

    The one mutable class of the package: a command fills in its counts
    and checks inside one ``with EnumReport(command, config) as report:``
    block, whose elapsed time becomes ``wall_time_s`` (an exception still
    propagates), and ``to_json`` serializes the fields in that order,
    each check as its own fields.
    """

    __slots__ = ("command", "config", "counts", "checks", "wall_time_s", "_start")

    def __init__(self, command: str, config: dict[str, Any]) -> None:
        self.command = command
        self.config = config
        self.counts: dict[str, Any] = {}
        self.checks: list[Check] = []
        self.wall_time_s = 0.0

    def __enter__(self) -> EnumReport:
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_time_s = time.perf_counter() - self._start

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
    ) -> None:
        self.checks.append(Check(name, bool(passed), detail, witnesses, informational))

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "config": self.config,
                "counts": self.counts,
                "checks": [c._asdict() for c in self.checks],
                "passed": self.passed,
                "wall_time_s": round(self.wall_time_s, 6),
            },
            indent=2,
        )


def frame_config(cfg: FrameConfig, budget: int) -> dict[str, Any]:
    """The run configuration of a report on a Grassmannian frame."""
    return {"n": cfg.n, "k": cfg.k, "beta": list(cfg.beta), "field": cfg.p, "budget": budget}


def perm_config(w: Permutation, p: int, budget: int) -> dict[str, Any]:
    """The run configuration of a report that enumerates over a permutation."""
    return {"perm": list(w.one_line), "field": p, "budget": budget}
