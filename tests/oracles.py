"""Slow reference enumerations that the package's fast paths are checked against."""

from typing import Iterable, Iterator, Sequence

from schubres.biflag import Flag, standard_frames
from schubres.exactlin import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    LinearMap,
    Rows,
    Stage,
    Subspace,
    enumerate_between,
    intersect,
    project,
    span,
    tower,
    tower_bound,
    vec_add,
)
from schubres.grassfib import FrameConfig


def complete_flag_stages(n: int, p: int) -> list[Stage]:
    """Complete flags as tower stages: each space extends the previous one
    by one dimension inside the whole space."""
    frames, _ = standard_frames(n, p)
    return [
        Stage(lambda c: (c[-1] if c else frames[0], frames[n]), i, n, i + 1)
        for i in range(n)
    ]


def enumerate_complete_flags(n: int, p: int, budget: int = DEFAULT_BUDGET) -> Iterator[Flag]:
    """All complete flags of GF(p)^n, by extending one dimension at a time."""
    yield from tower(complete_flag_stages(n, p), p, budget)


def recursive_tower(
    stages: Sequence[Stage], p: int, budget: int
) -> Iterator[tuple[Subspace, ...]]:
    """``exactlin.tower`` as one recursive generator per node, each point
    passed up through every level."""
    bound = tower_bound(stages, p)
    if bound > budget:
        raise BudgetExceededError(f"tower needs up to {bound} points, budget is {budget}")

    def rec(chosen: tuple[Subspace, ...]) -> Iterator[tuple[Subspace, ...]]:
        if len(chosen) == len(stages):
            yield chosen
            return
        stage = stages[len(chosen)]
        lower, upper = stage.spaces(chosen)
        for s in enumerate_between(lower, upper, stage.dim):
            yield from rec(chosen + (s,))

    yield from rec(())


def graph_by_apply(a: LinearMap) -> Subspace:
    """``exactlin.graph`` through ``LinearMap.apply`` on each domain row."""
    if intersect(a.domain, a.target).dim:
        raise ValueError("graph requires domain ∩ target = 0")
    p = a.domain.p
    return span([vec_add(b, a.apply(b), p) for b in a.domain.basis], a.domain.n, p)


def rref_by_elimination(rows: Iterable[Sequence[int]], p: int) -> tuple[Rows, tuple[int, ...]]:
    """``exactlin.rref`` as one elimination that normalises every pivot row,
    single rows included."""
    mat = [[x % p for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pr = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pr is None:
            continue
        mat[row], mat[pr] = mat[pr], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:row]), tuple(pivots)


def pair_step_by_span(
    cfg: FrameConfig, x: Subspace, y: Subspace, v_target: Subspace, l_perp: Subspace
) -> Subspace:
    """``wflag._pair_step`` with one ``span`` per candidate row of y."""
    inter = intersect(y, v_target)
    if inter.dim == x.dim:
        return inter
    proj = span([project(v, v_target, l_perp) for v in x.basis], cfg.n, cfg.p)
    rows = list(proj.basis)
    for row in y.basis:
        if len(rows) == x.dim:
            break
        cand = span(rows + [row], cfg.n, cfg.p)
        if cand.dim > len(rows):
            rows = list(cand.basis)
    return span(rows, cfg.n, cfg.p)
