"""Slow reference enumerations that the package's fast paths are checked against."""

from typing import Iterator, Sequence

from schubres.biflag import Flag, standard_frames
from schubres.exactlin import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    LinearMap,
    Stage,
    Subspace,
    enumerate_between,
    intersect,
    span,
    tower,
    tower_bound,
    vec_add,
)


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
