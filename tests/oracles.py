"""Slow reference enumerations that the package's fast paths are checked against."""

from typing import Iterator

from schubres.biflag import Flag, standard_frames
from schubres.exactlin import DEFAULT_BUDGET, Stage, tower


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
