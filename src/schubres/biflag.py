"""Bioriented flag grids over GF(p) and the resolution of flag Schubert cells.

A grid point is an n x n array of subspaces whose dimensions follow the
rank matrix of a permutation, increasing along rows and columns, with
each cell contained in its right and lower neighbours.  Pinning the last
row to the standard flag cuts out a tower whose last column projects
onto the Schubert variety of the flag manifold; the projection is a
bijection over the Schubert cell, which is verified point by point here.

Enumeration is by constraint propagation from the bottom row upward,
never by filtering the ambient product, and is budget-guarded.

Schubert cells and varieties of the flag manifold come from the Bruhat
decomposition: every complete flag has one position permutation u, read
off a single echelon reduction, and lies in the cell of u, which has
p^length(u) points; the closed variety of w is the union of the cells of
all u <= w in the Bruhat order.  The verifier reads the position of each
flag of the tower's image and checks the image against these cell sizes,
so no flag outside the image is visited.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from schubres.exactlin import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Stage,
    Subspace,
    coordinate_space,
    intersect,
    tower,
    tower_bound,
)
from schubres.permcomb import Permutation, all_permutations, bruhat_leq, length, rank_matrix
from schubres.report import EnumReport, subspace_witness, timed

Flag = tuple[Subspace, ...]
Row = tuple[Subspace, ...]


class GridPoint(NamedTuple):
    """A bioriented grid: ``grid[p-1][q-1]`` is the cell in row p, column q."""

    n: int
    p: int
    grid: tuple[Row, ...]


@lru_cache(maxsize=None)
def standard_frames(n: int, p: int) -> Flag:
    """The increasing flag F_i = <e_1..e_i>, indexed 0..n.  Built once
    per (n, p)."""
    return tuple(coordinate_space(range(i), n, p) for i in range(n + 1))


def grid_stages(w: Permutation, p: int, pinned_last_row: bool) -> list[Stage]:
    """The grid tower as tower stages: rows from the bottom up, each left
    to right; cell (row, col) lies between its left and lower neighbours."""
    n = w.n
    d = rank_matrix(w)
    frames = standard_frames(n, p)
    top = n - 1 if pinned_last_row else n
    stages = []
    for row in range(top, 0, -1):
        for col in range(1, n + 1):
            # the left neighbour is the previous choice, the lower one n choices
            # back; the top row lies under the pinned row or the whole space
            fixed_upper = frames[col] if pinned_last_row else frames[n]

            def spaces(c, row=row, col=col, fixed_upper=fixed_upper):
                lower = c[-1] if col > 1 else frames[0]
                return lower, c[-n] if row < top else fixed_upper

            up = d[row + 1][col] if row < n else n
            stages.append(Stage(spaces, d[row][col - 1], up, d[row][col]))
    return stages


def _enumerate_grid(
    w: Permutation, p: int, pinned_last_row: bool, budget: int
) -> Iterator[GridPoint]:
    """The tower of ``grid_stages``, in its order, one row at a time.

    A row lies under the row below it and nothing else chosen, so each
    row's choices over each distinct lower row come from ``tower`` once,
    kept for this walk in a dict; the points share these row tuples.
    """
    n = w.n
    stages = grid_stages(w, p, pinned_last_row)
    bound = tower_bound(stages, p)
    if bound > budget:
        raise BudgetExceededError(f"tower needs up to {bound} points, budget is {budget}")
    frames = standard_frames(n, p)
    top = n - 1 if pinned_last_row else n
    above_all = (frames[n],) * n
    rows_over: dict[tuple[int, Row], tuple[Row, ...]] = {}  # (row, row below) -> choices
    if pinned_last_row:
        rows_over[n, above_all] = (frames[1:],)  # the pinned row

    def walk(row: int, below: Row, chosen: tuple[Row, ...]) -> Iterator[GridPoint]:
        level = rows_over.get((row, below))
        if level is None:
            row_stages = [
                st._replace(spaces=lambda c, upper=upper: (c[-1] if c else frames[0], upper))
                for st, upper in zip(stages[(top - row) * n : (top - row + 1) * n], below)
            ]
            level = rows_over[row, below] = tuple(tower(row_stages, p, budget))
        if row == 1:
            for r in level:
                yield GridPoint(n, p, (r,) + chosen)
        else:
            for r in level:
                yield from walk(row - 1, r, (r,) + chosen)

    yield from walk(n, above_all, ())


def enumerate_flw(
    w: Permutation, p: int, budget: int = DEFAULT_BUDGET
) -> Iterator[GridPoint]:
    """All GF(p) points of the bioriented flag grid of w."""
    yield from _enumerate_grid(w, p, pinned_last_row=False, budget=budget)


def enumerate_shat(
    w: Permutation, p: int, budget: int = DEFAULT_BUDGET
) -> Iterator[GridPoint]:
    """All GF(p) points with the bottom row pinned to the standard flag.

    The count is (p+1)^length(w): a tower of projective lines.
    """
    yield from _enumerate_grid(w, p, pinned_last_row=True, budget=budget)


def project_to_flag(pt: GridPoint) -> Flag:
    """The last column of the grid, a complete flag."""
    return tuple([row[-1] for row in pt.grid])


def flag_position(flag: Flag) -> Permutation:
    """The permutation u with dim(l_p ∩ F_q) = rank_matrix(u)[p][q].

    l_p has one pivot more than l_{p-1}, and its canonical row at that
    pivot lies outside l_{p-1}.  Reduced against the earlier rows until
    its last nonzero coordinate is new, that row puts the coordinate at
    u(p).  The reduced rows span l_p and end at distinct coordinates, so
    l_p ∩ F_q is spanned by those ending at or before q.  u(n) is the
    value left over.
    """
    n = len(flag)
    p = flag[0].p
    # last nonzero coordinate -> (row, inverse of its entry there)
    reduced: dict[int, tuple[Sequence[int], int]] = {}
    one_line = []
    prev: tuple[int, ...] = ()
    for space in flag[:-1]:
        new = next((i for i, (a, b) in enumerate(zip(prev, space.pivots)) if a != b), len(prev))
        v = space.basis[new]
        last = n - 1
        while not v[last]:
            last -= 1
        while last in reduced:
            row, inv = reduced[last]
            f = v[last] * inv
            v = [(a - f * b) % p for a, b in zip(v, row)]
            while not v[last]:
                last -= 1
        reduced[last] = v, pow(v[last], -1, p)
        one_line.append(last + 1)
        prev = space.pivots
    one_line.append(n * (n + 1) // 2 - sum(one_line))
    return Permutation(tuple(one_line))


def reconstruct_grid(flag: Flag, w: Permutation) -> GridPoint:
    """The candidate preimage over the cell: cell (p, q) = l_p ∩ F_q."""
    n = w.n
    p = flag[0].p
    frames = standard_frames(n, p)
    grid = tuple(
        tuple(intersect(flag[row - 1], frames[col]) for col in range(1, n + 1))
        for row in range(1, n + 1)
    )
    return GridPoint(n, p, grid)


def enumerate_report(
    w: Permutation, variety: str, p: int, budget: int = DEFAULT_BUDGET
) -> EnumReport:
    """Point count of the pinned tower (``shat``) or of the full grid
    (``flw``) of w against its closed form."""
    report = EnumReport(
        "biflag enumerate",
        {"perm": list(w.one_line), "field": p, "budget": budget, "variety": variety},
    )
    with timed(report):
        if variety == "shat":
            count = sum(1 for _ in enumerate_shat(w, p, budget))
            expected = (p + 1) ** length(w)
            name = "count_is_(p+1)^l"
        else:
            count = sum(1 for _ in enumerate_flw(w, p, budget))
            expected = tower_bound(grid_stages(w, p, pinned_last_row=False), p)
            name = "count_matches_cell_product"
        report.counts["points"] = count
        report.counts["expected"] = expected
        report.add(name, count == expected)
    return report


def verify_flres(w: Permutation, p: int, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Set-level checks for the grid tower resolving the Schubert variety.

    (a) every projected flag satisfies the closed rank inequalities;
    (b) over the Schubert cell the projection is a bijection whose
        inverse is cellwise intersection with the standard flag;
    (c) the image equals the closed point set (empirical at this size).

    One pass over the grid tower keeps each image flag and, over the cell
    of w, the flag's point while no second one comes; the witness of (a)
    is the first outside flag in tower order.  Nothing else is walked:
    the cell of u has p^length(u) points, so distinct image flags cover
    the cell of w exactly when p^length(w) of them lie in it, and an
    image inside the closed variety is all of it exactly when it has
    the sum of p^length(u) over u <= w points.
    """
    report = EnumReport("biflag verify", {"perm": list(w.one_line), "field": p, "budget": budget})
    with timed(report):
        below = {u for u in all_permutations(w.n) if bruhat_leq(u, w)}
        image: set[Flag] = set()
        over_cell: dict[Flag, GridPoint | None] = {}
        tower_points = 0
        outside = None
        for pt in enumerate_shat(w, p, budget):
            tower_points += 1
            flag = project_to_flag(pt)
            if flag not in image:
                image.add(flag)
                u = flag_position(flag)
                if u == w:
                    over_cell[flag] = pt
                elif outside is None and u not in below:
                    outside = flag
            elif flag in over_cell:
                over_cell[flag] = None
        expected = (p + 1) ** length(w)
        report.counts["tower_points"] = tower_points
        report.counts["expected_tower_points"] = expected
        report.add(
            "tower_count_is_(p+1)^l",
            tower_points == expected,
            f"{tower_points} vs {expected}",
        )
        witness = [subspace_witness(s) for s in outside] if outside else []
        report.add("image_in_closed_variety", outside is None, witnesses=witness)

        cell_points = len(over_cell)
        report.counts["cell_points"] = cell_points
        report.counts["expected_cell_points"] = p ** length(w)
        report.add(
            "cell_count_is_p^l",
            cell_points == p ** length(w),
            f"{cell_points} vs {p ** length(w)}",
        )
        report.add(
            "cell_fibers_are_singletons", all(pt is not None for pt in over_cell.values())
        )
        report.add(
            "cell_fiber_is_intersection_grid",
            all(
                pt == reconstruct_grid(flag, w)
                for flag, pt in over_cell.items()
                if pt is not None
            ),
        )

        closed_points = sum(p ** length(u) for u in below)
        report.counts["closed_points"] = closed_points
        report.add(
            "image_equals_closed_variety",
            outside is None and len(image) == closed_points,
            "point surjectivity observed at this field size",
            informational=True,
        )
    return report
