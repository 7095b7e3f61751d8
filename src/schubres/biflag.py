"""Bioriented flag grids over GF(p) and the resolution of flag Schubert cells.

A grid point is an n x n array of subspaces whose dimensions follow the
rank matrix of a permutation, increasing along rows and columns, with
each cell contained in its right and lower neighbours.  It is a tuple
of rows, row 1 first (``(row,) + upper`` over an ``exactlin.walk_fans``
fan): ``pt[p-1][q-1]`` is the cell in row p, column q.  Pinning the
last row to the standard flag cuts out a tower whose last column
projects onto the Schubert variety of the flag manifold; the projection
is a bijection over the Schubert cell, which is verified point by point
here.

Enumeration is by constraint propagation from the bottom row upward,
never by filtering the ambient product, and is budget-guarded: the
grid is an ``exactlin.RowGraph`` over rows n..1, so a row's choices over
each distinct row below it are built once, left to right, and every
equal row is one object.  The pinned grid's graph is kept for the next
report of the same (w, p) (``shat_graph``), so ``bs iso`` after
``biflag verify`` reads the rows the verify built.  A walk checks the
bound before it builds anything, then reads the graph a fan at a time
(``exactlin.walk_fans``): the count adds up the fan sizes, and
``verify_flres`` reads each row as its cells' ints (``SpaceNumbers.row``).

Schubert cells and varieties of the flag manifold come from the Bruhat
decomposition: every complete flag has one position permutation u and
lies in the cell of u, which has p^length(u) points; the closed variety
of w is the union of the cells of all u <= w (``bruhat_interval``).  The
verifier reads the position of each flag of the tower's image and
checks the image against these cell sizes, so no flag outside the image
is visited.

Positions and intersection grids are read off one row reduction of each
distinct subspace's coordinate-reversed rows (``_ends``): a basis whose
rows end at distinct coordinates.  Their last coordinates are the
subspace's jumps against the standard flag, and the rows ending at or
before q span its meet with F_q.  Each dimension dim(l_p ∩ F_q) depends
on l_p alone, so each subspace is read on its own, once per report.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from schubres.exactlin import (
    DEFAULT_BUDGET,
    Memo,
    Row,
    RowGraph,
    RowSpec,
    SpaceNumbers,
    Subspace,
    Vec,
    check_budget,
    coordinate_space,
    rows_bound,
    rref,
    walk_fans,
)
from schubres.permcomb import Permutation, bruhat_interval, length, rank_matrix
from schubres.report import EnumReport, perm_config, subspace_witness

Flag = tuple[Subspace, ...]

_UNSEEN = object()  # a dict default that no stored value equals


@lru_cache(maxsize=None)
def standard_frames(n: int, p: int) -> Flag:
    """The increasing flag F_i = <e_1..e_i>, indexed 0..n.  Built once
    per (n, p)."""
    return tuple(coordinate_space(range(i), n, p) for i in range(n + 1))


def grid_rows(w: Permutation, p: int, pinned_last_row: bool) -> tuple[Row, list[RowSpec]]:
    """The grid as ``RowGraph`` input: rows n..1, cell (row, col) of
    dimension d[row][col] between its left and lower neighbours.  Row n
    lies under the standard flag when pinned, which leaves it one choice,
    and under the whole space otherwise."""
    n = w.n
    d = rank_matrix(w)
    frames = standard_frames(n, p)
    under = frames[1:] if pinned_last_row else (frames[n],) * n
    return under, [(d[row][1:], frames[0]) for row in range(n, 0, -1)]


@lru_cache(maxsize=1)
def shat_graph(w: Permutation, p: int) -> RowGraph:
    """The row graph of the pinned grid of w.  Only the last (w, p) is
    kept, so a report that follows one of the same (w, p) walks the rows
    that report built."""
    return RowGraph(*grid_rows(w, p, pinned_last_row=True))


def project_to_flag(pt: tuple[Row, ...]) -> Flag:
    """The last column of the grid, a complete flag."""
    return tuple([row[-1] for row in pt])


def _ends(space: Subspace) -> dict[int, Vec]:
    """A basis of ``space`` keyed by the 1-based coordinate where each row
    ends, scaled to 1 there.

    One row reduction of the coordinate-reversed canonical rows makes the
    rows end at distinct coordinates, so no combination of them cancels
    its last term: the keys are the jumps of space against the standard
    flag, and the rows ending at or before q span space ∩ F_q.
    """
    n = space.n
    rows, pivots = rref([row[::-1] for row in space.basis], space.p)
    return {n - c: row[::-1] for row, c in zip(rows, pivots)}


def _jump_sum(space: Subspace) -> int:
    """The sum of the jumps of ``space`` against the standard flag.

    A complete flag lies in the cell of the u with dim(l_p ∩ F_q) =
    rank_matrix(u)[p][q]: l_p has the jumps of l_{p-1} and one more,
    u(p), so the jump sum of l_p is u(1) + ... + u(p).
    """
    return sum(_ends(space))


def reconstruct_grid(flag: Flag, memo: dict[Subspace, Row] | None = None) -> tuple[Row, ...]:
    """The candidate preimage over the cell: cell (p, q) = l_p ∩ F_q.

    Row p is read off ``_ends(l_p)``: each meet is the one before,
    extended by the row ending at q if there is one.  ``memo`` keeps
    each distinct space's row, so a caller that keeps it reduces each
    subspace once.
    """
    n = len(flag)
    memo = {} if memo is None else memo
    grid = []
    for space in flag:
        row = memo.get(space)
        if row is None:
            ends = _ends(space)
            meet = standard_frames(n, space.p)[0]
            meets = []
            for q in range(1, n + 1):
                if q in ends:
                    meet = meet.extend(ends[q])
                meets.append(meet)
            row = memo[space] = tuple(meets)
        grid.append(row)
    return tuple(grid)


def enumerate_report(
    w: Permutation, variety: str, p: int, budget: int = DEFAULT_BUDGET
) -> EnumReport:
    """Point count, the sum of the fan sizes, of the pinned tower
    (``shat``) or of the full grid (``flw``) of w against its closed form."""
    with EnumReport(
        "biflag enumerate", {**perm_config(w, p, budget), "variety": variety}
    ) as report:
        if variety == "shat":
            graph = shat_graph(w, p)
            expected = (p + 1) ** length(w)
            name = "count_is_(p+1)^l"
        else:
            graph = RowGraph(*grid_rows(w, p, pinned_last_row=False))
            expected = rows_bound(graph.under, graph.rows)
            name = "count_matches_cell_product"
        count = sum(len(fan) for _, fan in walk_fans(graph, budget))
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
    with EnumReport("biflag verify", perm_config(w, p, budget)) as report:
        n = w.n
        # refuse an oversized tower before the Bruhat interval is built
        check_budget(rows_bound(*grid_rows(w, p, pinned_last_row=True)), budget)
        below = bruhat_interval(w)
        # l_p has jump sum u(1) + ... + u(p), so a flag's jump sums name its
        # position: it lies in the cell of w, or below w, when they are
        # the prefix sums of w, or of some u <= w
        cell_sums = tuple(accumulate(w.one_line))
        below_sums = {tuple(accumulate(u.one_line)) for u in below}
        meet_rows: dict[Subspace, Row] = {}
        # each row as its cells' ints, and each last-column int's jump sum
        ids = SpaceNumbers()
        row_ints = ids.row
        jump_sums = Memo(lambda k: _jump_sum(ids.spaces[k]))
        # image flag, keyed by its rows' ints -> its one point over the cell
        # of w, None once a second comes, False for a flag off the cell
        fiber: dict[tuple[int, ...], tuple[Row, ...] | None | bool] = {}
        tower_points = 0
        outside = None
        # the ints and sums of rows 2..n, read again at a fan only for the
        # rows whose objects differ from the last fan's
        rows: list[Row | None] = [None] * (n - 1)
        keys, sums = [0] * (n - 1), [0] * (n - 1)
        for upper, fan in walk_fans(shat_graph(w, p), budget):
            tower_points += len(fan)
            for i, row in enumerate(upper):
                if row is not rows[i]:
                    rows[i] = row
                    k = keys[i] = row_ints(row)[-1]
                    sums[i] = jump_sums[k]
            upper_keys, upper_sums = tuple(keys), tuple(sums)
            for row in fan:
                k = row_ints(row)[-1]
                flag_key = (k,) + upper_keys
                got = fiber.get(flag_key, _UNSEEN)
                if got is _UNSEEN:
                    flag_sums = (jump_sums[k],) + upper_sums
                    fiber[flag_key] = (row,) + upper if flag_sums == cell_sums else False
                    if outside is None and flag_sums not in below_sums:
                        outside = project_to_flag((row,) + upper)
                elif got:
                    fiber[flag_key] = None
        over_cell = [pt for pt in fiber.values() if pt is not False]
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
        report.add("cell_fibers_are_singletons", all(pt is not None for pt in over_cell))
        report.add(
            "cell_fiber_is_intersection_grid",
            all(
                pt == reconstruct_grid(project_to_flag(pt), meet_rows)
                for pt in over_cell
                if pt is not None
            ),
        )

        closed_points = sum(p ** length(u) for u in below)
        report.counts["closed_points"] = closed_points
        report.add(
            "image_equals_closed_variety",
            outside is None and len(fiber) == closed_points,
            "point surjectivity observed at this field size",
            informational=True,
        )
    return report
