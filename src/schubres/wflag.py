"""Relaxed-incidence chain varieties and their grid resolutions.

The chain variety collects tuples (l_1, ..., l_k), l_i of dimension i
inside the nested space of the first i lines plus the late complements,
subject to l_i ⊆ l_{i+1} + (complement of line i+1).  It compactifies
the space of graph tuples of compressed maps and is singular in general.
Its resolution is a lower-triangular grid of subspaces with strict
inclusions along rows and relaxed inclusions between rows; the diagonal
projection is onto, is one-to-one over an explicit open set, and admits
a deterministic section computed diagonal by diagonal.  ``wflag verify``
reads the grid a fan at a time, each row as its cells' ints.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from schubres.exactlin import (
    DEFAULT_BUDGET,
    InvariantError,
    LinearMap,
    Memo,
    Row,
    RowGraph,
    RowSpec,
    SpaceNumbers,
    Stage,
    Subspace,
    contains,
    enumerate_maps,
    gaussian_binomial,
    intersect,
    span,
    subspace_sum,
    tower,
    walk_fans,
    zero_subspace,
)
from schubres.grassfib import FrameConfig
from schubres.report import EnumReport, frame_config, subspace_witness

GCalPoint = tuple[Subspace, ...]
GHatPoint = tuple[tuple[Subspace, ...], ...]  # row i (1-based) has i entries


def fixed_map_tuples(cfg: FrameConfig) -> Iterator[tuple[LinearMap, ...]]:
    """All tuples (A_1..A_k), A_i from line i into the late complements."""
    choices = [
        list(enumerate_maps(cfg.line(i), cfg.complements_suffix(i + 1)))
        for i in range(1, cfg.k + 1)
    ]
    yield from itertools.product(*choices)


def enumerate_gcal(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> Iterator[GCalPoint]:
    """Top-down tower enumeration of the chain variety.

    The top space ranges over its full Grassmannian; each lower space is
    a Grassmannian of the computed intersection, so only actual points
    are visited.  Below the top, l_i lies in l_{i+1} + complement(i+1),
    so that intersection has dimension at most i + 1 + dim complement(i+1),
    which bounds the level along with dim nested(i, i).  Both dimensions
    are read off ``window_bounds``, so no space is built before the
    tower's budget check.
    """
    k = cfg.k
    zero = zero_subspace(cfg.n, cfg.p)

    def level(i: int) -> Stage:
        # l_i is chosen right after l_{i+1}
        def spaces(c: tuple[Subspace, ...]) -> tuple[Subspace, Subspace]:
            if i == k:
                return zero, cfg.nested(k, k)
            above = subspace_sum(c[-1], cfg.complement(i + 1))
            return zero, intersect(above, cfg.nested(i, i))

        # dim nested(i, i) = i + (n - b_i) - (k - i); dim complement(i+1) = hi - lo - 1
        up = i + cfg.n - cfg.window_bounds(i)[1] - (k - i)
        if i < k:
            lo, hi = cfg.window_bounds(i + 1)
            up = min(up, i + hi - lo)
        return Stage(spaces, 0, up, i)

    for c in tower([level(i) for i in range(k, 0, -1)], cfg.p, budget):
        yield c[::-1]


def ghat_count_formula(cfg: FrameConfig) -> int:
    """Row-by-row product: each grid cell is a projective choice."""
    k, p = cfg.k, cfg.p
    total = 1
    for i in range(1, k + 1):
        c = cfg.window(i + 1).dim - 1 if i < k else cfg.complement(k + 1).dim
        total *= gaussian_binomial(c + 1, 1, p) ** i
    return total


def ghat_rows(cfg: FrameConfig) -> tuple[Row, list[RowSpec]]:
    """The grid as ``RowGraph`` input: rows k..1, row i of dimensions
    1..i, built from the bottom row upward.  Row k lies under the nested
    spaces (nested(j, k))_j, a chain in them; a higher row i lies under
    the row below plus complement(i+1), the complement of the
    interleaving line's window."""
    k = cfg.k
    under = tuple(cfg.nested(j, k) for j in range(1, k + 1))
    zero = zero_subspace(cfg.n, cfg.p)
    rows = [(range(1, i + 1), cfg.complement(i + 1) if i < k else zero) for i in range(k, 0, -1)]
    return under, rows


IntRows = tuple[tuple[int, ...], ...]  # grid rows, each as its cells' ints


def ghat_fans(cfg: FrameConfig, ids: SpaceNumbers, budget: int) -> Iterator[tuple[IntRows, IntRows]]:
    """``walk_fans`` of the grid's ``RowGraph`` with each row as its
    cells' ints (``ids.row``)."""
    read = ids.row
    for upper, fan in walk_fans(RowGraph(*ghat_rows(cfg)), budget):
        yield tuple(map(read, upper)), tuple(map(read, fan))


def ghat_membership(cfg: FrameConfig, pt: GHatPoint) -> bool:
    k = cfg.k
    if len(pt) != k or any(len(pt[i - 1]) != i for i in range(1, k + 1)):
        return False
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            cell = pt[i - 1][j - 1]
            if cell.dim != j or not contains(cfg.nested(j, i), cell):
                return False
            if j < i and not contains(pt[i - 1][j], cell):
                return False
            if i < k:
                upper = subspace_sum(pt[i][j - 1], cfg.complement(i + 1))
                if not contains(upper, cell):
                    return False
    return True


def pi_diag(pt: GHatPoint) -> GCalPoint:
    """Diagonal extraction; lands in the chain variety."""
    return tuple(pt[i][i] for i in range(len(pt)))


def in_u(cfg: FrameConfig, pt: GCalPoint) -> bool:
    """The open locus: every l_a meets every deeper nested space in the
    expected dimension."""
    for a in range(2, cfg.k + 1):
        for j in range(1, a):
            if intersect(pt[a - 1], cfg.nested(j, a)).dim != j:
                return False
    return True


def u_count_formula(n: int, p: int, beta: tuple[int, ...]) -> int:
    """Independent tower-product count of the open locus of the chain
    variety: level i contributes the regular-locus count of a one-window
    frame of codimension gap c_i (the graph-sum count identity)."""
    k = len(beta)
    total = 1
    for i in range(1, k + 1):
        c = n - beta[-1] if i == k else beta[i] - beta[i - 1] - 1
        total *= ((p ** (c + 1) - 1) // (p - 1)) * p ** ((i - 1) * c)
    return total


def u_dimension_formula(n: int, beta: tuple[int, ...]) -> int:
    """Dimension of the fixed-line map space: k(n-b_k) + sum i(b_{i+1}-b_i-1)."""
    k = len(beta)
    return k * (n - beta[-1]) + sum(
        i * (beta[i] - beta[i - 1] - 1) for i in range(1, k)
    )


def build_lift(cfg: FrameConfig, pt: GCalPoint, memo: dict | None = None) -> GHatPoint:
    """A deterministic section of the diagonal projection, for a point
    of the chain variety (not checked).

    Built diagonal by diagonal: each new cell is the intersection of the
    cell above-right with the nested space when that intersection has
    the right dimension, and otherwise the lexicographic completion of
    the projected left cell inside the cell above-right.  That the result
    is a grid point over ``pt`` is checked by the ``wflag verify`` and
    ``wflag lift`` reports.  A cell depends only on its two neighbours
    and its place, so ``memo`` keeps each step's cell under (x, y, idx, c)
    and a caller that passes one dict for many points over one frame
    builds each distinct step once.
    """
    k = cfg.k
    memo = {} if memo is None else memo
    diags: list[tuple[Subspace, ...]] = [tuple(pt)]
    for c in range(1, k):
        prev = diags[-1]
        new = []
        for idx in range(1, k - c + 1):
            x = prev[idx - 1]                # dimension idx, superscript idx+c-1
            y = prev[idx]                    # dimension idx+1, superscript idx+c
            key = (x, y, idx, c)
            z = memo.get(key)
            if z is None:
                z = memo[key] = _pair_step(cfg, x, y, cfg.nested(idx, idx + c), idx + c)
            new.append(z)
        diags.append(tuple(new))
    return tuple(
        tuple(diags[i - j][j - 1] for j in range(1, i + 1)) for i in range(1, k + 1)
    )


def _pair_step(
    cfg: FrameConfig, x: Subspace, y: Subspace, v_target: Subspace, window: int
) -> Subspace:
    """One cell of the lift: z ⊆ y with x ⊆ z + l_perp and z ⊆ v_target,
    where l_perp is the complement of line ``window`` in its window.

    ``v_target``, a nested space of earlier lines and later complements,
    has no coordinate in that window and l_perp has coordinates only
    there, because windows are disjoint blocks of consecutive
    coordinates.  So the projection onto v_target along l_perp zeroes the
    window.  Both are coordinate spaces, so a row of x splits between
    them exactly when it has no nonzero entry outside the window at a
    coordinate v_target lacks, and none inside the window at a coordinate
    l_perp lacks; any other row raises ValueError.
    """
    inter = intersect(y, v_target)
    if inter.dim == x.dim:
        return inter
    lo, hi = cfg.window_bounds(window)
    onto = set(v_target.pivots)
    along = set(cfg.complement(window).pivots)
    n = cfg.n
    rows = []
    for v in x.basis:
        for col, e in enumerate(v):
            if e and col not in (along if lo <= col < hi else onto):
                raise ValueError("vector outside onto + along")
        rows.append(v[:lo] + (0,) * (hi - lo) + v[hi:])
    z = span(rows, n, cfg.p)
    for row in y.basis:
        if z.dim == x.dim:
            break
        z = z.extend(row)
    return z


def psi_space(cfg: FrameConfig, i: int, l: Subspace) -> Subspace:
    """Space i of a partial flag: l_i plus the first i complements; a
    dimension other than b_i raises InvariantError."""
    s = subspace_sum(l, cfg.complements_prefix(i))
    if s.dim != cfg.beta[i - 1]:
        raise InvariantError(f"psi_tilde space {i} has dimension {s.dim}, not b_{i}")
    return s


def psi_tilde(cfg: FrameConfig, pt: GCalPoint) -> tuple[Subspace, ...]:
    """Partial flag with i-th space l_i plus the first i complements
    (``psi_space``)."""
    return tuple(psi_space(cfg, i, l) for i, l in enumerate(pt, start=1))


def enumerate_report(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Point counts of the chain variety, walked once, of its grid
    resolution (the sum of the fan sizes) and of its open locus, the last
    two against their closed forms."""
    with EnumReport(
        "wflag enumerate", {"n": cfg.n, "beta": list(cfg.beta), "field": cfg.p, "budget": budget}
    ) as report:
        chain = opens = 0
        for pt in enumerate_gcal(cfg, budget):
            chain += 1
            opens += in_u(cfg, pt)
        grid = sum(len(fan) for _, fan in walk_fans(RowGraph(*ghat_rows(cfg)), budget))
        report.counts["chain_points"] = chain
        report.counts["grid_points"] = grid
        report.counts["open_locus_points"] = opens
        report.counts["grid_formula"] = ghat_count_formula(cfg)
        report.counts["open_locus_formula"] = u_count_formula(cfg.n, cfg.p, cfg.beta)
        report.add("grid_count_matches_row_product", grid == report.counts["grid_formula"])
        report.add(
            "open_locus_count_matches_formula",
            opens == report.counts["open_locus_formula"],
        )
    return report


def lift_report(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """The lift of every chain point is a grid point over it."""
    with EnumReport(
        "wflag lift", {"n": cfg.n, "beta": list(cfg.beta), "field": cfg.p, "budget": budget}
    ) as report:
        chain = 0
        section_ok = True
        member_ok = True
        steps: dict = {}  # build_lift's memo, for this report's frame only
        for pt in enumerate_gcal(cfg, budget):  # chain points, so lifted unchecked
            chain += 1
            grid = build_lift(cfg, pt, steps)
            section_ok = section_ok and pi_diag(grid) == pt
            member_ok = member_ok and ghat_membership(cfg, grid)
        report.counts["chain_points"] = chain
        report.add("lift_is_a_section", section_ok)
        report.add("lift_lands_in_grid_variety", member_ok)
    return report


def verify_chain_resolution(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Point-level checks for the grid resolution of the chain variety.

    Surjectivity of the diagonal projection, singleton fibers with the
    closed form over the open locus, section property of the lift, and
    a census of the multi-point fibers off the open locus.

    Points are tuples of subspace ints, the grid is read by
    ``ghat_fans``, and a fiber keeps only its size.  The open locus and
    the closed form are read per (level, l_i).  A grid point is its
    diagonal's lift when each cell (r, j), r > j, is the ``_pair_step``
    of (r-1, j) and (r, j+1); only (2, 1) reads row 1, so the rest is
    compared once per fan, by r - j, on cells known to be the lift's.
    """
    with EnumReport("wflag verify", frame_config(cfg, budget)) as report:
        k = cfg.k
        ids = SpaceNumbers()
        spaces = ids.spaces

        # per (level i, int of l_i): the ints of l_i ∩ nested(j, i), j < i,
        # and whether each has dimension j
        def level(i: int, c: int) -> tuple[tuple[int, ...], bool]:
            meets = tuple([ids[intersect(spaces[c], cfg.nested(j, i))] for j in range(1, i)])
            return meets, all(spaces[x].dim == j for j, x in enumerate(meets, start=1))

        levels = Memo(level)
        # row i of the closed-form fiber, which ends in l_i ∩ nested(i, i)
        closed_rows = Memo(
            lambda i, c: levels[i, c][0] + (ids[intersect(spaces[c], cfg.nested(i, i))],)
        )
        # ``_pair_step`` on ints, keyed by (x, y, idx, c)
        steps = Memo(
            lambda x, y, idx, c: ids[
                _pair_step(cfg, spaces[x], spaces[y], cfg.nested(idx, idx + c), idx + c)
            ]
        )

        # per chain point, True until a grid point over it equals its lift
        lifting: dict[tuple[int, ...], bool] = {}
        opens: set[tuple[int, ...]] = set()
        chain_points = open_points = 0
        for pt in enumerate_gcal(cfg, budget):
            chain_points += 1
            g = tuple([ids[s] for s in pt])
            lifting[g] = True
            for i in range(1, k):
                if not levels[i + 1, g[i]][1]:
                    break
            else:
                open_points += 1
                opens.add(g)

        # the cells (r, j) of rows 3..k, in order of their diagonal r - j
        upper_steps = [(j + c, j) for c in range(1, k) for j in range(1, k - c + 1) if j + c > 2]
        fibers: dict[tuple[int, ...], int] = {}  # per diagonal, its number of grid points
        not_closed: set[tuple[int, ...]] = set()
        lands_ok = True
        for up, fan in ghat_fans(cfg, ids, budget):
            # up[r - 2] holds row r; whether rows 2..k are the lift's there
            # is decided at the first point that needs it
            upper_diag = tuple([c[-1] for c in up])
            upper_lifted = None
            for first in fan:
                diag = first + upper_diag
                size = fibers.get(diag)
                if size is None:
                    fibers[diag] = 1
                    lands_ok = lands_ok and diag in lifting
                    if diag in opens:
                        closed = tuple([closed_rows[i, c] for i, c in enumerate(diag, start=1)])
                        if closed != (first,) + up:
                            not_closed.add(diag)
                else:
                    fibers[diag] = size + 1
                if lifting.get(diag) and (k == 1 or up[0][0] == steps[first[0], up[0][1], 1, 1]):
                    if upper_lifted is None:
                        upper_lifted = all(
                            up[r - 2][j - 1] == steps[up[r - 3][j - 1], up[r - 2][j], j, r - j]
                            for r, j in upper_steps
                        )
                    if upper_lifted:
                        lifting[diag] = False
        report.counts["chain_points"] = chain_points
        report.counts["grid_points"] = sum(fibers.values())
        report.counts["grid_formula"] = ghat_count_formula(cfg)
        report.add("projection_lands_in_chain_variety", lands_ok)
        report.add("projection_onto", fibers.keys() == lifting.keys())
        report.add(
            "grid_count_matches_row_product",
            report.counts["grid_points"] == report.counts["grid_formula"],
        )

        report.counts["open_locus_points"] = open_points
        report.counts["open_locus_formula"] = u_count_formula(cfg.n, cfg.p, cfg.beta)
        report.add(
            "open_locus_count_matches_formula",
            open_points == report.counts["open_locus_formula"],
        )
        report.add("open_fibers_are_singletons", all(fibers.get(g) == 1 for g in opens))
        report.add(
            "open_fibers_match_closed_form",
            not any(fibers.get(g) == 1 for g in not_closed),
        )

        unlifted = [tuple([spaces[x] for x in g]) for g, left in lifting.items() if left]
        report.add(
            "lift_is_a_section", all(pi_diag(build_lift(cfg, pt)) == pt for pt in unlifted)
        )
        report.add("lift_lands_in_enumerated_grid", not unlifted)

        multi = [diag for diag, size in fibers.items() if size > 1]
        report.counts["multi_point_fibers"] = len(multi)
        # a fiber can branch only at a pair (i, i+1) whose interleaving
        # complement is nonzero with later complements left to land in;
        # otherwise every grid cell is a forced intersection
        freedom = any(
            cfg.complement(i + 1).dim and cfg.complements_suffix(i + 2).dim
            for i in range(1, cfg.k)
        )
        if freedom:
            report.add(
                "off_locus_multi_fiber_exists",
                bool(multi),
                witnesses=[subspace_witness(spaces[x]) for x in next(iter(multi), ())],
            )
        else:
            report.add(
                "off_locus_multi_fiber_exists",
                not multi,
                "no branching pair; projection bijective",
            )
    return report
