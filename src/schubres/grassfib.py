"""Graph-sum parametrizations of Grassmannian Schubert cells over GF(p).

For a multi-index beta, the ambient space splits into windows between
consecutive flag nodes.  Fixing one line and one complement per window
yields a frame; summing graphs of linear maps out of moving window lines
parametrizes the regular Schubert variety (maps into earlier-window
complements) and its conjugate (maps into later-window complements plus
the tail of the flag).  Both parametrizations are verified to be
injective with image equal to the Schubert loci, where a point's locus
is read off its Schubert position: the jumps of its intersections with
the standard flag and co-flag, fixed by the Schubert cell it lies in.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Iterable, Iterator

from schubres.biflag import standard_frames
from schubres.exactlin import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InvariantError,
    LinearMap,
    Subspace,
    Vec,
    _echelon_forms,
    check_field,
    contains,
    coordinate_space,
    enumerate_maps,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    graph_rows,
    rref,
    span,
    subspace_sum,
)
from schubres.report import EnumReport, subspace_witness, timed


def check_multi_index(beta: tuple[int, ...], n: int) -> None:
    if not beta or list(beta) != sorted(set(beta)):
        raise ValueError(f"multi-index must be strictly increasing, got {beta}")
    if beta[0] < 1 or beta[-1] > n:
        raise ValueError(f"multi-index {beta} out of range 1..{n}")


class FrameConfig:
    """The fixed frame of (n, p, beta), built from coordinates.

    Window i is the block of coordinates ``window_bounds(i)``, that is
    F_{b_i} ∩ G^{b_{i-1}}.  Its line is the unit vector at its first
    coordinate, its complement the unit vectors at the others, and the
    tail G^{b_k} the block past the last window; index k+1 of a
    complement means the tail.  ``nested(j, i)`` sums the first j lines
    and the complements past window i.  Each space and sum is the span of
    unit vectors, built canonical by ``coordinate_space`` once, when the
    frame is made from (n, p, beta).  The graphs, projections and base
    points of this module, ``wflag`` and ``embres`` are read off the
    blocks.  Frames are equal and hash alike by (n, p, beta).
    """

    __slots__ = (
        "n",
        "p",
        "beta",
        "frames",  # F_0 .. F_n
        "windows",
        "lines",
        "complements",  # within the windows
        "tail",
        "_edges",  # 0, b_1 .. b_k, n: the window boundaries
        "_lines_prefix",
        "_complements_prefix",
        "_complements_suffix",
        "_nested",
    )

    def __init__(self, n: int, p: int, beta: tuple[int, ...]) -> None:
        self.n, self.p, self.beta = n, p, beta
        k = len(beta)
        edges = self._edges = (0,) + beta + (n,)

        def space(*blocks: Iterable[int]) -> Subspace:
            return coordinate_space(itertools.chain(*blocks), n, p)

        firsts = edges[:k]  # the coordinate of each window's line
        comps = [range(edges[i] + 1, edges[i + 1]) for i in range(k)] + [range(edges[k], n)]
        self.frames = standard_frames(n, p)
        self.windows = tuple(space(range(edges[i], edges[i + 1])) for i in range(k))
        self.lines = tuple(space((c,)) for c in firsts)
        self.complements = tuple(space(c) for c in comps[:k])
        self.tail = space(comps[k])
        self._lines_prefix = tuple(space(firsts[:i]) for i in range(k + 1))
        self._complements_prefix = tuple(space(*comps[:i]) for i in range(k + 2))
        # entry i: complements i+1..k+1
        self._complements_suffix = tuple(space(*comps[i:]) for i in range(k + 2))
        self._nested = {
            (j, i): space(firsts[:j], *comps[i:]) for i in range(k + 1) for j in range(i + 1)
        }

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FrameConfig:
            return NotImplemented
        return (self.n, self.p, self.beta) == (other.n, other.p, other.beta)

    def __hash__(self) -> int:
        return hash((self.n, self.p, self.beta))

    def __repr__(self) -> str:
        return f"FrameConfig(n={self.n!r}, p={self.p!r}, beta={self.beta!r})"

    @property
    def k(self) -> int:
        return len(self.beta)

    def window(self, i: int) -> Subspace:
        return self.windows[i - 1]

    def window_bounds(self, i: int) -> tuple[int, int]:
        """Window i as the 0-based coordinates lo..hi-1, lo = b_{i-1} and
        hi = b_i; index k+1 gives the tail's, b_k..n-1."""
        return self._edges[i - 1], self._edges[i]

    def line(self, i: int) -> Subspace:
        return self.lines[i - 1]

    def complement(self, i: int) -> Subspace:
        """Complement of line i in window i; index k+1 gives the tail."""
        if i == self.k + 1:
            return self.tail
        return self.complements[i - 1]

    def lines_prefix(self, i: int) -> Subspace:
        """Sum of lines 1..i."""
        return self._lines_prefix[i]

    def complements_prefix(self, i: int) -> Subspace:
        """Sum of complements 1..i."""
        return self._complements_prefix[i]

    def complements_suffix(self, i: int) -> Subspace:
        """Sum of complements i..k+1 (the tail included)."""
        return self._complements_suffix[i - 1]

    def nested(self, j: int, i: int) -> Subspace:
        """Sum of lines 1..j and complements i+1..k+1 (for j <= i)."""
        return self._nested[j, i]


def make_frame(n: int, p: int, beta: tuple[int, ...]) -> FrameConfig:
    """The frame of (n, p, beta), once the three are checked."""
    check_field(p)
    beta = tuple(beta)
    check_multi_index(beta, n)
    return FrameConfig(n, p, beta)


def moving_complements(cfg: FrameConfig, lines: tuple[Subspace, ...]) -> tuple[Subspace, ...]:
    """Deterministic complements of moving window lines, tail appended.

    The complement of a line in window i is spanned by the window's unit
    vectors other than the one at the line's pivot: the canonical
    complement, as the window's canonical rows are those unit vectors and
    the line's first nonzero coordinate in the window is its pivot.
    """
    out = []
    for i, line in enumerate(lines, start=1):
        if line.dim != 1 or not contains(cfg.window(i), line):
            raise ValueError(f"moving line {i} must be a line in window {i}")
        lo, hi = cfg.window_bounds(i)
        out.append(coordinate_space(set(range(lo, hi)) - set(line.pivots), cfg.n, cfg.p))
    return tuple(out) + (cfg.tail,)


def phi_targets(cfg: FrameConfig, lines: tuple[Subspace, ...]) -> tuple[Subspace, ...]:
    """Targets of the maps of ``phi`` on these lines: for line i >= 2, the
    sum of the moving complements of lines 1..i-1."""
    comps = moving_complements(cfg, lines)
    return tuple(itertools.accumulate(comps[: cfg.k - 1], subspace_sum))


def phi_star_targets(cfg: FrameConfig, lines: tuple[Subspace, ...]) -> tuple[Subspace, ...]:
    """Targets of the maps of ``phi_star`` on these lines: for line i, the
    sum of the moving complements of lines i+1..k and the tail."""
    comps = moving_complements(cfg, lines)
    return tuple(itertools.accumulate(reversed(comps[1:]), subspace_sum))[::-1]


def _graph_rows(
    lines: tuple[Subspace, ...], targets: tuple[Subspace, ...], maps: tuple[LinearMap, ...]
) -> list[Vec]:
    """The parts of ``phi`` or ``phi_star`` as rows, one per line.

    ``maps`` send the last len(maps) lines into ``targets``; the part of
    such a line is the graph of its map, and an earlier line is its own
    part.  A map out of a line is one matrix column, so its graph is the
    one row ``graph_rows`` reads off that column.
    """
    first = len(lines) - len(maps)
    rows = [line.basis[0] for line in lines[:first]]
    for i, (line, target, a) in enumerate(zip(lines[first:], targets, maps), start=first + 1):
        # maps built on these very spaces pass on identity, without __eq__
        if (a.domain is not line and a.domain != line) or (
            a.target is not target and a.target != target
        ):
            raise ValueError(f"map {i} has wrong domain or target")
        rows += graph_rows(a)
    return rows


def phi(
    cfg: FrameConfig,
    lines: tuple[Subspace, ...],
    targets: tuple[Subspace, ...],
    maps: tuple[LinearMap, ...],
) -> Subspace:
    """Sum of graphs of maps into earlier-window complements.

    ``maps[i-2]`` sends line i into ``targets[i-2]``, the sum of the
    complements of lines 1..i-1 (``phi_targets``); the first line
    contributes itself.  The result meets F_{b_i} in dimension exactly i
    for every i, which ``verify_phi`` checks as
    ``image_equals_regular_locus``.  Each graph is one row, read off the
    map's matrix (``_graph_rows``), and the rows are reduced.
    """
    if len(lines) != cfg.k or len(maps) != cfg.k - 1:
        raise ValueError("need k moving lines and k-1 maps")
    return span(_graph_rows(lines, targets, maps), cfg.n, cfg.p)


def phi_star(
    cfg: FrameConfig,
    lines: tuple[Subspace, ...],
    targets: tuple[Subspace, ...],
    maps: tuple[LinearMap, ...],
) -> Subspace:
    """Sum of graphs of maps into later-window complements plus the tail.

    ``maps[i-1]`` sends line i into ``targets[i-1]``, the sum of the
    complements of lines i+1..k and the tail (``phi_star_targets``).  The
    result meets G^{b_i} in dimension exactly k-i, which
    ``verify_phi_star`` checks as ``image_equals_conjugate_locus``.  Each
    graph is one row, read off the map's matrix (``_graph_rows``).  Map i
    leaves out every later line's pivot, so the rows are the canonical
    basis: row i has a 1 at line i's pivot, in window i, and zeros before
    it and at the other pivots, or InvariantError is raised.
    """
    k = cfg.k
    if len(lines) != k or len(maps) != k:
        raise ValueError("need k moving lines and k maps")
    rows = _graph_rows(lines, targets, maps)
    pivots = tuple(line.pivots[0] for line in lines)
    for i, (row, q) in enumerate(zip(rows, pivots), start=1):
        lo, hi = cfg.window_bounds(i)
        # zeros before q cover the earlier pivots
        if not lo <= q < hi or row[q] != 1 or any(row[:q]) or any(row[r] for r in pivots[i:]):
            raise InvariantError(f"phi_star graph row {i} is not canonical at pivot {q}")
    return Subspace(cfg.n, cfg.p, tuple(rows), pivots)


def _leq(xs: Iterable[int], ys: Iterable[int]) -> bool:
    return all(x <= y for x, y in zip(xs, ys))


def _less(xs: Iterable[int], ys: Iterable[int]) -> bool:
    return all(x < y for x, y in zip(xs, ys))


# Each locus of beta as a test on one side of a point's Schubert position:
# the jump set a for the regular loci, c for the ``star_*`` ones, with
# dim(L ∩ F_q) = #{a_j <= q} and dim(L ∩ G^q) = #{c_j > q}.
# dim(L ∩ F_{b_i}) >= i is a_i <= b_i, and == i adds b_i < a_{i+1};
# dim(L ∩ G^{b_i}) >= k-i is b_i < c_{i+1}, and == k-i adds c_i <= b_i;
# the cell pins F_{b_i - 1} too, which leaves a = beta.
LOCI = {
    "cell": lambda b, a: a == b,
    "open": lambda b, a: _leq(a, b) and _less(b, a[1:]),
    "closed": lambda b, a: _leq(a, b),
    "star_open": lambda b, c: _leq(c, b) and _less(b, c[1:]),
    "star_closed": lambda b, c: _less(b, c[1:]),
}
MODES = tuple(LOCI)


def check_grassmannian(cfg: FrameConfig, budget: int) -> None:
    """Refuse Gr_k(GF(p)^n) when it has more points than the budget.
    Every walk of Gr_k or of a locus in it calls this before its first
    point."""
    total = gaussian_binomial(cfg.n, cfg.k, cfg.p)
    if total > budget:
        raise BudgetExceededError(f"Gr_{cfg.k}(GF({cfg.p})^{cfg.n}) has {total} points")


def grassmannian_cells(
    cfg: FrameConfig, keep: Callable[[tuple[int, ...]], bool], a_cells: bool, budget: int
) -> Iterator[tuple[tuple[int, ...], Subspace]]:
    """(jumps, L) for each point L of each Schubert cell of Gr_k(GF(p)^n)
    whose jump set passes ``keep``, cell by cell, after
    ``check_grassmannian``.

    The jump set is a with ``a_cells``, else c.  The c cell is the chart
    of echelon forms with a 1 at each coordinate c_j - 1 (0-based), whose
    points ``_echelon_forms`` builds canonical: the first nonzero
    coordinates met in L are its pivots.  The same forms read with the
    coordinates reversed give the a cells, whose last nonzero coordinates
    are a_j - 1; each of their points takes one row reduction, and its c
    is its pivots + 1.
    """
    check_grassmannian(cfg, budget)
    n, p = cfg.n, cfg.p
    full = full_space(n, p)
    for jumps in itertools.combinations(range(1, n + 1), cfg.k):
        if not keep(jumps):
            continue
        if a_cells:
            for form in _echelon_forms(full, tuple(n - j for j in reversed(jumps))):
                yield jumps, span([row[::-1] for row in form.basis], n, p)
        else:
            for l in _echelon_forms(full, tuple(j - 1 for j in jumps)):
                yield jumps, l


def vbeta_points(
    cfg: FrameConfig, mode: str, budget: int = DEFAULT_BUDGET
) -> Iterator[Subspace]:
    """Point sets of the Schubert loci in Gr_k(GF(p)^n), cell by cell.

    ``closed``/``open`` hold dim(L ∩ F_{b_i}) >= i / == i; ``cell``
    additionally pins the nodes one below each b_i; ``star_*`` use the
    co-flag G^{b_i} with k-i.  Refused like the whole Grassmannian.  The
    locus is the union of the a cells or, for ``star_*``, the c cells
    whose jump set passes its test.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    test = LOCI[mode]
    a_cells = not mode.startswith("star_")
    for _, l in grassmannian_cells(cfg, lambda jumps: test(cfg.beta, jumps), a_cells, budget):
        yield l


def window_line_tuples(cfg: FrameConfig) -> Iterator[tuple[Subspace, ...]]:
    """All tuples of moving lines, one per window."""
    choices = [list(enumerate_subspaces(cfg.window(i), 1)) for i in range(1, cfg.k + 1)]
    yield from itertools.product(*choices)


def base_point_count(cfg: FrameConfig) -> int:
    """Number of GF(p) points of the product of window projective spaces."""
    total = 1
    for i in range(1, cfg.k + 1):
        total *= gaussian_binomial(cfg.window(i).dim, 1, cfg.p)
    return total


def hom_rank(cfg: FrameConfig) -> int:
    """Fiber dimension of the graph-sum parametrization of the regular
    locus: sum over i >= 2 of (b_{i-1} - (i-1))."""
    return sum(cfg.beta[i - 2] - (i - 1) for i in range(2, cfg.k + 1))


def hom_star_rank(cfg: FrameConfig) -> int:
    """Fiber dimension of the conjugate parametrization."""
    k = cfg.k
    total = 0
    for i in range(1, k + 1):
        total += sum(cfg.window(j).dim - 1 for j in range(i + 1, k + 1))
        total += cfg.tail.dim
    return total


def map_inputs(
    cfg: FrameConfig,
    targets_of: Callable[[FrameConfig, tuple[Subspace, ...]], tuple[Subspace, ...]],
) -> Iterator[tuple[tuple[Subspace, ...], tuple[Subspace, ...], tuple[LinearMap, ...]]]:
    """(lines, targets, maps) for every tuple of moving lines and every
    map tuple on them, with ``targets_of`` ``phi_targets`` or
    ``phi_star_targets``.  The maps start from the last len(targets)
    lines: lines 2..k for ``phi``, lines 1..k for ``phi_star``."""
    for lines in window_line_tuples(cfg):
        targets = targets_of(cfg, lines)
        sources = lines[len(lines) - len(targets) :]
        choices = [list(enumerate_maps(line, t)) for line, t in zip(sources, targets)]
        for maps in itertools.product(*choices):
            yield lines, targets, maps


def recover_lines_from_open(cfg: FrameConfig, l: Subspace) -> tuple[Subspace, ...]:
    """The base-point of a regular locus member: project L ∩ F_{b_i}
    into window i along F_{b_{i-1}}.

    One row reduction of L with its coordinates reversed serves every
    window.  Read back, its rows end at distinct coordinates, and a
    vector of L ends at the last of the ends of the rows it uses, so the
    rows ending before b_i span L ∩ F_{b_i}.  Window i is the coordinates
    b_{i-1}..b_i - 1, so the projection sends a row that ends before the
    window to zero and cuts one that ends inside it down to the window.
    """
    n, p = l.n, l.p
    rows, ends = rref([row[::-1] for row in l.basis], p)
    rows = [(row[::-1], n - 1 - e) for row, e in zip(rows, ends)]
    out = []
    for i in range(1, cfg.k + 1):
        lo, hi = cfg.window_bounds(i)
        cut = [(0,) * lo + row[lo:hi] + (0,) * (n - hi) for row, e in rows if lo <= e < hi]
        out.append(span(cut, n, p))
    return tuple(out)


def recover_lines_from_star(cfg: FrameConfig, l: Subspace) -> tuple[Subspace, ...]:
    """The base-point of a conjugate member: project L ∩ G^{b_{i-1}}
    into window i along G^{b_i}.

    A vector of L starts at the first pivot among the canonical rows it
    uses, so the rows with pivot at least b_{i-1} span L ∩ G^{b_{i-1}}.
    Window i is the coordinates b_{i-1}..b_i - 1, so the projection
    sends the rows with pivot past the window to zero and cuts the others
    down to the window.  Those keep their pivots, and the other rows are
    zero there, so the cut rows are already a canonical basis.
    """
    n = l.n
    out = []
    for i in range(1, cfg.k + 1):
        lo, hi = cfg.window_bounds(i)
        a, b = bisect_left(l.pivots, lo), bisect_left(l.pivots, hi)
        rows = tuple((0,) * lo + row[lo:hi] + (0,) * (n - hi) for row in l.basis[a:b])
        out.append(Subspace(n, l.p, rows, l.pivots[a:b]))
    return tuple(out)


def verify_phi(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Injectivity, image identity and fiber compatibility of the
    graph-sum parametrization of the regular Schubert locus."""
    check_grassmannian(cfg, budget)  # before enumerating inputs
    report = EnumReport(
        "grass verify-phi",
        {"n": cfg.n, "k": cfg.k, "beta": list(cfg.beta), "field": cfg.p, "budget": budget},
    )
    with timed(report):
        inputs = 0
        image: set[Subspace] = set()
        fiber_ok = True
        for lines, targets, maps in map_inputs(cfg, phi_targets):
            out = phi(cfg, lines, targets, maps)
            inputs += 1
            image.add(out)
            if recover_lines_from_open(cfg, out) != lines:
                fiber_ok = False
        report.counts["inputs"] = inputs
        report.counts["distinct_images"] = len(image)
        report.add("injective", len(image) == inputs)
        report.add("base_point_recovered", fiber_ok)

        open_set = set(vbeta_points(cfg, "open", budget))
        report.counts["regular_locus_points"] = len(open_set)
        report.add(
            "image_equals_regular_locus",
            image == open_set,
            witnesses=[subspace_witness(s) for s in sorted(image ^ open_set)][:3],
        )
        predicted = base_point_count(cfg) * cfg.p ** hom_rank(cfg)
        report.counts["predicted_points"] = predicted
        report.add("count_identity", len(open_set) == predicted)
    return report


def verify_phi_star(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Same checks for the conjugate parametrization."""
    check_grassmannian(cfg, budget)  # before enumerating inputs
    report = EnumReport(
        "grass verify-phistar",
        {"n": cfg.n, "k": cfg.k, "beta": list(cfg.beta), "field": cfg.p, "budget": budget},
    )
    with timed(report):
        inputs = 0
        image: set[Subspace] = set()
        fiber_ok = True
        for lines, targets, maps in map_inputs(cfg, phi_star_targets):
            out = phi_star(cfg, lines, targets, maps)
            inputs += 1
            image.add(out)
            if recover_lines_from_star(cfg, out) != lines:
                fiber_ok = False
        report.counts["inputs"] = inputs
        report.counts["distinct_images"] = len(image)
        report.add("injective", len(image) == inputs)
        report.add("base_point_recovered", fiber_ok)

        star_set = set(vbeta_points(cfg, "star_open", budget))
        report.counts["conjugate_locus_points"] = len(star_set)
        report.add("image_equals_conjugate_locus", image == star_set)
        predicted = base_point_count(cfg) * cfg.p ** hom_star_rank(cfg)
        report.counts["predicted_points"] = predicted
        report.add("count_identity", len(star_set) == predicted)
    return report


def verify_transversal_identity(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """The two loci meet exactly in the window-line sums, and the closed
    loci meet no deeper than the open ones."""
    report = EnumReport(
        "grass verify-transversal",
        {"n": cfg.n, "k": cfg.k, "beta": list(cfg.beta), "field": cfg.p, "budget": budget},
    )
    with timed(report):
        # both meets lie in the closed locus
        meet, closed_meet = set(), set()
        closed = grassmannian_cells(cfg, lambda a: LOCI["closed"](cfg.beta, a), True, budget)
        for a, l in closed:
            c = tuple(q + 1 for q in l.pivots)
            if LOCI["open"](cfg.beta, a) and LOCI["star_open"](cfg.beta, c):
                meet.add(l)
            if LOCI["star_closed"](cfg.beta, c):
                closed_meet.add(l)
        # lines in distinct windows, stacked, are the canonical basis of their sum
        base = {
            Subspace(cfg.n, cfg.p, tuple(l.basis[0] for l in ls), tuple(l.pivots[0] for l in ls))
            for ls in window_line_tuples(cfg)
        }
        report.counts["intersection"] = len(meet)
        report.counts["base_points"] = len(base)
        report.add("open_intersection_is_base", meet == base)
        report.add("closed_intersection_no_bigger", closed_meet == meet)
    return report
