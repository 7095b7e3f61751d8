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

A locus is a union of Schubert cells, and each cell is an affine chart
of echelon forms (``exactlin.Chart``); ``locus_charts`` is the one
place that says which cells make up a locus.  The graph-sum verifiers
rank each output on the charts of the locus cells and mark its rank in
a bytearray the size of the locus, so they keep no set of Gr_k points
and never walk the locus: the image is the locus when no output falls
outside those cells and every rank is hit.  The closed locus is the
only one walked point by point (``closed_locus``), and nothing walks
all of Gr_k: its size is the Gaussian binomial.
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from schubres.biflag import standard_frames
from schubres.exactlin import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Chart,
    InvariantError,
    Subspace,
    Vec,
    _echelon_forms,
    charts,
    check_field,
    contains,
    coordinate_space,
    count_text,
    enumerate_maps,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    graph_rows,
    rref,
    span,
    subspace_sum,
)
from schubres.report import EnumReport, frame_config, subspace_witness


def check_multi_index(beta: tuple[int, ...], n: int) -> None:
    if not beta or list(beta) != sorted(set(beta)):
        raise ValueError(f"multi-index must be strictly increasing, got {beta}")
    if beta[0] < 1 or beta[-1] > n:
        raise ValueError(f"multi-index {beta} out of range 1..{n}")


class _FrameFields(NamedTuple):
    n: int
    p: int
    beta: tuple[int, ...]


class FrameConfig(_FrameFields):
    """The fixed frame of (n, p, beta), read off coordinates.

    A frame is the tuple (n, p, beta): it hashes, compares and prints as
    that tuple.  Window i is the block of coordinates
    ``window_bounds(i)``, that is F_{b_i} ∩ G^{b_{i-1}}.  Its line is the
    unit vector at its first coordinate, its complement the unit vectors
    at the others, and the tail G^{b_k} the block past the last window;
    index k+1 of a complement means the tail.  So every frame space,
    window, line, complement or sum of them, is the span of the unit
    vectors at some lines and complements (``_span``).  Each accessor
    builds its space on first use and keeps it in a cache of its own, so
    making a frame builds nothing, and a later call with the same
    arguments returns the same object.  The graphs, projections and base
    points of this module, ``wflag`` and ``embres`` are read off the
    blocks.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.beta)

    @property
    def frames(self) -> tuple[Subspace, ...]:
        """F_0 .. F_n, the standard flag of (n, p)."""
        return standard_frames(self.n, self.p)

    def window_bounds(self, i: int) -> tuple[int, int]:
        """Window i as the 0-based coordinates lo..hi-1, lo = b_{i-1} and
        hi = b_i; index k+1 gives the tail's, b_k..n-1."""
        beta = self.beta
        return beta[i - 2] if i > 1 else 0, beta[i - 1] if i <= len(beta) else self.n

    def _span(self, lines: Iterable[int], complements: Iterable[int]) -> Subspace:
        """The sum of these lines and complements (k+1 the tail): the
        unit vectors at the first coordinate of each line's window and at
        the other coordinates of each complement's, all of the tail's."""
        coords = [self.window_bounds(i)[0] for i in lines]
        for i in complements:
            lo, hi = self.window_bounds(i)
            coords += range(lo + (i <= self.k), hi)
        return coordinate_space(coords, self.n, self.p)

    @lru_cache(maxsize=None)
    def window(self, i: int) -> Subspace:
        return self._span((i,), (i,))

    @lru_cache(maxsize=None)
    def line(self, i: int) -> Subspace:
        return self._span((i,), ())

    @lru_cache(maxsize=None)
    def complement(self, i: int) -> Subspace:
        """Complement of line i in window i; index k+1 gives the tail."""
        return self._span((), (i,))

    @lru_cache(maxsize=None)
    def lines_prefix(self, i: int) -> Subspace:
        """Sum of lines 1..i."""
        return self._span(range(1, i + 1), ())

    @lru_cache(maxsize=None)
    def complements_prefix(self, i: int) -> Subspace:
        """Sum of complements 1..i."""
        return self._span((), range(1, i + 1))

    @lru_cache(maxsize=None)
    def complements_suffix(self, i: int) -> Subspace:
        """Sum of complements i..k+1 (the tail included)."""
        return self._span((), range(i, self.k + 2))

    @lru_cache(maxsize=None)
    def nested(self, j: int, i: int) -> Subspace:
        """Sum of lines 1..j and complements i+1..k+1 (for j <= i)."""
        return self._span(range(1, j + 1), range(i + 1, self.k + 2))


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
    return tuple(out) + (cfg.complement(cfg.k + 1),)


def phi_targets(cfg: FrameConfig, lines: tuple[Subspace, ...]) -> tuple[Subspace, ...]:
    """Targets of the maps of ``verify_phi`` on these lines: for line
    i >= 2, the sum of the moving complements of lines 1..i-1."""
    comps = moving_complements(cfg, lines)
    return tuple(itertools.accumulate(comps[: cfg.k - 1], subspace_sum))


def phi_star_targets(cfg: FrameConfig, lines: tuple[Subspace, ...]) -> tuple[Subspace, ...]:
    """Targets of the maps of ``verify_phi_star`` on these lines: for
    line i, the sum of the moving complements of lines i+1..k and the
    tail."""
    comps = moving_complements(cfg, lines)
    return tuple(itertools.accumulate(reversed(comps[1:]), subspace_sum))[::-1]


def _check_star_row(cfg: FrameConfig, i: int, row: Vec, pivots: tuple[int, ...]) -> None:
    """Raise InvariantError unless ``row``, the graph of a map out of
    moving line i (1-based) into ``phi_star_targets``, is the canonical
    row of its line's pivot q among the lines' ``pivots``: q inside window
    i, a 1 at q, and zeros before q and at the later pivots.  Map i
    leaves out every later line's pivot, so this holds for every map."""
    q = pivots[i - 1]
    lo, hi = cfg.window_bounds(i)
    # zeros before q cover the earlier pivots
    if not lo <= q < hi or row[q] != 1 or any(row[:q]) or any(row[r] for r in pivots[i:]):
        raise InvariantError(f"phi_star graph row {i} is not canonical at pivot {q}")


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


def _jumps(n: int, pivots: tuple[int, ...], star: bool) -> tuple[int, ...]:
    """The jump set of a cell, or of a point, with these pivots: c_j =
    q + 1 when ``star``, else a_j = n - q of the pivots q of the
    coordinate-reversed rows, increasing."""
    return tuple(q + 1 for q in pivots) if star else tuple(n - q for q in reversed(pivots))


def locus_charts(cfg: FrameConfig, mode: str) -> dict[tuple[int, ...], Chart]:
    """The charts of the cells of a locus of ``LOCI``, keyed by their
    pivots and numbered in ``charts`` order: for ``star_*`` the c cells,
    whose pivots are c_j - 1, else the a cells on coordinate-reversed
    rows, whose pivots are n - a_j."""
    test, star = LOCI[mode], mode.startswith("star_")

    def keep(piv: tuple[int, ...]) -> bool:
        return test(cfg.beta, _jumps(cfg.n, piv, star))

    return {c.pivots: c for c in charts(cfg.n, cfg.k, cfg.p, keep)}


def check_grassmannian(cfg: FrameConfig, budget: int) -> None:
    """Refuse Gr_k(GF(p)^n) when it has more points than the budget.
    Every walk of a locus in Gr_k, and every verifier that reads one,
    calls this before its first point."""
    total = gaussian_binomial(cfg.n, cfg.k, cfg.p)
    if total > budget:
        raise BudgetExceededError(
            f"Gr_{cfg.k}(GF({cfg.p})^{cfg.n}) has {count_text(total)} points"
        )


def closed_locus(cfg: FrameConfig, budget: int) -> Iterator[tuple[tuple[int, ...], Subspace]]:
    """(a, L) for each point L of the closed Schubert locus, cell by cell
    in ``locus_charts(cfg, "closed")`` order, after ``check_grassmannian``.

    Each cell's points are its chart's echelon forms (``_echelon_forms``)
    read with the coordinates reversed: the last nonzero coordinates met
    in L are a_j - 1.  Reversed back, each point takes one row reduction.
    """
    check_grassmannian(cfg, budget)
    n, p = cfg.n, cfg.p
    full = full_space(n, p)
    for piv in locus_charts(cfg, "closed"):
        a = _jumps(n, piv, False)
        for form in _echelon_forms(full, piv):
            yield a, span([row[::-1] for row in form.basis], n, p)


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
        total += cfg.complement(k + 1).dim
    return total


def _image_checks(
    report: EnumReport,
    inputs: int,
    fiber_ok: bool,
    hits: bytearray,
    outside: set[Subspace],
    table: dict[tuple[int, ...], Chart],
    point: Callable[[Subspace], Subspace],
    locus: str,
    predicted: int,
) -> None:
    """The counts and checks both verifiers share, read off one byte per
    locus rank (set when an output has that rank) and the set of outputs
    outside the locus.

    The distinct images are the ranks hit plus the outputs outside, and
    the image equals the locus when no output is outside and every rank
    is hit.  Its witnesses are the first three, sorted, of the outputs
    outside and the points of the ranks not hit; ``point`` turns a
    chart's point into the point of Gr_k.  The locus size is the sum of
    its cells' sizes, which ``predicted`` must equal.
    """
    missed = hits.count(0)
    distinct = len(hits) - missed + len(outside)
    report.counts["inputs"] = inputs
    report.counts["distinct_images"] = distinct
    report.add("injective", distinct == inputs)
    report.add("base_point_recovered", fiber_ok)
    report.counts[f"{locus}_locus_points"] = len(hits)
    witnesses = []
    if missed or outside:
        gaps = (
            point(c.unrank(i))
            for c in table.values()
            for i in range(c.offset, c.offset + c.size)
            if not hits[i]
        )
        first = heapq.nsmallest(3, itertools.chain(outside, gaps))
        witnesses = [subspace_witness(s) for s in first]
    report.add(f"image_equals_{locus}_locus", not missed and not outside, witnesses=witnesses)
    report.counts["predicted_points"] = predicted
    report.add("count_identity", len(hits) == predicted)


def verify_phi(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Injectivity, image identity and fiber compatibility of the
    graph-sum parametrization of the regular Schubert locus.

    An input is k moving lines and maps sending line i >= 2 into the
    moving complements of lines 1..i-1 (``phi_targets``); its output is
    spanned by line 1 and the maps' graph rows, built once per map.  The
    rows end in their own windows, so one row reduction of their
    coordinate-reversed form gives the output's a cell (its pivots are
    n - a_j), its rank on that cell's chart, and its base point: the
    projection of L ∩ F_{b_i} into window i along F_{b_{i-1}} is the cut
    of the one reduced row that ends in window i, when there is one.
    """
    check_grassmannian(cfg, budget)  # before enumerating inputs
    with EnumReport("grass verify-phi", frame_config(cfg, budget)) as report:
        n, p, k = cfg.n, cfg.p, cfg.k
        table = locus_charts(cfg, "open")
        hits = bytearray(sum(c.size for c in table.values()))
        outside: set[Subspace] = set()
        inputs, fiber_ok = 0, True
        # the reduced rows end in windows k..1: window k - r is the
        # reversed coordinates n - b_{k-r} .. n - b_{k-r-1} - 1
        cuts = [(n - hi, n - lo) for lo, hi in map(cfg.window_bounds, range(k, 0, -1))]
        for lines in window_line_tuples(cfg):
            backs = [line.basis[0][::-1] for line in reversed(lines)]
            targets = phi_targets(cfg, lines)
            choices = [[backs[-1]]] + [
                [graph_rows(a)[0][::-1] for a in enumerate_maps(line, target)]
                for line, target in zip(lines[1:], targets)
            ]
            for rows in itertools.product(*choices):
                red, piv = rref(rows, p)
                inputs += 1
                chart = table.get(piv)
                if chart is None:
                    outside.add(span([row[::-1] for row in red], n, p))
                else:
                    hits[chart.rank(red)] = 1
                # reduced row r is 1 at its end, so its cut is line k-r's
                # part when it is that part over the line's entry there
                fiber_ok = fiber_ok and len(piv) == k and all(
                    lo <= q < hi and tuple([x * back[q] % p for x in row[lo:hi]]) == back[lo:hi]
                    for row, q, (lo, hi), back in zip(red, piv, cuts, backs)
                )
        _image_checks(
            report,
            inputs,
            fiber_ok,
            hits,
            outside,
            table,
            lambda s: span([row[::-1] for row in s.basis], n, p),
            "regular",
            base_point_count(cfg) * p ** hom_rank(cfg),
        )
    return report


def verify_phi_star(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Same checks for the conjugate parametrization.

    An input is k moving lines and maps sending line i into the moving
    complements of lines i+1..k and the tail (``phi_star_targets``).
    Each map's graph row is built and checked once per line tuple
    (``_check_star_row``); the rows of an input are then the canonical
    basis of its output, whose c cell is fixed by the lines' pivots.  So
    the output's rank is its cell's offset plus one share per row, read
    off the row when it is checked, and its base point is each row cut
    down to its own window.
    """
    check_grassmannian(cfg, budget)  # before enumerating inputs
    with EnumReport("grass verify-phistar", frame_config(cfg, budget)) as report:
        n, p = cfg.n, cfg.p
        table = locus_charts(cfg, "star_open")
        hits = bytearray(sum(c.size for c in table.values()))
        outside: set[Subspace] = set()
        inputs, fiber_ok = 0, True
        for lines in window_line_tuples(cfg):
            pivots = tuple(line.pivots[0] for line in lines)
            chart = table.get(pivots)
            choices = []
            for i, (line, target) in enumerate(zip(lines, phi_star_targets(cfg, lines)), start=1):
                lo, hi = cfg.window_bounds(i)
                shares = []
                for a in enumerate_maps(line, target):
                    row = graph_rows(a)[0]
                    _check_star_row(cfg, i, row, pivots)
                    fiber_ok = fiber_ok and row[lo:hi] == line.basis[0][lo:hi]
                    shares.append(row if chart is None else chart.row_rank(i - 1, row))
                choices.append(shares)
            if chart is None:
                for rows in itertools.product(*choices):
                    outside.add(Subspace(n, p, rows, pivots))
                    inputs += 1
                continue
            ranks = [chart.offset]
            for shares in choices:
                ranks = [x + y for x in ranks for y in shares]
            for x in ranks:
                hits[x] = 1
            inputs += len(ranks)
        predicted = base_point_count(cfg) * p ** hom_star_rank(cfg)
        _image_checks(
            report, inputs, fiber_ok, hits, outside, table, lambda s: s, "conjugate", predicted
        )
    return report


def verify_transversal_identity(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """The two loci meet exactly in the window-line sums, and the closed
    loci meet no deeper than the open ones."""
    with EnumReport("grass verify-transversal", frame_config(cfg, budget)) as report:
        # both meets lie in the closed locus
        meet, closed_meet = set(), set()
        for a, l in closed_locus(cfg, budget):
            c = _jumps(cfg.n, l.pivots, True)
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
