"""Slow reference enumerations and independent checks that the package's
fast paths are checked against; nothing in the package calls them.

Among them is the generic linear-map path (``solve_coords``, ``project``,
``apply``, ``linear_map_from_pairs``) that the package's coordinate
read-offs replace, the subspace arithmetic (``frame_by_arithmetic``,
``subspaces_by_span``) that its coordinate-built frames and echelon
charts replace, and the row reductions and intersections
(``canonical_complement_by_coords``, ``reconstruct_grid_by_intersections``)
that its pivot and reverse-echelon read-offs replace, the meets with
the standard flag that check them (``meet_by_elimination``), reduced
by ``rref_by_elimination`` and never by the package's ``rref``, the
intersections that ``embres`` reads off its chain walk instead
(``forced_chain_by_intersections``), and the walk of each family flag's
own chain tower that ``embres`` reads off its grid walk instead
(``verify_chart_family_by_flags``), with each family flag summed one
graph and one complement at a time (``psi_embed``).  The graph-sum
maps ``phi`` and ``phi_star``, their inputs and the base points they
recover are here too, with the set-based verifiers built on them
(``verify_phi_by_sets``, ``verify_phi_star_by_sets``) that
``grassfib``'s ranks on Schubert-cell charts replace.  Their loci, like
the ones the tests compare ``grassfib.locus_charts`` with, come from
intersection dimensions (``rank_filter``), and the census oracle of
``embres`` walks all of Gr_k: no oracle shares the walk it checks.
The point walks that ``wflag verify`` and ``embres verify`` replaced by
fans of small ints are here as well (``verify_chain_resolution_by_points``,
``embres_verify_by_points``), with the subspace-keyed pieces they read:
the closed-form fiber, each grid point's flag and the chain tower as one
``tower`` (``closed_form_fiber``, ``flag_of_grid``, ``kl_points``).  So
is the lockstep walk of the grid and Bott-Samelson towers that ``bs
iso`` replaced by row-graph states (``bbs_iso_by_lockstep``).  The grid
points every oracle here walks come from the flat towers, one ``tower``
over every cell (``enumerate_grid_flat``, ``enumerate_ghat_flat``), not
from the row graph the package walks; ``fan_points`` spells out a row
graph's fans as points for the tests that need the graph's own rows.
The rank-matrix Bruhat order that ``permcomb.bruhat_interval``'s
subwords replace is here too (``bruhat_leq``)."""

import itertools
import operator
import re
from itertools import accumulate
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Sequence

from schubres import biflag, exactlin, permcomb
from schubres.biflag import Flag, project_to_flag, standard_frames
from schubres.bottsamelson import BSPoint, bs_cells, enumerate_bs, first_block_chains
from schubres.embres import (
    _TOPPED_TWICE,
    _cell_test,
    chart_maps,
    in_chart,
    reconstruct_map_tuple,
    special_point,
)
from schubres.exactlin import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Fan,
    InvariantError,
    LinearMap,
    Row,
    RowGraph,
    Rows,
    Stage,
    Subspace,
    Vec,
    canonical_complement,
    chain_stages,
    check_budget,
    contains,
    coordinate_space,
    enumerate_between,
    enumerate_maps,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    graph,
    graph_rows,
    intersect,
    rows_bound,
    rref,
    span,
    subspace_sum,
    tower,
    tower_bound,
    walk_fans,
    zero_subspace,
)
from schubres.grassfib import (
    LOCI,
    FrameConfig,
    base_point_count,
    check_grassmannian,
    closed_locus,
    hom_rank,
    hom_star_rank,
    phi_star_targets,
    phi_targets,
    window_line_tuples,
)
from schubres.permcomb import (
    Permutation,
    ReducedWord,
    all_permutations,
    bubblesort_word,
    length,
    rank_matrix,
    word_product,
)
from schubres.report import EnumReport, frame_config, perm_config, subspace_witness
from schubres.wflag import (
    GCalPoint,
    GHatPoint,
    build_lift,
    enumerate_gcal,
    fixed_map_tuples,
    ghat_count_formula,
    ghat_membership,
    ghat_rows,
    in_u,
    pi_diag,
    psi_tilde,
    u_count_formula,
)


def report_text(report: EnumReport) -> str:
    """The report's JSON text with its wall time masked, to compare two
    reports byte for byte."""
    return re.sub(r'"wall_time_s": [-+.0-9e]+', '"wall_time_s": _', report.to_json())


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the package, the frame accessors'
    included, so that a measurement starts from the state of a fresh
    process."""
    for owner in (exactlin, biflag, permcomb, FrameConfig):
        for obj in vars(owner).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def identity(n: int) -> Permutation:
    """The identity permutation of S_n."""
    return Permutation(tuple(range(1, n + 1)))


def unit_vector(i: int, n: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def vec_add(u: Vec, v: Vec, p: int) -> Vec:
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(c: int, v: Vec, p: int) -> Vec:
    return tuple((c * a) % p for a in v)


def coflag(n: int, p: int) -> Flag:
    """The decreasing flag G^q = <e_{q+1}..e_n>, indexed 0..n: the co-flag
    whose meets the package reads off pivots without building it."""
    return tuple(coordinate_space(range(q, n), n, p) for q in range(n + 1))


def schubert_position(l: Subspace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The jump sets (a, c) of L against the standard flag and co-flag:
    dim(L ∩ F_q) = #{a_j <= q} and dim(L ∩ G^q) = #{c_j > q}.

    A vector lies in F_q when its last nonzero coordinate is at most q,
    and in G^q when its first is past q.  The first nonzero coordinates
    met in L are its pivots; the last ones are the pivots of L with the
    coordinates reversed.  Both are 1-based and increasing.  The package
    reads both off the Schubert cell a point comes from instead.
    """
    _, reversed_pivots = rref([row[::-1] for row in l.basis], l.p)
    return tuple(sorted(l.n - q for q in reversed_pivots)), tuple(q + 1 for q in l.pivots)


# Per-index conditions of each locus: (flag family, node shift, dimension,
# comparison) requires dim(L ∩ family[b_i + shift]) compared with dimension(i, k).
RANK_CONDITIONS = {
    "cell": (
        ("frames", 0, lambda i, k: i, operator.eq),
        ("frames", -1, lambda i, k: i - 1, operator.eq),
    ),
    "open": (("frames", 0, lambda i, k: i, operator.eq),),
    "closed": (("frames", 0, lambda i, k: i, operator.ge),),
    "star_open": (("coframes", 0, lambda i, k: k - i, operator.eq),),
    "star_closed": (("coframes", 0, lambda i, k: k - i, operator.ge),),
}


def rank_filter(cfg: FrameConfig, mode: str) -> Iterator[Subspace]:
    """The brute-force locus filter: every point of Gr_k, in
    ``enumerate_subspaces`` order, whose intersections with the flag
    nodes have the dimensions of ``mode``.  It reads neither ``LOCI`` nor
    a Schubert cell, which ``grassfib.locus_charts`` is checked by."""
    k = cfg.k
    flags = {"frames": cfg.frames, "coframes": coflag(cfg.n, cfg.p)}
    checks = [
        (flags[family][cfg.beta[i - 1] + shift], dim(i, k), compare)
        for i in range(1, k + 1)
        for family, shift, dim, compare in RANK_CONDITIONS[mode]
    ]
    for l in enumerate_subspaces(full_space(cfg.n, cfg.p), k):
        if all(compare(intersect(l, node).dim, want) for node, want, compare in checks):
            yield l


def frame_by_arithmetic(n: int, p: int, beta: tuple[int, ...]) -> dict:
    """The frame spaces and sum tables of ``FrameConfig`` by subspace
    arithmetic: window i is F_{b_i} ∩ G^{b_{i-1}}, line i the span of
    e_{b_{i-1}+1}, complement i its canonical complement in the window,
    and each table a run of ``subspace_sum``s.  Keyed by the
    ``FrameConfig`` accessor each entry is read by: windows, lines and
    complements are its values at 1..k, the tail complement k+1, and the
    sum tables are tuples from the accessor's first index and a dict."""
    frames, coframes = standard_frames(n, p), coflag(n, p)
    k = len(beta)
    prev = (0,) + beta
    windows = tuple(intersect(frames[beta[i]], coframes[prev[i]]) for i in range(k))
    lines = tuple(span([unit_vector(prev[i], n)], n, p) for i in range(k))
    complements = tuple(canonical_complement(l, w) for l, w in zip(lines, windows))
    for l, c, w in zip(lines, complements, windows):
        assert subspace_sum(l, c) == w and intersect(l, c).dim == 0
    tail = coframes[beta[-1]]
    zero = zero_subspace(n, p)

    def partial_sums(spaces: Iterable[Subspace]) -> tuple[Subspace, ...]:
        return tuple(itertools.accumulate(spaces, subspace_sum, initial=zero))

    comps = complements + (tail,)
    lines_prefix = partial_sums(lines)
    suffix = partial_sums(reversed(comps))[::-1]
    return {
        "frames": frames,
        "windows": windows,
        "lines": lines,
        "complements": complements,
        "tail": tail,
        "lines_prefix": lines_prefix,
        "complements_prefix": partial_sums(comps),
        "complements_suffix": suffix,
        "nested": {
            (j, i): subspace_sum(lines_prefix[j], suffix[i])
            for i in range(k + 1)
            for j in range(i + 1)
        },
    }


def moving_complements_by_arithmetic(
    cfg: FrameConfig, lines: tuple[Subspace, ...]
) -> tuple[Subspace, ...]:
    """The canonical complement of each moving line in its window, the
    tail G^{b_k} appended."""
    comps = (canonical_complement(l, cfg.window(i)) for i, l in enumerate(lines, start=1))
    return tuple(comps) + (coflag(cfg.n, cfg.p)[cfg.beta[-1]],)


def subspaces_by_span(v: Subspace, j: int) -> tuple[Subspace, ...]:
    """The j-dimensional subspaces of v, sorted: every echelon form in
    v's canonical rows, each spanned and reduced afresh."""
    m, p = v.dim, v.p
    if j < 0 or j > m:
        return ()
    out = []
    for piv in itertools.combinations(range(m), j):
        free = [(r, c) for r in range(j) for c in range(m) if c > piv[r] and c not in piv]
        for vals in itertools.product(range(p), repeat=len(free)):
            coord = [[0] * m for _ in range(j)]
            for r in range(j):
                coord[r][piv[r]] = 1
            for (r, c), val in zip(free, vals):
                coord[r][c] = val
            rows = []
            for r in range(j):
                w = (0,) * v.n
                for c in range(m):
                    if coord[r][c]:
                        w = vec_add(w, vec_scale(coord[r][c], v.basis[c], p), p)
                rows.append(w)
            out.append(span(rows, v.n, p))
    return tuple(sorted(out))


def vectors(s: Subspace) -> Iterator[Vec]:
    """All p^dim member vectors of s (small subspaces only)."""
    zero = (0,) * s.n
    for coeffs in itertools.product(range(s.p), repeat=s.dim):
        v = zero
        for c, row in zip(coeffs, s.basis):
            if c:
                v = vec_add(v, vec_scale(c, row, s.p), s.p)
        yield v


def coords(s: Subspace, v: Vec) -> Vec | None:
    """Coordinates of v in the canonical basis of s, or None if v is outside."""
    if not s.contains_vector(v):
        return None
    return tuple(v[c] % s.p for c in s.pivots)


def canonical_complement_by_coords(inner: Subspace, outer: Subspace) -> Subspace:
    """``exactlin.canonical_complement`` by row reduction: inner's basis
    rewritten in outer's coordinates is reduced, and the complement is
    spanned by outer's canonical rows at the indices that are not its
    pivots."""
    if not contains(outer, inner):
        raise ValueError("inner is not contained in outer")
    in_outer = [coords(outer, v) for v in inner.basis]
    taken = set(rref(in_outer, inner.p)[1]) if in_outer else set()
    rows = [outer.basis[i] for i in range(outer.dim) if i not in taken]
    return span(rows, outer.n, outer.p)


def between_by_complement(lower: Subspace, upper: Subspace, dim: int) -> tuple[Subspace, ...]:
    """``exactlin.enumerate_between`` by the general path at every level,
    the forced ones too: lower plus each subspace of its complement in
    upper, sorted."""
    if dim < lower.dim or dim > upper.dim or not contains(upper, lower):
        return ()
    comp = canonical_complement_by_coords(lower, upper)
    return tuple(sorted(subspace_sum(lower, q) for q in subspaces_by_span(comp, dim - lower.dim)))


def solve_coords(rows: Rows, v: Vec, p: int) -> Vec | None:
    """One solution x of sum_i x_i rows[i] = v, or None if inconsistent.

    Free coefficients are set to 0; for independent rows the solution is
    unique.
    """
    m = len(rows)
    n = len(v)
    aug = [[rows[c][r] % p for c in range(m)] + [v[r] % p] for r in range(n)]
    red, piv = rref(aug, p)
    sol = [0] * m
    for row, c in zip(red, piv):
        if c == m:
            return None  # pivot in the augmented column: inconsistent
        sol[c] = row[m]
    return tuple(sol)


def project(v: Vec, onto: Subspace, along: Subspace) -> Vec:
    """Component of v in ``onto`` for the decomposition onto ⊕ along, by
    solving for v's coordinates in the two bases."""
    if onto.n != along.n or onto.p != along.p:
        raise ValueError("incompatible subspaces")
    if intersect(onto, along).dim:
        raise ValueError("onto and along do not form a direct sum")
    coeffs = solve_coords(onto.basis + along.basis, tuple(v), onto.p)
    if coeffs is None:
        raise ValueError("vector outside onto + along")
    out = (0,) * onto.n
    for c, row in zip(coeffs[: onto.dim], onto.basis):
        if c:
            out = vec_add(out, vec_scale(c, row, onto.p), onto.p)
    return out


def apply(a: LinearMap, v: Vec) -> Vec:
    """A v, through v's coordinates in the domain's canonical basis."""
    c = coords(a.domain, v)
    if c is None:
        raise ValueError("vector outside map domain")
    p = a.domain.p
    out = (0,) * a.domain.n
    for r, row in enumerate(a.matrix):
        coeff = sum(row[j] * c[j] for j in range(len(c))) % p
        if coeff:
            out = vec_add(out, vec_scale(coeff, a.target.basis[r], p), p)
    return out


def linear_map_from_pairs(
    domain: Subspace, target: Subspace, pairs: Sequence[tuple[Vec, Vec]]
) -> LinearMap:
    """Build the map sending x to y for each (x, y) pair.

    The x's must span the domain and the assignment must be linear and
    land in the target; otherwise ValueError.
    """
    p = domain.p
    xs = tuple(x for x, _ in pairs)
    cols: list[Vec] = []
    for b in domain.basis:
        c = solve_coords(xs, b, p)
        if c is None:
            raise ValueError("pair inputs do not span the domain")
        y = (0,) * domain.n
        for coeff, (_, yi) in zip(c, pairs):
            if coeff:
                y = vec_add(y, vec_scale(coeff, yi, p), p)
        tc = coords(target, y)
        if tc is None:
            raise ValueError("image vector outside the target")
        cols.append(tc)
    matrix = tuple(tuple(cols[j][r] for j in range(domain.dim)) for r in range(target.dim))
    m = LinearMap(domain, target, matrix)
    for x, y in pairs:  # reject non-linear assignments
        if apply(m, x) != tuple(yi % p for yi in y):
            raise ValueError("assignment is not linear on the given pairs")
    return m


def reconstruct_map_tuple_by_projection(
    cfg: FrameConfig, t: LinearMap
) -> tuple[LinearMap, ...]:
    """The maps whose matrices ``embres.reconstruct_map_tuple`` reads off,
    found by applying t to each line, projecting the image onto the late
    complements along the early ones and solving for the map that sends
    the line there."""
    out = []
    for i in range(1, cfg.k + 1):
        x = cfg.line(i).basis[0]
        y = apply(t, x)
        late = cfg.complements_suffix(i + 1)
        early = cfg.complements_prefix(i)
        y_late = project(y, late, early) if early.dim else y
        out.append(linear_map_from_pairs(cfg.line(i), late, [(x, y_late)]))
    return tuple(out)


def window_part(s: Subspace, lo: int, hi: int) -> Subspace:
    """Projection of s into the coordinate window lo..hi-1 (0-based) along
    the coordinates outside it: those coordinates set to zero."""
    rows = [(0,) * lo + row[lo:hi] + (0,) * (s.n - hi) for row in s.basis]
    return span(rows, s.n, s.p)


def sum_all(spaces: Iterable[Subspace], n: int, p: int) -> Subspace:
    """The sum of ``spaces``, one ``subspace_sum`` at a time."""
    out = zero_subspace(n, p)
    for s in spaces:
        out = subspace_sum(out, s)
    return out


def coframe_slice(l: Subspace, q: int) -> Subspace:
    """L ∩ G^q, read off the echelon form of L.

    A vector of L starts at the first pivot among the canonical rows it
    uses, so it lies in G^q exactly when it uses only rows with pivot at
    least q (0-based).  Those rows are already a canonical basis.
    """
    j = bisect_left(l.pivots, q)
    return Subspace(l.n, l.p, l.basis[j:], l.pivots[j:])


def frame_slice(l: Subspace, q: int) -> Subspace:
    """L ∩ F_q, read off the echelon form of L with its coordinates
    reversed, as ``recover_lines_from_open`` reads it.

    Read back, the rows of that form end at distinct coordinates, and a
    vector of L ends at the last of the ends of the rows it uses.  So
    the rows that end before coordinate q (0-based) span L ∩ F_q.
    """
    rows, pivots = rref([row[::-1] for row in l.basis], l.p)
    return span([row[::-1] for row, r in zip(rows, pivots) if r >= l.n - q], l.n, l.p)


def recover_lines_by_slices(cfg: FrameConfig, l: Subspace, star: bool) -> tuple[Subspace, ...]:
    """``recover_lines_from_open`` (``recover_lines_from_star`` with
    ``star``) as one echelon slice of L and one row reduction of its
    window part per window."""
    bounds = zip((0,) + cfg.beta, cfg.beta)
    if star:
        return tuple(window_part(coframe_slice(l, lo), lo, hi) for lo, hi in bounds)
    return tuple(window_part(frame_slice(l, hi), lo, hi) for lo, hi in bounds)


def complete_flag_stages(n: int, p: int) -> list[Stage]:
    """Complete flags as tower stages: each space extends the previous one
    by one dimension inside the whole space."""
    frames = standard_frames(n, p)
    return chain_stages(frames[0], (frames[n],) * n)


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
    return span([vec_add(b, apply(a, b), p) for b in a.domain.basis], a.domain.n, p)


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
    cfg: FrameConfig, x: Subspace, y: Subspace, v_target: Subspace, window: int
) -> Subspace:
    """``wflag._pair_step`` with ``project`` along the complement of line
    ``window`` and one ``span`` per candidate row of y."""
    inter = intersect(y, v_target)
    if inter.dim == x.dim:
        return inter
    l_perp = cfg.complement(window)
    proj = span([project(v, v_target, l_perp) for v in x.basis], cfg.n, cfg.p)
    rows = list(proj.basis)
    for row in y.basis:
        if len(rows) == x.dim:
            break
        cand = span(rows + [row], cfg.n, cfg.p)
        if cand.dim > len(rows):
            rows = list(cand.basis)
    return span(rows, cfg.n, cfg.p)


def zero_map(domain: Subspace, target: Subspace) -> LinearMap:
    """The map sending all of ``domain`` to zero in ``target``."""
    return LinearMap(domain, target, tuple((0,) * domain.dim for _ in range(target.dim)))


def meet_by_elimination(l: Subspace, q: int) -> Subspace:
    """l ∩ F_q, F_q = <e_1..e_q>, by ``rref_by_elimination`` alone, so
    that no path of the package's ``rref`` is shared with ``biflag``.

    l's rows are reduced with the coordinates past q moved first; the
    reduced rows that vanish there span the meet, and a second reduction
    gives its canonical basis."""
    n, p = l.n, l.p
    moved, _ = rref_by_elimination([row[q:] + row[:q] for row in l.basis], p)
    rows = [m[n - q :] + (0,) * (n - q) for m in moved if not any(m[: n - q])]
    basis, pivots = rref_by_elimination(rows, p)
    return Subspace(n, p, basis, pivots)


def flag_position(flag: Flag) -> Permutation:
    """The permutation u with dim(l_p ∩ F_q) = rank_matrix(u)[p][q], one
    flag at a time: u(p) is the difference of the jump sums of l_p and
    l_{p-1} (``biflag._jump_sum``, looked up at each call), where
    ``verify_flres`` compares the sums themselves."""
    sums = [0] + [biflag._jump_sum(space) for space in flag]
    return Permutation(tuple(map(operator.sub, sums[1:], sums)))


def flag_rank_profile(flag: Flag) -> tuple[tuple[int, ...], ...]:
    """dim(l_p ∩ F_q) for p, q = 1..n by n^2 meets with the standard
    flag: the slow independent oracle for ``flag_position``."""
    n = len(flag)
    return tuple(
        tuple(meet_by_elimination(flag[pp - 1], q).dim for q in range(1, n + 1))
        for pp in range(1, n + 1)
    )


def reconstruct_grid_by_intersections(flag: Flag) -> tuple[Row, ...]:
    """``biflag.reconstruct_grid`` by n^2 meets l_p ∩ F_q."""
    n = len(flag)
    return tuple(
        tuple(meet_by_elimination(flag[row - 1], col) for col in range(1, n + 1))
        for row in range(1, n + 1)
    )


def copied(pt: tuple[Row, ...]) -> tuple[Row, ...]:
    """``pt`` with every row and every cell a new object of the same value."""
    return tuple(tuple(Subspace(s.n, s.p, s.basis, s.pivots) for s in row) for row in pt)


def cut_into_fans(points: Iterable[tuple[Row, ...]]) -> Iterator[Fan]:
    """``points`` as ``exactlin.walk_fans`` yields a grid's points: each
    run of consecutive points whose rows 2..n are the same objects is one
    fan: those rows, and the row 1 of each point of the run."""
    for _, run in itertools.groupby(points, key=lambda pt: tuple(map(id, pt[1:]))):
        run = list(run)
        yield run[0][1:], tuple(pt[0] for pt in run)


def fan_points(graph: RowGraph, budget: int = DEFAULT_BUDGET) -> Iterator[tuple[Row, ...]]:
    """The points of ``graph``'s grid, ``(row,) + upper`` for each row of
    each fan of ``walk_fans``, sharing the graph's row objects."""
    for upper, fan in walk_fans(graph, budget):
        for row in fan:
            yield (row,) + upper


def row_factor_mismatches(graph: RowGraph, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """The memo keys of ``graph`` after a full ``walk_fans``, and how many
    of them do not hold exactly their row's factor of ``rows_bound`` in
    distinct rows.

    In a grid whose rows have a zero ``extra``, as the pinned grid's do,
    each cell's lower bound, its left neighbour, lies in its upper bound,
    the cell below, so every level of a row offers exactly its Gaussian
    binomial: the number of choices over every row below is that row's
    factor of the bound.  The graph interns its rows, so distinct rows
    are distinct objects.  A key that fails shows ``enumerate_between``
    incomplete, or repeating a choice, over that row.
    """
    for _ in walk_fans(graph, budget):
        pass
    under, rows = graph.under, graph.rows
    bounds = [rows_bound(under, rows[:r]) for r in range(len(rows) + 1)]
    factors = [b // a for a, b in zip(bounds, bounds[1:])]
    held = [(f, choices) for memo, f in zip(graph.memos, factors) for choices in memo.values()]
    return len(held), sum(not len(c) == len(set(map(id, c))) == f for f, c in held)


def grid_is_valid(pt: tuple[Row, ...], w: Permutation) -> bool:
    """Dimensions follow the rank matrix and all inclusions hold."""
    d = rank_matrix(w)
    n = len(pt)
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            s = cell(pt, row, col)
            if s.dim != d[row][col]:
                return False
            if col < n and not contains(cell(pt, row, col + 1), s):
                return False
            if row < n and not contains(cell(pt, row + 1, col), s):
                return False
    return True


def cell(pt: tuple[Row, ...], row: int, col: int) -> Subspace:
    """The cell of ``pt`` in row ``row``, column ``col``, both 1-based;
    row or column 0 is the zero subspace."""
    if row == 0 or col == 0:
        return zero_subspace(len(pt), pt[0][0].p)
    return pt[row - 1][col - 1]


def grid_to_bs(pt: tuple[Row, ...], w: Permutation) -> BSPoint:
    """The tower coordinates of a pinned grid point, read cell by cell:
    stage s takes the entries of grid row n-s at the still-active
    columns larger than w(n-s+1), then retires that value's column."""
    cols = list(range(1, len(pt) + 1))
    out: list[Subspace] = []
    for row in range(len(pt) - 1, 0, -1):
        v = w(row + 1)
        out += [cell(pt, row, q) for q in cols if q > v]
        cols.remove(v)
    return tuple(out)


def bs_projection(point: BSPoint, word: ReducedWord, p: int) -> Flag:
    """Flag component i is the subspace at the last occurrence of s_i,
    falling back to the fixed F_i for letters that never occur."""
    frames = standard_frames(word.n, p)
    occ = word.last_occurrences
    flag = [frames[i] if j is None else point[j - 1] for i, j in enumerate(occ, start=1)]
    return tuple(flag) + (frames[word.n],)


def incidence_by_scan(
    word: ReducedWord,
) -> tuple[tuple[int | None, ...], tuple[int | None, ...], tuple[int | None, ...]]:
    """``ReducedWord``'s ``left``, ``right`` and ``last_occurrences``, each
    index found by its own backward scan of the letters: for letter j =
    s_d, the latest index before j carrying s_{d-1}, and s_{d+1}; for
    s_i, the latest index of all carrying it; None when there is none."""
    letters = word.letters

    def latest(before: int, d: int) -> int | None:
        return next((i for i in range(before - 1, 0, -1) if letters[i - 1] == d), None)

    left = tuple(latest(j, d - 1) for j, d in enumerate(letters, start=1))
    right = tuple(latest(j, d + 1) for j, d in enumerate(letters, start=1))
    last = tuple(latest(len(letters) + 1, i) for i in range(1, word.n))
    return left, right, last


def bs_point_is_valid(point: BSPoint, word: ReducedWord, p: int) -> bool:
    """All incidence relations of the word hold for the point."""
    frames = standard_frames(word.n, p)
    left, right, _ = incidence_by_scan(word)
    letters = word.letters
    if len(point) != len(letters):
        return False
    for j, d in enumerate(letters, start=1):
        s = point[j - 1]
        li, ri = left[j - 1], right[j - 1]
        lower = point[li - 1] if li is not None else frames[d - 1]
        upper = point[ri - 1] if ri is not None else frames[d + 1]
        if s.dim != d or not contains(s, lower) or not contains(upper, s):
            return False
    return True


def cumulative_block_formula(w: Permutation) -> tuple[int, ...]:
    """The closed-form candidate for p(i): the total number of
    transpositions needed to move w(n), ..., w(i+1) into place, i.e. the
    letter count of blocks t_1..t_{n-i}.  Moving w(j) into position j
    costs one transposition per earlier value exceeding it.  Agrees with
    the last occurrence of s_i exactly when block t_{n-i} is nonempty."""
    n = w.n
    out = []
    for i in range(1, n):
        total = sum(
            sum(1 for k in range(1, j) if w(k) > w(j)) for j in range(i + 1, n + 1)
        )
        out.append(total)
    return tuple(out)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order via entrywise rank-matrix comparison: u <= w iff
    d^u(p,q) >= d^w(p,q) everywhere (the identity is the minimum)."""
    if u.n != w.n:
        raise ValueError("permutations of different sizes")
    du, dw = rank_matrix(u), rank_matrix(w)
    return all(
        du[p][q] >= dw[p][q] for p in range(1, u.n + 1) for q in range(1, u.n + 1)
    )


def bruhat_interval_oracle(w: Permutation) -> frozenset[Permutation]:
    """Subword oracle for the lower Bruhat interval: the set of products
    of all subwords of one fixed reduced word of w."""
    letters = bubblesort_word(w).letters
    out = set()
    for size in range(len(letters) + 1):
        for subset in itertools.combinations(letters, size):
            out.add(word_product(subset, w.n))
    return frozenset(out)


def compress_maps(cfg: FrameConfig, maps: tuple[LinearMap, ...]) -> tuple[LinearMap, ...]:
    """Assemble the prefix maps B_i on the sums of the first i lines.

    B_i restricted to line j is A_j with the components in the
    complements of windows j+1..i dropped, so that the graph of B_i
    spans the same space as the graphs of A_1..A_j modulo those
    complements.
    """
    k = cfg.k
    out = []
    for i in range(1, k + 1):
        domain = cfg.lines_prefix(i)
        target = cfg.complements_suffix(i + 1)
        pairs = []
        for j in range(1, i + 1):
            x = cfg.line(j).basis[0]
            y = apply(maps[j - 1], x)
            if j < i:
                drop = span(
                    [v for t in range(j + 1, i + 1) for v in cfg.complement(t).basis],
                    cfg.n,
                    cfg.p,
                )
                y = project(y, target, drop) if drop.dim else y
            pairs.append((x, y))
        out.append(linear_map_from_pairs(domain, target, pairs))
    return tuple(out)


def gcal_membership(cfg: FrameConfig, pt: GCalPoint) -> bool:
    """The incidences that define the chain variety."""
    k = cfg.k
    if len(pt) != k:
        return False
    for i in range(1, k + 1):
        if pt[i - 1].dim != i or not contains(cfg.nested(i, i), pt[i - 1]):
            return False
    for i in range(1, k):
        upper = subspace_sum(pt[i], cfg.complement(i + 1))
        if not contains(upper, pt[i - 1]):
            return False
    return True


def graph_tuple(cfg: FrameConfig, maps: tuple[LinearMap, ...]) -> GCalPoint:
    """Diagonal of compressed graphs; always a chain-variety point (asserted)."""
    pt = tuple(graph(b) for b in compress_maps(cfg, maps))
    assert gcal_membership(cfg, pt)
    return pt


def closed_form_fiber(cfg: FrameConfig, pt: GCalPoint) -> GHatPoint:
    """Over the open locus the fiber is forced: cell (j, i) is the
    diagonal cell i intersected with the nested space (j, i)."""
    k = cfg.k
    return tuple(
        tuple(intersect(pt[i - 1], cfg.nested(j, i)) for j in range(1, i + 1))
        for i in range(1, k + 1)
    )


def verify_chain_resolution_by_points(
    cfg: FrameConfig, budget: int = DEFAULT_BUDGET
) -> EnumReport:
    """``wflag.verify_chain_resolution`` by a walk of the flat grid tower
    (``enumerate_ghat_flat``), point by point: each fiber a list of grid
    points keyed by the diagonal's subspaces, the open locus read by
    ``in_u``, the closed form by ``closed_form_fiber`` and each chain
    point's lift by ``build_lift``, all on subspaces."""
    with EnumReport("wflag verify", frame_config(cfg, budget)) as report:
        gcal = list(enumerate_gcal(cfg, budget))
        gcal_set = set(gcal)
        fibers: dict[GCalPoint, list[GHatPoint]] = {}
        lands_ok = True
        for ghat_pt in enumerate_ghat_flat(cfg, budget):
            diag = pi_diag(ghat_pt)
            fiber = fibers.get(diag)
            if fiber is None:
                fiber = fibers[diag] = []
                lands_ok = lands_ok and diag in gcal_set
            fiber.append(ghat_pt)
        report.counts["chain_points"] = len(gcal)
        report.counts["grid_points"] = sum(len(v) for v in fibers.values())
        report.counts["grid_formula"] = ghat_count_formula(cfg)
        report.add("projection_lands_in_chain_variety", lands_ok)
        report.add("projection_onto", set(fibers) == gcal_set)
        report.add(
            "grid_count_matches_row_product",
            report.counts["grid_points"] == report.counts["grid_formula"],
        )

        open_pts = [pt for pt in gcal if in_u(cfg, pt)]
        report.counts["open_locus_points"] = len(open_pts)
        report.counts["open_locus_formula"] = u_count_formula(cfg.n, cfg.p, cfg.beta)
        report.add(
            "open_locus_count_matches_formula",
            len(open_pts) == report.counts["open_locus_formula"],
        )
        singleton_ok = True
        closed_ok = True
        for pt in open_pts:
            fiber = fibers.get(pt, [])
            if len(fiber) != 1:
                singleton_ok = False
            elif fiber[0] != closed_form_fiber(cfg, pt):
                closed_ok = False
        report.add("open_fibers_are_singletons", singleton_ok)
        report.add("open_fibers_match_closed_form", closed_ok)

        section_ok = True
        lift_in_fiber = True
        steps: dict = {}
        for pt in gcal:
            grid = build_lift(cfg, pt, steps)
            section_ok = section_ok and pi_diag(grid) == pt
            lift_in_fiber = lift_in_fiber and grid in fibers.get(pt, [])
        report.add("lift_is_a_section", section_ok)
        report.add("lift_lands_in_enumerated_grid", lift_in_fiber)

        multi = {pt: len(f) for pt, f in fibers.items() if len(f) > 1}
        report.counts["multi_point_fibers"] = len(multi)
        freedom = any(
            cfg.complement(i + 1).dim and cfg.complements_suffix(i + 2).dim
            for i in range(1, cfg.k)
        )
        if freedom:
            report.add(
                "off_locus_multi_fiber_exists",
                bool(multi),
                witnesses=[subspace_witness(s) for s in next(iter(multi), ())],
            )
        else:
            report.add(
                "off_locus_multi_fiber_exists",
                not multi,
                "no branching pair; projection bijective",
            )
    return report


def kl_count_formula(dims: tuple[int, ...], p: int) -> int:
    """Tower point count from the flag dimensions alone."""
    total = 1
    for i, d in enumerate(dims, start=1):
        total *= gaussian_binomial(d - (i - 1), 1, p)
    return total


KLChain = tuple[Subspace, ...]


def kl_points(
    flag: tuple[Subspace, ...], p: int, budget: int = DEFAULT_BUDGET
) -> Iterator[KLChain]:
    """Chains L_1 ⊂ ... ⊂ L_k with L_i inside the i-th flag space,
    dim L_i = i, as one ``tower``: the resolution tower of the flag's
    Schubert variety, whose tops ``embres.chain_tops`` builds a level at
    a time."""
    yield from tower(chain_stages(zero_subspace(flag[0].n, p), flag), p, budget)


def flag_of_grid(cfg: FrameConfig, pt: GHatPoint) -> tuple[Subspace, ...]:
    """The partial flag of a grid point: ``psi_tilde`` of its diagonal."""
    return psi_tilde(cfg, pi_diag(pt))


def forced_chain_by_intersections(cfg: FrameConfig, gt: Subspace, flag: Flag) -> bool:
    """``embres.verify_report``'s forced-chain verdict for one chart
    graph and a flag whose tower it tops, by intersections: the meets
    gt ∩ flag[i] form a chain that ends in gt, with dimension i+1 at
    level i."""
    chain = tuple(intersect(gt, flag[i]) for i in range(cfg.k))
    return (
        chain[-1] == gt
        and all(chain[i].dim == i + 1 for i in range(cfg.k))
        and all(contains(chain[i + 1], chain[i]) for i in range(cfg.k - 1))
    )


def psi_embed(cfg: FrameConfig, maps: tuple[LinearMap, ...]) -> tuple[Subspace, ...]:
    """Flag of the map tuple: i-th space is the sum of the first i graphs
    and the first i complements, summed one graph and one complement at
    a time.  ``embres.verify_report`` reads the same flag off
    ``psi_tilde`` of the accumulated graphs instead; a dimension other
    than b_i raises InvariantError."""
    out = []
    acc = zero_subspace(cfg.n, cfg.p)
    for i in range(1, cfg.k + 1):
        acc = subspace_sum(acc, subspace_sum(graph(maps[i - 1]), cfg.complement(i)))
        if acc.dim != cfg.beta[i - 1]:
            raise InvariantError(f"psi_embed space {i} has dimension {acc.dim}, not b_{i}")
        out.append(acc)
    return tuple(out)


def chart_hits(
    graphs: Iterable[Subspace], flags: Sequence[Flag], p: int, budget: int = DEFAULT_BUDGET
) -> tuple[dict[Subspace, dict[int, int]], list[int]]:
    """One walk of each flag's own chain tower.

    Returns, for each chart graph, the flags whose tower it tops (those
    it meets in a chain, dim(L ∩ flag[i]) >= i+1 for all i) in flag
    order, each with the number of its chains that top the graph; and
    each flag's number of chains."""
    hits: dict[Subspace, dict[int, int]] = {gt: {} for gt in graphs}
    chains = []
    for idx, flag in enumerate(flags):
        count = 0
        for chain in kl_points(flag, p, budget):
            count += 1
            per_flag = hits.get(chain[-1])
            if per_flag is not None:
                per_flag[idx] = per_flag.get(idx, 0) + 1
        chains.append(count)
    return hits, chains


def chart_graphs(cfg: FrameConfig) -> list[Subspace]:
    """The graph of each chart map, in ``chart_maps`` order."""
    return [graph(t) for t in chart_maps(cfg)]


def verify_chart_family_by_flags(
    cfg: FrameConfig, graphs: Sequence[Subspace], budget: int = DEFAULT_BUDGET
) -> EnumReport:
    """``embres.verify_report``'s chart checks, unprefixed, with each
    family flag's chain tower walked on its own (``chart_hits``) instead
    of at the grid point that carries the flag.  ``graphs`` is
    ``chart_graphs(cfg)``."""
    with EnumReport("embres chart", frame_config(cfg, budget)) as report:
        p = cfg.p
        tuples = list(fixed_map_tuples(cfg))
        flags = [psi_embed(cfg, maps) for maps in tuples]
        hits, chains = chart_hits(graphs, flags, p, budget)
        chart_ok = True
        unique_ok = True
        recon_ok = True
        chain_ok = all(
            count == tower_bound(chain_stages(zero_subspace(cfg.n, p), flag), p)
            for count, flag in zip(chains, flags)
        )
        for t, gt in zip(chart_maps(cfg), graphs, strict=True):
            chart_ok = chart_ok and in_chart(cfg, gt)
            if len(hits[gt]) != 1:
                unique_ok = False
                continue
            ((idx, count),) = hits[gt].items()
            if reconstruct_map_tuple(cfg, t) != tuple(m.matrix for m in tuples[idx]):
                recon_ok = False
            chain_ok = chain_ok and count == 1
        report.counts["chart_points"] = len(graphs)
        report.counts["family_flags"] = len(flags)
        report.add("graphs_lie_in_chart", chart_ok)
        report.add("unique_flag_per_chart_point", unique_ok)
        report.add("map_tuple_reconstructed", recon_ok)
        report.add("forced_chain_is_valid", chain_ok)
        report.add("flags_distinct", len(set(flags)) == len(flags))
    return report


def enumerate_embres(
    cfg: FrameConfig, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[GHatPoint, KLChain]]:
    """All pairs (grid point, chain over its flag)."""
    for pt in enumerate_ghat_flat(cfg, budget):
        flag = flag_of_grid(cfg, pt)
        for chain in kl_points(flag, cfg.p, budget):
            yield pt, chain


def embres_verify_by_points(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """``embres.verify_report`` by a walk of the flat grid tower
    (``enumerate_ghat_flat``), point by point: each point's flag read by
    ``flag_of_grid``, its chains walked by ``kl_points``, and every flag,
    chain top and grid point keyed by its subspaces."""
    with EnumReport("embres verify", frame_config(cfg, budget)) as report:
        p, k = cfg.p, cfg.k
        check_grassmannian(cfg, budget)
        check_budget(rows_bound(*ghat_rows(cfg)), budget)
        standard = tuple(cfg.frames[b] for b in cfg.beta)
        chain_bound = tower_bound(chain_stages(zero_subspace(cfg.n, p), standard), p)
        check_budget(chain_bound, budget)
        cell: set[Subspace] = set()
        closed: set[Subspace] = set()
        in_cell = _cell_test(cfg)
        for a, l in closed_locus(cfg, budget):
            closed.add(l)
            if in_cell(l, a):
                cell.add(l)
        grass_points = gaussian_binomial(cfg.n, k, p)

        graphs = chart_graphs(cfg)
        tuples = list(fixed_map_tuples(cfg))
        # space i of a tuple's flag sums its first i graphs and complements
        flags = [psi_tilde(cfg, tuple(accumulate(map(graph, m), subspace_sum))) for m in tuples]
        family = {flag: idx for idx, flag in enumerate(flags)}
        # per family flag, its number of chains; per chart graph, None, or
        # the one family flag whose chains top it and how many do
        chains = [0] * len(flags)
        hits: dict[Subspace, tuple[int, int] | None] = dict.fromkeys(graphs)

        o = special_point(cfg)
        special_ok = ghat_membership(cfg, o) and flag_of_grid(cfg, o) == standard

        # per chain top, its one grid point, or None once a second pair tops it
        first: dict[Subspace, GHatPoint | None] = {}
        over_o: set[Subspace] = set()
        fiber_sizes = set()
        grid_points = 0
        total_pairs = 0
        incidence_ok = True
        cell_ok = True
        for pt in enumerate_ghat_flat(cfg, budget):
            grid_points += 1
            flag = flag_of_grid(cfg, pt)
            idx = family.get(flag)
            if idx is not None and chains[idx]:
                idx = None
            at_o = pt == o
            per_grid = 0
            # ``tower`` shares each chain's prefix with the chain before,
            # so a level whose subspace is the same object is checked already
            prev = (None,) * k
            for chain in kl_points(flag, p, budget):
                per_grid += 1
                top = chain[-1]
                first[top] = None if top in first else pt
                if at_o:
                    over_o.add(top)
                elif top in cell:
                    cell_ok = False
                incidence_ok = incidence_ok and all(
                    s is q or contains(f, s) for f, s, q in zip(flag, chain, prev)
                )
                prev = chain
                if idx is not None and top in hits:
                    entry = hits[top] or (idx, 0)
                    hits[top] = (idx, entry[1] + 1) if entry[0] == idx else _TOPPED_TWICE
            if idx is not None:
                chains[idx] = per_grid
            fiber_sizes.add(per_grid)
            total_pairs += per_grid

        unique_ok = True
        recon_ok = True
        forced_ok = all(count == chain_bound for count in chains)
        for t, gt in zip(chart_maps(cfg), graphs, strict=True):
            entry = hits[gt]
            if entry is None or entry is _TOPPED_TWICE:
                unique_ok = False
                continue
            idx, count = entry
            if reconstruct_map_tuple(cfg, t) != tuple(m.matrix for m in tuples[idx]):
                recon_ok = False
            forced_ok = forced_ok and count == 1
        report.counts["chart_points"] = len(graphs)
        report.counts["family_flags"] = len(flags)
        report.add("chart.graphs_lie_in_chart", all(in_chart(cfg, gt) for gt in graphs))
        report.add("chart.unique_flag_per_chart_point", unique_ok)
        report.add("chart.map_tuple_reconstructed", recon_ok)
        report.add("chart.forced_chain_is_valid", forced_ok)
        report.add("chart.flags_distinct", len(family) == len(flags))

        report.add("resolution.special_point_flag_is_standard", special_ok)
        report.counts["grid_points"] = grid_points
        report.counts["pairs"] = total_pairs
        report.add("resolution.chain_count_flag_independent", len(fiber_sizes) == 1)
        report.add(
            "resolution.pair_count_is_product",
            total_pairs == grid_points * next(iter(fiber_sizes)),
        )
        report.add("resolution.pairs_satisfy_incidence", incidence_ok)
        report.counts["grassmannian_points"] = grass_points
        # every chain top is a point of Gr_k, so equal sizes mean all are hit
        report.add(
            "resolution.hits_whole_grassmannian",
            len(first) == grass_points,
            "surjectivity observed at this field size",
            informational=True,
        )

        chart_fail: list = []
        diag_graph_ok = True
        late = [cfg.complements_suffix(i + 1) for i in range(1, k + 1)]
        for gt in graphs:
            pt = first.get(gt)
            if pt is None:
                chart_fail.append(subspace_witness(gt))
                continue
            # the unique preimage has graph-shaped diagonal cells: each
            # meets the late complements trivially
            diag = pi_diag(pt)
            if any(intersect(diag[i], late[i]).dim for i in range(k)):
                diag_graph_ok = False
        report.add(
            "resolution.chart_points_have_unique_preimage",
            not chart_fail,
            witnesses=chart_fail[:3],
        )
        report.add("resolution.chart_preimage_diagonals_are_graphs", diag_graph_ok)

        report.counts["cell_points"] = len(cell)
        report.add("resolution.cell_preimage_over_special_point", cell_ok)
        report.add("resolution.cell_inside_chart", all(in_chart(cfg, l) for l in cell))

        standard_tower_tops = {chain[-1] for chain in kl_points(standard, p, budget)}
        report.add("resolution.special_fiber_is_standard_tower", over_o == standard_tower_tops)
        report.counts["closed_locus_points"] = len(closed)
        report.add(
            "resolution.special_fiber_covers_closed_locus",
            over_o == closed,
            "chain-tower surjectivity observed at this field size",
            informational=True,
        )
    return report


def cell_points(cfg: FrameConfig) -> Iterator[Subspace]:
    """The points of Gr_k that pass ``embres._cell_test``, each read at its
    ``schubert_position``: the cell whose preimages lie over the special
    grid point."""
    in_cell = _cell_test(cfg)
    for l in enumerate_subspaces(full_space(cfg.n, cfg.p), cfg.k):
        if in_cell(l, schubert_position(l)[0]):
            yield l


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


def enumerate_grid_flat(
    w: Permutation, p: int, pinned_last_row: bool, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[Row, ...]]:
    """The points of the pinned grid of w (of the full grid unpinned),
    ``biflag.grid_rows``, as one ``tower`` over every cell, each point's
    rows sliced out of its tuple of choices."""
    n = w.n
    frames = standard_frames(n, p)
    pinned = (frames[1:],) if pinned_last_row else ()
    for c in tower(grid_stages(w, p, pinned_last_row), p, budget):
        rows = tuple(c[i : i + n] for i in range(len(c) - n, -1, -n))
        yield rows + pinned


def enumerate_ghat_flat(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> Iterator[GHatPoint]:
    """The points of the W-flag grid, ``wflag.ghat_rows``, as one
    ``tower`` over every cell, rows k..1 each left to right, each point's
    rows sliced out of its tuple of choices."""
    k = cfg.k
    zero = zero_subspace(cfg.n, cfg.p)

    def cell(i: int, j: int) -> Stage:
        # rows are chosen from k down to 1, so the cell below is i+1 choices back
        def spaces(c: tuple[Subspace, ...]) -> tuple[Subspace, Subspace]:
            lower = c[-1] if j > 1 else zero
            if i == k:
                return lower, cfg.nested(j, k)
            return lower, subspace_sum(c[-i - 1], cfg.complement(i + 1))

        gap = cfg.window(i + 1).dim - 1 if i < k else cfg.n - cfg.beta[-1]
        return Stage(spaces, j - 1, j + gap, j)

    stages = [cell(i, j) for i in range(k, 0, -1) for j in range(1, i + 1)]
    # row i holds the i choices that follow rows k..i+1
    end = len(stages)
    rows = [slice(end - i * (i + 1) // 2, end - i * (i - 1) // 2) for i in range(1, k + 1)]
    for c in tower(stages, cfg.p, budget):
        yield tuple(c[row] for row in rows)


def bbs_iso_by_sets(w: Permutation, p: int, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """``bottsamelson.bbs_iso`` with both towers held: the image of the
    grid tower as a set against the Bott-Samelson tower as a set."""
    with EnumReport("bs iso", perm_config(w, p, budget)) as report:
        word = bubblesort_word(w)
        grid_points = list(enumerate_grid_flat(w, p, True, budget))
        bs_points = set(enumerate_bs(word, p, budget))
        expected = (p + 1) ** length(w)
        report.counts["grid_points"] = len(grid_points)
        report.counts["tower_points"] = len(bs_points)
        report.add(
            "counts_match_(p+1)^l",
            len(grid_points) == expected == len(bs_points),
            f"{len(grid_points)}, {len(bs_points)} vs {expected}",
        )
        mapped = [grid_to_bs(pt, w) for pt in grid_points]
        image = set(mapped)
        report.add("map_is_injective", len(image) == len(grid_points))
        report.add("map_image_is_tower", image == bs_points)
        commutes = all(
            project_to_flag(pt) == bs_projection(img, word, p)
            for pt, img in zip(grid_points, mapped)
        )
        report.add("map_commutes_with_projections", commutes)
        m = w.n - w(w.n)
        if m > 0:
            first_blocks = {img[:m] for img in mapped}
            oracle = first_block_chains(w, p, budget)
            report.add(
                "first_block_image_is_chain_tower",
                first_blocks == oracle,
                f"{len(first_blocks)} chains vs oracle {len(oracle)}",
            )
        else:
            report.add("first_block_image_is_chain_tower", True, "empty first block")
    return report


def bbs_iso_by_lockstep(w: Permutation, p: int, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """``bottsamelson.bbs_iso`` by walking both towers point by point, in
    lockstep: the fans of the grid's row graph (``biflag.shat_graph``),
    read at ``bs_cells``, against ``enumerate_bs``, neither tower kept.
    The map is injective when its images increase strictly and onto the
    tower when every pair agrees and both walks end together.  The image
    and flag entries of rows 2..n are refreshed once per fan, at the rows
    whose objects differ from the last fan's, those of row 1 at every
    point, and each flag space is compared when a row it reads is
    refreshed."""
    with EnumReport("bs iso", perm_config(w, p, budget)) as report:
        n = w.n
        word = bubblesort_word(w)
        cells = bs_cells(w)
        frames = standard_frames(n, p)
        # flag space i is at the last s_i, or the fixed F_i without one
        space_at = {
            j - 1: i - 1 for i, j in enumerate(word.last_occurrences, start=1) if j is not None
        }
        # each grid row's (image position, column) and (flag index, column) pairs
        reads = [
            (
                [(j, c) for j, (r2, c) in enumerate(cells) if r2 == r],
                [(space_at[j], c) for j, (r2, c) in enumerate(cells) if r2 == r and j in space_at],
            )
            for r in range(n)
        ]
        fan_read, fan_spaces = reads[0]
        # l_{i+1} is compared with flag space i: l_1 at every point, and each
        # other space once its row or the row that writes it is refreshed
        # and the fan's rows are all written; row 1 can write only space 0,
        # as its cells have dimension at most 1
        writer = {i: r for r, (_, spaces) in enumerate(reads) for i, _ in spaces}
        at_rows = [[i for i in range(1, n) if r in (i, writer.get(i))] for r in range(n)]
        m = n - w(n)
        # grid row n-1 holds the first block: with n = 2 it is row 1, which
        # changes at every point
        first_in_fan = m and n == 2
        grid_count = tower_count = 0
        injective = image_is_tower = commutes = True
        prev: BSPoint | None = None
        first_blocks: set[BSPoint] = set()
        img: list[Subspace | None] = [None] * len(cells)
        flag = list(frames[1:])
        rows: list[Row | None] = [None] * n
        points = enumerate_bs(word, p, budget)
        for upper, fan in walk_fans(biflag.shat_graph(w, p), budget):
            refreshed = []
            for r, row in enumerate(upper, start=1):
                if row is not rows[r]:
                    rows[r] = row
                    refreshed.append(r)
                    read, spaces = reads[r]
                    for j, c in read:
                        img[j] = row[c]
                    for i, c in spaces:
                        flag[i] = row[c]
            for r in refreshed:
                for i in at_rows[r]:
                    commutes = commutes and rows[i][-1] == flag[i]
            if m and n - 2 in refreshed:
                first_blocks.add(tuple(img[:m]))
            for row in fan:
                grid_count += 1
                for j, c in fan_read:
                    img[j] = row[c]
                for i, c in fan_spaces:
                    flag[i] = row[c]
                now = tuple(img)
                b = next(points, None)
                tower_count += b is not None
                image_is_tower = image_is_tower and now == b
                injective = injective and (prev is None or prev < now)
                prev = now
                commutes = commutes and row[-1] == flag[0]
                if first_in_fan:
                    first_blocks.add(now[:m])
        rest = sum(1 for _ in points)
        tower_count += rest
        image_is_tower = image_is_tower and not rest
        expected = (p + 1) ** length(w)
        report.counts["grid_points"] = grid_count
        report.counts["tower_points"] = tower_count
        report.add(
            "counts_match_(p+1)^l",
            grid_count == expected == tower_count,
            f"{grid_count}, {tower_count} vs {expected}",
        )
        report.add("map_is_injective", injective)
        report.add("map_image_is_tower", image_is_tower)
        report.add("map_commutes_with_projections", commutes)
        if m > 0:
            oracle = first_block_chains(w, p, budget)
            report.add(
                "first_block_image_is_chain_tower",
                first_blocks == oracle,
                f"{len(first_blocks)} chains vs oracle {len(oracle)}",
            )
        else:
            report.add("first_block_image_is_chain_tower", True, "empty first block")
    return report


def verify_flres_by_lists(w: Permutation, p: int, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """``biflag.verify_flres`` with the grid tower held as a list, every
    image flag's fiber as a list of its points, and the closed variety
    and the cell of w read off the walk over every complete flag, where
    the package counts them by cell sizes."""
    with EnumReport("biflag verify", perm_config(w, p, budget)) as report:
        points = list(enumerate_grid_flat(w, p, True, budget))
        expected = (p + 1) ** length(w)
        report.counts["tower_points"] = len(points)
        report.counts["expected_tower_points"] = expected
        report.add(
            "tower_count_is_(p+1)^l", len(points) == expected, f"{len(points)} vs {expected}"
        )
        by_flag: dict[Flag, list[tuple[Row, ...]]] = {}
        for pt in points:
            by_flag.setdefault(project_to_flag(pt), []).append(pt)
        below = {u for u in all_permutations(w.n) if bruhat_leq(u, w)}
        outside = [flag for flag in by_flag if flag_position(flag) not in below]
        witness = [subspace_witness(s) for s in outside[0]] if outside else []
        report.add("image_in_closed_variety", not outside, witnesses=witness)
        # the closed locus and the cell of w from the walk over every flag
        position = {flag: flag_position(flag) for flag in enumerate_complete_flags(w.n, p)}
        closed = {flag for flag, u in position.items() if u in below}
        cell = [flag for flag, u in position.items() if u == w and flag in by_flag]
        cell_points = len(cell)
        bijective = all(len(by_flag[flag]) == 1 for flag in cell)
        recon_ok = all(
            by_flag[flag][0] == reconstruct_grid_by_intersections(flag)
            for flag in cell
            if len(by_flag[flag]) == 1
        )
        report.counts["cell_points"] = cell_points
        report.counts["expected_cell_points"] = p ** length(w)
        report.add(
            "cell_count_is_p^l",
            cell_points == p ** length(w),
            f"{cell_points} vs {p ** length(w)}",
        )
        report.add("cell_fibers_are_singletons", bijective)
        report.add("cell_fiber_is_intersection_grid", recon_ok)
        report.counts["closed_points"] = len(closed)
        report.add(
            "image_equals_closed_variety",
            by_flag.keys() == closed,
            "point surjectivity observed at this field size",
            informational=True,
        )
    return report


def verify_embedded_resolution_by_census(
    cfg: FrameConfig, graphs: Sequence[Subspace], budget: int = DEFAULT_BUDGET
) -> EnumReport:
    """``embres.verify_report``'s resolution checks, unprefixed, with a
    census: every (grid point, chain) pair is kept in a list under its
    chain's top, and each check reads the lists back.  ``graphs`` is
    ``chart_graphs(cfg)``."""
    with EnumReport("embres verify", frame_config(cfg, budget)) as report:
        o = special_point(cfg)
        standard = tuple(cfg.frames[b] for b in cfg.beta)
        report.add(
            "special_point_flag_is_standard",
            ghat_membership(cfg, o) and flag_of_grid(cfg, o) == standard,
        )

        census: dict[Subspace, list[tuple[GHatPoint, KLChain]]] = {}
        fiber_sizes = set()
        grid_points = 0
        incidence_ok = True
        for pt in enumerate_ghat_flat(cfg, budget):
            grid_points += 1
            flag = flag_of_grid(cfg, pt)
            per_grid = 0
            for chain in kl_points(flag, cfg.p, budget):
                per_grid += 1
                census.setdefault(chain[-1], []).append((pt, chain))
                incidence_ok = incidence_ok and all(
                    contains(flag[i], chain[i]) for i in range(cfg.k)
                )
            fiber_sizes.add(per_grid)
        total_pairs = sum(len(v) for v in census.values())
        report.counts["grid_points"] = grid_points
        report.counts["pairs"] = total_pairs
        report.add("chain_count_flag_independent", len(fiber_sizes) == 1)
        report.add(
            "pair_count_is_product",
            total_pairs == grid_points * next(iter(fiber_sizes)),
        )
        report.add("pairs_satisfy_incidence", incidence_ok)

        # one pass over the Grassmannian gives its size and both loci
        check_grassmannian(cfg, budget)
        grass_points = 0
        covered = True
        cell: list[Subspace] = []
        closed: set[Subspace] = set()
        in_cell = _cell_test(cfg)
        for l in enumerate_subspaces(full_space(cfg.n, cfg.p), cfg.k):
            a = schubert_position(l)[0]
            grass_points += 1
            covered = covered and l in census
            if in_cell(l, a):
                cell.append(l)
            if LOCI["closed"](cfg.beta, a):
                closed.add(l)
        report.counts["grassmannian_points"] = grass_points
        report.add(
            "hits_whole_grassmannian",
            covered and len(census) == grass_points,
            "surjectivity observed at this field size",
            informational=True,
        )

        chart_fail: list = []
        diag_graph_ok = True
        late = [cfg.complements_suffix(i + 1) for i in range(1, cfg.k + 1)]
        for gt in graphs:
            hits = census.get(gt, [])
            if len(hits) != 1:
                chart_fail.append(subspace_witness(gt))
                continue
            # the unique preimage has graph-shaped diagonal cells: each
            # meets the late complements trivially
            diag = pi_diag(hits[0][0])
            if any(intersect(diag[i], late[i]).dim for i in range(cfg.k)):
                diag_graph_ok = False
        report.add("chart_points_have_unique_preimage", not chart_fail, witnesses=chart_fail[:3])
        report.add("chart_preimage_diagonals_are_graphs", diag_graph_ok)

        report.counts["cell_points"] = len(cell)
        over_o_only = all(
            pt == o for l in cell for (pt, _) in census.get(l, [])
        )
        report.add("cell_preimage_over_special_point", over_o_only)
        cell_in_chart = all(in_chart(cfg, l) for l in cell)
        report.add("cell_inside_chart", cell_in_chart)

        over_o = {chain[-1] for (pt, chain) in itertools.chain(*census.values()) if pt == o}
        standard_tower_tops = {chain[-1] for chain in kl_points(standard, cfg.p, budget)}
        report.add("special_fiber_is_standard_tower", over_o == standard_tower_tops)
        report.counts["closed_locus_points"] = len(closed)
        report.add(
            "special_fiber_covers_closed_locus",
            over_o == closed,
            "chain-tower surjectivity observed at this field size",
            informational=True,
        )
    return report


def graph_sum_rows(
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
    map's matrix (``graph_sum_rows``), and the rows are reduced.
    """
    if len(lines) != cfg.k or len(maps) != cfg.k - 1:
        raise ValueError("need k moving lines and k-1 maps")
    return span(graph_sum_rows(lines, targets, maps), cfg.n, cfg.p)


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
    graph is one row, read off the map's matrix (``graph_sum_rows``).  Map i
    leaves out every later line's pivot, so the rows are the canonical
    basis: row i has a 1 at line i's pivot, in window i, and zeros before
    it and at the other pivots, or InvariantError is raised.
    """
    k = cfg.k
    if len(lines) != k or len(maps) != k:
        raise ValueError("need k moving lines and k maps")
    rows = graph_sum_rows(lines, targets, maps)
    pivots = tuple(line.pivots[0] for line in lines)
    for i, (row, q) in enumerate(zip(rows, pivots), start=1):
        lo, hi = cfg.window_bounds(i)
        # zeros before q cover the earlier pivots
        if not lo <= q < hi or row[q] != 1 or any(row[:q]) or any(row[r] for r in pivots[i:]):
            raise InvariantError(f"phi_star graph row {i} is not canonical at pivot {q}")
    return Subspace(cfg.n, cfg.p, tuple(rows), pivots)


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


def verify_phi_by_sets(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """``grassfib.verify_phi`` with a set of output subspaces, one
    ``phi`` and one ``recover_lines_from_open`` per input, and the
    regular locus enumerated into a second set."""
    check_grassmannian(cfg, budget)  # before enumerating inputs
    with EnumReport("grass verify-phi", frame_config(cfg, budget)) as report:
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

        open_set = set(rank_filter(cfg, "open"))
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


def verify_phi_star_by_sets(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """``grassfib.verify_phi_star`` with sets, as ``verify_phi_by_sets``;
    the image check carries the first three of the sorted symmetric
    difference as witnesses."""
    check_grassmannian(cfg, budget)  # before enumerating inputs
    with EnumReport("grass verify-phistar", frame_config(cfg, budget)) as report:
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

        star_set = set(rank_filter(cfg, "star_open"))
        report.counts["conjugate_locus_points"] = len(star_set)
        report.add(
            "image_equals_conjugate_locus",
            image == star_set,
            witnesses=[subspace_witness(s) for s in sorted(image ^ star_set)][:3],
        )
        predicted = base_point_count(cfg) * cfg.p ** hom_star_rank(cfg)
        report.counts["predicted_points"] = predicted
        report.add("count_identity", len(star_set) == predicted)
    return report
