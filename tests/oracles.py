"""Slow reference enumerations and independent checks that the package's
fast paths are checked against; nothing in the package calls them."""

import itertools
from typing import Iterable, Iterator, Sequence

from schubres.biflag import Flag, GridPoint, standard_frames
from schubres.bottsamelson import BSPoint
from schubres.embres import KLChain, _cell_test, flag_of_grid, kl_points
from schubres.exactlin import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    LinearMap,
    Rows,
    Stage,
    Subspace,
    contains,
    enumerate_between,
    gaussian_binomial,
    graph,
    intersect,
    linear_map_from_pairs,
    project,
    span,
    subspace_sum,
    tower,
    tower_bound,
    vec_add,
)
from schubres.grassfib import FrameConfig, grassmannian, schubert_position
from schubres.permcomb import (
    Permutation,
    ReducedWord,
    bs_incidence,
    bubblesort_word,
    rank_matrix,
    word_product,
)
from schubres.wflag import GCalPoint, GHatPoint, enumerate_ghat


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


def zero_map(domain: Subspace, target: Subspace) -> LinearMap:
    """The map sending all of ``domain`` to zero in ``target``."""
    return LinearMap(domain, target, tuple((0,) * domain.dim for _ in range(target.dim)))


def flag_rank_profile(flag: Flag, frames: Flag) -> tuple[tuple[int, ...], ...]:
    """dim(l_p ∩ F_q) for p, q = 1..n by n^2 intersections: the slow
    independent oracle for ``biflag.flag_position``."""
    n = len(flag)
    return tuple(
        tuple(intersect(flag[pp - 1], frames[q]).dim for q in range(1, n + 1))
        for pp in range(1, n + 1)
    )


def grid_is_valid(pt: GridPoint, w: Permutation) -> bool:
    """Dimensions follow the rank matrix and all inclusions hold."""
    d = rank_matrix(w)
    n = pt.n
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            s = pt.cell(row, col)
            if s.dim != d[row][col]:
                return False
            if col < n and not contains(pt.cell(row, col + 1), s):
                return False
            if row < n and not contains(pt.cell(row + 1, col), s):
                return False
    return True


def bs_point_is_valid(point: BSPoint, word: ReducedWord, p: int) -> bool:
    """All incidence relations of the word hold for the point."""
    frames, _ = standard_frames(word.n, p)
    inc = bs_incidence(word)
    letters = word.letters
    if len(point) != len(letters):
        return False
    for j, d in enumerate(letters, start=1):
        s = point[j - 1]
        li, ri = inc.left[j - 1], inc.right[j - 1]
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
            y = maps[j - 1].apply(x)
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


def kl_count_formula(dims: tuple[int, ...], p: int) -> int:
    """Tower point count from the flag dimensions alone."""
    total = 1
    for i, d in enumerate(dims, start=1):
        total *= gaussian_binomial(d - (i - 1), 1, p)
    return total


def enumerate_embres(
    cfg: FrameConfig, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[GHatPoint, KLChain]]:
    """All pairs (grid point, chain over its flag)."""
    for pt in enumerate_ghat(cfg, budget):
        flag = flag_of_grid(cfg, pt)
        for chain in kl_points(flag, cfg.p, budget):
            yield pt, chain


def cell_points(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> Iterator[Subspace]:
    """The points of Gr_k that pass ``embres._cell_test``: the cell whose
    preimages lie over the special grid point."""
    in_cell = _cell_test(cfg)
    for l in grassmannian(cfg, budget):
        if in_cell(l, *schubert_position(l)):
            yield l
