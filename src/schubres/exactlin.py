"""Exact linear algebra over prime fields GF(p).

A subspace of GF(p)^n is stored through its canonical basis: the reduced
row echelon form of any spanning set, zero rows dropped.  Canonical bases
make equality and hashing structural, so subspaces deduplicate in sets
and serve as dictionary keys directly.  Every value type here
(``Subspace``, ``LinearMap``, ``Stage``, ``Chart``) is a NamedTuple,
immutable and compared, hashed and sorted as its field tuple; all
operations are pure functions, and results are cached and shared
freely.

Vectors are tuples of ints reduced mod p; matrices are tuples of row
tuples.  Coordinates are 0-based throughout this module.  The verifiers
read subspaces and grid rows as small ints through ``SpaceNumbers``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

Vec = tuple[int, ...]
Rows = tuple[Vec, ...]

DEFAULT_BUDGET = 10_000_000

MAX_FIELD = 251


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured candidate budget."""


def count_text(x: int) -> str:
    """A count for a message: its digits up to 300 of them, past that a
    power of ten, as Python 3.11 and later refuse to print an int of more
    than 4 300 digits."""
    return str(x) if x < 10**300 else f"about 10^{math.log10(x):.1f}"


def check_budget(bound: int, budget: int) -> None:
    """Refuse a walk of up to ``bound`` points that exceeds the budget."""
    if bound > budget:
        raise BudgetExceededError(
            f"tower needs up to {count_text(bound)} points, budget is {count_text(budget)}"
        )


class InvariantError(RuntimeError):
    """A computed value broke an invariant that holds for every valid
    input: a fault in the program, not in its configuration."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_PRIMES = frozenset(q for q in range(MAX_FIELD + 1) if is_prime(q))


def check_field(p: int) -> None:
    if p not in _PRIMES:
        raise ValueError(f"field modulus must be a prime <= {MAX_FIELD}, got {p}")


def rref(rows: Iterable[Sequence[int]], p: int) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row echelon form of a matrix over GF(p).

    Returns the canonical basis of the row space (zero rows dropped)
    together with the strictly increasing pivot column indices.  A single
    row is only scaled at its first nonzero entry; otherwise a pivot row
    is normalised only when its pivot is not already 1.
    """
    mat = [[x % p for x in r] for r in rows]
    nrows = len(mat)
    if nrows == 1:
        r = mat[0]
        for col, x in enumerate(r):
            if x:
                if x != 1:
                    inv = pow(x, -1, p)
                    r = [y * inv % p for y in r]
                return (tuple(r),), (col,)
        return (), ()
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        for pr in range(row, nrows):
            if mat[pr][col]:
                break
        else:
            continue
        prow = mat[pr]
        if prow[col] != 1:
            inv = pow(prow[col], -1, p)
            prow = [(x * inv) % p for x in prow]
        mat[pr], mat[row] = mat[row], prow
        for r in range(nrows):
            f = mat[r][col]
            if f and r != row:
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], prow)]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return tuple(tuple(r) for r in mat[:row]), tuple(pivots)


class _SubspaceFields(NamedTuple):
    n: int
    p: int
    basis: Rows
    pivots: tuple[int, ...]


class Subspace(_SubspaceFields):
    """A linear subspace of GF(p)^n in canonical reduced-row-echelon form.

    A subspace is the tuple (n, p, basis, pivots): it hashes, compares
    and sorts as that tuple.  The basis fixes the pivots, so two
    subspaces are equal iff their canonical basis matrices are, and
    same-shape subspaces sort lexicographically on the canonical basis
    matrix, which fixes every enumeration order in this package.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce_vector(self, v: Vec) -> Vec:
        """Residue of v after eliminating all pivot coordinates."""
        p = self.p
        w = [x % p for x in v]
        for row, c in zip(self.basis, self.pivots):
            f = w[c]
            if f:
                w = [(a - f * b) % p for a, b in zip(w, row)]
        return tuple(w)

    def contains_vector(self, v: Vec) -> bool:
        return not any(self.reduce_vector(v))

    def extend(self, v: Vec) -> "Subspace":
        """Canonical form of self + <v>, without a fresh row reduction.

        The residue of v, scaled to 1 at its first nonzero coordinate,
        is the new canonical row; that coordinate is cleared from the
        old rows, whose pivots the residue does not touch.  A v inside
        self has residue zero and leaves self unchanged.
        """
        p = self.p
        r = self.reduce_vector(v)
        c = next((i for i, x in enumerate(r) if x), None)
        if c is None:
            return self
        if r[c] != 1:
            inv = pow(r[c], -1, p)
            r = tuple([x * inv % p for x in r])
        rows = list(self.basis)
        for i, row in enumerate(rows):
            f = row[c]
            if f:
                rows[i] = tuple([(a - f * b) % p for a, b in zip(row, r)])
        j = bisect_left(self.pivots, c)
        rows.insert(j, r)
        return Subspace(self.n, p, tuple(rows), self.pivots[:j] + (c,) + self.pivots[j:])


class SpaceNumbers(dict):
    """``ids[s]`` numbers each distinct subspace on its first lookup, 0
    up, and ``ids.spaces[i]`` is the subspace numbered i.  ``ids.row(row)``
    is a row's cells' numbers, read once per row object, keyed by its id
    in a dict whose value holds the row, so the id stays the row's."""

    __slots__ = ("spaces", "rows")  # a read per point: slots look up faster

    def __init__(self) -> None:
        super().__init__()
        self.spaces: list[Subspace] = []
        self.rows: dict[int, tuple[tuple[int, ...], Row]] = {}

    def __missing__(self, s: Subspace) -> int:
        i = self[s] = len(self.spaces)
        self.spaces.append(s)
        return i

    def row(self, row: Row) -> tuple[int, ...]:
        got = self.rows.get(id(row))
        if got is None:
            got = self.rows[id(row)] = (tuple([self[s] for s in row]), row)
        return got[0]


class Memo(dict):
    """A dict that fills a missing key with ``make(*key)``, a non-tuple one with ``make(key)``."""

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: object) -> object:
        got = self[key] = self.make(*key) if type(key) is tuple else self.make(key)
        return got


def span(vectors: Iterable[Sequence[int]], n: int, p: int) -> Subspace:
    """Canonical subspace of GF(p)^n spanned by the given vectors."""
    check_field(p)
    vecs = [tuple(v) for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise ValueError(f"vector length {len(v)} != ambient dimension {n}")
    if not vecs:
        return Subspace(n, p, (), ())
    basis, piv = rref(vecs, p)
    return Subspace(n, p, basis, piv)


def zero_subspace(n: int, p: int) -> Subspace:
    check_field(p)
    return Subspace(n, p, (), ())


def coordinate_space(coords: Iterable[int], n: int, p: int) -> Subspace:
    """The span of the unit vectors e_c, c in ``coords`` (0-based).

    Unit rows in increasing coordinate order are reduced already, so
    they are the canonical basis and their coordinates the pivots.
    """
    check_field(p)
    pivots = tuple(sorted(set(coords)))
    if pivots and not 0 <= pivots[0] <= pivots[-1] < n:
        raise ValueError(f"coordinates {pivots} out of range 0..{n - 1}")
    rows = tuple(tuple(1 if j == c else 0 for j in range(n)) for c in pivots)
    return Subspace(n, p, rows, pivots)


def full_space(n: int, p: int) -> Subspace:
    return coordinate_space(range(n), n, p)


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.n != b.n or a.p != b.p:
        raise ValueError(
            f"incompatible subspaces: ambient/field ({a.n},{a.p}) vs ({b.n},{b.p})"
        )


@lru_cache(maxsize=None)
def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Canonical form of a + b: the larger canonical basis extended by
    each row of the other space."""
    _check_compatible(a, b)
    if a.dim < b.dim:
        a, b = b, a
    for v in b.basis:
        a = a.extend(v)
    return a


def _is_coordinate(s: Subspace) -> bool:
    """True when s is a span of unit vectors.  Each canonical row is 1 at
    its pivot, with entries in 0..p-1, so it is a unit vector exactly
    when its entries sum to 1, and every row is one exactly when all the
    entries sum to dim s."""
    return sum(map(sum, s.basis)) == len(s.basis)


def _meet_coordinates(a: Subspace, c: Subspace) -> Subspace:
    """a ∩ c for a coordinate space c, by one elimination of a's rows on
    the coordinates outside c.

    A vector lies in c exactly when it vanishes outside c's pivots.  Each
    outside coordinate takes a pivot row among the rows left and is
    cleared from the others; the rows left at the end vanish outside c,
    stay independent and number dim a minus the rank of a outside c, so
    they span the meet.
    """
    p = a.p
    inside = set(c.pivots)
    rows = list(a.basis)
    for col in range(a.n):
        if col in inside:
            continue
        i = next((i for i, r in enumerate(rows) if r[col]), None)
        if i is None:
            continue
        prow = rows.pop(i)
        inv = pow(prow[col], -1, p)
        for j, r in enumerate(rows):
            f = r[col]
            if f:
                f = f * inv % p
                rows[j] = tuple([(x - f * y) % p for x, y in zip(r, prow)])
    if len(rows) == a.dim:
        return a
    if len(rows) == c.dim:
        return c
    return span(rows, a.n, p)


@lru_cache(maxsize=None)
def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Canonical form of a ∩ b.

    When either operand is a coordinate space, as every frame space of
    the package is, the meet is read off the other operand's rows by one
    elimination on the coordinates outside it (``_meet_coordinates``).
    Otherwise the doubled matrix [a a; b 0] is row reduced, and its rows
    that vanish on the first half give the meet.
    """
    _check_compatible(a, b)
    if _is_coordinate(b):
        return _meet_coordinates(a, b)
    if _is_coordinate(a):
        return _meet_coordinates(b, a)
    n = a.n
    zero = (0,) * n
    stacked = [u + u for u in a.basis] + [v + zero for v in b.basis]
    red, _ = rref(stacked, a.p)
    inter_rows = [r[n:] for r in red if not any(r[:n])]
    return span(inter_rows, n, a.p)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    _check_compatible(a, b)
    if b.dim > a.dim:
        return False
    return all(a.contains_vector(v) for v in b.basis)


def _pivot_complement(inner: Subspace, outer: Subspace) -> Subspace:
    """``canonical_complement`` for an inner space known to lie in outer."""
    taken = set(inner.pivots)
    kept = [i for i, c in enumerate(outer.pivots) if c not in taken]
    return Subspace(
        outer.n, outer.p, tuple(outer.basis[i] for i in kept), tuple(outer.pivots[i] for i in kept)
    )


@lru_cache(maxsize=None)
def canonical_complement(inner: Subspace, outer: Subspace) -> Subspace:
    """The deterministic complement C with inner ⊕ C = outer.

    C is spanned by the canonical rows of ``outer`` at the pivots that
    are not pivots of ``inner``.  Every nonzero vector of a subspace
    starts at one of its pivots, so inner ⊆ outer puts inner's pivots
    among outer's; those rows of outer are reduced already, so they are
    C's canonical basis, read off in O(dim outer) with no row reduction.
    Raises ValueError when inner is not contained in outer.
    """
    _check_compatible(inner, outer)
    if not contains(outer, inner):
        raise ValueError("inner is not contained in outer")
    return _pivot_complement(inner, outer)


class _LinearMapFields(NamedTuple):
    domain: Subspace
    target: Subspace
    matrix: Rows


class LinearMap(_LinearMapFields):
    """A linear map between subspaces in their canonical bases.

    ``matrix`` has target.dim rows and domain.dim columns; column j holds
    the target coordinates of the image of the j-th canonical basis
    vector of the domain.
    """

    __slots__ = ()

    def __new__(cls, domain: Subspace, target: Subspace, matrix: Rows) -> "LinearMap":
        if len(matrix) != target.dim:
            raise ValueError("matrix row count != target dimension")
        if any(len(r) != domain.dim for r in matrix):
            raise ValueError("matrix column count != domain dimension")
        return super().__new__(cls, domain, target, matrix)


def enumerate_maps(domain: Subspace, target: Subspace) -> Iterator[LinearMap]:
    """All p^(dim target * dim domain) linear maps, in lexicographic matrix order."""
    _check_compatible(domain, target)
    p = domain.p
    rows, cols = target.dim, domain.dim
    for entries in itertools.product(range(p), repeat=rows * cols):
        matrix = tuple(entries[r * cols : (r + 1) * cols] for r in range(rows))
        yield LinearMap(domain, target, matrix)


def graph_rows(a: LinearMap) -> list[Vec]:
    """Rows spanning the graph {v + A v : v in domain}, one per domain row.

    A maps the j-th canonical row b_j of the domain to column j of the
    matrix in target coordinates.  Every map target in the package is a
    coordinate space, whose r-th canonical row is the unit vector at its
    r-th pivot, so the j-th row is b_j with column j's entries added at
    the target's pivots; a zero column leaves b_j itself.  A target that
    is not a coordinate space raises ValueError.
    """
    target = a.target
    if not _is_coordinate(target):
        raise ValueError("graph_rows needs a coordinate-space target")
    p = target.p
    pivots = target.pivots
    rows = []
    for j, b in enumerate(a.domain.basis):
        row = None
        for c, m in zip(pivots, a.matrix):
            x = m[j]
            if x:
                if row is None:
                    row = list(b)
                row[c] = (row[c] + x) % p
        rows.append(b if row is None else tuple(row))
    return rows


def graph(a: LinearMap) -> Subspace:
    """The graph {v + A v : v in domain} as a canonical subspace.

    Requires domain ∩ target = 0 so that dim graph = dim domain; a graph
    of any other dimension raises InvariantError.
    """
    if intersect(a.domain, a.target).dim:
        raise ValueError("graph requires domain ∩ target = 0")
    g = span(graph_rows(a), a.domain.n, a.domain.p)
    if g.dim != a.domain.dim:
        raise InvariantError(f"graph has dimension {g.dim}, its domain {a.domain.dim}")
    return g


@lru_cache(maxsize=None)
def gaussian_binomial(m: int, j: int, p: int) -> int:
    """Number of j-dimensional subspaces of GF(p)^m."""
    if j < 0 or j > m:
        return 0
    num = den = 1
    for i in range(j):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


class _ChartFields(NamedTuple):
    n: int
    p: int
    pivots: tuple[int, ...]
    offset: int
    free: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    size: int


class Chart(_ChartFields):
    """One Schubert cell of Gr_k(GF(p)^n) as an affine chart whose
    points are numbered from ``offset``.

    The points are the reduced echelon forms with pivots ``pivots``: row
    r is 1 at pivots[r], 0 before it and at the other pivots, and free at
    each column of ``free[r]``, the columns past its pivot that are not
    pivots.  The cell has ``size`` = p^(free entries) points.  ``rank``
    reads the free entries as base-p digits, row by row and in each row
    by column, the first the most significant: the order in which
    ``_echelon_forms`` walks the cell of the whole space.  Row r's digits
    weigh ``weights[r]``, p to the free entries of the rows after it.
    ``unrank`` inverts ``rank``.  Read on coordinate-reversed rows, the
    same charts number the cells of last nonzero coordinates.
    """

    __slots__ = ()

    def __new__(cls, n: int, p: int, pivots: tuple[int, ...], offset: int = 0) -> "Chart":
        taken = set(pivots)
        free = tuple(tuple(c for c in range(q + 1, n) if c not in taken) for q in pivots)
        weights, size = [], 1
        for cols in reversed(free):
            weights.append(size)
            size *= p ** len(cols)
        return super().__new__(cls, n, p, pivots, offset, free, tuple(reversed(weights)), size)

    def row_rank(self, r: int, row: Vec) -> int:
        """Row r's share of the rank, offset left out: its free entries
        as digits, weighed by the rows after it."""
        p, x = self.p, 0
        for c in self.free[r]:
            x = x * p + row[c]
        return x * self.weights[r]

    def rank(self, rows: Rows) -> int:
        """The number of the point with these canonical rows."""
        return self.offset + sum(map(self.row_rank, range(len(rows)), rows))

    def unrank(self, i: int) -> Subspace:
        """The point numbered i, with the chart's rows as its basis."""
        n, p = self.n, self.p
        i -= self.offset
        rows = []
        for q, cols in zip(reversed(self.pivots), reversed(self.free)):
            row = [0] * n
            row[q] = 1
            for c in reversed(cols):
                i, row[c] = divmod(i, p)
            rows.append(tuple(row))
        return Subspace(n, p, tuple(reversed(rows)), self.pivots)


def charts(n: int, k: int, p: int, keep: Callable[[tuple[int, ...]], bool]) -> list[Chart]:
    """The charts of the Schubert cells of Gr_k(GF(p)^n) whose pivots
    pass ``keep``, in ``combinations`` order of their pivots; each is
    numbered on from the one before, so the kept points have the ranks
    0..N-1, N their number."""
    out, offset = [], 0
    for pivots in itertools.combinations(range(n), k):
        if keep(pivots):
            out.append(Chart(n, p, pivots, offset))
            offset += out[-1].size
    return out


def _echelon_forms(v: Subspace, piv: tuple[int, ...]) -> Iterator[Subspace]:
    """The Schubert cell of v with pivot rows ``piv``: each point's
    echelon form in v's canonical rows, one per choice of free entries.

    Read through v's canonical rows, row r is 1 at v's pivot piv[r] and
    0 at the other chosen pivots: it is v's row piv[r] plus multiples of
    v's rows past it outside ``piv``.  Each row of v is 0 before its own
    pivot, 1 there and 0 at v's other pivots, so row r starts at its
    pivot and the rows are the reduced echelon form: every point is
    built canonical, with no row reduction.  Points run in the order of
    their free entries, row by row: the rank order of the cell's
    ``Chart`` in v's rows.  Each row's choices are built once.
    """
    n, p, basis = v.n, v.p, v.basis
    choices = []
    for q, free in zip(piv, Chart(v.dim, p, piv).free):
        rows = []
        for xs in itertools.product(range(p), repeat=len(free)):
            row = basis[q]
            for c, x in zip(free, xs):
                if x:
                    row = tuple([(a + x * b) % p for a, b in zip(row, basis[c])])
            rows.append(row)
        choices.append(rows)
    pivots = tuple(v.pivots[q] for q in piv)
    for rows in itertools.product(*choices):
        yield Subspace(n, p, rows, pivots)


@lru_cache(maxsize=None)
def _subspaces_tuple(v: Subspace, j: int) -> tuple[Subspace, ...]:
    """The j-dimensional subspaces of v, sorted: the union of the cells of
    ``_echelon_forms`` over all j-sets of pivot rows."""
    if j < 0:
        return ()
    return tuple(
        sorted(s for piv in itertools.combinations(range(v.dim), j) for s in _echelon_forms(v, piv))
    )


def enumerate_subspaces(v: Subspace, j: int) -> Iterator[Subspace]:
    """Yield each j-dimensional subspace of v exactly once.

    The order is lexicographic on canonical basis matrices; the count is
    the Gaussian binomial [dim v choose j]_p.
    """
    yield from _subspaces_tuple(v, j)


@lru_cache(maxsize=None)
def _between_tuple(lower: Subspace, upper: Subspace, dim: int) -> tuple[Subspace, ...]:
    """The sorted choices of ``enumerate_between``; a level forced to
    lower's or upper's dimension has that space as its one choice."""
    if dim < lower.dim or dim > upper.dim or not contains(upper, lower):
        return ()
    if dim == lower.dim:
        return (lower,)
    if dim == upper.dim:
        return (upper,)
    comp = _pivot_complement(lower, upper)
    out = [subspace_sum(lower, q) for q in _subspaces_tuple(comp, dim - lower.dim)]
    out.sort()
    return tuple(out)


def enumerate_between(lower: Subspace, upper: Subspace, dim: int) -> Iterator[Subspace]:
    """Iterate over each subspace S with lower ⊆ S ⊆ upper and dim S = dim.

    Empty when lower is not contained in upper or the dimension is
    infeasible.  Count: [dim upper - dim lower choose dim - dim lower]_p.
    """
    return iter(_between_tuple(lower, upper, dim))


class Stage(NamedTuple):
    """One level of a subspace tower.

    ``spaces`` maps the choices of the earlier levels to (lower, upper);
    the level chooses each ``dim``-dimensional S with lower ⊆ S ⊆ upper.
    ``tower`` passes the earlier choices as its own live list, which the
    callback may index but must not keep or change.  For every input dim
    lower must be at least ``lo`` and dim upper at most ``up``, so the
    level offers at most [up - lo choose dim - lo]_p choices.
    """

    spaces: Callable[[Sequence[Subspace]], tuple[Subspace, Subspace]]
    lo: int
    up: int
    dim: int


def tower_bound(stages: Sequence[Stage], p: int) -> int:
    """Point-count bound of a tower: the product of its level bounds."""
    total = 1
    for st in stages:
        total *= gaussian_binomial(st.up - st.lo, st.dim - st.lo, p)
    return total


def chain_stages(base: Subspace, uppers: Sequence[Subspace]) -> list[Stage]:
    """The Kempf-Laksov chain tower above ``base``: level i chooses a
    space of dimension dim base + i between the previous choice (``base``
    at level 1) and ``uppers[i-1]``.  When base lies in ``uppers[0]`` and
    each upper space in the next, the previous choice lies in the upper
    space at every node, so ``tower_bound`` of these levels is exactly
    the number of chains."""
    d = base.dim
    return [
        Stage(lambda c, upper=upper: (c[-1] if c else base, upper), d + i, upper.dim, d + i + 1)
        for i, upper in enumerate(uppers)
    ]


def tower(stages: Sequence[Stage], p: int, budget: int) -> Iterator[tuple[Subspace, ...]]:
    """Yield every tuple of choices, one per stage, depth first.

    Each level runs in ``enumerate_between`` order.  The whole tower is
    refused before its first point when ``tower_bound`` exceeds the
    budget.  The walk keeps one open iterator per level above the last
    and calls ``enumerate_between`` once per node.
    """
    check_budget(tower_bound(stages, p), budget)
    last = len(stages) - 1
    if last < 0:
        yield ()
        return
    chosen: list[Subspace] = []
    # open_levels[i] runs over the choices at level i; chosen[i] is the current one
    open_levels: list[Iterator[Subspace]] = []
    while True:
        st = stages[len(chosen)]
        lower, upper = st.spaces(chosen)
        level = enumerate_between(lower, upper, st.dim)
        if len(chosen) == last:
            prefix = tuple(chosen)
            for s in level:
                yield prefix + (s,)
        else:
            open_levels.append(level)
        # advance the deepest open level that has a choice left
        while open_levels:
            s = next(open_levels[-1], None)
            if s is not None:
                del chosen[len(open_levels) - 1 :]
                chosen.append(s)
                break
            open_levels.pop()
        else:
            return


Row = tuple[Subspace, ...]
RowSpec = tuple[Sequence[int], Subspace]  # (dims, extra) of one row of a ``RowGraph``


def rows_bound(under: Row, rows: Sequence[RowSpec]) -> int:
    """Point-count bound of a ``RowGraph``: the product over its cells of
    [up - lo choose dim - lo]_p, lo the dimension of the cell to the left
    and up that of the cell below plus that of the row's ``extra``."""
    total, below = 1, [s.dim for s in under]
    for dims, extra in rows:
        for lo, dim, up in zip((0, *dims), dims, below):
            total *= gaussian_binomial(up + extra.dim - lo, dim - lo, under[0].p)
        below = dims
    return total


class RowGraph:
    """The choices of each row of a grid, built once per distinct row below.

    With ``rows[r] = (dims, extra)``, cell c of row r is a ``dims[c]``-
    dimensional space between cell c-1 (zero for c = 0) and cell c of
    the previous row (of ``under`` for the first row) plus ``extra``.
    ``choices(r, below)`` builds row r's choices over ``below`` on first
    use, left to right over ``enumerate_between``, and keeps them.  Each
    row it builds is interned, so equal rows are one object; the graph
    holds them all, and keys its memos by their ids, so no lookup hashes
    a row.  ``below`` is ``under`` for r = 0 and a row of the graph's
    own choices otherwise.  Nothing is built before the first
    ``choices`` call, so a walk can check ``rows_bound`` first.
    """

    def __init__(self, under: Row, rows: Sequence[RowSpec]) -> None:
        self.under = under
        self.rows = rows
        # a zero ``extra`` is the caller's own zero object: caches and
        # comparisons that meet the caller's spaces then hit on identity
        zero = next((extra for _, extra in rows if not extra.dim), None)
        self.zero = zero_subspace(under[0].n, under[0].p) if zero is None else zero
        self.interned: dict[Row, Row] = {}
        self.memos: list[dict[int, tuple[Row, ...]]] = [{} for _ in rows]

    def choices(self, r: int, below: Row) -> tuple[Row, ...]:
        got = self.memos[r].get(id(below))
        if got is None:
            dims, extra = self.rows[r]
            uppers = [subspace_sum(s, extra) for s in below[: len(dims)]] if extra.dim else below
            built = [(s,) for s in enumerate_between(self.zero, uppers[0], dims[0])]
            for c in range(1, len(dims)):
                upper, dim = uppers[c], dims[c]
                built = [b + (s,) for b in built for s in enumerate_between(b[-1], upper, dim)]
            intern = self.interned.setdefault
            got = self.memos[r][id(below)] = tuple([intern(row, row) for row in built])
        return got


Fan = tuple[tuple[Row, ...], tuple[Row, ...]]  # (upper rows, last-row choices)


def walk_fans(graph: RowGraph, budget: int) -> Iterator[Fan]:
    """Yield every choice of all rows but the last, with the last row's
    choices over it: ``(upper, fan)``, the upper rows last-chosen first
    and the fan the graph's shared tuple of last-row choices.  The
    points of the grid, as many as the fan sizes add up to, are
    ``(row,) + upper`` for each row of each fan.  The whole walk is
    refused before anything is built when ``rows_bound`` exceeds the
    budget.
    """
    check_budget(rows_bound(graph.under, graph.rows), budget)
    choices, last = graph.choices, len(graph.rows) - 1
    if not last:
        yield (), choices(0, graph.under)
        return
    # fans come straight from the last row's memo when built: a method call
    # per fan took a third of the walk's time on a grid of one-point fans
    fans = graph.memos[last]
    # stack[r] runs over the choices of row r, beside the rows chosen before it
    stack = [(iter(choices(0, graph.under)), ())]
    while stack:
        level, chosen = stack[-1]
        if len(stack) == last:
            stack.pop()
            for row in level:
                fan = fans.get(id(row))
                yield (row,) + chosen, choices(last, row) if fan is None else fan
            continue
        row = next(level, None)
        if row is None:
            stack.pop()
        else:
            stack.append((iter(choices(len(stack), row)), (row,) + chosen))
