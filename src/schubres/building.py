"""Apartment buildings: counting non-redundant Grassmannian factors.

The grid of subspaces attached to a permutation w repeats many of its
Grassmannian factors along rows and columns.  Two independent ways of
counting the survivors of redundancy elimination are implemented:

* ``build_building`` runs the floor-by-floor algorithm on the graph
  labels (i, w(i)): a label sits on the floor equal to one plus the
  number of lexicographically smaller labels, and each pair of
  consecutive labels on a floor opens one apartment on the next floor
  at the componentwise maximum.  The single top apartment (n, n) is
  discarded.

* ``dedup_positions`` scans the full rank matrix in row-major order and
  keeps an entry iff its value differs from the entry directly to the
  left and directly above (values 0 and n never count).

The two must agree floor by floor, with a grand total of
length(w) + n - 1.
"""

from __future__ import annotations

from schubres.exactlin import InvariantError
from schubres.permcomb import Permutation, length, rank_matrix
from schubres.report import EnumReport

Label = tuple[int, int]


def build_building(w: Permutation) -> tuple[tuple[Label, ...], ...]:
    """Floors 1..n-1 of the building of w, each sorted by first coordinate."""
    n = w.n
    labels = [(i, w(i)) for i in range(1, n + 1)]
    floors: list[list[Label]] = [[] for _ in range(n + 2)]
    for i, wi in labels:
        smaller = sum(1 for j, wj in labels if j < i and wj < wi)
        floors[1 + smaller].append((i, wi))
    for level in range(1, n + 1):
        floors[level].sort()
        firsts = [a for a, _ in floors[level]]
        if firsts != sorted(set(firsts)):
            raise InvariantError(f"floor {level} labels share a row: {floors[level]}")
        for (a, b), (c, d) in zip(floors[level], floors[level][1:]):
            floors[level + 1].append((max(a, c), max(b, d)))
    if floors[n] != [(n, n)]:
        raise InvariantError(f"the top floor is {floors[n]}, not the apartment ({n}, {n})")
    return tuple(tuple(f) for f in floors[1:n])


def nonredundant_counts(w: Permutation) -> tuple[int, ...]:
    """Apartments per floor 1..n-1; the total is length(w) + n - 1."""
    return tuple(len(f) for f in build_building(w))


def dedup_positions(w: Permutation) -> tuple[tuple[Label, ...], ...]:
    """Surviving rank-matrix positions per value 1..n-1.

    Row-major scan: position (p, q) survives iff its value v lies in
    1..n-1 and differs from both the entry to its left and the entry
    above it (the matrix borders count as value 0).
    """
    n = w.n
    d = rank_matrix(w)
    out: list[list[Label]] = [[] for _ in range(n - 1)]
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            v = d[p][q]
            if 0 < v < n and d[p][q - 1] != v and d[p - 1][q] != v:
                out[v - 1].append((p, q))
    return tuple(tuple(row) for row in out)


def dedup_rank_matrix(w: Permutation) -> tuple[int, ...]:
    """Survivor counts per value 1..n-1 from the rank-matrix scan."""
    return tuple(len(row) for row in dedup_positions(w))


def raw_factor_counts(w: Permutation) -> tuple[int, ...]:
    """Occurrences of each value 1..n-1 in the full rank matrix."""
    n = w.n
    d = rank_matrix(w)
    out = [0] * (n - 1)
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            if 0 < d[p][q] < n:
                out[d[p][q] - 1] += 1
    return tuple(out)


def check_counts(w: Permutation) -> bool:
    """Cross-check: building floors = dedup survivors, total = l(w)+n-1."""
    counts = nonredundant_counts(w)
    return counts == dedup_rank_matrix(w) and sum(counts) == length(w) + w.n - 1


def building_report(w: Permutation) -> EnumReport:
    """Non-redundant factor counts per floor, checked against the
    rank-matrix dedup oracle and the total length(w) + n - 1."""
    with EnumReport("building", {"perm": list(w.one_line)}) as report:
        counts = nonredundant_counts(w)
        report.counts["per_level"] = list(counts)
        report.counts["total"] = sum(counts)
        report.counts["raw_per_level"] = list(raw_factor_counts(w))
        report.counts["length"] = length(w)
        report.add("total_is_l_plus_n_minus_1", sum(counts) == length(w) + w.n - 1)
        report.add("matches_dedup_oracle", counts == dedup_rank_matrix(w))
    return report
