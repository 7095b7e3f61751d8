"""Bott-Samelson towers for bubblesort words and the grid isomorphism.

A tower point assigns one subspace per word letter, with dimension equal
to the letter index and sandwiched between the most recent earlier
subspaces one dimension below and above (fixed flag spaces when no such
letter precedes).  For the bubblesort word of w the tower is isomorphic
to the pinned bioriented grid of w: the isomorphism reads selected grid
entries block by block, deleting the column of the value just placed and
recursing on the restricted bijection one row up.
"""

from __future__ import annotations

from typing import Iterator

from schubres.biflag import (
    Flag,
    GridPoint,
    enumerate_shat,
    project_to_flag,
    standard_frames,
)
from schubres.exactlin import DEFAULT_BUDGET, Stage, Subspace, tower
from schubres.permcomb import (
    Permutation,
    ReducedWord,
    bs_incidence,
    bubblesort_word,
    last_occurrence_indices,
    length,
)
from schubres.report import EnumReport, timed

BSPoint = tuple[Subspace, ...]


def bs_stages(word: ReducedWord, p: int) -> list[Stage]:
    """One tower stage per letter: a subspace of dimension the letter index
    between the latest earlier choices one dimension below and above, or
    the fixed flag spaces when no such letter precedes."""
    frames, _ = standard_frames(word.n, p)
    inc = bs_incidence(word)

    def stage(d: int, li: int | None, ri: int | None) -> Stage:
        def spaces(c: BSPoint) -> tuple[Subspace, Subspace]:
            lower = c[li - 1] if li is not None else frames[d - 1]
            upper = c[ri - 1] if ri is not None else frames[d + 1]
            return lower, upper

        return Stage(spaces, d - 1, d + 1, d)

    return [stage(*letter) for letter in zip(word.letters, inc.left, inc.right)]


def enumerate_bs(
    word: ReducedWord, p: int, budget: int = DEFAULT_BUDGET
) -> Iterator[BSPoint]:
    """All GF(p) points of the tower of ``word`` (any word is accepted).

    Subspaces are chosen in letter order; each choice ranges over the
    subspaces of the right reference containing the left reference with
    dimension the letter index.  For a reduced word every step is a
    projective line, so the count is (p+1)^len(word).
    """
    yield from tower(bs_stages(word, p), p, budget)


def bs_projection(point: BSPoint, word: ReducedWord, p: int) -> Flag:
    """Flag component i is the subspace at the last occurrence of s_i,
    falling back to the fixed F_i for letters that never occur."""
    n = word.n
    frames, _ = standard_frames(n, p)
    occ = last_occurrence_indices(word)
    flag = []
    for i in range(1, n):
        idx = occ[i - 1]
        flag.append(frames[i] if idx is None else point[idx - 1])
    flag.append(frames[n])
    return tuple(flag)


def grid_to_bs(pt: GridPoint, w: Permutation) -> BSPoint:
    """Read the tower coordinates of a pinned grid point.

    Stage s emits the entries of grid row n-s at the still-active
    columns larger than the value w(n-s+1), then retires that value's
    column; the emitted dimensions match the bubblesort block letters.
    """
    n = pt.n
    cols = list(range(1, n + 1))
    out: list[Subspace] = []
    for s in range(1, n):
        m = n - s + 1
        v = w(m)
        row = n - s
        for q in cols:
            if q > v:
                out.append(pt.cell(row, q))
        cols.remove(v)
    return tuple(out)


def first_block_stages(w: Permutation, p: int) -> list[Stage]:
    """Chains W_1 ⊂ ... ⊂ W_m with F_{w(n)-1} ⊆ W_j ⊆ F_{w(n)+j} and
    dim W_j = w(n)+j-1, where m = n - w(n), as tower stages."""
    n = w.n
    v = w(n)
    frames, _ = standard_frames(n, p)
    return [
        Stage(
            lambda c, j=j: (c[-1] if c else frames[v - 1], frames[v + j + 1]),
            v + j - 1,
            v + j + 1,
            v + j,
        )
        for j in range(n - v)
    ]


def first_block_chains(w: Permutation, p: int) -> set[tuple[Subspace, ...]]:
    """Independent tower oracle for the first block's image: the
    Kempf-Laksov-type chains of ``first_block_stages`` in the window
    above F_{w(n)-1}."""
    return set(tower(first_block_stages(w, p), p, DEFAULT_BUDGET))


def enumerate_report(w: Permutation, p: int, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Point count of the Bott-Samelson tower of the bubblesort word of w
    against (p+1)^length(w)."""
    report = EnumReport("bs enumerate", {"perm": list(w.one_line), "field": p, "budget": budget})
    with timed(report):
        word = bubblesort_word(w)
        count = sum(1 for _ in enumerate_bs(word, p, budget))
        expected = (p + 1) ** length(w)
        report.counts["points"] = count
        report.counts["expected"] = expected
        report.counts["word"] = list(word.letters)
        report.add("count_is_(p+1)^l", count == expected)
    return report


def bbs_iso(w: Permutation, p: int, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Verify the grid tower and the bubblesort tower are one resolution.

    Checks that the coordinate-selection map is a bijection between the
    GF(p) point sets commuting with both projections to the flag
    manifold, and that the first-block image matches the independent
    chain oracle.
    """
    report = EnumReport(
        "bs iso", {"perm": list(w.one_line), "field": p, "budget": budget}
    )
    with timed(report):
        word = bubblesort_word(w)
        grid_points = list(enumerate_shat(w, p, budget))
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
        del image, bs_points  # as large as the tower; free them before the oracle

        commutes = all(
            project_to_flag(pt) == bs_projection(img, word, p)
            for pt, img in zip(grid_points, mapped)
        )
        report.add("map_commutes_with_projections", commutes)

        m = w.n - w(w.n)
        if m > 0:
            first_blocks = {img[:m] for img in mapped}
            oracle = first_block_chains(w, p)
            report.add(
                "first_block_image_is_chain_tower",
                first_blocks == oracle,
                f"{len(first_blocks)} chains vs oracle {len(oracle)}",
            )
        else:
            report.add("first_block_image_is_chain_tower", True, "empty first block")
    return report
