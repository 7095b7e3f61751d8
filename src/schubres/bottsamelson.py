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
    Row,
    shat_fans,
    standard_frames,
)
from schubres.exactlin import DEFAULT_BUDGET, Stage, Subspace, chain_stages, tower
from schubres.permcomb import (
    Permutation,
    ReducedWord,
    bubblesort_word,
    length,
)
from schubres.report import EnumReport, perm_config

BSPoint = tuple[Subspace, ...]


def bs_stages(word: ReducedWord, p: int) -> list[Stage]:
    """One tower stage per letter: a subspace of dimension the letter index
    between the latest earlier choices one dimension below and above, or
    the fixed flag spaces when no such letter precedes."""
    frames = standard_frames(word.n, p)

    def stage(d: int, li: int | None, ri: int | None) -> Stage:
        def spaces(c: BSPoint) -> tuple[Subspace, Subspace]:
            lower = c[li - 1] if li is not None else frames[d - 1]
            upper = c[ri - 1] if ri is not None else frames[d + 1]
            return lower, upper

        return Stage(spaces, d - 1, d + 1, d)

    return [stage(*letter) for letter in zip(word.letters, word.left, word.right)]


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


def bs_cells(w: Permutation) -> tuple[tuple[int, int], ...]:
    """The 0-based grid cells (row, column) whose entries, in order, are
    the tower coordinates of a pinned grid point of w.

    Stage s reads the entries of grid row n-s at the still-active
    columns larger than the value w(n-s+1), then retires that value's
    column; the dimensions read match the bubblesort block letters.
    """
    cols = list(range(1, w.n + 1))
    out: list[tuple[int, int]] = []
    for row in range(w.n - 1, 0, -1):
        v = w(row + 1)
        out += [(row - 1, q - 1) for q in cols if q > v]
        cols.remove(v)
    return tuple(out)


def first_block_chains(w: Permutation, p: int, budget: int) -> set[tuple[Subspace, ...]]:
    """Independent tower oracle for the first block's image: the
    Kempf-Laksov-type chains W_1 ⊂ ... ⊂ W_m above F_{w(n)-1} with
    W_j ⊆ F_{w(n)+j}, where m = n - w(n).  There are (p+1)^m of them,
    and m is at most length(w), so a walk within the budget has a first
    block within it too."""
    v = w(w.n)
    frames = standard_frames(w.n, p)
    return set(tower(chain_stages(frames[v - 1], frames[v + 1 :]), p, budget))


def enumerate_report(w: Permutation, p: int, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Point count of the Bott-Samelson tower of the bubblesort word of w
    against (p+1)^length(w)."""
    with EnumReport("bs enumerate", perm_config(w, p, budget)) as report:
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

    The entries at ``bs_cells(w)`` send ``enumerate_shat(w)`` onto
    ``enumerate_bs`` of the bubblesort word in the same order, so the
    towers are walked in lockstep and neither is kept: the map is
    injective when its images increase strictly, and onto the tower when
    every pair agrees and both walks end together; orders that ever
    differ fail, never pass.  Each pair must commute with both
    projections, and the images' first blocks must be the chains of the
    independent chain tower.  The grid comes a fan at a time
    (``shat_fans``): the image and flag entries of rows 2..n are
    refreshed once per fan, at the rows whose objects differ from the
    last fan's, and those of row 1 at every point; a first block is
    added only when grid row n-1 changed.  Each pair of images is still
    compared whole, so a fault at any level of either tower shows.  The
    projections are compared space by space: l_1 at every point, the
    others when a row they read is refreshed.
    """
    with EnumReport("bs iso", perm_config(w, p, budget)) as report:
        n = w.n
        word = bubblesort_word(w)
        # what is read of each point depends on w only: read it once
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
        tower = enumerate_bs(word, p, budget)
        for upper, fan in shat_fans(w, p, budget):
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
                b = next(tower, None)
                tower_count += b is not None
                image_is_tower = image_is_tower and now == b
                injective = injective and (prev is None or prev < now)
                prev = now
                commutes = commutes and row[-1] == flag[0]
                if first_in_fan:
                    first_blocks.add(now[:m])
        rest = sum(1 for _ in tower)
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
