"""Bott-Samelson towers for bubblesort words and the grid isomorphism.

A tower point assigns one subspace per word letter, with dimension equal
to the letter index and sandwiched between the most recent earlier
subspaces one dimension below and above (fixed flag spaces when no such
letter precedes).  For the bubblesort word of w the tower is isomorphic
to the pinned bioriented grid of w: the isomorphism reads selected grid
entries block by block, deleting the column of the value just placed and
recursing on the restricted bijection one row up.  ``bbs_iso`` checks
the isomorphism on the row graph's states, keyed by rows' cell ints.
"""

from __future__ import annotations

from operator import eq, itemgetter, lt
from typing import Iterator, Sequence

from schubres.biflag import shat_graph, standard_frames
from schubres.exactlin import (
    DEFAULT_BUDGET,
    SpaceNumbers,
    Stage,
    Subspace,
    chain_stages,
    check_budget,
    enumerate_between,
    tower,
)
from schubres.permcomb import Permutation, ReducedWord, bubblesort_word, length
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
        report.counts.update(points=count, expected=expected, word=list(word.letters))
        report.add("count_is_(p+1)^l", count == expected)
    return report


def block_choices(stages: Sequence[Stage], start: int, bounds: dict[int, Subspace]) -> list:
    """The tower choices of letters ``start``, ``start + 1``, ... (``stages``) over the
    spaces ``bounds`` of the earlier letters they read, in ``enumerate_bs`` order."""
    prefix = [bounds.get(x) for x in range(start)]
    built: list[BSPoint] = [()]
    for st in stages:
        ends = [st.spaces(prefix + list(b)) for b in built]
        built = [b + (s,) for b, e in zip(built, ends) for s in enumerate_between(*e, st.dim)]
    return built


def bbs_iso(w: Permutation, p: int, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Verify the grid tower and the bubblesort tower are one resolution.

    Rows are numbered as in ``bs_cells``, row n being the standard flag
    under the pinned row; block g is the letters read off row g.  The row
    graph (``shat_graph``) is walked from the pinned row up by states: a
    row, as its cells' ints (``SpaceNumbers.row``), and the ints of the
    cells below it that rows above it read.  At
    each state the row's choices, read at ``bs_cells``, must increase
    strictly and be block g's choices over the carried bounds
    (``block_choices``) in order, and each flag space's sides are compared
    when the second is chosen.  Grid points are path counts per state;
    tower points are counted over the tower's own states, its carried
    letters alone.  States of both kinds are grouped by their bounds, so
    each block's choices are taken once per bounds.
    """
    with EnumReport("bs iso", perm_config(w, p, budget)) as report:
        expected = (p + 1) ** length(w)
        check_budget(expected, budget)
        n = w.n
        word = bubblesort_word(w)
        cells = bs_cells(w)
        stages = bs_stages(word, p)
        # block g is the letters lo[g] <= j < lo[g - 1]; lo[-1] ends the word
        lo = [sum(r > g for r, _ in cells) for g in range(n)] + [len(cells)]
        # the earlier letters whose spaces block g reads as bounds
        bounds_of = [{x - 1 for x in xs if x} for xs in zip(word.left, word.right)]
        ext = [sorted({x for j in range(lo[g], lo[g - 1]) for x in bounds_of[j] if x < lo[g]})
               for g in range(n)]
        # flag space i compares cell (i, n-1) with the cell at the last
        # s_{i+1}, or F_{i+1} = cell (n, i), in the row chosen second: within
        # that row (same), or against a cell of a row below (far)
        same, far = [[] for _ in range(n)], [[] for _ in range(n)]
        for i, j in enumerate(word.last_occurrences + (None,)):
            (g, c), pos = sorted([(i, n - 1), cells[j - 1] if j else (n, i)])
            (same if pos[0] == g else far)[g].append((c, pos))
        needs = {(g, cells[x]) for g in range(n) for x in ext[g]}
        needs |= {(g, pos) for g in range(n) for _, pos in far[g]}
        # a state at row h carries the ints of the cells below h that rows
        # above h read; the tower, once block h is chosen, those of the
        # letters of blocks h, h+1, ... that blocks above h read
        carry = [sorted({pos for g, pos in needs if g < h < pos[0]}) for h in range(n + 1)]
        bs_carry = [sorted({x for e in ext[:h] for x in e if x < lo[h - 1]}) for h in range(n + 1)]

        ids = SpaceNumbers()
        spaces = ids.spaces

        def ints(xs: tuple[int, ...], at: list[int]) -> tuple[int, ...]:
            return tuple([xs[k] for k in at])

        graph = shat_graph(w, p)
        grid_count = 0
        injective = image_is_tower = commutes = True
        first_blocks: set[BSPoint] = set()
        # grid states: the ints of a row's cells (``ids.row``), then the carried
        # ints -> [paths, row, those ints]; tower states: carried -> paths
        states, bs_states = {(): [1, graph.under, ids.row(graph.under)]}, {(): 1}
        for g in range(n - 1, -1, -1):
            # a row is read once, when a state is made of it: drop older reads
            ids.rows.clear()
            # a state's ints are its row's cells, then the k-th carried at n + k
            where = {pos: n + k for k, pos in enumerate(carry[g + 1])}
            where.update({(g + 1, c): c for c in range(n)})
            bound_at = [where[cells[x]] for x in ext[g]]
            far_at = [(c, where[pos]) for c, pos in far[g]]
            carry_at = [where[pos] for pos in carry[g]]
            cols = [c for _, c in cells[lo[g] : lo[g - 1]]]
            read = itemgetter(*cols) if len(cols) > 1 else lambda row: tuple([row[c] for c in cols])
            before, after = bs_carry[g + 1], bs_carry[g]
            bs_bound_at = [before.index(x) for x in ext[g]]
            kept_at = [before.index(x) for x in after if x < lo[g]]
            new_at = [x - lo[g] for x in after if x >= lo[g]]
            grid_by: dict[tuple[int, ...], list] = {}
            for state in states.values():
                grid_by.setdefault(ints(state[2], bound_at), []).append(state)
            bs_by: dict[tuple[int, ...], list] = {}
            for carried, count in bs_states.items():
                bs_by.setdefault(ints(carried, bs_bound_at), []).append((carried, count))
            states, bs_states = {}, {}
            for key in dict.fromkeys([*grid_by, *bs_by]):
                bounds = dict(zip(ext[g], map(spaces.__getitem__, key)))
                choices = block_choices(stages[lo[g] : lo[g - 1]], lo[g], bounds)
                for count, row, state_ints in grid_by.get(key, ()):
                    children = graph.choices(n - 1 - g, row)
                    reads = list(map(read, children))
                    image_is_tower = image_is_tower and reads == choices
                    injective = injective and all(map(lt, reads, reads[1:]))
                    for c, k in far_at:
                        side = row[k] if k < n else spaces[state_ints[k]]
                        commutes = commutes and all(map(side.__eq__, map(itemgetter(c), children)))
                    for c, (_, q) in same[g]:
                        left, right = map(itemgetter(c), children), map(itemgetter(q), children)
                        commutes = commutes and all(map(eq, left, right))
                    if g == n - 2:
                        first_blocks.update(reads)
                    if not g:
                        grid_count += count * len(children)
                        continue
                    onward = ints(state_ints, carry_at)
                    for child in children:
                        state = ids.row(child) + onward
                        states.setdefault(state, [0, child, state])[0] += count
                new = [tuple([ids[b[i]] for i in new_at]) for b in choices]
                for carried, count in bs_by.get(key, ()):
                    kept = ints(carried, kept_at)
                    for b in new:
                        b = kept + b
                        bs_states[b] = bs_states.get(b, 0) + count
        tower_count = sum(bs_states.values())

        report.counts.update(grid_points=grid_count, tower_points=tower_count)
        report.add(
            "counts_match_(p+1)^l",
            grid_count == expected == tower_count,
            f"{grid_count}, {tower_count} vs {expected}",
        )
        report.add("map_is_injective", injective)
        report.add("map_image_is_tower", image_is_tower)
        report.add("map_commutes_with_projections", commutes)
        oracle = first_block_chains(w, p, budget) if n > w(n) else set()
        detail = f"{len(first_blocks)} chains vs oracle {len(oracle)}"
        report.add(
            "first_block_image_is_chain_tower",
            not oracle or first_blocks == oracle,
            detail if oracle else "empty first block",
        )
    return report
