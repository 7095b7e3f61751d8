"""Bott-Samelson towers and the bubblesort grid isomorphism."""

import tracemalloc
from types import SimpleNamespace

import oracles
import pytest
from oracles import (
    bbs_iso_by_lockstep,
    bbs_iso_by_sets,
    bs_point_is_valid,
    bs_projection,
    cell,
    clear_caches,
    copied,
    enumerate_grid_flat,
    fan_points,
    grid_to_bs,
    identity,
    report_text,
)

from schubres import biflag, bottsamelson
from schubres.bottsamelson import bbs_iso, bs_cells, enumerate_bs, first_block_chains
from schubres.biflag import grid_rows, standard_frames
from schubres.exactlin import BudgetExceededError, RowGraph, enumerate_subspaces
from schubres.permcomb import (
    Permutation,
    ReducedWord,
    all_permutations,
    bubblesort_word,
    length,
)


class TestEnumerateBs:
    def test_empty_word(self):
        word = bubblesort_word(identity(3))
        assert list(enumerate_bs(word, 2)) == [()]

    def test_two_letter_word(self):
        word = bubblesort_word(Permutation((2, 3, 1)))
        pts = list(enumerate_bs(word, 2))
        assert len(pts) == 9
        for pt in pts:
            assert bs_point_is_valid(pt, word, 2)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_single_letter(self, i):
        word = ReducedWord(4, ((i,), (), ()))
        pts = list(enumerate_bs(word, 2))
        assert len(pts) == 3  # lines between F_{i-1} and F_{i+1}
        f = standard_frames(4, 2)
        for (s,) in pts:
            assert s.dim == i

    @pytest.mark.parametrize("p", [2, 3])
    def test_counts_all_s3(self, p):
        for w in all_permutations(3):
            word = bubblesort_word(w)
            assert len(list(enumerate_bs(word, p))) == (p + 1) ** length(w)

    def test_budget_guard(self):
        word = bubblesort_word(Permutation((4, 3, 2, 1)))
        with pytest.raises(BudgetExceededError):
            list(enumerate_bs(word, 3, budget=5))


class TestBsProjection:
    def test_empty_word_gives_standard_flag(self):
        word = bubblesort_word(identity(3))
        f = standard_frames(3, 2)
        assert bs_projection((), word, 2) == tuple(f[1:])

    def test_two_letter_word_components(self):
        word = bubblesort_word(Permutation((2, 3, 1)))
        for pt in enumerate_bs(word, 2):
            flag = bs_projection(pt, word, 2)
            assert flag[0] == pt[0] and flag[1] == pt[1]
            assert [s.dim for s in flag] == [1, 2, 3]


class TestGridToBs:
    def test_n2(self):
        w = Permutation((2, 1))
        for pt in enumerate_grid_flat(w, 2, True):
            (v1,) = grid_to_bs(pt, w)
            assert v1 == cell(pt, 1, 2)

    def test_image_is_valid(self):
        w = Permutation((3, 1, 2))
        word = bubblesort_word(w)
        for pt in enumerate_grid_flat(w, 2, True):
            assert bs_point_is_valid(grid_to_bs(pt, w), word, 2)


class TestBsCells:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reads_grid_to_bs(self, n):
        # the cells, read once per w, pick the entries grid_to_bs reads per point
        for w in all_permutations(n):
            cells = bs_cells(w)
            for pt in enumerate_grid_flat(w, 2, True):
                assert tuple(pt[r][c] for r, c in cells) == grid_to_bs(pt, w)


class TestBbsIso:
    def test_identity_singletons(self):
        rep = bbs_iso(identity(3), 2)
        assert rep.passed
        assert rep.counts["grid_points"] == 1

    def test_all_s3(self):
        for w in all_permutations(3):
            rep = bbs_iso(w, 2)
            assert rep.passed, (w, [c.name for c in rep.checks if not c.passed])

    def test_wrong_dimension_projection_fails_commute_check(self, monkeypatch):
        # neither projection checks the dimensions of its components; the
        # report's commute check catches a component of the wrong one:
        # the Bott-Samelson flag reads a space where another s_i last
        # occurs, which leaves both towers and the image as they are
        right = bottsamelson.bubblesort_word
        for one_line, last in [
            # l_1 against a plane of row 2, compared at every point
            ((2, 3, 1), (2, 2)),
            # space 2 read off row 1, which leaves space 1 the fixed F_1
            ((3, 2, 1), (3, 3)),
            # l_2 against a 3-space of row 3, compared once per fan
            ((4, 3, 2, 1), (6, 3, 3)),
            # l_2 against the line beside it in its own row
            ((2, 3, 1), (1, 1)),
        ]:

            def wrong(w, last=last):
                word = right(w)
                word.last_occurrences = last
                return word

            monkeypatch.setattr(bottsamelson, "bubblesort_word", wrong)
            rep = bbs_iso(Permutation(one_line), 2)
            failed = [c.name for c in rep.checks if not c.passed]
            assert failed == ["map_commutes_with_projections"], one_line

    def test_simple_transposition_gf3(self):
        rep = bbs_iso(Permutation((2, 1, 3)), 3)
        assert rep.passed
        assert rep.counts["grid_points"] == 4
        assert rep.counts["tower_points"] == 4

    def test_first_block_oracle_walks_under_the_callers_budget(self, monkeypatch):
        # the first block of 2341 has (p+1)^3 = 27 chains: the oracle is
        # refused below that by the budget it is given, and bbs_iso gives
        # its own, whatever the package default
        w = Permutation((2, 3, 4, 1))
        with pytest.raises(BudgetExceededError):
            first_block_chains(w, 2, 26)
        monkeypatch.setattr(bottsamelson, "DEFAULT_BUDGET", 5)
        rep = bbs_iso(w, 2, 1000)
        assert rep.passed
        assert rep.checks[-1].detail == "27 chains vs oracle 27"

    def test_first_block_oracle_nonempty(self):
        w = Permutation((3, 1, 2))
        chains = first_block_chains(w, 2, 3)
        # m = 0? w(3) = 2, so m = 1: lines between F_1 and F_3 of dim 2
        assert len(chains) == 3

    @pytest.mark.parametrize("one_line", [(2, 3, 1), (3, 2, 1), (2, 1, 4, 3)])
    def test_first_block_fibers_are_uniform(self, one_line):
        # the projection onto the first block is a fiber bundle on
        # points: every fiber has (p+1)^(l(w)-m) elements
        w = Permutation(one_line)
        word = bubblesort_word(w)
        m = w.n - w(w.n)
        fibers = {}
        for pt in enumerate_bs(word, 2):
            fibers.setdefault(pt[:m], []).append(pt)
        sizes = {len(v) for v in fibers.values()}
        assert sizes == {3 ** (length(w) - m)}


def _wrap_graph(monkeypatch, w, p, fault):
    """Both deciders and both oracles over the pinned grid of (w, p), with
    the choices of each graph level r over a row ``below`` passed through
    ``fault(r, below, choices)``."""
    graph = RowGraph(*grid_rows(w, p, pinned_last_row=True))
    wrapped = SimpleNamespace(
        under=graph.under,
        rows=graph.rows,
        memos=[{} for _ in graph.rows],  # empty, so walk_fans asks for every fan
        choices=lambda r, below: fault(r, below, graph.choices(r, below)),
    )
    for module in (bottsamelson, biflag):
        monkeypatch.setattr(module, "shat_graph", lambda w, p: wrapped)
    monkeypatch.setattr(
        oracles, "enumerate_grid_flat", lambda w, p, pinned, b: fan_points(wrapped, b)
    )


def _once(level, change):
    """A fault that changes the choices over one row at graph level
    ``level``: the first row seen there with two choices or more."""
    hit = []

    def fault(r, below, got):
        if r == level and len(got) > 1 and (not hit or hit[0] is below):
            hit[:] = [below]
            return change(got)
        return got

    return fault


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


class TestLockstep:
    """The state decider against the lockstep and set oracles, and faults
    at its two seams: the row graph it walks, and each block's
    Bott-Samelson choices (``block_choices``)."""

    @pytest.mark.parametrize("n, p", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
    def test_same_report_as_set_oracle(self, n, p):
        for w in all_permutations(n):
            text = report_text(bbs_iso(w, p))
            assert text == report_text(bbs_iso_by_lockstep(w, p)), w
            assert text == report_text(bbs_iso_by_sets(w, p)), w

    def test_same_report_longest_s5(self):
        w = Permutation((5, 4, 3, 2, 1))
        assert report_text(bbs_iso(w, 2)) == report_text(bbs_iso_by_sets(w, 2))

    @pytest.mark.parametrize("fault", ["repeat", "swap", "short"])
    def test_out_of_step_tower_fails(self, monkeypatch, fault):
        # every block of two choices or more: one repeated, the first two
        # swapped, or the last dropped
        w = Permutation((2, 3, 1))
        right = bottsamelson.block_choices

        def faulty(stages, start, bounds):
            got = right(stages, start, bounds)
            if len(got) > 1:
                if fault == "repeat":
                    got.insert(1, got[1])
                elif fault == "swap":
                    got[0], got[1] = got[1], got[0]
                else:
                    got.pop()
            return got

        monkeypatch.setattr(bottsamelson, "block_choices", faulty)
        rep = bbs_iso(w, 2)
        counts = set() if fault == "swap" else {"counts_match_(p+1)^l"}
        assert _failed(rep) == {"map_image_is_tower"} | counts

    @pytest.mark.parametrize("fault", ["repeat", "short"])
    def test_out_of_step_grid_fails(self, monkeypatch, fault):
        # the choices of row 1 of 231 over the pinned row, the first block:
        # the first in place of the second, or the last dropped
        w = Permutation((2, 3, 1))
        repeat = fault == "repeat"
        change = (lambda got: got[:1] * 2 + got[2:]) if repeat else (lambda got: got[:-1])
        _wrap_graph(monkeypatch, w, 2, _once(1, change))
        rep = bbs_iso(w, 2)
        failed = _failed(rep)
        assert "map_image_is_tower" in failed
        assert ("map_is_injective" in failed) == repeat
        assert report_text(rep) == report_text(bbs_iso_by_lockstep(w, 2))
        assert report_text(rep) == report_text(bbs_iso_by_sets(w, 2))

    @pytest.mark.parametrize("level", [1, 2])
    def test_reordered_choices_fail(self, monkeypatch, level):
        # a state whose row choices come in another order: the same set, so
        # only the set oracle, which sees no order, passes
        w = Permutation((3, 2, 1))
        _wrap_graph(monkeypatch, w, 2, _once(level, lambda got: got[1::-1] + got[2:]))
        rep = bbs_iso(w, 2)
        assert _failed(rep) == {"map_is_injective", "map_image_is_tower"}
        assert report_text(rep) == report_text(bbs_iso_by_lockstep(w, 2))
        assert bbs_iso_by_sets(w, 2).passed

    def test_upper_level_fault_fails(self, monkeypatch):
        # one choice of the two-letter block of 321 with its first space, a
        # line of F_2, replaced by a line outside F_2: no later block reads
        # that letter, so both counts hold and only the image differs
        w = Permutation((3, 2, 1))
        right = bottsamelson.block_choices
        lines = list(enumerate_subspaces(standard_frames(3, 2)[3], 1))

        def faulty(stages, start, bounds):
            got = right(stages, start, bounds)
            if len(stages) == 2:
                other = next(s for s in lines if s not in {b[0] for b in got})
                got[1] = (other,) + got[1][1:]
            return got

        monkeypatch.setattr(bottsamelson, "block_choices", faulty)
        assert _failed(bbs_iso(w, 2)) == {"map_image_is_tower"}

    def test_replaced_bound_fails(self, monkeypatch):
        # the last block of 321 reads the plane of the block before it; over
        # another plane its lines differ from the grid's
        w = Permutation((3, 2, 1))
        right = bottsamelson.block_choices
        planes = list(enumerate_subspaces(standard_frames(3, 2)[3], 2))

        def faulty(stages, start, bounds):
            for x, s in bounds.items():
                bounds = {**bounds, x: next(t for t in planes if t != s)}
            return right(stages, start, bounds)

        monkeypatch.setattr(bottsamelson, "block_choices", faulty)
        assert _failed(bbs_iso(w, 2)) == {"map_image_is_tower"}

    @pytest.mark.parametrize("one_line", [(2, 3, 1), (3, 2, 1), (2, 4, 1, 3)])
    def test_equal_rows_as_distinct_objects_pass(self, monkeypatch, one_line):
        # every row the graph gives is a fresh object of the same value, and
        # so is each of its cells: no state is keyed by a row another state
        # reached, and nothing else changes
        w = Permutation(one_line)
        originals = {}

        def fresh(r, below, got):
            for row in got:
                originals.setdefault(row, row)
            return tuple(copied((row,))[0] for row in got)

        _wrap_graph(monkeypatch, w, 2, fresh)
        wrapped = bottsamelson.shat_graph(w, 2)
        choices = wrapped.choices
        # the graph's memo is keyed by row id, so it is asked with its own row
        wrapped.choices = lambda r, below: choices(r, originals.get(below, below))
        rep = bbs_iso(w, 2)
        assert rep.passed
        assert report_text(rep) == report_text(bbs_iso_by_lockstep(w, 2))
        assert report_text(rep) == report_text(bbs_iso_by_sets(w, 2))

    def test_traced_peak_is_small(self):
        # neither tower is held: 3^8 points at p=2 peak near 1 MiB, where
        # holding both towers took 6 MiB
        clear_caches()
        tracemalloc.start()
        try:
            assert bbs_iso(Permutation((4, 3, 5, 2, 1)), 2).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
