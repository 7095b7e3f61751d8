"""Bott-Samelson towers and the bubblesort grid isomorphism."""

import json
import tracemalloc

import oracles
import pytest
from oracles import (
    bbs_iso_by_sets,
    bs_point_is_valid,
    bs_projection,
    cell,
    clear_caches,
    copied,
    cut_into_fans,
    grid_to_bs,
    identity,
)

from schubres import bottsamelson
from schubres.bottsamelson import bbs_iso, bs_cells, enumerate_bs, first_block_chains
from schubres.biflag import enumerate_shat, standard_frames
from schubres.report import EnumReport
from schubres.exactlin import BudgetExceededError, enumerate_subspaces
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
        for pt in enumerate_shat(w, 2):
            (v1,) = grid_to_bs(pt, w)
            assert v1 == cell(pt, 1, 2)

    def test_image_is_valid(self):
        w = Permutation((3, 1, 2))
        word = bubblesort_word(w)
        for pt in enumerate_shat(w, 2):
            assert bs_point_is_valid(grid_to_bs(pt, w), word, 2)


class TestBsCells:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reads_grid_to_bs(self, n):
        # the cells, read once per w, pick the entries grid_to_bs reads per point
        for w in all_permutations(n):
            cells = bs_cells(w)
            for pt in enumerate_shat(w, 2):
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


def _without_time(report: EnumReport) -> dict:
    out = json.loads(report.to_json())
    out.pop("wall_time_s")
    return out


def _feed(monkeypatch, points):
    """Both verifiers over the grid tower ``points``: ``bbs_iso`` reads it
    cut into fans, the set oracle point by point."""
    monkeypatch.setattr(bottsamelson, "shat_fans", lambda w, p, b: cut_into_fans(points))
    monkeypatch.setattr(oracles, "enumerate_shat", lambda w, p, b: iter(points))


class TestLockstep:
    """The streamed ``bbs_iso`` against the set-based oracle, and faults
    that put the two towers out of step."""

    @pytest.mark.parametrize("n, p", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_same_report_as_set_oracle(self, n, p):
        for w in all_permutations(n):
            assert _without_time(bbs_iso(w, p)) == _without_time(bbs_iso_by_sets(w, p)), w

    def test_same_report_longest_s5(self):
        w = Permutation((5, 4, 3, 2, 1))
        assert _without_time(bbs_iso(w, 2)) == _without_time(bbs_iso_by_sets(w, 2))

    @pytest.mark.parametrize("fault", ["repeat", "swap", "short"])
    def test_out_of_step_tower_fails(self, monkeypatch, fault):
        w = Permutation((2, 3, 1))

        def faulty(word, p, budget):
            points = list(enumerate_bs(word, p, budget))
            if fault == "repeat":
                points.insert(4, points[4])
            elif fault == "swap":
                points[3], points[4] = points[4], points[3]
            else:
                points.pop()
            yield from points

        monkeypatch.setattr(bottsamelson, "enumerate_bs", faulty)
        rep = bbs_iso(w, 2)
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed & {"map_is_injective", "map_image_is_tower"}
        assert not rep.passed

    @pytest.mark.parametrize("fault", ["repeat", "short"])
    def test_out_of_step_grid_fails(self, monkeypatch, fault):
        w = Permutation((2, 3, 1))
        points = list(enumerate_shat(w, 2))
        if fault == "repeat":
            points[5] = points[4]  # two grid points with one image
        else:
            points.pop()
        _feed(monkeypatch, points)
        rep = bbs_iso(w, 2)
        failed = {c.name for c in rep.checks if not c.passed}
        assert "map_image_is_tower" in failed
        assert ("map_is_injective" in failed) == (fault == "repeat")
        assert _without_time(rep) == _without_time(bbs_iso_by_sets(w, 2))

    def test_upper_level_fault_fails(self, monkeypatch):
        # a tower point that differs from the one before it at a level the
        # walk did not change there, while the grid walks on unchanged
        w = Permutation((3, 2, 1))
        word = bubblesort_word(w)
        points = list(enumerate_bs(word, 2))
        k = next(k for k in range(1, len(points)) if points[k][0] is points[k - 1][0])
        used = {pt[0] for pt in points}
        space = standard_frames(3, 2)[3]
        other = next(s for s in enumerate_subspaces(space, points[k][0].dim) if s not in used)
        points[k] = (other,) + points[k][1:]
        for module in (bottsamelson, oracles):
            monkeypatch.setattr(module, "enumerate_bs", lambda word, p, b: iter(points))
        rep = bbs_iso(w, 2)
        assert {c.name for c in rep.checks if not c.passed} == {"map_image_is_tower"}
        assert _without_time(rep) == _without_time(bbs_iso_by_sets(w, 2))

    @pytest.mark.parametrize("one_line", [(2, 3, 1), (3, 2, 1), (2, 4, 1, 3)])
    def test_equal_rows_as_distinct_objects_pass(self, monkeypatch, one_line):
        # every row and cell of every grid point a fresh object of the same
        # value: no row is the last point's, and nothing else changes
        w = Permutation(one_line)
        points = [copied(pt) for pt in enumerate_shat(w, 2)]
        _feed(monkeypatch, points)
        rep = bbs_iso(w, 2)
        assert rep.passed
        assert _without_time(rep) == _without_time(bbs_iso_by_sets(w, 2))

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
