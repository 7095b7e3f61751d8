"""Bioriented flag grids and the flag-manifold Schubert resolution."""

import json
import operator
from collections import Counter
from itertools import zip_longest

import oracles
import pytest
from oracles import (
    cell,
    copied,
    cut_into_fans,
    enumerate_complete_flags,
    enumerate_grid_flat,
    fan_points,
    flag_position,
    flag_rank_profile,
    grid_is_valid,
    grid_stages,
    identity,
    reconstruct_grid_by_intersections,
    row_factor_mismatches,
    verify_flres_by_lists,
)

from schubres import biflag, exactlin, permcomb, wflag
from schubres.biflag import (
    enumerate_report,
    grid_rows,
    project_to_flag,
    reconstruct_grid,
    standard_frames,
    verify_flres,
)
from schubres.exactlin import BudgetExceededError, RowGraph, intersect, rows_bound, tower_bound
from schubres.grassfib import make_frame
from schubres.permcomb import Permutation, all_permutations, length, rank_matrix

# every complete flag of these spaces is checked against the rank-profile
# oracle; at p = 5 and 7 the reductions scale rows by inverses other than ±1
ORACLE_SPACES = [(1, 2), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (3, 5), (3, 7)]

# every permutation of these spaces, and the longest word of S_5 at p=2, is
# walked row by row and checked against the flat tower and the list oracle
STREAM_SPACES = [(3, 2), (3, 3), (4, 2), (4, 3), (3, 5), (3, 7)]


def rank_filter(w, p, mode):
    """The brute-force Schubert filter: every complete flag whose
    n^2 intersections with F_* meet the rank conditions of w."""
    test = operator.eq if mode == "cell" else operator.ge
    d = rank_matrix(w)
    for flag in enumerate_complete_flags(w.n, p):
        profile = flag_rank_profile(flag)
        if all(
            test(profile[i][j], d[i + 1][j + 1]) for i in range(w.n) for j in range(w.n)
        ):
            yield flag


class TestStandardFrames:
    def test_two_dim(self):
        f, g = standard_frames(2, 2), oracles.coflag(2, 2)
        assert f[1].basis == ((1, 0),)
        assert g[1].basis == ((0, 1),)

    def test_extremes(self):
        f, g = standard_frames(3, 2), oracles.coflag(3, 2)
        assert f[3].dim == 3
        assert g[3].dim == 0
        assert f[0].dim == 0

    def test_complementarity(self):
        f, g = standard_frames(4, 3), oracles.coflag(4, 3)
        for i in range(5):
            assert intersect(f[i], g[i]).dim == 0
            assert f[i].dim + g[i].dim == 4

    def test_built_once_per_space(self):
        assert standard_frames(4, 2) is standard_frames(4, 2)
        with pytest.raises(ValueError):
            standard_frames(3, 4)


class TestEnumerateFlw:
    def test_identity_gives_complete_flags(self):
        # (q+1)(q^2+q+1) flags for n=3, q=2
        pts = list(enumerate_grid_flat(identity(3), 2, False))
        assert len(pts) == 21
        assert len(list(enumerate_complete_flags(3, 2))) == 21

    def test_transposition_n2(self):
        # two free cells, a line each: the top-right cell and the
        # unpinned bottom-left cell
        pts = list(enumerate_grid_flat(Permutation((2, 1)), 2, False))
        assert len(pts) == 9
        for pt in pts:
            assert cell(pt, 1, 1).dim == 0
            assert cell(pt, 1, 2).dim == 1
        # pinning the bottom row leaves the single free line
        assert len(list(enumerate_grid_flat(Permutation((2, 1)), 2, True))) == 3

    def test_all_points_valid(self):
        w = Permutation((2, 3, 1))
        for pt in enumerate_grid_flat(w, 2, False):
            assert grid_is_valid(pt, w)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_report(identity(4), "flw", 3, budget=10)

    def test_estimate_matches_actual(self):
        for w in all_permutations(3):
            est = tower_bound(grid_stages(w, 2, pinned_last_row=False), 2)
            assert est == enumerate_report(w, "flw", 2).counts["points"]


class TestEnumerateShat:
    def test_identity_single_point(self):
        pts = list(enumerate_grid_flat(identity(3), 2, True))
        assert len(pts) == 1

    def test_cycle_nine_points(self):
        pts = list(enumerate_grid_flat(Permutation((2, 3, 1)), 2, True))
        assert len(pts) == 9

    def test_transposition_gf3(self):
        assert len(list(enumerate_grid_flat(Permutation((2, 1)), 3, True))) == 4

    def test_bottom_row_pinned(self):
        w = Permutation((3, 1, 2))
        f = standard_frames(3, 2)
        for pt in enumerate_grid_flat(w, 2, True):
            for q in range(1, 4):
                assert cell(pt, 3, q) == f[q]
            assert grid_is_valid(pt, w)

    @pytest.mark.parametrize("p", [2, 3])
    def test_counts_all_s3(self, p):
        for w in all_permutations(3):
            got = enumerate_report(w, "shat", p).counts["points"]
            assert got == (p + 1) ** length(w)

    def test_deep_tower_s5_longest_word(self):
        w = Permutation((5, 4, 3, 2, 1))
        assert enumerate_report(w, "shat", 2).counts["points"] == 3 ** 10


class TestProjection:
    def test_identity_projects_to_standard_flag(self):
        f = standard_frames(3, 2)
        (pt,) = enumerate_grid_flat(identity(3), 2, True)
        assert project_to_flag(pt) == tuple(f[1:])

    def test_projection_dims(self):
        for pt in enumerate_grid_flat(Permutation((2, 3, 1)), 2, True):
            flag = project_to_flag(pt)
            assert [s.dim for s in flag] == [1, 2, 3]

    def test_transposition_hits_three_lines(self):
        lines = {project_to_flag(pt)[0] for pt in enumerate_grid_flat(Permutation((2, 1)), 2, True)}
        assert len(lines) == 3


class TestFlagPosition:
    @pytest.mark.parametrize("n,p", ORACLE_SPACES)
    def test_rank_matrix_is_rank_profile(self, n, p):
        for flag in enumerate_complete_flags(n, p):
            profile = flag_rank_profile(flag)
            padded = ((0,) * (n + 1),) + tuple((0,) + row for row in profile)
            assert rank_matrix(flag_position(flag)) == padded

    @pytest.mark.parametrize("n,p", ORACLE_SPACES)
    def test_census_is_bruhat_decomposition(self, n, p):
        # every permutation u is the position of exactly p^length(u)
        # complete flags: the Bruhat cells partition the flag manifold
        census = Counter(flag_position(flag) for flag in enumerate_complete_flags(n, p))
        assert dict(census) == {u: p ** length(u) for u in all_permutations(n)}


class TestOracleMeets:
    @pytest.mark.parametrize("n,p", ORACLE_SPACES)
    def test_oracles_reach_no_package_row_reduction(self, n, p, monkeypatch):
        # with the package's rref, span and intersect all raising, the
        # oracles still read every meet l_p ∩ F_q that intersect gives:
        # a fault in the reduction that biflag reads positions and grids
        # off cannot show on both sides of a comparison
        frames = standard_frames(n, p)
        flags = list(enumerate_complete_flags(n, p))
        want = [tuple(tuple(intersect(l, f) for f in frames[1:]) for l in flag) for flag in flags]

        def refuse(*args):
            raise AssertionError("an oracle reached the package's row reduction")

        monkeypatch.setattr(exactlin, "rref", refuse)
        for name in ("rref", "span", "intersect"):
            monkeypatch.setattr(oracles, name, refuse)
        for flag, grid in zip(flags, want):
            assert flag_rank_profile(flag) == tuple(tuple(s.dim for s in row) for row in grid)
            assert reconstruct_grid_by_intersections(flag) == grid


class TestReconstructGrid:
    @pytest.mark.parametrize("n,p", STREAM_SPACES)
    def test_read_off_equals_intersections(self, n, p):
        # on every complete flag, the grid read off the reversed rows is
        # the n^2 intersections' grid; grids read with one memo for all
        # flags, as verify_flres reads them, equal those read with none
        rows = {}
        for flag in enumerate_complete_flags(n, p):
            want = reconstruct_grid_by_intersections(flag)
            assert reconstruct_grid(flag, rows) == want
            assert reconstruct_grid(flag) == want


class TestSchubertFlagPoints:
    # the Schubert cell and closed locus of w are what the one pass of
    # verify_flres keeps; rank_filter is the brute-force oracle for both
    @pytest.mark.parametrize("p", [2, 3])
    def test_cell_counts_s3(self, p):
        for w in all_permutations(3):
            rep = verify_flres(w, p)
            assert rep.passed, (w, [c.name for c in rep.checks if not c.passed])
            assert rep.counts["cell_points"] == p ** length(w)

    def test_identity_cell_is_standard_flag(self):
        f = standard_frames(3, 2)
        flags = enumerate_complete_flags(3, 2)
        cells = [flag for flag in flags if flag_position(flag) == identity(3)]
        assert cells == [tuple(f[1:])]

    @pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("mode", ["cell", "closed"])
    def test_same_flags_as_rank_filter(self, n, p, mode):
        for w in all_permutations(n):
            rep = verify_flres(w, p)
            checks = {c.name: c.passed for c in rep.checks}
            assert all(checks.values()), (w, checks)
            want = list(rank_filter(w, p, mode))
            assert rep.counts[f"{mode}_points"] == len(want)
            if mode == "closed":
                # the closed locus the report counted equals the tower image
                # (image_equals_closed_variety), so the oracle must too
                image = {project_to_flag(pt) for pt in enumerate_grid_flat(w, p, True)}
                assert image == set(want)


def _without_time(text):
    report = json.loads(text)
    report.pop("wall_time_s")
    return report


def _longest(n):
    return Permutation(tuple(range(n, 0, -1)))


class TestBruhatGeometry:
    def test_order_matches_point_containment(self):
        # u <= w exactly when u's cell sits inside w's closed locus:
        # the point-level meaning of the rank-matrix comparison; the
        # closed loci come from the intersection oracle, not the order
        perms = list(all_permutations(3))
        for w in perms:
            inside = Counter(flag_position(flag) for flag in rank_filter(w, 2, "closed"))
            below = permcomb.bruhat_interval(w)
            for u in perms:
                # a cell lies wholly inside the closed locus or misses it
                assert inside[u] in (0, 2 ** length(u))
                assert (inside[u] > 0) == (u in below)


class TestVerifyFlres:
    def test_identity_trivial(self):
        rep = verify_flres(identity(3), 2)
        assert rep.passed
        assert rep.counts["tower_points"] == 1

    def test_all_s3(self):
        for w in all_permutations(3):
            rep = verify_flres(w, 2)
            assert rep.passed, (w, [c.name for c in rep.checks if not c.passed])

    def test_longest_word_surjective(self):
        rep = verify_flres(Permutation((3, 2, 1)), 2)
        surj = next(c for c in rep.checks if c.name == "image_equals_closed_variety")
        assert surj.passed
        assert rep.counts["closed_points"] == 21

    def test_reconstruction_grid_is_member(self):
        w = Permutation((2, 3, 1))
        cell = [flag for flag in enumerate_complete_flags(3, 2) if flag_position(flag) == w]
        assert len(cell) == 2 ** length(w)
        for flag in cell:
            assert grid_is_valid(reconstruct_grid(flag), w)

    @pytest.mark.parametrize("one_line", [(2, 3, 1), (3, 1, 2), (3, 2, 1)])
    def test_flag_meets_frame_at_least_grid(self, one_line):
        # every grid point bounds the rank profile of its flag from
        # below, with equality exactly when the intersection is the cell
        w = Permutation(one_line)
        d = rank_matrix(w)
        f = standard_frames(3, 2)
        for pt in enumerate_grid_flat(w, 2, True):
            flag = project_to_flag(pt)
            for p in range(1, 4):
                for q in range(1, 4):
                    inter = intersect(flag[p - 1], f[q])
                    assert inter.dim >= d[p][q]
                    assert (inter.dim == d[p][q]) == (inter == cell(pt, p, q))


def _graph(w, p, pinned):
    """The row graph of the pinned or the full grid of w."""
    return biflag.shat_graph(w, p) if pinned else RowGraph(*grid_rows(w, p, pinned))


class TestRowWalk:
    """The grids walked fan by fan (``exactlin.walk_fans``) against the
    flat tower over all cells, and the count reports built on them."""

    @pytest.mark.parametrize("n, p", [(1, 2), (2, 2), *STREAM_SPACES])
    def test_pinned_order_is_flat_order(self, n, p):
        for w in all_permutations(n):
            assert list(fan_points(_graph(w, p, True))) == list(enumerate_grid_flat(w, p, True)), w

    def test_pinned_order_longest_s5(self):
        w = _longest(5)
        pairs = zip_longest(fan_points(_graph(w, 2, True)), enumerate_grid_flat(w, 2, True))
        assert all(a == b for a, b in pairs)

    @pytest.mark.parametrize("n, p", [(3, 2), (3, 3), (4, 2), (4, 3)])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_count_report_is_flat_count(self, n, p, pinned):
        # the full grids of S_4 stop at 30 000 points, as in test_exactlin's
        # fan checks: the longest word's has 8.5 million at p = 3
        variety = "shat" if pinned else "flw"
        for w in all_permutations(n):
            if rows_bound(*grid_rows(w, p, pinned)) <= 30_000:
                got = enumerate_report(w, variety, p).counts["points"]
                assert got == sum(1 for _ in enumerate_grid_flat(w, p, pinned)), w

    # the full grid of S_4 at p=3 has 18.5 million points, and that of the
    # longest word of S_4 at p=2 230 thousand; the S_4 case stops at length 3
    @pytest.mark.parametrize(
        "n, p, max_length", [(1, 2, 0), (2, 3, 1), (3, 2, 3), (3, 3, 3), (4, 2, 3)]
    )
    def test_unpinned_order_is_flat_order(self, n, p, max_length):
        for w in all_permutations(n):
            if length(w) <= max_length:
                got = list(fan_points(_graph(w, p, False)))
                assert got == list(enumerate_grid_flat(w, p, False)), w

    def test_points_share_rows(self):
        # a row is built once over each distinct row below it, so the
        # points hold fewer row objects than there are points
        points = list(fan_points(_graph(_longest(4), 2, True)))
        rows = {id(row) for pt in points for row in pt}
        assert len(rows) < len(points) == 3 ** 6

    def test_unpinned_points_share_rows(self):
        points = list(fan_points(_graph(Permutation((2, 3, 1)), 3, False)))
        rows = {id(row) for pt in points for row in pt}
        assert len(rows) < 3 * len(points)

    @pytest.mark.parametrize("n, p", [(1, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_row_bound_is_flat_tower_bound(self, n, p, pinned):
        for w in all_permutations(n):
            want = tower_bound(grid_stages(w, p, pinned), p)
            assert rows_bound(*grid_rows(w, p, pinned)) == want, w

    @staticmethod
    def _refused_before_first_row(monkeypatch, count, flat):
        """The count report ``count`` is refused with the message of the
        tower ``flat``, and no row of its grid is built first."""
        with pytest.raises(BudgetExceededError) as flat_error:
            next(flat)

        def no_row(graph, r, below):
            raise AssertionError("a row was walked")

        monkeypatch.setattr(RowGraph, "choices", no_row)
        with pytest.raises(BudgetExceededError) as rows_error:
            count()
        assert str(rows_error.value) == str(flat_error.value)
        assert str(rows_error.value).startswith("tower needs up to ")

    @pytest.mark.parametrize("pinned", [True, False])
    def test_refused_before_first_point(self, monkeypatch, pinned):
        w = _longest(4)
        variety = "shat" if pinned else "flw"
        flat = enumerate_grid_flat(w, 3, pinned, budget=100)
        count = lambda: enumerate_report(w, variety, 3, budget=100)
        self._refused_before_first_row(monkeypatch, count, flat)

    def test_ghat_refused_before_first_point(self, monkeypatch):
        # the chain variety is walked first, and no frame's chain tower has
        # a bound below its grid's: an oversized frame is refused by it
        cfg = make_frame(6, 3, (2, 4))
        assert rows_bound(*wflag.ghat_rows(cfg)) > 100
        flat = wflag.enumerate_gcal(cfg, budget=100)
        count = lambda: wflag.enumerate_report(cfg, budget=100)
        self._refused_before_first_row(monkeypatch, count, flat)


class TestRowGraphSelfCheck:
    """After a full walk of the pinned grid's row graph, the choices over
    every row below are exactly their row's factor of ``rows_bound``
    distinct rows.  The W-flag grid is left out: its nonzero ``extra``
    makes its factor only a bound."""

    SPACES = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]

    def test_every_key_holds_its_factor(self):
        keys = 0
        for n, p in self.SPACES:
            for w in all_permutations(n):
                got, bad = row_factor_mismatches(exactlin.RowGraph(*grid_rows(w, p, True)))
                assert bad == 0, (w, p)
                keys += got
        assert keys == 19_262

    def test_dropped_choice_fails(self, monkeypatch):
        monkeypatch.setattr(exactlin, "enumerate_between", _drop_last(exactlin.enumerate_between))
        for w in (Permutation((2, 1)), Permutation((2, 3, 1)), _longest(4)):
            keys, bad = row_factor_mismatches(exactlin.RowGraph(*grid_rows(w, 2, True)))
            assert 0 < bad <= keys, w

    def test_dropped_choice_fails_count_reports(self, monkeypatch):
        # the pinned grid's graph is built afresh, not read from the cache
        monkeypatch.setattr(exactlin, "enumerate_between", _drop_last(exactlin.enumerate_between))
        monkeypatch.setattr(biflag, "shat_graph", lambda w, p: RowGraph(*grid_rows(w, p, True)))
        checks = {"shat": "count_is_(p+1)^l", "flw": "count_matches_cell_product"}
        for w in (Permutation((2, 1)), Permutation((2, 3, 1)), _longest(4)):
            for variety, check in checks.items():
                assert _failed(enumerate_report(w, variety, 2)) == {check}, (w, variety)
        for beta in ((2,), (1, 3), (2, 4), (1, 3, 4)):
            report = wflag.enumerate_report(make_frame(4, 2, beta))
            assert "grid_count_matches_row_product" in _failed(report), beta


def _drop_last(between):
    """An ``enumerate_between`` that drops the last of two or more choices."""

    def short(lower, upper, dim):
        got = list(between(lower, upper, dim))
        return iter(got[:-1] if len(got) > 1 else got)

    return short


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


class TestVerifyFlresBudget:
    @pytest.mark.parametrize("one_line", [(2, 3, 1), (3, 2, 1), (2, 4, 1, 3)])
    def test_refused_before_the_bruhat_interval(self, monkeypatch, one_line):
        # the tower's bound is checked before ``bruhat_interval`` runs
        w = Permutation(one_line)
        bound = rows_bound(*grid_rows(w, 2, pinned_last_row=True))

        def no_interval(v):
            raise AssertionError("the Bruhat interval was built")

        with monkeypatch.context() as patch:
            patch.setattr(biflag, "bruhat_interval", no_interval)
            with pytest.raises(BudgetExceededError, match=f"^tower needs up to {bound} points"):
                verify_flres(w, 2, bound - 1)
        assert verify_flres(w, 2, bound).passed

    def test_identity_of_s10_visits_no_other_permutation(self, monkeypatch):
        # a one-point tower reads a one-element interval, not S_10; the scan
        # is refused in permcomb and as a name imported into biflag
        def no_scan(n):
            raise AssertionError("S_n was scanned")

        for module in (permcomb, biflag):
            monkeypatch.setattr(module, "all_permutations", no_scan, raising=False)
        report = verify_flres(identity(10), 2)
        assert report.passed
        assert report.counts["tower_points"] == report.counts["closed_points"] == 1


def _graph_points(w, p):
    """The pinned grid's points with the row graph's own rows, so that
    ``cut_into_fans`` cuts them into the graph's fans."""
    return list(fan_points(_graph(w, p, True)))


def _feed(monkeypatch, points):
    """Both verifiers over the grid tower ``points``: ``verify_flres``
    reads it cut into fans, the list oracle point by point."""
    monkeypatch.setattr(biflag, "walk_fans", lambda graph, b: cut_into_fans(points))
    monkeypatch.setattr(oracles, "enumerate_grid_flat", lambda w, p, pinned, b: iter(points))


class TestVerifyFlresStreams:
    """The one-pass ``verify_flres`` against the list-based oracle."""

    @pytest.mark.parametrize("n, p", STREAM_SPACES)
    def test_same_report_as_list_oracle(self, n, p):
        for w in all_permutations(n):
            got = _without_time(verify_flres(w, p).to_json())
            assert got == _without_time(verify_flres_by_lists(w, p).to_json()), w

    def test_same_report_longest_s5(self):
        w = _longest(5)
        got = _without_time(verify_flres(w, 2).to_json())
        assert got == _without_time(verify_flres_by_lists(w, 2).to_json())

    def test_two_points_over_a_cell_flag(self, monkeypatch):
        # a tower that yields a point over the cell twice loses the bijection
        w = Permutation((2, 3, 1))
        points = _graph_points(w, 2)
        twice = next(pt for pt in points if flag_position(project_to_flag(pt)) == w)
        _feed(monkeypatch, points + [twice])
        got = verify_flres(w, 2)
        assert "cell_fibers_are_singletons" in {c.name for c in got.checks if not c.passed}
        assert _without_time(got.to_json()) == _without_time(verify_flres_by_lists(w, 2).to_json())

    def test_wrong_grid_over_a_cell_flag(self, monkeypatch):
        # a point over a cell flag whose other cells are not the flag's
        # intersections with F_* keeps its flag but fails the inverse
        w = Permutation((2, 3, 1))
        points = _graph_points(w, 2)
        i = next(i for i, pt in enumerate(points) if flag_position(project_to_flag(pt)) == w)
        zero = standard_frames(3, 2)[0]
        points[i] = tuple((zero, zero, row[-1]) for row in points[i])
        _feed(monkeypatch, points)
        got = verify_flres(w, 2)
        assert {c.name for c in got.checks if not c.passed} == {"cell_fiber_is_intersection_grid"}
        assert _without_time(got.to_json()) == _without_time(verify_flres_by_lists(w, 2).to_json())

    @pytest.mark.parametrize("one_line", [(2, 3, 1), (3, 2, 1), (2, 4, 1, 3)])
    def test_equal_rows_as_distinct_objects_pass(self, monkeypatch, one_line):
        # every row and cell of every point a fresh object of the same value:
        # each flag is still keyed by value
        w = Permutation(one_line)
        points = [copied(pt) for pt in _graph_points(w, 2)]
        _feed(monkeypatch, points)
        got = verify_flres(w, 2)
        assert got.passed
        assert _without_time(got.to_json()) == _without_time(verify_flres_by_lists(w, 2).to_json())

    @pytest.mark.parametrize("over_cell", [True, False])
    def test_same_flag_through_distinct_rows_is_one_flag(self, monkeypatch, over_cell):
        # a copy of an earlier point, with rows of its own, adds a tower
        # point but no image flag; over the cell it is a second point
        w, p = Permutation((2, 3, 1)), 2
        points = _graph_points(w, p)
        again = next(
            pt for pt in points if (flag_position(project_to_flag(pt)) == w) == over_cell
        )
        _feed(monkeypatch, points + [copied(again)])
        got = verify_flres(w, p)
        failed = {c.name for c in got.checks if not c.passed}
        want = {"tower_count_is_(p+1)^l", "cell_fibers_are_singletons"}
        assert failed == (want if over_cell else want - {"cell_fibers_are_singletons"})
        assert got.counts["cell_points"] == p ** length(w)
        assert _without_time(got.to_json()) == _without_time(verify_flres_by_lists(w, p).to_json())

    def _drop_one_flag(self, monkeypatch, w, p, u):
        """Both verifiers over a tower without the points over the first
        image flag at position u."""
        points = _graph_points(w, p)
        dropped = next(f for f in map(project_to_flag, points) if flag_position(f) == u)
        kept = [pt for pt in points if project_to_flag(pt) != dropped]
        _feed(monkeypatch, kept)
        got = verify_flres(w, p)
        assert _without_time(got.to_json()) == _without_time(verify_flres_by_lists(w, p).to_json())
        return got

    @pytest.mark.parametrize("p", [2, 3])
    def test_dropped_lower_flag_fails_surjectivity(self, monkeypatch, p):
        # a flag of a lower cell missing from the image leaves the closed
        # count as it was and makes the image smaller than the variety
        w, u = Permutation((2, 3, 1)), Permutation((2, 1, 3))
        want = verify_flres(w, p)
        got = self._drop_one_flag(monkeypatch, w, p, u)
        failed = {c.name for c in got.checks if not c.passed}
        assert "image_equals_closed_variety" in failed
        assert "image_in_closed_variety" not in failed
        assert got.counts["closed_points"] == want.counts["closed_points"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_dropped_cell_flag_fails_cell_count(self, monkeypatch, p):
        # a flag of the cell of w missing from the image leaves the cell
        # one point short, while the fibers that remain are singletons
        w = Permutation((2, 3, 1))
        got = self._drop_one_flag(monkeypatch, w, p, w)
        failed = {c.name for c in got.checks if not c.passed}
        assert "cell_count_is_p^l" in failed
        assert "cell_fibers_are_singletons" not in failed
        assert got.counts["cell_points"] == p ** length(w) - 1
        assert not got.passed

    def test_witness_is_first_outside_flag(self, monkeypatch):
        # with every position read as the longest word, every image flag
        # lies outside; the witness is the first one in tower order.  Both
        # verifiers read positions off jump sums: give every space of
        # dimension d the jumps n-d+1..n
        w = Permutation((2, 3, 1))
        def longest(space):
            return sum(range(space.n - space.dim + 1, space.n + 1))

        monkeypatch.setattr(biflag, "_jump_sum", longest)
        assert {flag_position(f) for f in enumerate_complete_flags(3, 2)} == {_longest(3)}
        got = json.loads(verify_flres(w, 2).to_json())
        want = json.loads(verify_flres_by_lists(w, 2).to_json())
        check = next(c for c in got["checks"] if c["name"] == "image_in_closed_variety")
        assert not check["passed"] and check["witnesses"]
        assert got["checks"] == want["checks"]
