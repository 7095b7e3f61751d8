"""Relaxed-incidence chain varieties and their grid resolutions."""

import itertools
import random

import oracles
import pytest
from oracles import (
    apply,
    clear_caches,
    closed_form_fiber,
    compress_maps,
    copied,
    cut_into_fans,
    enumerate_ghat_flat,
    fan_points,
    gcal_membership,
    graph_tuple,
    report_text,
    verify_chain_resolution_by_points,
    zero_map,
)

from schubres import grassfib, wflag
from schubres.exactlin import (
    BudgetExceededError,
    LinearMap,
    RowGraph,
    contains,
    enumerate_subspaces,
    full_space,
    graph,
    intersect,
    rows_bound,
    subspace_sum,
)
from schubres.grassfib import make_frame
from schubres.wflag import (
    build_lift,
    enumerate_gcal,
    enumerate_report,
    fixed_map_tuples,
    ghat_count_formula,
    ghat_membership,
    ghat_rows,
    in_u,
    pi_diag,
    psi_tilde,
    u_count_formula,
    u_dimension_formula,
    verify_chain_resolution,
)


def zero_tuple(cfg):
    return tuple(
        zero_map(cfg.line(i), cfg.complements_suffix(i + 1)) for i in range(1, cfg.k + 1)
    )


class TestCompressMaps:
    def test_zero_maps_stay_zero(self):
        cfg = make_frame(4, 2, (1, 3))
        bs = compress_maps(cfg, zero_tuple(cfg))
        for i, b in enumerate(bs, start=1):
            assert all(all(x == 0 for x in row) for row in b.matrix)
            assert graph(b) == cfg.lines_prefix(i)

    def test_k2_structure(self):
        # B_1 = A_1; B_2 drops the second-window complement component of
        # A_1 and keeps A_2 unchanged
        cfg = make_frame(5, 3, (2, 4))
        rng = random.Random(3)
        for _ in range(20):
            maps = []
            for i in (1, 2):
                target = cfg.complements_suffix(i + 1)
                matrix = tuple((rng.randrange(3),) for _ in range(target.dim))
                maps.append(LinearMap(cfg.line(i), target, matrix))
            b1, b2 = compress_maps(cfg, tuple(maps))
            x1 = cfg.line(1).basis[0]
            assert apply(b1, x1) == apply(maps[0], x1)
            y = apply(maps[0], x1)
            dropped = apply(b2, x1)
            diff = tuple((a - c) % 3 for a, c in zip(y, dropped))
            assert cfg.complement(2).contains_vector(diff)
            x2 = cfg.line(2).basis[0]
            assert apply(b2, x2) == apply(maps[1], x2)

    def test_truncation_identity_random_gf3(self):
        # dropping map components inside the first i complements does
        # not change the graph modulo those complements
        from schubres.wflag import fixed_map_tuples

        cfg = make_frame(5, 3, (1, 3))
        rng = random.Random(17)
        for _ in range(60):
            maps = []
            for i in (1, 2):
                target = cfg.complements_suffix(i + 1)
                matrix = tuple((rng.randrange(3),) for _ in range(target.dim))
                maps.append(LinearMap(cfg.line(i), target, matrix))
            bs = compress_maps(cfg, tuple(maps))
            for i in range(1, cfg.k + 1):
                shift = cfg.complements_prefix(i)
                lhs = shift
                for j in range(1, i + 1):
                    lhs = subspace_sum(lhs, graph(maps[j - 1]))
                assert lhs == subspace_sum(graph(bs[i - 1]), shift)

    def test_prefix_nesting_random_gf3(self):
        # graphs of consecutive compressed maps nest modulo the next
        # window complement, 100 random samples
        cfg = make_frame(5, 3, (1, 3))
        rng = random.Random(11)
        for _ in range(100):
            maps = []
            for i in (1, 2):
                target = cfg.complements_suffix(i + 1)
                matrix = tuple((rng.randrange(3),) for _ in range(target.dim))
                maps.append(LinearMap(cfg.line(i), target, matrix))
            pt = graph_tuple(cfg, tuple(maps))
            for i in range(1, cfg.k):
                assert contains(subspace_sum(pt[i], cfg.complement(i + 1)), pt[i - 1])


class TestEnumerateGcal:
    def test_k1_is_full_grassmannian_of_lines(self):
        cfg = make_frame(4, 2, (2,))
        pts = list(enumerate_gcal(cfg))
        # lines of the nested space of dimension 1 + (n - b_1) = 3
        assert len(pts) == 7

    def test_zero_point_is_member(self):
        for beta in [(2, 4), (1, 3)]:
            cfg = make_frame(4, 2, beta)
            zero_pt = tuple(cfg.lines_prefix(i) for i in range(1, cfg.k + 1))
            assert gcal_membership(cfg, zero_pt)
            assert zero_pt in set(enumerate_gcal(cfg))

    def test_all_points_are_members(self):
        cfg = make_frame(5, 2, (1, 3))
        for pt in enumerate_gcal(cfg):
            assert gcal_membership(cfg, pt)

    def test_growth_across_fields(self):
        # one map-space dimension: the chain count grows like a curve,
        # its open locus like the affine line count
        cfg2 = make_frame(4, 2, (2, 4))
        cfg3 = make_frame(4, 3, (2, 4))
        assert u_count_formula(4, 2, (2, 4)) == 3
        assert u_count_formula(4, 3, (2, 4)) == 4
        opens2 = [pt for pt in enumerate_gcal(cfg2) if in_u(cfg2, pt)]
        opens3 = [pt for pt in enumerate_gcal(cfg3) if in_u(cfg3, pt)]
        assert len(opens2) == 3 and len(opens3) == 4

    @pytest.mark.parametrize("p", [2, 3])
    def test_bound_at_least_count(self, p):
        # refused one point below the count: the static bound is at least
        # the count on every default frame with n <= 5
        for n in range(1, 6):
            for k in range(1, n + 1):
                for beta in itertools.combinations(range(1, n + 1), k):
                    cfg = make_frame(n, p, beta)
                    count = sum(1 for _ in enumerate_gcal(cfg))
                    with pytest.raises(BudgetExceededError):
                        next(enumerate_gcal(cfg, count - 1))

    def test_refused_before_any_space_is_built(self, monkeypatch):
        # the level bounds are read off the window bounds, so a frame of a
        # hundred windows is refused before its first space is built
        def no_space(coords, n, p):
            raise AssertionError("a frame space was built")

        clear_caches()
        monkeypatch.setattr(grassfib, "coordinate_space", no_space)
        cfg = make_frame(200, 2, tuple(range(2, 201, 2)))
        with pytest.raises(BudgetExceededError):
            next(enumerate_gcal(cfg, 1))

    @pytest.mark.parametrize("p", [2, 3])
    def test_level_bounds_equal_the_built_spaces(self, p, monkeypatch):
        # each level's bound is min(dim nested(i, i), i + 1 + dim
        # complement(i+1)), the top level's dim nested(k, k); tower_bound
        # reads nothing else of a level
        levels = []

        def keep(stages, p, budget):
            levels.append(stages)
            return iter(())

        monkeypatch.setattr(wflag, "tower", keep)
        for n in range(1, 7):
            for k in range(1, n + 1):
                for beta in itertools.combinations(range(1, n + 1), k):
                    cfg = make_frame(n, p, beta)
                    list(enumerate_gcal(cfg))
                    want = []
                    for i in range(k, 0, -1):
                        up = cfg.nested(i, i).dim
                        if i < k:
                            up = min(up, i + 1 + cfg.complement(i + 1).dim)
                        want.append((0, up, i))
                    assert [(st.lo, st.up, st.dim) for st in levels.pop()] == want, cfg

    @pytest.mark.parametrize("n,p", [(6, 5), (7, 3)])
    def test_runs_at_default_budget(self, n, p):
        # 42 066 and 110 539 chain points, under bounds of 3 897 816 and
        # 2 044 900; l_i lies in l_{i+1} + complement(i+1)
        cfg = make_frame(n, p, (1, 3, 5))
        assert gcal_membership(cfg, next(enumerate_gcal(cfg)))


class TestEnumerateGhat:
    def test_k1_matches_gcal(self):
        cfg = make_frame(4, 2, (2,))
        ghat = [pi_diag(pt) for pt in enumerate_ghat_flat(cfg)]
        assert sorted(ghat) == sorted(enumerate_gcal(cfg))

    def test_diag_lands_in_gcal(self):
        cfg = make_frame(4, 2, (1, 3))
        for pt in enumerate_ghat_flat(cfg):
            assert ghat_membership(cfg, pt)
            assert gcal_membership(cfg, pi_diag(pt))

    def test_count_matches_row_product(self):
        cfg = make_frame(5, 2, (2, 4))
        assert enumerate_report(cfg).counts["grid_points"] == ghat_count_formula(cfg) == 27
        assert sum(1 for _ in enumerate_ghat_flat(cfg)) == 27


def _default_frames(n, p):
    return [
        make_frame(n, p, beta)
        for k in range(1, n + 1)
        for beta in itertools.combinations(range(1, n + 1), k)
    ]


def _graph_points(cfg):
    """The grid's points with its row graph's own rows, so that
    ``cut_into_fans`` cuts them into the graph's fans."""
    return list(fan_points(RowGraph(*ghat_rows(cfg))))


class TestGhatRowWalk:
    """The grid's row graph, walked fan by fan, against the flat tower
    over all cells."""

    @pytest.mark.parametrize("n, p", [(n, 2) for n in range(1, 6)] + [(n, 3) for n in range(1, 5)])
    def test_order_is_flat_order(self, n, p):
        for cfg in _default_frames(n, p):
            assert _graph_points(cfg) == list(enumerate_ghat_flat(cfg)), cfg

    @pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3) for n in range(1, 6)])
    def test_count_report_is_flat_count(self, n, p):
        for cfg in _default_frames(n, p):
            got = enumerate_report(cfg).counts["grid_points"]
            assert got == sum(1 for _ in enumerate_ghat_flat(cfg)), cfg

    def test_points_share_rows(self):
        # a row is built once over each distinct row below it, where the
        # flat tower slices fresh rows out of every point
        points = _graph_points(make_frame(5, 3, (1, 3, 5)))
        rows = {id(row) for pt in points for row in pt}
        assert len(rows) < 3 * len(points)
        flat = list(enumerate_ghat_flat(make_frame(5, 3, (1, 3, 5))))
        assert len({id(row) for pt in flat for row in pt}) == 3 * len(flat)

    @pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3) for n in range(1, 7)])
    def test_row_bound_is_row_product(self, n, p):
        for cfg in _default_frames(n, p):
            assert rows_bound(*ghat_rows(cfg)) == ghat_count_formula(cfg), cfg


class TestLift:
    @pytest.mark.parametrize("j", [1, 3])
    def test_pair_step_rejects_vector_outside_the_sum(self, j):
        # window 2 of beta (1,3,5) is coordinates 1..2, its complement e_2,
        # and nested(1, 2) = <e_0, e_4>: e_1 has its window part outside
        # the complement and e_3 the rest outside nested(1, 2)
        from schubres import wflag
        from schubres.exactlin import span

        cfg = make_frame(5, 2, (1, 3, 5))
        e = [tuple(int(i == c) for i in range(5)) for c in range(5)]
        x, y = span([e[j]], 5, 2), span([e[1], e[3]], 5, 2)
        with pytest.raises(ValueError, match="outside onto"):
            wflag._pair_step(cfg, x, y, cfg.nested(1, 2), 2)

    def test_zero_point_lifts_to_prefix_grid(self):
        cfg = make_frame(4, 2, (1, 3))
        zero_pt = tuple(cfg.lines_prefix(i) for i in range(1, cfg.k + 1))
        grid = build_lift(cfg, zero_pt)
        for i in range(1, cfg.k + 1):
            for j in range(1, i + 1):
                assert grid[i - 1][j - 1] == cfg.lines_prefix(j)

    def test_open_locus_matches_closed_form(self):
        cfg = make_frame(4, 2, (1, 3))
        for pt in enumerate_gcal(cfg):
            if in_u(cfg, pt):
                assert build_lift(cfg, pt) == closed_form_fiber(cfg, pt)

    def test_every_point_lifts(self):
        cfg = make_frame(4, 2, (2, 4))
        for pt in enumerate_gcal(cfg):
            assert pi_diag(build_lift(cfg, pt)) == pt

    @pytest.mark.parametrize("n,p", [(4, 2), (5, 2), (4, 3)])
    def test_memo_gives_the_same_lift(self, n, p):
        # one memo per frame, as ``wflag verify`` and ``wflag lift`` keep it
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                cfg = make_frame(n, p, beta)
                memo = {}
                for pt in enumerate_gcal(cfg):
                    assert build_lift(cfg, pt, memo) == build_lift(cfg, pt), (beta, pt)
                assert memo or k == 1

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("p", [2, 3])
    def test_pair_step_matches_span_oracle(self, n, p, monkeypatch):
        # every step that ``wflag verify`` takes over the default frames,
        # on the subspaces it hands ``_pair_step``
        import oracles

        calls = []
        step = wflag._pair_step

        def recording(cfg, x, y, v_target, window):
            calls.append((cfg, x, y, v_target, window, step(cfg, x, y, v_target, window)))
            return calls[-1][-1]

        monkeypatch.setattr(wflag, "_pair_step", recording)
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                verify_chain_resolution(make_frame(n, p, beta))
        assert calls or n < 3
        for cfg, x, y, v_target, window, z in calls:
            assert oracles.pair_step_by_span(cfg, x, y, v_target, window) == z


class TestInU:
    def test_zero_point_in_u(self):
        cfg = make_frame(4, 2, (1, 3))
        assert in_u(cfg, tuple(cfg.lines_prefix(i) for i in range(1, 3)))

    def test_k1_vacuous(self):
        cfg = make_frame(4, 2, (2,))
        for pt in enumerate_gcal(cfg):
            assert in_u(cfg, pt)

    def test_witness_outside_u(self):
        cfg = make_frame(5, 2, (1, 3))
        outside = [pt for pt in enumerate_gcal(cfg) if not in_u(cfg, pt)]
        assert outside
        for pt in outside:
            assert intersect(pt[1], cfg.nested(1, 2)).dim != 1


class TestPsiTilde:
    def test_zero_point_gives_standard_nodes(self):
        cfg = make_frame(4, 2, (1, 3))
        zero_pt = tuple(cfg.lines_prefix(i) for i in range(1, 3))
        flag = psi_tilde(cfg, zero_pt)
        assert flag == tuple(cfg.frames[b] for b in cfg.beta)

    def test_dims_are_beta(self):
        cfg = make_frame(4, 2, (2, 4))
        for pt in enumerate_gcal(cfg):
            flag = psi_tilde(cfg, pt)
            assert [s.dim for s in flag] == list(cfg.beta)

    def test_agrees_with_direct_graph_path_gf3(self):
        cfg = make_frame(4, 3, (1, 3))
        rng = random.Random(5)
        for _ in range(50):
            maps = []
            for i in (1, 2):
                target = cfg.complements_suffix(i + 1)
                matrix = tuple((rng.randrange(3),) for _ in range(target.dim))
                maps.append(LinearMap(cfg.line(i), target, matrix))
            pt = graph_tuple(cfg, tuple(maps))
            flag = psi_tilde(cfg, pt)
            for i in range(1, 3):
                direct = cfg.complements_prefix(i)
                for j in range(1, i + 1):
                    direct = subspace_sum(direct, graph(maps[j - 1]))
                assert flag[i - 1] == direct


EMBED_CASES = [
    (4, 2, (1, 3)),
    (4, 2, (2, 4)),
    (4, 3, (1, 3)),
    (4, 3, (2, 4)),
    (5, 3, (1, 3)),
    (5, 3, (2, 4)),
    (5, 3, (1, 3, 5)),
]
EMBED_IDS = [f"n{n}-p{p}-beta{'-'.join(map(str, beta))}" for n, p, beta in EMBED_CASES]


class TestVerify:
    @pytest.mark.parametrize("n,beta", [(4, (2, 4)), (4, (1, 3)), (5, (2, 4))])
    def test_configs_pass(self, n, beta):
        rep = verify_chain_resolution(make_frame(n, 2, beta))
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    def test_singular_regime_has_multi_fiber(self):
        rep = verify_chain_resolution(make_frame(5, 2, (1, 3)))
        assert rep.passed
        assert rep.counts["multi_point_fibers"] >= 1

    def test_dimension_formula(self):
        assert u_dimension_formula(4, (2, 4)) == 1
        assert u_dimension_formula(4, (1, 3)) == 3
        assert u_dimension_formula(5, (1, 3, 5)) == 3

    @pytest.mark.parametrize("n,p,beta", EMBED_CASES, ids=EMBED_IDS)
    def test_map_space_embeds_in_open_locus(self, n, p, beta):
        # every compressed graph tuple is a chain point of the open
        # locus, and distinct map tuples give distinct points
        cfg = make_frame(n, p, beta)
        points = [graph_tuple(cfg, maps) for maps in fixed_map_tuples(cfg)]
        for pt in points:
            assert gcal_membership(cfg, pt)
            assert in_u(cfg, pt)
        assert len(set(points)) == len(points) == p ** u_dimension_formula(n, beta)

    def test_all_short_indices_n4_n5(self):
        # degenerate windows included: adjacent nodes give zero
        # interleaving complements and force a bijective projection
        import itertools

        for n, k in [(4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]:
            for beta in itertools.combinations(range(1, n + 1), k):
                cfg = make_frame(n, 2, beta)
                rep = verify_chain_resolution(cfg)
                assert rep.passed, (n, beta, [c.name for c in rep.checks if not c.passed])

    def test_forced_bijection_without_interleaving(self):
        # off the open locus but no interleaving freedom: every fiber is
        # still a single point
        cfg = make_frame(4, 2, (1, 2))
        gcal = list(enumerate_gcal(cfg))
        assert any(not in_u(cfg, pt) for pt in gcal)
        rep = verify_chain_resolution(cfg)
        assert rep.counts["multi_point_fibers"] == 0
        assert rep.counts["grid_points"] == rep.counts["chain_points"]


def feed_both(monkeypatch, points):
    """Both verifiers over the grid ``points``: ``verify_chain_resolution``
    reads them cut into fans, the point-walk oracle point by point."""
    monkeypatch.setattr(wflag, "walk_fans", lambda graph, budget: cut_into_fans(points))
    monkeypatch.setattr(oracles, "enumerate_ghat_flat", lambda cfg, budget: iter(points))


class TestFanWalk:
    """The fan walk on ints against the point walk on subspaces it
    replaced, and grids fed to both."""

    @pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3) for n in range(2, 6)] + [(6, 2)])
    def test_same_report_as_point_walk(self, n, p):
        for cfg in _default_frames(n, p):
            got = report_text(verify_chain_resolution(cfg))
            assert got == report_text(verify_chain_resolution_by_points(cfg)), cfg

    @pytest.mark.parametrize("beta", [(1, 3), (1, 3, 5), (2, 4)])
    def test_equal_rows_as_distinct_objects_pass(self, monkeypatch, beta):
        # every other point's rows and cells are new objects of the same
        # values: the reads by row id give the same ints
        cfg = make_frame(5, 2, beta)
        want = report_text(verify_chain_resolution(cfg))
        points = [copied(pt) if i % 2 else pt for i, pt in enumerate(_graph_points(cfg))]
        feed_both(monkeypatch, points)
        got = verify_chain_resolution(cfg)
        assert got.passed
        assert report_text(got) == want == report_text(verify_chain_resolution_by_points(cfg))

    @pytest.mark.parametrize("beta", [(1, 3), (2, 4), (1, 3, 5)])
    def test_diagonal_off_the_chain_variety_fails(self, monkeypatch, beta):
        # one point's row 1 is a line outside nested(1, 1): its diagonal is
        # no chain point, and the fiber it left may lose its lift
        cfg = make_frame(5, 2, beta)
        outside = next(
            l for l in enumerate_subspaces(full_space(5, 2), 1) if not contains(cfg.nested(1, 1), l)
        )
        points = _graph_points(cfg)
        points[3] = ((outside,),) + points[3][1:]
        assert not gcal_membership(cfg, pi_diag(points[3]))
        feed_both(monkeypatch, points)
        got = verify_chain_resolution(cfg)
        failed = [c.name for c in got.checks if not c.passed]
        assert "projection_lands_in_chain_variety" in failed
        assert report_text(got) == report_text(verify_chain_resolution_by_points(cfg))

    @pytest.mark.parametrize("n, beta", [(5, (1, 3)), (6, (1, 3, 5))])
    def test_dropped_lift_fails_lift_check(self, monkeypatch, n, beta):
        # the lift of the first chain point with a multi-point fiber is
        # dropped from the grid: the fiber keeps a point, the lift is gone;
        # with k = 3 the cells of rows 2..3 are compared once per fan
        cfg = make_frame(n, 2, beta)
        points = _graph_points(cfg)
        diags = [pi_diag(pt) for pt in points]
        multi = next(d for d in diags if diags.count(d) > 1)
        lift = build_lift(cfg, multi)
        points.remove(lift)
        feed_both(monkeypatch, points)
        got = verify_chain_resolution(cfg)
        checks = {c.name: c.passed for c in got.checks}
        assert not checks["lift_lands_in_enumerated_grid"]
        assert checks["projection_onto"] and checks["lift_is_a_section"]
        assert report_text(got) == report_text(verify_chain_resolution_by_points(cfg))

    def test_wrong_upper_cell_fails_lift_check(self, monkeypatch):
        # a chain point's lift is fed with its cell (3, 1) swapped for
        # another line: rows 1 and 2 are still the lift's, so only the
        # cells compared once per fan show that it is not
        cfg = make_frame(5, 2, (1, 3, 5))
        points = _graph_points(cfg)
        i, lift = next(
            (i, pt) for i, pt in enumerate(points) if pt == build_lift(cfg, pi_diag(pt))
        )
        other = next(
            l for l in enumerate_subspaces(lift[2][1], 1) if l != lift[2][0]
        )
        points[i] = lift[:2] + ((other,) + lift[2][1:],)
        feed_both(monkeypatch, points)
        got = verify_chain_resolution(cfg)
        checks = {c.name: c.passed for c in got.checks}
        assert not checks["lift_lands_in_enumerated_grid"]
        assert checks["projection_lands_in_chain_variety"] and checks["lift_is_a_section"]
        assert report_text(got) == report_text(verify_chain_resolution_by_points(cfg))
