"""Graph-sum parametrizations of Grassmannian Schubert loci."""

import itertools
import json

import pytest
import oracles
from oracles import (
    coflag,
    coframe_slice,
    frame_by_arithmetic,
    frame_slice,
    graph_by_apply,
    map_inputs,
    moving_complements_by_arithmetic,
    phi,
    phi_star,
    project,
    rank_filter,
    recover_lines_by_slices,
    recover_lines_from_open,
    recover_lines_from_star,
    schubert_position,
    sum_all,
    verify_phi_by_sets,
    verify_phi_star_by_sets,
    zero_map,
)

from schubres.biflag import standard_frames
from schubres.exactlin import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InvariantError,
    LinearMap,
    Subspace,
    coordinate_space,
    enumerate_maps,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    graph_rows,
    intersect,
    span,
    subspace_sum,
)
from schubres import embres, grassfib, suite
from schubres.grassfib import (
    FrameConfig,
    LOCI,
    _check_star_row,
    base_point_count,
    closed_locus,
    hom_rank,
    locus_charts,
    make_frame,
    moving_complements,
    phi_star_targets,
    phi_targets,
    verify_phi,
    verify_phi_star,
    verify_transversal_identity,
    window_line_tuples,
)
from schubres.report import EnumReport, frame_config


def e(i, n):
    return tuple(1 if j == i - 1 else 0 for j in range(n))


# (n, p) spaces on which every locus is checked against the oracle
ORACLE_SPACES = [(n, 2) for n in range(1, 6)] + [(n, 3) for n in range(1, 5)]

# (n, p) spaces on which the echelon slices are checked against intersect
SLICE_SPACES = [(n, 2) for n in range(1, 6)] + [(4, 3)]


def all_frames(n, p):
    """The default frame of every multi-index of GF(p)^n."""
    for k in range(1, n + 1):
        for beta in itertools.combinations(range(1, n + 1), k):
            yield make_frame(n, p, beta)


def frame_lines(cfg):
    """The lines 1..k of the frame."""
    return tuple(cfg.line(i) for i in range(1, cfg.k + 1))


def project_subspace(s, onto, along):
    """Image of a subspace under the projection onto ⊕ along -> onto."""
    return span([project(v, onto, along) for v in s.basis], s.n, s.p)


def intersect_recover_open(cfg, l):
    """Base-point oracle: project L ∩ F_{b_i} into window i along F_{b_{i-1}}."""
    out = []
    for i in range(1, cfg.k + 1):
        inter = intersect(l, cfg.frames[cfg.beta[i - 1]])
        prev = cfg.frames[cfg.beta[i - 2]] if i >= 2 else cfg.frames[0]
        out.append(project_subspace(inter, cfg.window(i), prev))
    return tuple(out)


def intersect_recover_star(cfg, l):
    """Base-point oracle: project L ∩ G^{b_{i-1}} into window i along G^{b_i}."""
    coframes = coflag(cfg.n, cfg.p)
    out = []
    for i in range(1, cfg.k + 1):
        prev = coframes[cfg.beta[i - 2]] if i >= 2 else coframes[0]
        inter = intersect(l, prev)
        out.append(project_subspace(inter, cfg.window(i), coframes[cfg.beta[i - 1]]))
    return tuple(out)


def locus_points(cfg, mode):
    """The points of a locus unranked off ``locus_charts``, the a cells'
    spanned back from their coordinate-reversed rows."""
    for chart in locus_charts(cfg, mode).values():
        for i in range(chart.offset, chart.offset + chart.size):
            s = chart.unrank(i)
            if mode.startswith("star_"):
                yield s
            else:
                yield span([row[::-1] for row in s.basis], cfg.n, cfg.p)


def transversal_by_walk(cfg, budget=DEFAULT_BUDGET):
    """``verify_transversal_identity`` over one walk of all of Gr_k: the
    oracle for the version that walks only the closed locus."""
    with EnumReport("grass verify-transversal", frame_config(cfg, budget)) as report:
        meet, closed_meet = set(), set()
        for l in enumerate_subspaces(full_space(cfg.n, cfg.p), cfg.k):
            a, c = schubert_position(l)
            if LOCI["open"](cfg.beta, a) and LOCI["star_open"](cfg.beta, c):
                meet.add(l)
            if LOCI["closed"](cfg.beta, a) and LOCI["star_closed"](cfg.beta, c):
                closed_meet.add(l)
        base = {sum_all(lines, cfg.n, cfg.p) for lines in window_line_tuples(cfg)}
        report.counts["intersection"] = len(meet)
        report.counts["base_points"] = len(base)
        report.add("open_intersection_is_base", meet == base)
        report.add("closed_intersection_no_bigger", closed_meet == meet)
    return report


def without_time(report):
    out = json.loads(report.to_json())
    out.pop("wall_time_s")
    return out


class TestMakeFrame:
    def test_default_frame_n4(self):
        cfg = make_frame(4, 2, (2, 4))
        assert cfg.line(1) == span([e(1, 4)], 4, 2)
        assert cfg.complement(1) == span([e(2, 4)], 4, 2)
        assert cfg.line(2) == span([e(3, 4)], 4, 2)
        assert cfg.complement(2) == span([e(4, 4)], 4, 2)
        assert cfg.complement(3).dim == 0

    def test_nested_spaces(self):
        cfg = make_frame(4, 2, (2, 4))
        assert cfg.nested(1, 1) == span([e(1, 4), e(4, 4)], 4, 2)
        assert cfg.nested(2, 2) == span([e(1, 4), e(3, 4)], 4, 2)

    def test_nested_dims(self):
        cfg = make_frame(5, 2, (1, 3, 5))
        for i in range(1, 4):
            for j in range(1, i + 1):
                want = j + sum(cfg.window(t).dim - 1 for t in range(i + 1, 4))
                assert cfg.nested(j, i).dim == want + cfg.complement(4).dim

    def test_standard_flag_built_on_use(self, monkeypatch):
        # a frame is made before its budget is checked, so making it must
        # not build the n+1 spaces of the standard flag
        def no_flag(n, p):
            raise AssertionError("the standard flag was built")

        monkeypatch.setattr(grassfib, "standard_frames", no_flag)
        cfg = make_frame(8, 2, (1, 5))
        assert cfg.complement(3).dim == 3
        monkeypatch.undo()
        assert cfg.frames is standard_frames(8, 2)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            make_frame(4, 2, (2, 2))
        with pytest.raises(ValueError):
            make_frame(4, 2, (0, 3))

    @pytest.mark.parametrize("n,p", [(n, 2) for n in range(1, 6)] + [(4, 3)])
    def test_frame_sums_match_fresh_sums(self, n, p):
        # the frame's sums equal the sums of its lines and complements
        for cfg in all_frames(n, p):
            k = cfg.k
            comps = [cfg.complement(j) for j in range(1, k + 2)]
            for i in range(k + 1):
                assert cfg.lines_prefix(i) == sum_all(frame_lines(cfg)[:i], n, p)
                for j in range(i + 1):
                    want = subspace_sum(cfg.lines_prefix(j), cfg.complements_suffix(i + 1))
                    assert cfg.nested(j, i) == want
            for i in range(k + 2):
                assert cfg.complements_prefix(i) == sum_all(comps[:i], n, p)
            for i in range(1, k + 3):
                assert cfg.complements_suffix(i) == sum_all(comps[i - 1 :], n, p)


class TestFrameByCoordinates:
    @pytest.mark.parametrize("n,p", [(n, p) for p in (2, 3) for n in range(1, 7)])
    def test_equals_subspace_arithmetic(self, n, p):
        # every frame space, sum table and moving complement built from
        # coordinates equals the one built by meets, complements and sums
        for cfg in all_frames(n, p):
            k, ref = cfg.k, frame_by_arithmetic(n, p, cfg.beta)
            assert cfg.frames == ref["frames"]
            assert tuple(map(cfg.window, range(1, k + 1))) == ref["windows"]
            assert frame_lines(cfg) == ref["lines"]
            assert tuple(map(cfg.complement, range(1, k + 1))) == ref["complements"]
            assert cfg.complement(k + 1) == ref["tail"]
            assert tuple(map(cfg.lines_prefix, range(k + 1))) == ref["lines_prefix"]
            assert tuple(map(cfg.complements_prefix, range(k + 2))) == ref["complements_prefix"]
            assert tuple(map(cfg.complements_suffix, range(1, k + 3))) == ref["complements_suffix"]
            assert {key: cfg.nested(*key) for key in ref["nested"]} == ref["nested"]
            for lines in window_line_tuples(cfg):
                assert moving_complements(cfg, lines) == moving_complements_by_arithmetic(
                    cfg, lines
                )

    def test_only_n_p_beta_are_set(self):
        cfg = make_frame(5, 3, (2, 4))
        assert cfg == FrameConfig(5, 3, (2, 4))
        assert repr(cfg) == "FrameConfig(n=5, p=3, beta=(2, 4))"

    def test_hashes_as_its_fields(self):
        cfg = make_frame(5, 3, (2, 4))
        assert hash(cfg) == hash((5, 3, (2, 4)))

    def test_making_a_frame_builds_no_space(self, monkeypatch):
        # a frame is made before any budget is checked, so making one with
        # a hundred windows builds none of its spaces, and the Grassmannian
        # refuses it from (n, p, beta) alone
        def no_space(coords, n, p):
            raise AssertionError("a frame space was built")

        monkeypatch.setattr(grassfib, "coordinate_space", no_space)
        cfg = make_frame(200, 2, tuple(range(2, 201, 2)))
        with pytest.raises(BudgetExceededError, match=r"Gr_100\(GF\(2\)\^200\) has about 10\^"):
            grassfib.check_grassmannian(cfg, 1)

    def test_one_space_per_arguments(self):
        # the walks compare frame spaces by identity first, so an equal
        # frame made afresh gives back the very objects of the first one
        first, again = make_frame(7, 2, (1, 3, 5)), make_frame(7, 2, (1, 3, 5))
        calls = [("window", (1,)), ("line", (2,)), ("complement", (4,))]
        calls += [("lines_prefix", (2,)), ("complements_prefix", (3,))]
        calls += [("complements_suffix", (2,)), ("nested", (1, 2))]
        for name, args in calls:
            assert getattr(first, name)(*args) is getattr(again, name)(*args), name


class TestMapTargets:
    @pytest.mark.parametrize("n,p", [(n, 2) for n in range(1, 6)] + [(4, 3)])
    def test_targets_match_fresh_sums(self, n, p):
        # the targets shared by the inputs and the maps equal the sums of
        # the moving complements taken on demand
        for cfg in all_frames(n, p):
            for lines in window_line_tuples(cfg):
                comps = moving_complements(cfg, lines)
                want = tuple(sum_all(comps[: i - 1], n, p) for i in range(2, cfg.k + 1))
                assert phi_targets(cfg, lines) == want
                want = tuple(sum_all(comps[i:], n, p) for i in range(1, cfg.k + 1))
                assert phi_star_targets(cfg, lines) == want


class TestPhi:
    def test_zero_maps_give_line_sum(self):
        cfg = make_frame(4, 2, (2, 4))
        lines = frame_lines(cfg)
        comps = moving_complements(cfg, lines)
        targets = (comps[0],)
        assert phi_targets(cfg, lines) == targets
        maps = (zero_map(cfg.line(2), comps[0]),)
        assert phi(cfg, lines, targets, maps) == subspace_sum(cfg.line(1), cfg.line(2))

    def test_wrong_target_rejected(self):
        cfg = make_frame(4, 2, (2, 4))
        lines = frame_lines(cfg)
        targets = phi_targets(cfg, lines)
        maps = (zero_map(cfg.line(2), cfg.complement(2)),)
        with pytest.raises(ValueError):
            phi(cfg, lines, targets, maps)

    def test_image_in_regular_locus(self):
        cfg = make_frame(4, 2, (2, 4))
        regular = set(rank_filter(cfg, "open"))
        for lines, targets, maps in map_inputs(cfg, phi_targets):
            assert phi(cfg, lines, targets, maps) in regular

    @pytest.mark.parametrize("beta", [(2, 4), (1, 3)])
    def test_verify_phi_n4(self, beta):
        rep = verify_phi(make_frame(4, 2, beta))
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    def test_count_identity_formula(self):
        cfg = make_frame(5, 2, (2, 4))
        rep = verify_phi(cfg)
        assert rep.passed
        assert rep.counts["regular_locus_points"] == base_point_count(cfg) * 2 ** hom_rank(cfg)


class TestPhiStar:
    def test_zero_maps_give_line_sum(self):
        cfg = make_frame(4, 2, (1, 3))
        lines = frame_lines(cfg)
        comps = moving_complements(cfg, lines)
        t2 = cfg.complement(3)
        t1 = subspace_sum(comps[1], t2)
        assert phi_star_targets(cfg, lines) == (t1, t2)
        maps = (zero_map(cfg.line(1), t1), zero_map(cfg.line(2), t2))
        got = phi_star(cfg, lines, (t1, t2), maps)
        assert got == subspace_sum(cfg.line(1), cfg.line(2))

    def test_wrong_target_rejected(self):
        cfg = make_frame(4, 2, (1, 3))
        lines = frame_lines(cfg)
        targets = phi_star_targets(cfg, lines)
        maps = (zero_map(cfg.line(1), targets[1]), zero_map(cfg.line(2), targets[1]))
        with pytest.raises(ValueError):
            phi_star(cfg, lines, targets, maps)

    def test_guard_compares_equal_copies(self):
        # the domain and target guard passes maps on the given spaces by
        # identity and maps on equal copies by value, and refuses a map
        # out of another line
        cfg = make_frame(4, 2, (1, 3))
        lines = frame_lines(cfg)
        targets = phi_star_targets(cfg, lines)

        def copy(s):
            return Subspace(s.n, s.p, s.basis, s.pivots)

        maps = tuple(zero_map(l, t) for l, t in zip(lines, targets))
        copies = tuple(zero_map(copy(l), copy(t)) for l, t in zip(lines, targets))
        want = phi_star(cfg, lines, targets, maps)
        assert phi_star(cfg, lines, targets, copies) == want
        with pytest.raises(ValueError):
            phi_star(cfg, lines, targets, (zero_map(cfg.line(2), targets[0]), maps[1]))

    @pytest.mark.parametrize(
        "swapped,images,row,pivot",
        [
            pytest.param(False, ((0,), ()), 1, 0, id="leading-entry"),
            pytest.param(False, ((), (1,)), 2, 2, id="zeros-before-pivot"),
            pytest.param(False, ((2,), ()), 1, 0, id="zeros-at-other-pivots"),
            pytest.param(True, ((), ()), 1, 2, id="pivot-in-window"),
        ],
    )
    def test_non_canonical_row_raises(self, swapped, images, row, pivot):
        # each case breaks one condition of the row check alone.  At n=4,
        # beta=(2,4), p=3 the lines are e1 and e3 (swapped: e3 and e1), and
        # map i sends line i to the sum of the unit vectors at images[i],
        # so the broken row is 2e1, e2+e3, e1+e3, or e3 as row 1; the rows
        # are checked in order, as the verifier checks them
        cfg = make_frame(4, 3, (2, 4))
        lines = frame_lines(cfg)[::-1] if swapped else frame_lines(cfg)
        targets = tuple(coordinate_space(img, 4, 3) for img in images)
        maps = tuple(LinearMap(l, t, ((1,),) * t.dim) for l, t in zip(lines, targets))
        pivots = tuple(l.pivots[0] for l in lines)
        with pytest.raises(InvariantError, match=f"row {row} is not canonical at pivot {pivot}"):
            for i, a in enumerate(maps, start=1):
                _check_star_row(cfg, i, graph_rows(a)[0], pivots)

    @pytest.mark.parametrize("beta", [(2, 4), (1, 3)])
    def test_verify_phi_star_n4(self, beta):
        rep = verify_phi_star(make_frame(4, 2, beta))
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    def test_inputs_cover_conjugate_locus(self):
        cfg = make_frame(4, 2, (1, 3))
        star = set(rank_filter(cfg, "star_open"))
        got = {phi_star(cfg, *inputs) for inputs in map_inputs(cfg, phi_star_targets)}
        assert got == star


class TestSchubertPosition:
    @pytest.mark.parametrize("n,p", [(n, 2) for n in range(1, 6)] + [(4, 3)])
    def test_jumps_give_intersection_dims(self, n, p):
        frames, coframes = standard_frames(n, p), coflag(n, p)
        for k in range(n + 1):
            for l in enumerate_subspaces(full_space(n, p), k):
                a, c = schubert_position(l)
                assert list(a) == sorted(a) and list(c) == sorted(c)
                for q in range(n + 1):
                    assert intersect(l, frames[q]).dim == sum(x <= q for x in a)
                    assert intersect(l, coframes[q]).dim == sum(x > q for x in c)


class TestGrassmannianCells:
    """``closed_locus``, the package's one walker of points of Gr_k."""

    @pytest.mark.parametrize("n,p", [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 6)])
    def test_points_have_their_cells_jump_set(self, n, p):
        # every point of the closed locus of every frame, once each, is at
        # the Schubert position that the row reductions of the oracle read
        for cfg in all_frames(n, p):
            seen = set()
            for a, l in closed_locus(cfg, DEFAULT_BUDGET):
                assert a == schubert_position(l)[0], (cfg.beta, l)
                assert l not in seen
                seen.add(l)

    def test_refused_before_first_point(self):
        # Gr_2(GF(2)^4) has 35 points, however few are in the closed locus
        cfg = make_frame(4, 2, (1, 2))
        points = closed_locus(cfg, 34)
        with pytest.raises(BudgetExceededError, match=r"Gr_2\(GF\(2\)\^4\) has 35 points"):
            next(points)
        # and at exactly 35 it walks the whole locus
        assert sorted(l for _, l in closed_locus(cfg, 35)) == list(rank_filter(cfg, "closed"))


class TestEchelonSlices:
    @pytest.mark.parametrize("n,p", SLICE_SPACES)
    def test_slices_equal_intersections(self, n, p):
        frames, coframes = standard_frames(n, p), coflag(n, p)
        for k in range(n + 1):
            for l in enumerate_subspaces(full_space(n, p), k):
                for q in range(n + 1):
                    assert frame_slice(l, q) == intersect(l, frames[q])
                    assert coframe_slice(l, q) == intersect(l, coframes[q])

    @pytest.mark.parametrize("n,p", SLICE_SPACES)
    def test_recovered_lines_equal_projections(self, n, p):
        # on every regular and conjugate locus point of every frame
        for cfg in all_frames(n, p):
            for l in rank_filter(cfg, "open"):
                assert recover_lines_from_open(cfg, l) == intersect_recover_open(cfg, l)
            for l in rank_filter(cfg, "star_open"):
                assert recover_lines_from_star(cfg, l) == intersect_recover_star(cfg, l)


class TestReadOffs:
    # each coordinate read-off against the generic path it replaced, on
    # every default frame of GF(p)^n
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("p", [2, 3])
    def test_graph_sums_match_apply_oracle(self, n, p):
        for cfg in all_frames(n, p):
            for lines, targets, maps in map_inputs(cfg, phi_targets):
                want = sum_all([lines[0]] + [graph_by_apply(a) for a in maps], n, p)
                assert phi(cfg, lines, targets, maps) == want
            for lines, targets, maps in map_inputs(cfg, phi_star_targets):
                want = sum_all([graph_by_apply(a) for a in maps], n, p)
                assert phi_star(cfg, lines, targets, maps) == want

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("p", [2, 3])
    def test_recovered_lines_match_slices(self, n, p):
        # on every point of Gr_k, not only on the loci the verifiers feed in
        for cfg in all_frames(n, p):
            for l in enumerate_subspaces(full_space(n, p), cfg.k):
                assert recover_lines_from_open(cfg, l) == recover_lines_by_slices(cfg, l, False)
                assert recover_lines_from_star(cfg, l) == recover_lines_by_slices(cfg, l, True)

    def test_window_bounds_split_the_frame(self):
        for cfg in all_frames(5, 2):
            for i in range(1, cfg.k + 2):
                lo, hi = cfg.window_bounds(i)
                block = span([e(j + 1, 5) for j in range(lo, hi)], 5, 2)
                if i <= cfg.k:
                    assert cfg.line(i) == span([e(lo + 1, 5)], 5, 2)
                    assert block == cfg.window(i)
                    assert subspace_sum(cfg.line(i), cfg.complement(i)) == block
                else:
                    assert block == cfg.complement(cfg.k + 1)


# The readers of each locus in the package, each called with a frame and
# a budget.  The suite's reader ignores the frame: its first frame, n=4
# beta=(2,4) at p=2, has Gr_2(GF(2)^4), which the guard test asserts.
LOCUS_READERS = {
    "cell": lambda cfg, budget: suite.criterion_9_dimension_consistency(budget),
    "open": grassfib.verify_phi,
    "closed": embres.verify_report,
    "star_open": grassfib.verify_phi_star,
    "star_closed": grassfib.verify_transversal_identity,
}


class TestVbetaPoints:
    """The loci of ``LOCI`` as ``locus_charts`` describes them, and the
    Gr_k guard of every reader of one."""

    @pytest.mark.parametrize("n,p", ORACLE_SPACES)
    def test_same_points_as_rank_filter(self, n, p):
        # every locus of every multi-index, unranked off its charts
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                cfg = make_frame(n, p, beta)
                for mode in LOCI:
                    assert sorted(locus_points(cfg, mode)) == list(rank_filter(cfg, mode)), (
                        beta,
                        mode,
                    )

    @pytest.mark.parametrize("n,p", ORACLE_SPACES)
    def test_grassmannian_is_enumerate_subspaces(self, n, p):
        # the closed locus of the trailing multi-index is all of Gr_k, and
        # its walk takes each point once
        for k in range(1, n + 1):
            cfg = make_frame(n, p, tuple(range(n - k + 1, n + 1)))
            want = list(enumerate_subspaces(full_space(n, p), k))
            assert sorted(l for _, l in closed_locus(cfg, DEFAULT_BUDGET)) == want

    def test_closed_everything_for_trailing_beta(self):
        cfg = make_frame(4, 2, (3, 4))
        sizes = [c.size for c in locus_charts(cfg, "closed").values()]
        assert sum(sizes) == gaussian_binomial(4, 2, 2)

    @pytest.mark.parametrize(
        "n,beta,p", [(4, (2, 4), 2), (4, (1, 3), 2), (5, (1, 3, 5), 2), (4, (2, 4), 3)]
    )
    def test_cell_counts_are_p_powers(self, n, beta, p):
        # the count the suite reads off the charts
        cfg = make_frame(n, p, beta)
        cells = sum(c.size for c in locus_charts(cfg, "cell").values())
        dim = sum(b - (i + 1) for i, b in enumerate(beta))
        assert cells == p ** dim

    def test_cell_within_open_within_closed(self):
        cfg = make_frame(4, 2, (2, 4))
        cell = set(rank_filter(cfg, "cell"))
        open_ = set(rank_filter(cfg, "open"))
        closed = set(rank_filter(cfg, "closed"))
        assert cell <= open_ <= closed

    @pytest.mark.parametrize("mode", LOCUS_READERS)
    def test_budget_guard_is_whole_grassmannian(self, mode):
        # a locus is read off its cells, but every reader of it still
        # refuses all of Gr_2(GF(2)^4), 35 points, before its first point
        assert suite.GRASS_CONFIGS[0] == (4, 2, (2, 4)), "the cell reader's first frame"
        cfg = make_frame(4, 2, (1, 2))
        with pytest.raises(BudgetExceededError, match=r"Gr_2\(GF\(2\)\^4\) has 35 points"):
            LOCUS_READERS[mode](cfg, 34)
        # at exactly 35 the guard lets Gr_2(GF(2)^4) through; a reader may
        # still refuse a larger walk after it (the suite's p=3 frames, the
        # embres tower)
        try:
            LOCUS_READERS[mode](cfg, 35)
        except BudgetExceededError as exc:
            assert "Gr_2(GF(2)^4)" not in str(exc), exc


class TestTransversal:
    def test_k1_reduces_to_window_lines(self):
        cfg = make_frame(3, 2, (2,))
        open_ = set(rank_filter(cfg, "open"))
        star = set(rank_filter(cfg, "star_open"))
        windows = {lines[0] for lines in window_line_tuples(cfg)}
        assert open_ & star == windows

    @pytest.mark.parametrize("beta", [(2, 4), (1, 3)])
    def test_identity_n4(self, beta):
        rep = verify_transversal_identity(make_frame(4, 2, beta))
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_full_walk(self, n):
        for cfg in all_frames(n, 2):
            assert without_time(verify_transversal_identity(cfg)) == without_time(
                transversal_by_walk(cfg)
            ), cfg.beta

    def test_deep_incidence_excluded(self):
        # a plane inside F_2 meets F_2 in dim 2 > 1, so it sits in the
        # closed locus but not the open one; the star side must reject it
        cfg = make_frame(4, 2, (2, 4))
        f2_plane = cfg.frames[2]
        closed = set(rank_filter(cfg, "closed"))
        star_closed = set(rank_filter(cfg, "star_closed"))
        assert f2_plane in closed
        assert f2_plane not in star_closed


# (n, p) spaces on which the ranked verifiers are checked against the
# set-based oracles, on every default frame
RANKED_SPACES = [(n, p) for p in (2, 3) for n in range(1, 6)] + [(6, 2)]

VERIFIERS = [
    pytest.param(grassfib.verify_phi, verify_phi_by_sets, "open", "regular", id="phi"),
    pytest.param(
        grassfib.verify_phi_star, verify_phi_star_by_sets, "star_open", "conjugate", id="phistar"
    ),
]


def check_of(report, name):
    return next(c for c in report.checks if c.name == name)


class TestRankedVerifiers:
    @pytest.mark.parametrize("n,p", RANKED_SPACES)
    @pytest.mark.parametrize("ranked,by_sets,mode,locus", VERIFIERS)
    def test_equal_to_set_oracle(self, ranked, by_sets, mode, locus, n, p):
        # counts, checks and witnesses, field for field
        for cfg in all_frames(n, p):
            assert without_time(ranked(cfg)) == without_time(by_sets(cfg)), cfg.beta

    @staticmethod
    def both(monkeypatch, fault, ranked, by_sets, cfg):
        """The ranked and the set-based report with ``fault`` run on the
        list of maps of each call of ``enumerate_maps``, counted afresh
        for each report."""

        def patched():
            calls = itertools.count()

            def faulty(domain, target):
                return iter(fault(next(calls), list(enumerate_maps(domain, target))))

            monkeypatch.setattr(grassfib, "enumerate_maps", faulty)
            monkeypatch.setattr(oracles, "enumerate_maps", faulty)

        patched()
        got = ranked(cfg)
        patched()
        assert without_time(got) == without_time(by_sets(cfg))
        return got

    @pytest.mark.parametrize("n,beta,p", [(4, (2, 4), 3), (5, (1, 3, 5), 2), (5, (2, 4), 2)])
    @pytest.mark.parametrize("ranked,by_sets,mode,locus", VERIFIERS)
    def test_two_inputs_with_one_output(
        self, monkeypatch, ranked, by_sets, mode, locus, n, beta, p
    ):
        # the first map stands in for the second wherever there are two
        def fault(call, maps):
            return maps[:1] * 2 + maps[2:] if len(maps) > 1 else maps

        got = self.both(monkeypatch, fault, ranked, by_sets, make_frame(n, p, beta))
        assert not check_of(got, "injective").passed
        assert got.counts["distinct_images"] < got.counts["inputs"]
        image = check_of(got, f"image_equals_{locus}_locus")
        assert not image.passed and image.witnesses

    @pytest.mark.parametrize("n,beta,p", [(4, (2, 4), 3), (5, (1, 3, 5), 2), (5, (2, 4), 2)])
    @pytest.mark.parametrize("ranked,by_sets,mode,locus", VERIFIERS)
    def test_output_outside_locus(self, monkeypatch, ranked, by_sets, mode, locus, n, beta, p):
        # the cell whose jump set is beta itself leaves the locus, so the
        # outputs in it fall outside and the locus no longer has the
        # predicted size; the oracle's filter drops the same points
        test, side, oracle = LOCI[mode], int(mode.startswith("star_")), oracles.rank_filter
        monkeypatch.setitem(LOCI, mode, lambda b, jumps: test(b, jumps) and jumps != b)
        monkeypatch.setattr(
            oracles,
            "rank_filter",
            lambda cfg, m: (l for l in oracle(cfg, m) if schubert_position(l)[side] != cfg.beta),
        )
        cfg = make_frame(n, p, beta)
        got = ranked(cfg)
        assert without_time(got) == without_time(by_sets(cfg))
        assert check_of(got, "injective").passed
        assert not check_of(got, "count_identity").passed
        image = check_of(got, f"image_equals_{locus}_locus")
        assert not image.passed and image.witnesses

    @pytest.mark.parametrize("ranked,by_sets,mode,locus", VERIFIERS)
    def test_base_point_not_recovered(self, monkeypatch, ranked, by_sets, mode, locus):
        # a graph row gains 1 just past its line's pivot when that is
        # still in the line's window: the rows stay canonical and end in
        # their windows, but such a line is read back as another line
        cfg = make_frame(5, 3, (3, 5))

        def faulty(a):
            q, row = a.domain.pivots[0], graph_rows(a)[0]
            if q + 1 < next(b for b in cfg.beta if b > q):
                row = row[: q + 1] + ((row[q + 1] + 1) % cfg.p,) + row[q + 2 :]
            return [row]

        monkeypatch.setattr(grassfib, "graph_rows", faulty)
        monkeypatch.setattr(oracles, "graph_rows", faulty)
        got = ranked(cfg)
        assert without_time(got) == without_time(by_sets(cfg))
        assert not check_of(got, "base_point_recovered").passed

    @pytest.mark.parametrize(
        "ranked,by_sets,mode,locus,n,beta,p",
        [
            pytest.param(*v.values[:4], n, beta, p, id=f"{v.id}-{n}-{beta}-{p}")
            for v, frames in zip(
                VERIFIERS, [[(4, (2, 4), 3), (5, (2, 4), 2)], [(4, (2,), 3), (5, (3,), 2)]]
            )
            for n, beta, p in frames
        ],
    )
    def test_dropped_input(self, monkeypatch, ranked, by_sets, mode, locus, n, beta, p):
        # one map per input: phi's frames have k=2, phi_star's k=1; the
        # first call loses its last map, so exactly one input is dropped
        def fault(call, maps):
            return maps[:-1] if call == 0 else maps

        got = self.both(monkeypatch, fault, ranked, by_sets, make_frame(n, p, beta))
        assert check_of(got, "injective").passed
        assert got.counts["inputs"] == got.counts[f"{locus}_locus_points"] - 1
        image = check_of(got, f"image_equals_{locus}_locus")
        assert not image.passed and len(image.witnesses) == 1
