"""Chain towers over flag families and the embedded resolution checks."""

import itertools
from types import SimpleNamespace

import oracles
import pytest
from oracles import (
    cell_points,
    chart_graphs,
    chart_hits,
    copied,
    cut_into_fans,
    embres_verify_by_points,
    enumerate_embres,
    enumerate_ghat_flat,
    fan_points,
    flag_of_grid,
    forced_chain_by_intersections,
    graph_tuple,
    kl_count_formula,
    kl_points,
    psi_embed,
    rank_filter,
    reconstruct_map_tuple_by_projection,
    report_text,
    verify_chart_family_by_flags,
    verify_embedded_resolution_by_census,
    zero_map,
)

from schubres import embres, grassfib, wflag
from schubres.embres import (
    chain_tops,
    chart_maps,
    in_chart,
    reconstruct_map_tuple,
    special_point,
    verify_report,
)
from schubres.exactlin import (
    BudgetExceededError,
    RowGraph,
    contains,
    coordinate_space,
    enumerate_subspaces,
    full_space,
    graph,
    intersect,
    rows_bound,
    subspace_sum,
)
from schubres.grassfib import make_frame
from schubres.wflag import (
    fixed_map_tuples,
    ghat_rows,
    pi_diag,
    psi_space,
    psi_tilde,
)


def all_pairs_hits(cfg, flags, gt):
    """Chart-family oracle: the flags the graph meets in a chain, each
    flag tested by its intersections with the graph."""
    return [
        idx
        for idx, flag in enumerate(flags)
        if all(intersect(gt, flag[i]).dim >= i + 1 for i in range(cfg.k))
    ]


def part(report, prefix):
    """The checks of ``report`` under ``prefix``, the prefix dropped."""
    return [
        c._replace(name=c.name.removeprefix(prefix))
        for c in report.checks
        if c.name.startswith(prefix)
    ]


def failed(report):
    return [c.name for c in report.checks if not c.passed]


def zero_tuple(cfg):
    return tuple(
        zero_map(cfg.line(i), cfg.complements_suffix(i + 1)) for i in range(1, cfg.k + 1)
    )


class TestKlPoints:
    def test_k1_line_count(self):
        cfg = make_frame(4, 2, (3,))
        chains = list(kl_points((cfg.frames[3],), 2))
        assert len(chains) == 7  # lines of a 3-dim space over GF(2)

    def test_count_formula(self):
        assert kl_count_formula((2, 4), 2) == 3 * 7
        assert kl_count_formula((1, 3), 2) == 1 * 3

    def test_flag_independent_counts(self):
        cfg = make_frame(4, 2, (2, 4))
        full = full_space(4, 2)
        flags = [
            (plane, full) for plane in enumerate_subspaces(full, 2)
        ]
        counts = {len(list(kl_points(flag, 2))) for flag in flags}
        assert counts == {21}

    @pytest.mark.parametrize("n, p", [(n, 2) for n in range(1, 6)] + [(n, 3) for n in range(1, 5)])
    def test_chain_tops_are_the_tower_tops(self, n, p):
        # the level-by-level tops, in order, against the tower's chains,
        # over every standard flag and every grid flag of every frame
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                cfg = make_frame(n, p, beta)
                flags = {tuple(cfg.frames[b] for b in beta)}
                grid = itertools.islice(enumerate_ghat_flat(cfg), 20)
                flags.update(flag_of_grid(cfg, pt) for pt in grid)
                for flag in flags:
                    tops, ok = chain_tops(flag)
                    assert ok
                    assert tops == [chain[-1] for chain in kl_points(flag, p)], (beta, flag)

    def test_top_space_in_closed_locus(self):
        cfg = make_frame(4, 2, (2, 4))
        flag = tuple(cfg.frames[b] for b in cfg.beta)
        closed = set(rank_filter(cfg, "closed"))
        for chain in kl_points(flag, 2):
            assert chain[-1] in closed
            for a, b in zip(chain, chain[1:]):
                assert contains(b, a)


class TestPsiEmbed:
    def test_zero_gives_standard_nodes(self):
        cfg = make_frame(4, 2, (1, 3))
        flag = psi_embed(cfg, zero_tuple(cfg))
        assert flag == tuple(cfg.frames[b] for b in cfg.beta)

    def test_component_dims(self):
        cfg = make_frame(4, 2, (2, 4))
        for maps in fixed_map_tuples(cfg):
            assert [s.dim for s in psi_embed(cfg, maps)] == list(cfg.beta)

    def test_injective_exhaustive_gf2(self):
        cfg = make_frame(4, 2, (1, 3))
        flags = [psi_embed(cfg, maps) for maps in fixed_map_tuples(cfg)]
        assert len(set(flags)) == len(flags)

    def test_matches_compressed_graph_flag(self):
        cfg = make_frame(4, 3, (1, 3))
        for maps in itertools.islice(fixed_map_tuples(cfg), 40):
            assert psi_embed(cfg, maps) == psi_tilde(cfg, graph_tuple(cfg, maps))

    def test_matches_accumulated_graph_flag(self):
        # the family flags of embres.verify_report: psi_tilde of the sums
        # of the first i graphs, on every map tuple of every default frame
        for cfg in census_spaces():
            for maps in fixed_map_tuples(cfg):
                got = psi_tilde(cfg, tuple(itertools.accumulate(map(graph, maps), subspace_sum)))
                assert got == psi_embed(cfg, maps), (cfg, maps)


class TestChart:
    def test_zero_map_reconstruction(self):
        cfg = make_frame(4, 2, (2, 4))
        t = next(chart_maps(cfg))  # the zero chart map
        matrices = reconstruct_map_tuple(cfg, t)
        assert all(all(x == 0 for row in m for x in row) for m in matrices)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("p", [2, 3])
    def test_reconstruction_matches_projection_oracle(self, n, p):
        # every chart map of every default frame of GF(p)^n
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                cfg = make_frame(n, p, beta)
                for t in chart_maps(cfg):
                    assert reconstruct_map_tuple(cfg, t) == tuple(
                        m.matrix for m in reconstruct_map_tuple_by_projection(cfg, t)
                    )

    def test_chart_membership_criterion(self):
        cfg = make_frame(4, 2, (2, 4))
        chart_set = {graph(t) for t in chart_maps(cfg)}
        for l in enumerate_subspaces(full_space(4, 2), 2):
            assert (l in chart_set) == in_chart(cfg, l)

    @pytest.mark.parametrize("n", [4, 5])
    def test_hits_match_all_pairs_search(self, n):
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                cfg = make_frame(n, 2, beta)
                flags = [psi_embed(cfg, maps) for maps in fixed_map_tuples(cfg)]
                # a last flag that meets every graph in many chains
                flags.append((full_space(n, 2),) * k)
                graphs = [graph(t) for t in chart_maps(cfg)]
                hits, chains = chart_hits(graphs, flags, 2)
                assert list(hits) == graphs
                for gt in graphs:
                    assert list(hits[gt]) == all_pairs_hits(cfg, flags, gt), (beta, gt)
                assert chains == [sum(1 for _ in kl_points(flag, 2)) for flag in flags]

    @pytest.mark.parametrize("beta", [(2, 4), (1, 3)])
    def test_verify_chart_family(self, beta):
        cfg = make_frame(4, 2, beta)
        checks = part(verify_report(cfg), "chart.")
        assert len(checks) == 5 and all(c.passed for c in checks), checks

    def test_forced_chain_count_matches_intersections(self):
        # one topping chain against the meets with the flag, for every
        # chart graph and each flag that tops it; the full-space flag tops
        # every graph, with more than one chain once k >= 2
        for cfg in census_spaces():
            flags = [psi_embed(cfg, maps) for maps in fixed_map_tuples(cfg)]
            flags.append((full_space(cfg.n, cfg.p),) * cfg.k)
            hits, _ = chart_hits(chart_graphs(cfg), flags, cfg.p)
            for gt, per_flag in hits.items():
                assert per_flag, (cfg, gt)
                for idx, count in per_flag.items():
                    want = forced_chain_by_intersections(cfg, gt, flags[idx])
                    assert (count == 1) == want, (cfg, gt, idx)

    def faulty_chart_checks(self, monkeypatch, fault):
        # ``fault`` rewrites the chain tops of the first family flag walked
        cfg = make_frame(4, 2, (2, 4))
        family = {psi_embed(cfg, maps) for maps in fixed_map_tuples(cfg)}
        walked = []

        def faulty(flag):
            tops, ok = chain_tops(flag)
            if flag in family and not walked:
                tops = fault(tops)
                walked.append(flag)
            return tops, ok

        monkeypatch.setattr(embres, "chain_tops", faulty)
        rep = verify_report(cfg)
        assert walked
        return {c.name: c.passed for c in rep.checks}

    def test_dropped_chain_fails_forced_chain(self, monkeypatch):
        checks = self.faulty_chart_checks(monkeypatch, lambda chains: chains[1:])
        assert not checks["chart.forced_chain_is_valid"]

    def test_repeated_chain_fails_forced_chain(self, monkeypatch):
        checks = self.faulty_chart_checks(monkeypatch, lambda chains: chains + chains[:1])
        assert not checks["chart.forced_chain_is_valid"]

    def test_unforced_chain_fails_forced_chain(self, monkeypatch):
        # the zero tuple's flag, carried by the special point, starts at
        # its own graph, the sum of the lines; the walk stays complete,
        # and p+1 chains top that graph; the family flags and the grid
        # points' flags both read their spaces off psi_space, so one patch
        # moves both: with beta = (2, 4) space 2 is the whole space, so
        # exactly the flags equal to the standard one change
        cfg = make_frame(4, 2, (2, 4))
        standard = psi_embed(cfg, zero_tuple(cfg))
        gt = cfg.lines_prefix(2)
        flag = (gt, standard[1])

        def space(cfg, i, l):
            got = psi_space(cfg, i, l)
            return gt if i == 1 and got == standard[0] else got

        monkeypatch.setattr(embres, "psi_space", space)
        hits, _ = chart_hits(chart_graphs(cfg), [flag], cfg.p)
        assert hits[gt] == {0: cfg.p + 1}
        assert not forced_chain_by_intersections(cfg, gt, flag)
        checks = {c.name: c.passed for c in verify_report(cfg).checks}
        assert not checks["chart.forced_chain_is_valid"]

    def test_uncarried_family_flag_fails_closed(self, monkeypatch):
        # no grid point carries the standard flag, the zero tuple's: the
        # grid is fed without its carriers, so that flag's chain count
        # stays 0, and the graph of the zero chart map, which only its
        # chains top, is topped by no family flag
        cfg = make_frame(4, 2, (2, 4))
        standard = tuple(cfg.frames[b] for b in cfg.beta)
        grid = _graph_points(cfg)
        points = [pt for pt in grid if flag_of_grid(cfg, pt) != standard]
        assert len(points) < len(grid)
        monkeypatch.setattr(wflag, "walk_fans", lambda graph, budget: cut_into_fans(points))
        rep = verify_report(cfg)
        checks = {c.name: c.passed for c in rep.checks}
        assert not checks["chart.forced_chain_is_valid"]
        assert not checks["chart.unique_flag_per_chart_point"]
        assert not rep.passed


class TestEnumerateEmbres:
    def test_pair_count_is_product(self):
        cfg = make_frame(4, 2, (1, 3))
        pairs = list(enumerate_embres(cfg))
        grid = list(enumerate_ghat_flat(cfg))
        assert len(pairs) == len(grid) * kl_count_formula((1, 3), 2)

    def test_pairs_satisfy_incidence(self):
        cfg = make_frame(4, 2, (2, 4))
        for pt, chain in enumerate_embres(cfg):
            flag = flag_of_grid(cfg, pt)
            for i in range(cfg.k):
                assert contains(flag[i], chain[i])


class TestCellPoints:
    @pytest.mark.parametrize("n,beta,p", [(4, (2, 4), 2), (4, (1, 3), 2), (4, (2, 4), 3)])
    def test_counts_are_p_powers(self, n, beta, p):
        cfg = make_frame(n, p, beta)
        dim = sum(b - (i + 1) for i, b in enumerate(beta))
        assert len(list(cell_points(cfg))) == p ** dim

    @pytest.mark.parametrize("n,p", [(4, 2), (5, 2), (4, 3)])
    def test_same_points_as_intersection_filter(self, n, p):
        # the oracle intersects with the beta nodes, which cell_points
        # reads off the Schubert position instead, and with the lower nodes
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                cfg = make_frame(n, p, beta)
                lower = [
                    subspace_sum(cfg.lines_prefix(i), cfg.complements_prefix(i + 1))
                    for i in range(k)
                ]
                want = [
                    l
                    for l in enumerate_subspaces(full_space(n, p), k)
                    if all(
                        intersect(l, cfg.frames[b]).dim == i + 1
                        and intersect(l, lower[i]).dim == i
                        for i, b in enumerate(beta)
                    )
                ]
                assert list(cell_points(cfg)) == want, beta

    def test_line_sum_is_cell_point(self):
        cfg = make_frame(4, 2, (2, 4))
        assert cfg.lines_prefix(2) in set(cell_points(cfg))

    def test_cell_inside_chart(self):
        cfg = make_frame(4, 2, (1, 3))
        for l in cell_points(cfg):
            assert in_chart(cfg, l)

    def test_matches_standard_node_cell_for_window_end_lines(self):
        # the adapted lower nodes equal the standard flag nodes exactly
        # when each chosen line is the last unit vector of its window
        cfg = make_frame(4, 2, (2, 4))
        # make_frame puts each line at its window's first coordinate; the
        # cell test reads only beta and the sums of lines and complements,
        # so a stand-in gives those sums for the lines e_2 and e_4
        ends, comps = (1, 3), ((0,), (2,))
        window_end = SimpleNamespace(
            n=4,
            p=2,
            k=2,
            beta=(2, 4),
            lines_prefix=lambda i: coordinate_space(ends[:i], 4, 2),
            complements_prefix=lambda i: coordinate_space(itertools.chain(*comps[:i]), 4, 2),
        )
        for i, b in enumerate(cfg.beta, start=1):
            node = subspace_sum(window_end.lines_prefix(i - 1), window_end.complements_prefix(i))
            assert node == cfg.frames[b - 1]
        assert set(cell_points(window_end)) == set(rank_filter(cfg, "cell"))

    def test_default_lines_give_equinumerous_cell(self):
        # first-vector lines tilt the completion away from the standard
        # flag; the two cells differ as sets but have the same size
        cfg = make_frame(4, 2, (2, 4))
        adapted = set(cell_points(cfg))
        standard = set(rank_filter(cfg, "cell"))
        assert len(adapted) == len(standard) == 8
        assert adapted != standard


class TestBudget:
    """Every bound is checked before the first walk, in the order the
    walks would refuse: Gr_k, the grid, the chain tower."""

    # |Gr_2(GF(2)^4)| = 35; beta=(1,2) has grid bound 49 and chain bound 1,
    # beta=(3,4) grid bound 1 and chain bound 49
    @pytest.mark.parametrize("beta, grid_bound", [((1, 2), 49), ((3, 4), 1)])
    def test_refused_before_first_walk(self, monkeypatch, beta, grid_bound):
        cfg = make_frame(4, 2, beta)
        assert rows_bound(*ghat_rows(cfg)) == grid_bound

        def no_walk(cfg, budget):
            raise AssertionError("the closed locus was walked")

        with monkeypatch.context() as patch:
            patch.setattr(embres, "closed_locus", no_walk)
            with pytest.raises(BudgetExceededError, match=r"^Gr_2\(GF\(2\)\^4\) has 35 points"):
                verify_report(cfg, 34)
            with pytest.raises(BudgetExceededError, match="^tower needs up to 49 points"):
                verify_report(cfg, 48)
        assert verify_report(cfg, 49).passed

    def test_grassmannian_refused_before_the_standard_flag(self, monkeypatch):
        # |Gr_2(GF(2)^8)| = 10795; the refusal needs none of the n+1
        # spaces of the standard flag
        def no_flag(n, p):
            raise AssertionError("the standard flag was built")

        monkeypatch.setattr(grassfib, "standard_frames", no_flag)
        cfg = make_frame(8, 2, (2, 4))
        with pytest.raises(BudgetExceededError, match=r"^Gr_2\(GF\(2\)\^8\) has 10795 points"):
            verify_report(cfg, 10794)


class TestEmbeddedResolution:
    def test_special_point_over_line_diagonal(self):
        cfg = make_frame(4, 2, (2, 4))
        o = special_point(cfg)
        assert pi_diag(o) == tuple(cfg.lines_prefix(i) for i in range(1, 3))

    @pytest.mark.parametrize("beta", [(2, 4), (1, 3)])
    def test_verify_n4(self, beta):
        cfg = make_frame(4, 2, beta)
        rep = verify_report(cfg)
        assert rep.passed, failed(rep)
        surj = {c.name: c for c in rep.checks}["resolution.hits_whole_grassmannian"]
        assert surj.informational and surj.passed

    def test_k1_smoke(self):
        rep = verify_report(make_frame(3, 2, (2,)))
        assert rep.passed, failed(rep)

    def test_all_length2_indices_n4(self):
        for beta in itertools.combinations(range(1, 5), 2):
            rep = verify_report(make_frame(4, 2, beta))
            assert rep.passed, (beta, failed(rep))

    @pytest.mark.parametrize("at", [0, 1])
    def test_swapped_level_fails_incidence(self, monkeypatch, at):
        # the first level computed gets its choice ``at`` swapped for a
        # line outside the flag's first space; the level above it is read
        # off the choice it replaced, so every chain top stays as it was
        cfg = make_frame(4, 2, (2, 4))
        between = embres.enumerate_between
        swapped = {}

        def faulty(lower, upper, dim):
            choices = list(between(swapped.get(lower, lower), upper, dim))
            if dim == 1 and not swapped:
                outside = next(
                    l for l in enumerate_subspaces(full_space(4, 2), 1) if not contains(upper, l)
                )
                swapped[outside] = choices[at]
                choices[at] = outside
            return iter(choices)

        monkeypatch.setattr(embres, "enumerate_between", faulty)
        rep = verify_report(cfg)
        assert swapped
        assert failed(rep) == ["resolution.pairs_satisfy_incidence"]

    def test_spliced_top_level_fails_incidence(self, monkeypatch):
        # one top level gets a plane outside the flag's top space spliced
        # in after its choices: with beta = (1, 3) that space is not the
        # whole space, so the spliced chain breaks the incidence
        cfg = make_frame(4, 2, (1, 3))
        between = embres.enumerate_between
        spliced = []

        def faulty(lower, upper, dim):
            choices = list(between(lower, upper, dim))
            if dim == 2 and not spliced:
                outside = next(
                    l
                    for l in enumerate_subspaces(full_space(4, 2), 2)
                    if contains(l, lower) and not contains(upper, l)
                )
                spliced.append(outside)
                choices.append(outside)
            return iter(choices)

        monkeypatch.setattr(embres, "enumerate_between", faulty)
        rep = verify_report(cfg)
        assert spliced
        assert "resolution.pairs_satisfy_incidence" in failed(rep)


def census_spaces():
    """Every default frame of GF(2)^n, n <= 5, and of GF(3)^n, n <= 4."""
    for n, p in [(n, 2) for n in range(1, 6)] + [(n, 3) for n in range(1, 5)]:
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                yield make_frame(n, p, beta)


def _graph_points(cfg):
    """The grid's points with its row graph's own rows, so that
    ``cut_into_fans`` cuts them into the graph's fans."""
    return list(fan_points(RowGraph(*ghat_rows(cfg))))


def feed_both(monkeypatch, points):
    """Both verifiers over the grid ``points``: ``verify_report`` reads
    them cut into fans, the census oracle point by point."""
    monkeypatch.setattr(wflag, "walk_fans", lambda graph, budget: cut_into_fans(points))
    monkeypatch.setattr(oracles, "enumerate_ghat_flat", lambda cfg, budget: iter(points))


class TestStreamedPairs:
    # the one grid walk against the per-flag walk and the census it replaced
    def test_reports_match_census(self):
        for cfg in census_spaces():
            graphs = chart_graphs(cfg)
            got = verify_report(cfg)
            for prefix, want in (
                ("chart.", verify_chart_family_by_flags(cfg, graphs)),
                ("resolution.", verify_embedded_resolution_by_census(cfg, graphs)),
            ):
                assert part(got, prefix) == want.checks, (cfg, prefix)
                assert {key: got.counts[key] for key in want.counts} == want.counts, cfg

    @pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3) for n in range(2, 6)])
    def test_same_report_as_point_walk(self, n, p):
        # every default frame: the fan walk on ints against the point walk
        # on subspaces it replaced, byte for byte but for the wall time
        for k in range(1, n + 1):
            for beta in itertools.combinations(range(1, n + 1), k):
                cfg = make_frame(n, p, beta)
                assert report_text(verify_report(cfg)) == report_text(
                    embres_verify_by_points(cfg)
                ), beta

    def faulty_reports(self, cfg):
        got = verify_report(cfg)
        want = verify_embedded_resolution_by_census(cfg, chart_graphs(cfg))
        assert part(got, "resolution.") == want.checks
        return {c.name: c.passed for c in got.checks}

    @pytest.mark.parametrize("beta", [(2, 4), (1, 3)])
    def test_equal_rows_as_distinct_objects_pass(self, monkeypatch, beta):
        # every other point's rows and cells are new objects of the same
        # values: the reads by row id give the same ints
        cfg = make_frame(4, 2, beta)
        want = report_text(verify_report(cfg))
        points = [copied(pt) if i % 2 else pt for i, pt in enumerate(_graph_points(cfg))]
        feed_both(monkeypatch, points)
        got = verify_report(cfg)
        assert got.passed
        assert report_text(got) == want
        assert part(got, "resolution.") == verify_embedded_resolution_by_census(
            cfg, chart_graphs(cfg)
        ).checks

    def test_repeated_grid_point_fails_unique_preimage(self, monkeypatch):
        # the special point, fed twice, is the preimage of the graph of
        # the zero chart map twice over
        cfg = make_frame(4, 2, (2, 4))
        feed_both(monkeypatch, _graph_points(cfg) + [special_point(cfg)])
        checks = self.faulty_reports(cfg)
        assert not checks["resolution.chart_points_have_unique_preimage"]
        assert checks["resolution.cell_preimage_over_special_point"]
        # the repeat carries a family flag that is counted already
        assert all(ok for name, ok in checks.items() if name.startswith("chart."))

    def test_off_special_point_over_cell_fails(self, monkeypatch):
        # one grid point other than the special one carries the standard
        # flag: its rows end in the special point's diagonal, so its
        # chains top the cell points too; with beta = (2, 4) at n = 4 the
        # cell (2, 1) is forced, so n = 5 leaves the point room to differ
        cfg = make_frame(5, 2, (2, 4))
        o = special_point(cfg)
        points = _graph_points(cfg)
        i, victim = next((i, pt) for i, pt in enumerate(points) if pt[1][0] != o[1][0])
        points[i] = tuple(row[:-1] + (o_row[-1],) for row, o_row in zip(victim, o))
        assert points[i] != o and flag_of_grid(cfg, points[i]) == flag_of_grid(cfg, o)
        feed_both(monkeypatch, points)
        checks = self.faulty_reports(cfg)
        assert not checks["resolution.cell_preimage_over_special_point"]
