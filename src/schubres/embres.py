"""Embedded resolution of a Grassmannian Schubert variety over GF(p).

Chain towers over a partial flag resolve the Schubert variety of that
flag.  Pairing every grid point of the chain-variety resolution with the
chain tower over its induced flag yields a family covering the whole
Grassmannian; the pair-to-top-space map is one-to-one over the graph
chart, and the preimage of the Schubert cell collapses onto the fiber
over one special grid point, whose tower is exactly the chain tower of
the standard flag.  ``verify_report`` checks both from one walk of the
grid: the chart family's flags are among the grid points' flags.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterator

from schubres.exactlin import (
    DEFAULT_BUDGET,
    LinearMap,
    Memo,
    Rows,
    SpaceNumbers,
    Subspace,
    chain_stages,
    check_budget,
    contains,
    enumerate_between,
    enumerate_maps,
    gaussian_binomial,
    graph,
    intersect,
    rows_bound,
    subspace_sum,
    tower_bound,
    zero_subspace,
)
from schubres.grassfib import LOCI, FrameConfig, check_grassmannian, closed_locus
from schubres.report import EnumReport, frame_config, subspace_witness
from schubres.wflag import (
    GHatPoint,
    build_lift,
    fixed_map_tuples,
    ghat_fans,
    ghat_membership,
    ghat_rows,
    pi_diag,
    psi_space,
    psi_tilde,
)


def chain_tops(flag: tuple[Subspace, ...]) -> tuple[list[Subspace], bool]:
    """The tops of the chains L_1 ⊂ ... ⊂ L_k, L_i of dimension i inside
    flag space i, in depth-first order, and whether each level's choices
    lie in their flag space, checked once per choice as it is built.
    The caller checks the tower's bound (``chain_stages``)."""
    level = [zero_subspace(flag[0].n, flag[0].p)]
    ok = True
    for i, space in enumerate(flag, start=1):
        level = [s for below in level for s in enumerate_between(below, space, i)]
        ok = ok and all(s is space or contains(space, s) for s in level)
    return level, ok


def chart_maps(cfg: FrameConfig) -> Iterator[LinearMap]:
    """All maps from the sum of the fixed lines into the sum of all
    complements (tail included): the graph chart of the Grassmannian."""
    domain = cfg.lines_prefix(cfg.k)
    target = cfg.complements_suffix(1)
    yield from enumerate_maps(domain, target)


def in_chart(cfg: FrameConfig, l: Subspace) -> bool:
    """Membership in the graph chart: trivial meet with all complements."""
    return intersect(l, cfg.complements_suffix(1)).dim == 0


def reconstruct_map_tuple(cfg: FrameConfig, t: LinearMap) -> tuple[Rows, ...]:
    """The matrices of a chart map's restrictions, projected onto the late complements.

    Windows are disjoint blocks of consecutive coordinates, and lines and
    complements are unit vectors in them.  So the chart's domain basis
    is the lines in order, and its target basis the complement
    coordinates in order, the early complements 1..i taking the first
    ``complements_prefix(i).dim``.  The restriction to line i is column
    i-1 of the matrix, and the projection along the early complements
    drops their rows: map i's matrix is the rest of that column.
    """
    return tuple(
        tuple((row[i - 1],) for row in t.matrix[cfg.complements_prefix(i).dim :])
        for i in range(1, cfg.k + 1)
    )


def special_point(cfg: FrameConfig) -> GHatPoint:
    """The grid point over the all-lines diagonal (all maps zero)."""
    diag = tuple(cfg.lines_prefix(i) for i in range(1, cfg.k + 1))
    return build_lift(cfg, diag)


def _cell_test(cfg: FrameConfig) -> Callable[[Subspace, tuple[int, ...]], bool]:
    """Membership of a point L with jump set a in the Schubert cell cut
    out by the beta nodes and the frame's lower nodes.

    L lies in it when it meets F_{b_i} in dimension i, read off its
    Schubert position, and the lower node N_i (the first i-1 lines and
    the first i complements) in dimension i-1.  N_i is a complement of
    line i in F_{b_i}, not a standard flag space: the default line i is
    e_{b_{i-1}+1}, so for n=4, beta=(1,3), N_2 = <e1,e3> while
    F_2 = <e1,e2>.  This cell therefore differs as a set from the
    standard one, ``LOCI["cell"]``, and it is the one whose preimages lie
    over the special grid point.  It lies in the open locus, so a walk of
    the closed locus meets all of it.
    """
    lower_nodes = [
        subspace_sum(cfg.lines_prefix(i - 1), cfg.complements_prefix(i))
        for i in range(1, cfg.k + 1)
    ]
    return lambda l, a: LOCI["open"](cfg.beta, a) and all(
        intersect(l, node).dim == i for i, node in enumerate(lower_nodes)
    )


# a chain top's entry once chains of two family flags top it
_TOPPED_TWICE = (-1, 0)


def verify_report(cfg: FrameConfig, budget: int = DEFAULT_BUDGET) -> EnumReport:
    """The chart-family and embedded-resolution checks, under the
    ``chart.`` and ``resolution.`` prefixes, from one walk of the grid.

    Every bound is checked before the first walk, in the order the
    walks would meet them: Gr_k, the grid's, then the chain tower's.
    Every flag walked has the dimensions beta, so every chain tower has
    the bound of the standard flag's.  The closed locus is walked first
    (``closed_locus``), so that it and the cell, which lies in it, are
    known during the grid walk.  Gr_k itself is not walked: its size is
    the Gaussian binomial.
    Each grid point is paired with the chain tower over its flag.  The
    map to the top space hits all of Gr_k (empirical), is one-to-one
    over the chart, and sends only pairs over the special grid point to
    the cell.  That point's fiber is the chain tower of the standard
    flag, and it projects onto the closed locus (empirical).

    The first grid point that carries a family flag (``psi_tilde`` of a
    map tuple's accumulated graphs) also counts, per chain top, the
    chains of that flag that top it.  One pass over the chart then reads
    them: each chart graph must be topped by one family flag, whose maps
    the reconstruction recovers, and by one of its chains.  Such a chain has
    L_i ⊆ gt ∩ flag[i]; if some meet is larger than i+1, the lowest such
    level offers p+1 choices that each extend up to gt, so one chain
    means the chain is forced.  That needs each flag's walk complete: its
    chain count must equal the one chain bound, exact for a flag, and a
    family flag that no grid point carries keeps 0 and fails.

    Flags, chain tops and points are keyed by subspace ints, the grid
    is read by ``ghat_fans``, and a flag space once per last cell.
    """
    with EnumReport("embres verify", frame_config(cfg, budget)) as report:
        p, k = cfg.p, cfg.k
        check_grassmannian(cfg, budget)
        check_budget(rows_bound(*ghat_rows(cfg)), budget)
        standard = tuple(cfg.frames[b] for b in cfg.beta)
        chain_bound = tower_bound(chain_stages(zero_subspace(cfg.n, p), standard), p)
        check_budget(chain_bound, budget)
        ids = SpaceNumbers()
        spaces = ids.spaces
        cell: set[int] = set()
        closed: set[int] = set()
        in_cell = _cell_test(cfg)
        for a, l in closed_locus(cfg, budget):
            closed.add(ids[l])
            if in_cell(l, a):
                cell.add(ids[l])
        grass_points = gaussian_binomial(cfg.n, k, p)

        tuples = list(fixed_map_tuples(cfg))
        # space i of a tuple's flag sums its first i graphs and complements;
        # the tuples share their maps, so each map's graph is built once
        graph_of: dict[LinearMap, Subspace] = {}
        flags = []
        for m in tuples:
            graphs_m = [graph_of.get(a) or graph_of.setdefault(a, graph(a)) for a in m]
            sums = accumulate(graphs_m, subspace_sum)
            flags.append(tuple(ids[psi_space(cfg, i, s)] for i, s in enumerate(sums, start=1)))
        family = {flag: idx for idx, flag in enumerate(flags)}
        # per family flag, its number of chains; per top of a family flag's
        # chains, the one family flag whose chains top it and how many do
        chains = [0] * len(flags)
        hits: dict[int, tuple[int, int]] = {}

        o = special_point(cfg)
        special_ok = ghat_membership(cfg, o) and psi_tilde(cfg, pi_diag(o)) == standard
        o_rows = tuple(map(ids.row, o))

        # the int of flag space i of a grid point whose row i ends in l
        psis = Memo(lambda i, l: ids[psi_space(cfg, i, spaces[l])])

        # per chain top, the diagonal of its one grid point, or None once a
        # second pair tops it
        first: dict[int, tuple[int, ...] | None] = {}
        over_o: set[int] = set()
        fiber_sizes = set()
        grid_points = total_pairs = 0
        incidence_ok = cell_ok = True
        for up, fan in ghat_fans(cfg, ids, budget):
            upper_diag = tuple([c[-1] for c in up])
            upper_flag = tuple([psis[i, c[-1]] for i, c in enumerate(up, start=2)])
            for lowest in fan:
                grid_points += 1
                flag = (psis[1, lowest[0]],) + upper_flag
                diag = lowest + upper_diag
                idx = family.get(flag)
                if idx is not None and chains[idx]:
                    idx = None
                at_o = (lowest,) + up == o_rows
                tops, ok = chain_tops(tuple([spaces[f] for f in flag]))
                incidence_ok = incidence_ok and ok
                for top in map(ids.__getitem__, tops):
                    first[top] = None if top in first else diag
                    if at_o:
                        over_o.add(top)
                    elif top in cell:
                        cell_ok = False
                    if idx is not None:
                        entry = hits.get(top, (idx, 0))
                        hits[top] = (idx, entry[1] + 1) if entry[0] == idx else _TOPPED_TWICE
                if idx is not None:
                    chains[idx] = len(tops)
                fiber_sizes.add(len(tops))
                total_pairs += len(tops)

        # one pass over the chart: each graph lies in it, is topped by one
        # family flag, whose maps the reconstruction recovers, and by one of
        # its chains, and has one preimage, whose diagonal cells meet the
        # late complements trivially, as a graph's do
        graphs_ok = unique_ok = recon_ok = diag_graph_ok = True
        forced_ok = all(count == chain_bound for count in chains)
        chart_fail: list = []
        late = [cfg.complements_suffix(i + 1) for i in range(1, k + 1)]
        for chart_points, t in enumerate(chart_maps(cfg), start=1):
            gt = graph(t)
            graphs_ok = graphs_ok and in_chart(cfg, gt)
            # a graph that no chain tops has no int yet, and no entry
            g = ids.get(gt)
            entry = hits.get(g)
            if entry is None or entry is _TOPPED_TWICE:
                unique_ok = False
            else:
                idx, count = entry
                if reconstruct_map_tuple(cfg, t) != tuple(m.matrix for m in tuples[idx]):
                    recon_ok = False
                forced_ok = forced_ok and count == 1
            diag = first.get(g)
            if diag is None:
                chart_fail.append(subspace_witness(gt))
            elif any(intersect(spaces[x], late[i]).dim for i, x in enumerate(diag)):
                diag_graph_ok = False
        report.counts["chart_points"] = chart_points
        report.counts["family_flags"] = len(flags)
        report.add("chart.graphs_lie_in_chart", graphs_ok)
        report.add("chart.unique_flag_per_chart_point", unique_ok)
        report.add("chart.map_tuple_reconstructed", recon_ok)
        report.add("chart.forced_chain_is_valid", forced_ok)
        report.add("chart.flags_distinct", len(family) == len(flags))

        report.add("resolution.special_point_flag_is_standard", special_ok)
        report.counts["grid_points"] = grid_points
        report.counts["pairs"] = total_pairs
        report.add("resolution.chain_count_flag_independent", len(fiber_sizes) == 1)
        report.add(
            "resolution.pair_count_is_product",
            total_pairs == grid_points * next(iter(fiber_sizes)),
        )
        report.add("resolution.pairs_satisfy_incidence", incidence_ok)
        report.counts["grassmannian_points"] = grass_points
        # every chain top is a point of Gr_k, so equal sizes mean all are hit
        report.add(
            "resolution.hits_whole_grassmannian",
            len(first) == grass_points,
            "surjectivity observed at this field size",
            informational=True,
        )

        report.add(
            "resolution.chart_points_have_unique_preimage",
            not chart_fail,
            witnesses=chart_fail[:3],
        )
        report.add("resolution.chart_preimage_diagonals_are_graphs", diag_graph_ok)

        report.counts["cell_points"] = len(cell)
        report.add("resolution.cell_preimage_over_special_point", cell_ok)
        report.add(
            "resolution.cell_inside_chart", all(in_chart(cfg, spaces[l]) for l in cell)
        )

        standard_tops = {ids[top] for top in chain_tops(standard)[0]}
        report.add("resolution.special_fiber_is_standard_tower", over_o == standard_tops)
        report.counts["closed_locus_points"] = len(closed)
        report.add(
            "resolution.special_fiber_covers_closed_locus",
            over_o == closed,
            "chain-tower surjectivity observed at this field size",
            informational=True,
        )
    return report
