"""The acceptance matrix: each criterion as one structured report."""

from __future__ import annotations

import itertools
import random
import sys

from schubres import biflag, bottsamelson, building, embres, exactlin, grassfib, wflag
from schubres.exactlin import DEFAULT_BUDGET
from schubres.permcomb import Permutation, all_permutations, length
from schubres.report import EnumReport

SIGMA = Permutation((4, 8, 6, 2, 7, 3, 1, 5))

GRASS_CONFIGS = [(4, 2, (2, 4)), (4, 2, (1, 3)), (5, 2, (2, 4)), (5, 3, (1, 3, 5))]
EMBRES_CONFIGS = [(4, 2, (2, 4)), (4, 2, (1, 3))]


def criterion_1_sigma_example(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-1", {}) as report:
        counts = building.nonredundant_counts(SIGMA)
        raw = building.raw_factor_counts(SIGMA)
        l = length(SIGMA)
        report.counts["per_level"] = list(counts)
        report.counts["raw_per_level"] = list(raw)
        report.counts["length"] = l
        report.add("per_level", counts == (3, 5, 4, 4, 4, 3, 2), str(counts))
        report.add("total_25", sum(counts) == 25)
        report.add("raw_counts", raw == (18, 10, 8, 6, 4, 3, 2), str(raw))
        report.add("length_18", l == 18)
        report.add("total_is_l_plus_n_minus_1", sum(counts) == l + 8 - 1)
    return report


def criterion_2_building_sweep(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-2", {}) as report:
        checked = 0
        ok = True
        witness = []
        for n in range(2, 7):
            for w in all_permutations(n):
                checked += 1
                if not building.check_counts(w):
                    ok = False
                    witness.append(list(w.one_line))
        report.counts["permutations"] = checked
        report.add("totals_and_oracle_agree", ok, witnesses=witness[:3])
    return report


def criterion_3_tower_counts(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-3", {}) as report:
        checked = 0
        ok = True
        witness = []
        for n, p in itertools.product((3, 4), (2, 3)):
            for w in all_permutations(n):
                expected = (p + 1) ** length(w)
                fans = exactlin.walk_fans(biflag.shat_graph(w, p), budget)
                grid = sum(len(fan) for _, fan in fans)
                word = bottsamelson.bubblesort_word(w)
                tower = sum(1 for _ in bottsamelson.enumerate_bs(word, p, budget))
                checked += 1
                if grid != expected or tower != expected:
                    ok = False
                    witness.append([list(w.one_line), p, grid, tower, expected])
        report.counts["cases"] = checked
        report.add("tower_counts_are_(p+1)^l", ok, witnesses=witness[:3])
    return report


def criterion_4_cell_bijectivity(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-4", {}) as report:
        required = {
            "image_in_closed_variety",
            "cell_fibers_are_singletons",
            "cell_fiber_is_intersection_grid",
            "cell_count_is_p^l",
        }
        ok = True
        witness = []
        cases = 0
        for n in (3, 4):
            for w in all_permutations(n):
                rep = biflag.verify_flres(w, 2, budget)
                cases += 1
                failed = [
                    c.name for c in rep.checks if c.name in required and not c.passed
                ]
                if failed:
                    ok = False
                    witness.append([list(w.one_line), failed])
        report.counts["cases"] = cases
        report.add("cell_bijectivity_and_closed_image", ok, witnesses=witness[:3])
    return report


def criterion_5_tower_isomorphism(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-5", {}) as report:
        ok = True
        witness = []
        cases = 0
        for n in (3, 4):
            for w in all_permutations(n):
                rep = bottsamelson.bbs_iso(w, 2, budget)
                cases += 1
                if not rep.passed:
                    ok = False
                    witness.append(
                        [list(w.one_line), [c.name for c in rep.checks if not c.passed]]
                    )
        report.counts["cases"] = cases
        report.add("grid_tower_isomorphism", ok, witnesses=witness[:3])
    return report


def criterion_6_graph_sum_images(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-6", {}) as report:
        for n, k, beta in GRASS_CONFIGS:
            cfg = grassfib.make_frame(n, 2, beta)
            tag = f"n{n}_beta{'-'.join(map(str, beta))}"
            r1 = grassfib.verify_phi(cfg, budget)
            r2 = grassfib.verify_phi_star(cfg, budget)
            r3 = grassfib.verify_transversal_identity(cfg, budget)
            report.add(f"{tag}_phi", r1.passed)
            report.add(f"{tag}_phi_star", r2.passed)
            report.add(f"{tag}_transversal", r3.passed)
            report.counts[tag] = {
                "regular": r1.counts["regular_locus_points"],
                "conjugate": r2.counts["conjugate_locus_points"],
            }
    return report


def criterion_7_chain_resolutions(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-7", {}) as report:
        for n, k, beta in GRASS_CONFIGS:
            cfg = grassfib.make_frame(n, 2, beta)
            tag = f"n{n}_beta{'-'.join(map(str, beta))}"
            rep = wflag.verify_chain_resolution(cfg, budget)
            report.add(f"{tag}_resolution", rep.passed)
            report.counts[tag] = {
                "chain_points": rep.counts["chain_points"],
                "multi_point_fibers": rep.counts["multi_point_fibers"],
            }
            if cfg.complement(k + 1).dim > 0 and k >= 2:
                report.add(
                    f"{tag}_multi_fiber_exists", rep.counts["multi_point_fibers"] >= 1
                )
    return report


def criterion_8_embedded_resolutions(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-8", {}) as report:
        for n, k, beta in EMBRES_CONFIGS:
            cfg = grassfib.make_frame(n, 2, beta)
            tag = f"n{n}_beta{'-'.join(map(str, beta))}"
            rep = embres.verify_report(cfg, budget)
            # each part's verdict, as ``passed`` reads it, from its prefix
            for part, prefix in (("chart_family", "chart."), ("embedded_resolution", "resolution.")):
                hard = [c for c in rep.checks if c.name.startswith(prefix) and not c.informational]
                report.add(f"{tag}_{part}", all(c.passed for c in hard))
            surj = {c.name: c for c in rep.checks}["resolution.hits_whole_grassmannian"]
            report.add(f"{tag}_empirical_surjectivity", surj.passed)
            report.counts[tag] = {
                "pairs": rep.counts["pairs"],
                "grassmannian_points": rep.counts["grassmannian_points"],
            }
    return report


def criterion_9_dimension_consistency(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-9", {}) as report:
        for n, k, beta in GRASS_CONFIGS:
            tag = f"n{n}_beta{'-'.join(map(str, beta))}"
            cell_dim = sum(b - i for i, b in enumerate(beta, start=1))
            chain_dim = wflag.u_dimension_formula(n, beta)
            formula_degree = sum(
                i * ((n - beta[-1]) if i == k else beta[i] - beta[i - 1] - 1)
                for i in range(1, k + 1)
            )
            report.add(f"{tag}_formula_degree_is_dim", formula_degree == chain_dim)
            for p in (2, 3):
                cfg = grassfib.make_frame(n, p, beta)
                grassfib.check_grassmannian(cfg, budget)
                cells = sum(c.size for c in grassfib.locus_charts(cfg, "cell").values())
                report.add(f"{tag}_p{p}_cell_count", cells == p**cell_dim)
                opens = sum(
                    1 for pt in wflag.enumerate_gcal(cfg, budget) if wflag.in_u(cfg, pt)
                )
                formula = wflag.u_count_formula(n, p, beta)
                report.add(f"{tag}_p{p}_open_locus_count", opens == formula)
                report.counts[f"{tag}_p{p}"] = {"cells": cells, "open_locus": opens}
    return report


def criterion_10_exactlin_properties(budget: int = DEFAULT_BUDGET) -> EnumReport:
    with EnumReport("suite criterion-10", {}) as report:
        full2 = exactlin.full_space(4, 2)
        spaces2 = [
            s for j in range(5) for s in exactlin.enumerate_subspaces(full2, j)
        ]
        report.counts["gf2_subspaces"] = len(spaces2)

        def modular(a: exactlin.Subspace, b: exactlin.Subspace) -> bool:
            return a.dim + b.dim == exactlin.subspace_sum(a, b).dim + exactlin.intersect(a, b).dim

        def direct(inner: exactlin.Subspace, outer: exactlin.Subspace) -> bool:
            c = exactlin.canonical_complement(inner, outer)
            return exactlin.subspace_sum(inner, c) == outer and not exactlin.intersect(inner, c).dim

        pairs = itertools.product(spaces2, repeat=2)
        report.add("modularity_exhaustive_gf2_4", all(modular(a, b) for a, b in pairs))
        comp_ok = all(
            direct(inner, outer)
            for outer in spaces2
            for j in range(outer.dim + 1)
            for inner in exactlin.enumerate_subspaces(outer, j)
        )
        report.add("complement_directness_exhaustive_gf2_4", comp_ok)

        gb_ok = all(
            len(list(exactlin.enumerate_subspaces(full2, j)))
            == exactlin.gaussian_binomial(4, j, 2)
            for j in range(5)
        )
        report.add("gaussian_binomial_counts_gf2_4", gb_ok)

        rref_ok = True
        vecs = list(itertools.product(range(2), repeat=4))
        for rows in itertools.product(vecs, repeat=2):
            red, piv = exactlin.rref(rows, 2)
            if exactlin.rref(red, 2) != (red, piv):
                rref_ok = False
        report.add("rref_idempotent_exhaustive_2x4_gf2", rref_ok)

        rng = random.Random(2024)
        cases = 0
        random_ok = True
        full3 = exactlin.full_space(4, 3)
        for _ in range(4000):
            rows_a = [[rng.randrange(3) for _ in range(4)] for _ in range(rng.randrange(1, 5))]
            rows_b = [[rng.randrange(3) for _ in range(4)] for _ in range(rng.randrange(1, 5))]
            a = exactlin.span(rows_a, 4, 3)
            b = exactlin.span(rows_b, 4, 3)
            random_ok = random_ok and modular(a, b)
            cases += 1
        for _ in range(3000):
            rows = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
            red, piv = exactlin.rref(rows, 3)
            if exactlin.rref(red, 3) != (red, piv):
                random_ok = False
            cases += 1
        for _ in range(3000):
            outer = exactlin.span(
                [[rng.randrange(3) for _ in range(4)] for _ in range(rng.randrange(1, 5))], 4, 3
            )
            subs = exactlin._subspaces_tuple(outer, rng.randrange(0, outer.dim + 1))
            inner = subs[rng.randrange(len(subs))]
            random_ok = random_ok and direct(inner, outer)
            cases += 1
        gb3_ok = all(
            len(exactlin._subspaces_tuple(full3, j)) == exactlin.gaussian_binomial(4, j, 3)
            for j in range(5)
        )
        report.counts["random_cases"] = cases
        report.add("randomized_gf3_4_laws", random_ok and cases >= 10**4)
        report.add("gaussian_binomial_counts_gf3_4", gb3_ok)
    return report


CRITERIA = [
    ("criterion-1-sigma-example", criterion_1_sigma_example, 1.0),
    ("criterion-2-building-sweep", criterion_2_building_sweep, 30.0),
    ("criterion-3-tower-counts", criterion_3_tower_counts, 300.0),
    ("criterion-4-cell-bijectivity", criterion_4_cell_bijectivity, 300.0),
    ("criterion-5-tower-isomorphism", criterion_5_tower_isomorphism, 300.0),
    ("criterion-6-graph-sum-images", criterion_6_graph_sum_images, 300.0),
    ("criterion-7-chain-resolutions", criterion_7_chain_resolutions, 300.0),
    ("criterion-8-embedded-resolutions", criterion_8_embedded_resolutions, 600.0),
    ("criterion-9-dimension-consistency", criterion_9_dimension_consistency, 300.0),
    ("criterion-10-exactlin-properties", criterion_10_exactlin_properties, 300.0),
]


def suite_report(budget: int = DEFAULT_BUDGET) -> EnumReport:
    """Every criterion as one report: its verdict, with the name and
    witnesses of each failing check of a failing criterion, and whether it
    ran within its time limit.  The measured times go to stderr only,
    keeping the report deterministic."""
    with EnumReport("suite", {"budget": budget}) as merged:
        for name, fn, limit in CRITERIA:
            rep = fn(budget)
            failed = [c for c in rep.checks if not c.passed and not c.informational]
            merged.add(name, rep.passed, witnesses=[[c.name, list(c.witnesses)] for c in failed])
            merged.add(f"{name}-within-time", rep.wall_time_s < limit)
            merged.counts[name] = rep.counts
            print(
                f"{'PASS' if rep.passed else 'FAIL'} {name} "
                f"({rep.wall_time_s:.2f}s, limit {limit:.0f}s)",
                file=sys.stderr,
            )
    return merged
