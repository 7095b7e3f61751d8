"""Acceptance matrix: one verdict line per criterion of ``suite.CRITERIA``.

Every criterion is exact (integer counts and set identities over GF(p));
the stated wall-time limits are asserted as well.  Each criterion runs
once; its per-criterion test checks its counts.  Run with ``pytest -s``
to see the verdict lines.
"""

import functools
import math

import pytest

from schubres.suite import CRITERIA, GRASS_CONFIGS


@functools.cache
def _report(name):
    return {n: fn for n, fn, _ in CRITERIA}[name]()


@pytest.mark.parametrize("name,limit_s", [(n, limit) for n, _, limit in CRITERIA])
def test_criterion_passes_within_limit(name, limit_s):
    report = _report(name)
    failed = [c.name for c in report.checks if not c.passed and not c.informational]
    verdict = "PASS" if (not failed and report.wall_time_s < limit_s) else "FAIL"
    print(f"{verdict} {name} ({report.wall_time_s:.2f}s, limit {limit_s:.0f}s)")
    assert not failed, f"{name}: failing checks {failed}"
    assert report.wall_time_s < limit_s, f"{name}: {report.wall_time_s:.2f}s over limit"


def test_criterion_1_sigma_example():
    rep = _report("criterion-1-sigma-example")
    assert rep.counts["per_level"] == [3, 5, 4, 4, 4, 3, 2]
    assert rep.counts["raw_per_level"] == [18, 10, 8, 6, 4, 3, 2]
    assert rep.counts["length"] == 18


def test_criterion_2_building_sweep():
    rep = _report("criterion-2-building-sweep")
    assert rep.counts["permutations"] == sum(math.factorial(n) for n in range(2, 7))


def test_criterion_3_tower_counts():
    rep = _report("criterion-3-tower-counts")
    assert rep.counts["cases"] == 2 * (6 + 24)


def test_criterion_4_cell_bijectivity():
    rep = _report("criterion-4-cell-bijectivity")
    assert rep.counts["cases"] == 30


def test_criterion_5_tower_isomorphism():
    rep = _report("criterion-5-tower-isomorphism")
    assert rep.counts["cases"] == 30


def test_criterion_6_graph_sum_images():
    # phi, phi_star and the transversal identity for every configuration
    rep = _report("criterion-6-graph-sum-images")
    assert len(rep.checks) == 3 * len(GRASS_CONFIGS)


def test_criterion_7_chain_resolutions():
    rep = _report("criterion-7-chain-resolutions")
    # the singular regimes in the config list must show a genuine fiber
    multi_checks = [c for c in rep.checks if c.name.endswith("multi_fiber_exists")]
    assert multi_checks and all(c.passed for c in multi_checks)


def test_criterion_8_embedded_resolutions():
    rep = _report("criterion-8-embedded-resolutions")
    surj = [c for c in rep.checks if c.name.endswith("empirical_surjectivity")]
    assert len(surj) == 2 and all(c.passed for c in surj)


def test_criterion_9_dimension_consistency():
    # cell and open-locus counts at p = 2 and 3 for every configuration
    rep = _report("criterion-9-dimension-consistency")
    assert len(rep.counts) == 2 * len(GRASS_CONFIGS)


def test_criterion_10_exactlin_properties():
    rep = _report("criterion-10-exactlin-properties")
    assert rep.counts["random_cases"] >= 10**4
