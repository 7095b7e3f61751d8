"""Building algorithm vs the rank-matrix dedup oracle."""

import pytest
from oracles import identity

from schubres.building import (
    build_building,
    check_counts,
    dedup_positions,
    dedup_rank_matrix,
    nonredundant_counts,
    raw_factor_counts,
)
from schubres.permcomb import Permutation, all_permutations, length

SIGMA = Permutation((4, 8, 6, 2, 7, 3, 1, 5))


class TestSigmaExample:
    def test_per_floor_counts(self):
        assert nonredundant_counts(SIGMA) == (3, 5, 4, 4, 4, 3, 2)

    def test_total(self):
        assert sum(nonredundant_counts(SIGMA)) == 25 == length(SIGMA) + 8 - 1

    def test_raw_counts(self):
        assert raw_factor_counts(SIGMA) == (18, 10, 8, 6, 4, 3, 2)

    def test_dedup_matches(self):
        assert dedup_rank_matrix(SIGMA) == (3, 5, 4, 4, 4, 3, 2)

    def test_pinned_tower_drops_one_factor_per_floor(self):
        # pinning the bottom row closes the last apartment on each
        # floor, leaving length(w) factors in total
        counts = nonredundant_counts(SIGMA)
        assert tuple(c - 1 for c in counts) == (2, 4, 3, 3, 3, 2, 1)
        assert sum(c - 1 for c in counts) == length(SIGMA)

    def test_expanded_floors(self):
        floors = build_building(SIGMA)
        assert floors[0] == ((1, 4), (4, 2), (7, 1))
        assert floors[1] == ((2, 8), (3, 6), (4, 4), (6, 3), (7, 2))
        assert floors[2] == ((3, 8), (4, 6), (6, 4), (7, 3))
        assert floors[3] == ((4, 8), (5, 7), (6, 6), (7, 4))
        assert floors[4] == ((5, 8), (6, 7), (7, 6), (8, 5))
        assert floors[5] == ((6, 8), (7, 7), (8, 6))
        assert floors[6] == ((7, 8), (8, 7))


class TestSmallCases:
    def test_identity_chain(self):
        for n in (2, 3, 4, 5):
            assert nonredundant_counts(identity(n)) == (1,) * (n - 1)

    def test_two_cycle(self):
        assert nonredundant_counts(Permutation((2, 1))) == (2,)
        assert sum(nonredundant_counts(Permutation((2, 1)))) == 2  # = l + n - 1

    def test_identity_s4_total(self):
        assert sum(nonredundant_counts(identity(4))) == 3

    def test_n1_empty(self):
        assert nonredundant_counts(Permutation((1,))) == ()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sweep_counts_and_oracle(n):
    for w in all_permutations(n):
        counts = nonredundant_counts(w)
        assert counts == dedup_rank_matrix(w)
        assert sum(counts) == length(w) + n - 1
        assert all(c >= 1 for c in counts)  # every floor is inhabited
        assert check_counts(w)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_building_positions_equal_dedup_survivors(n):
    for w in all_permutations(n):
        floors = build_building(w)
        survivors = dedup_positions(w)
        for level, floor in enumerate(floors, start=1):
            assert set(floor) == set(survivors[level - 1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_survivor_geometry_facts(n):
    """Structure of the survivor set, checked per value on all of S_n.

    (1) one survivor per row and per column, pairwise NE/SW positioned;
    (2) nearest survivor to the north/west has value v-1 (or boundary),
        to the south/east value v+1 (or boundary);
    (4) consecutive same-value survivors share the componentwise-max
        neighbour, a survivor of value v+1.
    """
    for w in all_permutations(n):
        survivors = dedup_positions(w)
        pos_value = {
            pos: v for v, row in enumerate(survivors, start=1) for pos in row
        }
        for v, row in enumerate(survivors, start=1):
            rows_used = [p for p, _ in row]
            cols_used = [q for _, q in row]
            assert len(set(rows_used)) == len(row)
            assert len(set(cols_used)) == len(row)
            ordered = sorted(row)
            for (p1, q1), (p2, q2) in zip(ordered, ordered[1:]):
                assert p1 < p2 and q1 > q2  # strictly NE of the next one
                if v < n - 1:
                    common = (max(p1, p2), max(q1, q2))
                    assert pos_value.get(common) == v + 1
        for (p, q), v in pos_value.items():
            north = next(
                (pos_value[(r, q)] for r in range(p - 1, 0, -1) if (r, q) in pos_value),
                None,
            )
            west = next(
                (pos_value[(p, c)] for c in range(q - 1, 0, -1) if (p, c) in pos_value),
                None,
            )
            south = next(
                (pos_value[(r, q)] for r in range(p + 1, n + 1) if (r, q) in pos_value),
                None,
            )
            east = next(
                (pos_value[(p, c)] for c in range(q + 1, n + 1) if (p, c) in pos_value),
                None,
            )
            assert north in (None, v - 1)
            assert west in (None, v - 1)
            assert south in (None, v + 1)
            assert east in (None, v + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_graph_positions_survive_unless_fixed_last_point(n):
    for w in all_permutations(n):
        survivor_set = {pos for row in dedup_positions(w) for pos in row}
        graph = {(i, w(i)) for i in range(1, n + 1)}
        expected = graph - ({(n, n)} if w(n) == n else set())
        assert expected <= survivor_set
        if w(n) != n:
            assert graph <= survivor_set
