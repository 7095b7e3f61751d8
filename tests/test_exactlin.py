"""Canonical subspace arithmetic: examples and exhaustive small-field laws."""

import itertools
import random

import pytest
from oracles import (
    apply,
    between_by_complement,
    canonical_complement_by_coords,
    linear_map_from_pairs,
    project,
    subspaces_by_span,
    unit_vector,
    vectors,
    zero_map,
)

from schubres import exactlin as ex


def sp(vecs, n, p=2):
    return ex.span(vecs, n, p)


E1 = (1, 0, 0)
E2 = (0, 1, 0)
E3 = (0, 0, 1)


def all_subspaces(n, p):
    full = ex.full_space(n, p)
    out = []
    for j in range(n + 1):
        out.extend(ex.enumerate_subspaces(full, j))
    return out


class TestCoordinateSpace:
    @pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (3, 5)])
    def test_equals_span_of_unit_vectors(self, n, p):
        for k in range(n + 1):
            for coords in itertools.combinations(range(n), k):
                want = ex.span([unit_vector(c, n) for c in coords], n, p)
                assert ex.coordinate_space(coords, n, p) == want
                assert ex.coordinate_space(reversed(coords + coords), n, p) == want
        assert ex.full_space(n, p) == ex.span([unit_vector(c, n) for c in range(n)], n, p)

    def test_rejects_bad_input(self):
        for coords in ([3], [-1, 0]):
            with pytest.raises(ValueError):
                ex.coordinate_space(coords, 3, 2)
        with pytest.raises(ValueError):
            ex.coordinate_space([0], 3, 4)


class TestEchelonCharts:
    @pytest.mark.parametrize("n,p", [(5, 2), (4, 3)])
    def test_subspaces_tuple_equals_span_generator(self, n, p):
        # in order, for every subspace v of GF(p)^n and every dimension
        full = ex.span([unit_vector(c, n) for c in range(n)], n, p)
        spaces = [v for j in range(n + 1) for v in subspaces_by_span(full, j)]
        assert len(spaces) == sum(ex.gaussian_binomial(n, j, p) for j in range(n + 1))
        for v in spaces:
            for j in range(-1, v.dim + 2):
                assert ex._subspaces_tuple(v, j) == subspaces_by_span(v, j), (v, j)


CHART_SPACES = [(n, p) for p in (2, 3) for n in range(1, 6)]


def reversed_form(l):
    """L with its coordinates reversed, canonical there."""
    return ex.span([row[::-1] for row in l.basis], l.n, l.p)


class TestChart:
    @pytest.mark.parametrize("n,p", CHART_SPACES)
    @pytest.mark.parametrize("reverse", [False, True], ids=["c-chart", "reversed-chart"])
    def test_rank_and_unrank_invert_each_other(self, n, p, reverse):
        # on all of Gr_k(GF(p)^n), for every k, the ranks are 0..N-1
        full = ex.full_space(n, p)
        for k in range(n + 1):
            table = ex.charts(n, k, p, lambda piv: True)
            by_pivots = {c.pivots: c for c in table}
            ranks = set()
            for l in ex.enumerate_subspaces(full, k):
                form = reversed_form(l) if reverse else l
                chart = by_pivots[form.pivots]
                i = chart.rank(form.basis)
                assert chart.unrank(i) == form
                ranks.add(i)
            total = ex.gaussian_binomial(n, k, p)
            assert ranks == set(range(total))
            for chart in table:
                for i in range(chart.offset, chart.offset + chart.size):
                    assert chart.rank(chart.unrank(i).basis) == i

    @pytest.mark.parametrize("n,p", CHART_SPACES)
    def test_echelon_walk_takes_ranks_in_order(self, n, p):
        # each cell's walk yields offset..offset+size-1 in order; the sizes
        # are the cells' counts and add up to the Gaussian binomial
        full = ex.full_space(n, p)
        for k in range(n + 1):
            table = ex.charts(n, k, p, lambda piv: True)
            assert [c.pivots for c in table] == list(itertools.combinations(range(n), k))
            for chart in table:
                walk = [chart.rank(s.basis) for s in ex._echelon_forms(full, chart.pivots)]
                assert walk == list(range(chart.offset, chart.offset + chart.size))
            assert sum(c.size for c in table) == ex.gaussian_binomial(n, k, p)

    def test_offsets_cover_only_kept_cells(self):
        # Gr_2(GF(3)^4) keeping the cells with first pivot 0: 3^4, 3^3
        # and 3^2 of its 130 points
        table = ex.charts(4, 2, 3, lambda piv: piv[0] == 0)
        assert [(c.pivots, c.offset, c.size) for c in table] == [
            ((0, 1), 0, 81),
            ((0, 2), 81, 27),
            ((0, 3), 108, 9),
        ]
        assert table[1].free == ((1, 3), (3,))


class TestRref:
    def test_identity_is_fixed(self):
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        red, piv = ex.rref(ident, 2)
        assert red == ident
        assert piv == (0, 1, 2)

    def test_repeated_rows_collapse(self):
        # hand reduction: r2 - r1 = 0, single row (1,1) survives
        red, piv = ex.rref(((1, 1), (1, 1)), 2)
        assert red == ((1, 1),)
        assert piv == (0,)

    def test_zero_matrix(self):
        red, piv = ex.rref(((0, 0), (0, 0)), 2)
        assert red == ()
        assert piv == ()

    def test_idempotent_on_random_matrices(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            for _ in range(50):
                rows = tuple(
                    tuple(rng.randrange(p) for _ in range(4)) for _ in range(3)
                )
                red, piv = ex.rref(rows, p)
                assert ex.rref(red, p) == (red, piv)

    def test_scaled_rows_normalize(self):
        red, piv = ex.rref(((2, 4, 1),), 5)
        assert red == ((1, 2, 3),)  # scaled by 2^{-1} = 3 mod 5

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_elimination_oracle_exhaustive(self, p):
        # every matrix of 1 to 3 rows and 1 to 3 columns
        from oracles import rref_by_elimination

        for r, c in itertools.product(range(1, 4), repeat=2):
            for entries in itertools.product(range(p), repeat=r * c):
                rows = [entries[i * c : (i + 1) * c] for i in range(r)]
                assert ex.rref(rows, p) == rref_by_elimination(rows, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 251])
    def test_matches_elimination_oracle_random(self, p):
        # entries from -2p to 2p, with zero rows and repeated rows mixed in
        from oracles import rref_by_elimination

        rng = random.Random(p)
        for _ in range(300):
            r, c = rng.randint(1, 6), rng.randint(1, 10)
            rows = [[rng.randrange(-2 * p, 2 * p) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.3:
                rows[rng.randrange(r)] = [0] * c
            if r < 6 and rng.random() < 0.3:
                rows.insert(rng.randrange(r + 1), list(rng.choice(rows)))
            assert ex.rref(rows, p) == rref_by_elimination(rows, p)

    def test_empty_inputs(self):
        from oracles import rref_by_elimination

        for rows in ([], [()]):
            assert ex.rref(rows, 3) == rref_by_elimination(rows, 3) == ((), ())


class TestSpan:
    def test_hand_reduction(self):
        s = sp([E1, (1, 1, 0)], 3)
        assert s.basis == (E1, E2)
        assert s.pivots == (0, 1)

    def test_empty_is_zero(self):
        assert sp([], 3).dim == 0
        assert sp([], 3) == ex.zero_subspace(3, 2)

    def test_single_unit(self):
        assert sp([E2], 3).basis == (E2,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sp([(1, 0)], 3)

    def test_bad_field_rejected(self):
        with pytest.raises(ValueError):
            ex.span([E1], 3, 4)
        with pytest.raises(ValueError):
            ex.span([E1], 3, 257)

    @pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 2)])
    def test_extend_is_span_exhaustive(self, n, p):
        # extending the canonical rows by one vector gives the canonical
        # form of the span, for every subspace and every vector
        full = ex.full_space(n, p)
        for s in all_subspaces(n, p):
            for v in vectors(full):
                if s.contains_vector(v):
                    assert s.extend(v) == s
                else:
                    assert s.extend(v) == sp(s.basis + (v,), n, p)


class TestSubspaceHash:
    def test_hash_is_tuple_hash(self):
        for s in all_subspaces(3, 3):
            h = hash((s.n, s.p, s.basis, s.pivots))
            assert hash(s) == h and hash(s) == h  # the same on every call

    def test_no_instance_dict(self):
        s = sp([E1, E2], 3)
        assert not hasattr(s, "__dict__")


def field_tuple(s):
    return (s.n, s.p, s.basis, s.pivots)


class TestSubspaceValueType:
    def test_order_and_equality_are_field_tuples(self):
        # every pair of subspaces of GF(2)^4, GF(2)^3 and GF(3)^3, all
        # dimensions, also across n and p: each comparison agrees with the
        # same comparison on (n, p, basis, pivots)
        spaces = all_subspaces(4, 2) + all_subspaces(3, 2) + all_subspaces(3, 3)
        for s in spaces:
            for t in spaces:
                ks, kt = field_tuple(s), field_tuple(t)
                assert (s == t, s != t) == (ks == kt, ks != kt)
                assert (s < t, s <= t, s > t, s >= t) == (ks < kt, ks <= kt, ks > kt, ks >= kt)
        shuffled = spaces[:]
        random.Random(0).shuffle(shuffled)
        assert sorted(shuffled) == sorted(shuffled, key=field_tuple)
        assert sorted(shuffled, reverse=True) == sorted(shuffled, key=field_tuple, reverse=True)

    @pytest.mark.parametrize("field", ["n", "p", "basis", "pivots"])
    def test_fields_cannot_be_set_or_deleted(self, field):
        s = sp([E1, E2], 3)
        with pytest.raises(AttributeError):
            setattr(s, field, getattr(s, field))
        with pytest.raises(AttributeError):
            delattr(s, field)
        assert field_tuple(s) == (3, 2, (E1, E2), (0, 1))

    def test_linear_map_rejects_wrong_shape(self):
        d, t = sp([E1, E2], 3), sp([E3], 3)
        with pytest.raises(ValueError, match="matrix row count != target dimension"):
            ex.LinearMap(d, t, ())
        with pytest.raises(ValueError, match="matrix column count != domain dimension"):
            ex.LinearMap(d, t, ((1,),))
        a = ex.LinearMap(d, t, ((1, 0),))
        assert (a.domain, a.target, a.matrix) == (d, t, ((1, 0),))
        assert a == ex.LinearMap(d, t, ((1, 0),)) and hash(a) == hash((d, t, ((1, 0),)))


class TestSumIntersectContains:
    def test_sum_of_axes(self):
        assert ex.subspace_sum(sp([E1], 3), sp([E2], 3)) == sp([E1, E2], 3)

    def test_intersection_solves(self):
        # common vectors of <e1,e2> and <e2,e3>: a e1 + b e2 = c e2 + d e3
        # forces a = d = 0, b = c, hence <e2>
        got = ex.intersect(sp([E1, E2], 3), sp([E2, E3], 3))
        assert got == sp([E2], 3)

    def test_contains_reflexive(self):
        v = sp([E1, (1, 1, 1)], 3)
        assert ex.contains(v, v)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ex.subspace_sum(sp([E1], 3), ex.span([(1, 0)], 2, 2))
        with pytest.raises(ValueError):
            ex.intersect(sp([E1], 3), ex.span([E1], 3, 3))

    @pytest.mark.parametrize("n,p", [(4, 2), (3, 3)])
    def test_sum_is_span_of_both_bases_exhaustive(self, n, p):
        # uncached, in both argument orders
        add = ex.subspace_sum.__wrapped__
        spaces = all_subspaces(n, p)
        for a, b in itertools.product(spaces, repeat=2):
            want = ex.span(a.basis + b.basis, n, p)
            assert add(a, b) == add(b, a) == want

    @pytest.mark.parametrize("p", [2, 3])
    def test_modularity_exhaustive_small(self, p):
        spaces = all_subspaces(3, p)
        for a, b in itertools.product(spaces, repeat=2):
            s = ex.subspace_sum(a, b)
            i = ex.intersect(a, b)
            assert a.dim + b.dim == s.dim + i.dim
            assert ex.contains(s, a) and ex.contains(s, b)
            assert ex.contains(a, i) and ex.contains(b, i)

    @pytest.mark.parametrize("n,p", [(4, 2), (3, 3)])
    def test_meet_with_coordinate_space_exhaustive(self, n, p):
        # uncached, in both argument orders: the vectors of L that vanish
        # outside C span L ∩ C, for every subspace L and coordinate space C
        meet = ex.intersect.__wrapped__
        for L in all_subspaces(n, p):
            for r in range(n + 1):
                for coords in itertools.combinations(range(n), r):
                    c = ex.coordinate_space(coords, n, p)
                    outside = [i for i in range(n) if i not in coords]
                    inside = [v for v in vectors(L) if not any(v[i] for i in outside)]
                    want = ex.span(inside, n, p)
                    got, swapped = meet(L, c), meet(c, L)
                    assert got == swapped == want, (L, coords)
                    assert got.pivots == swapped.pivots == want.pivots


class TestCanonicalComplement:
    def test_axis_pair(self):
        inner = ex.span([(1, 0)], 2, 2)
        outer = ex.full_space(2, 2)
        assert ex.canonical_complement(inner, outer) == ex.span([(0, 1)], 2, 2)

    def test_diagonal_line(self):
        # pivot of (1,1) in outer-coordinates is column 0, so the
        # complement keeps the second canonical row e2
        inner = ex.span([(1, 1)], 2, 2)
        outer = ex.full_space(2, 2)
        assert ex.canonical_complement(inner, outer) == ex.span([(0, 1)], 2, 2)

    def test_inner_equals_outer(self):
        v = sp([E1, E2], 3)
        assert ex.canonical_complement(v, v).dim == 0

    def test_not_contained_rejected(self):
        with pytest.raises(ValueError):
            ex.canonical_complement(sp([E3], 3), sp([E1, E2], 3))

    @pytest.mark.parametrize("n,p", [(4, 2), (3, 3)])
    def test_equals_rref_oracle_exhaustive(self, n, p):
        # read off outer's pivots, the complement is the rref oracle's,
        # canonical with the same pivots; a pair out of order is refused
        spaces = all_subspaces(n, p)
        for inner, outer in itertools.product(spaces, repeat=2):
            if not ex.contains(outer, inner):
                with pytest.raises(ValueError):
                    ex.canonical_complement(inner, outer)
                continue
            got = ex.canonical_complement(inner, outer)
            want = canonical_complement_by_coords(inner, outer)
            assert got == want and got.pivots == want.pivots

    def test_directness_exhaustive_gf2_cubed(self):
        spaces = all_subspaces(3, 2)
        for outer in spaces:
            for j in range(outer.dim + 1):
                for inner in ex.enumerate_subspaces(outer, j):
                    comp = ex.canonical_complement(inner, outer)
                    assert ex.subspace_sum(inner, comp) == outer
                    assert ex.intersect(inner, comp).dim == 0


class TestProject:
    def test_fixed_on_onto(self):
        onto, along = sp([E1], 3), sp([E2], 3)
        assert project(E1, onto, along) == E1

    def test_kills_along(self):
        onto, along = sp([E1], 3), sp([E2], 3)
        assert project(E2, onto, along) == (0, 0, 0)

    def test_skew_decomposition(self):
        # e2 = e1 + (e1 + e2) over GF(2)
        onto = ex.span([(1, 0)], 2, 2)
        along = ex.span([(1, 1)], 2, 2)
        assert project((0, 1), onto, along) == (1, 0)

    def test_non_direct_rejected(self):
        v = sp([E1], 3)
        with pytest.raises(ValueError):
            project(E1, v, v)

    def test_outside_sum_rejected(self):
        with pytest.raises(ValueError):
            project(E3, sp([E1], 3), sp([E2], 3))

    def test_decomposition_membership_exhaustive(self):
        spaces = all_subspaces(3, 2)
        p = 2
        for onto, along in itertools.product(spaces, repeat=2):
            if ex.intersect(onto, along).dim:
                continue
            total = ex.subspace_sum(onto, along)
            for v in vectors(total):
                w = project(v, onto, along)
                r = tuple((a - b) % p for a, b in zip(v, w))
                assert onto.contains_vector(w)
                assert along.contains_vector(r)


class TestLinearMapsAndGraphs:
    def test_zero_map_graph_is_domain(self):
        d, t = sp([E1], 3), sp([E2], 3)
        assert ex.graph(zero_map(d, t)) == d

    def test_unit_graph(self):
        d, t = sp([E1], 3), sp([E2], 3)
        a = ex.LinearMap(d, t, ((1,),))
        assert ex.graph(a) == sp([(1, 1, 0)], 3)

    def test_graph_meets_domain_in_kernel(self):
        # brute force over all domain vectors: graph ∩ domain = ker A
        d = sp([E1, E2], 3)
        t = sp([E3], 3)
        for a in ex.enumerate_maps(d, t):
            ker_vecs = [v for v in vectors(d) if apply(a, v) == (0, 0, 0)]
            ker = ex.span(ker_vecs, 3, 2)
            assert ex.intersect(ex.graph(a), d) == ker

    def test_graph_rows_rejects_non_coordinate_target(self):
        # the graph exists, but its rows are read off only for a target
        # spanned by unit vectors
        d, t = sp([E1], 3), sp([(0, 1, 1)], 3)
        with pytest.raises(ValueError, match="coordinate"):
            ex.graph_rows(ex.LinearMap(d, t, ((1,),)))

    def test_overlapping_domain_target_rejected(self):
        d = sp([E1], 3)
        with pytest.raises(ValueError):
            ex.graph(zero_map(d, d))

    @pytest.mark.parametrize("p", [2, 3])
    def test_graph_matches_apply_oracle(self, p):
        # every map out of one line or a prefix of lines into the later
        # complements, and every chart map, of each default frame, n <= 4
        from oracles import graph_by_apply
        from schubres.grassfib import make_frame

        for n in range(1, 5):
            for k in range(1, n + 1):
                for beta in itertools.combinations(range(1, n + 1), k):
                    cfg = make_frame(n, p, beta)
                    pairs = [(cfg.lines_prefix(k), cfg.complements_suffix(1))]
                    for i in range(1, k + 1):
                        target = cfg.complements_suffix(i + 1)
                        pairs += [(cfg.line(i), target), (cfg.lines_prefix(i), target)]
                    for domain, target in pairs:
                        for a in ex.enumerate_maps(domain, target):
                            assert ex.graph(a) == graph_by_apply(a)

    def test_enumerate_maps_count(self):
        d, t = sp([E1, E2], 3), sp([E3], 3)
        assert len(list(ex.enumerate_maps(d, t))) == 2 ** 2

    def test_from_pairs_roundtrip(self):
        d = sp([E1, E2], 3)
        t = sp([E3], 3)
        for a in ex.enumerate_maps(d, t):
            pairs = [(v, apply(a, v)) for v in [(1, 1, 0), (1, 0, 0)]]
            b = linear_map_from_pairs(d, t, pairs)
            assert b.matrix == a.matrix

    def test_from_pairs_rejects_deficient_span(self):
        d = sp([E1, E2], 3)
        t = sp([E3], 3)
        with pytest.raises(ValueError):
            linear_map_from_pairs(d, t, [((1, 0, 0), (0, 0, 0))])


def brute_force_subspace_count(n, j, p):
    """Rank-based oracle: all j-row matrices, dedup by canonical form."""
    seen = set()
    vecs = list(itertools.product(range(p), repeat=n))
    for rows in itertools.product(vecs, repeat=j):
        red, piv = ex.rref(rows, p)
        if len(red) == j:
            seen.add(red)
    return len(seen)


class TestEnumerateSubspaces:
    def test_dim_zero(self):
        v = ex.full_space(3, 2)
        assert list(ex.enumerate_subspaces(v, 0)) == [ex.zero_subspace(3, 2)]

    def test_three_lines_in_plane(self):
        v = ex.full_space(2, 2)
        lines = list(ex.enumerate_subspaces(v, 1))
        assert len(lines) == 3
        assert {l.basis for l in lines} == {((1, 0),), ((0, 1),), ((1, 1),)}

    def test_gf2_4_planes(self):
        v = ex.full_space(4, 2)
        assert len(list(ex.enumerate_subspaces(v, 2))) == 35

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3])
    def test_counts_match_rank_oracle(self, n, p):
        full = ex.full_space(n, p)
        for j in range(n + 1):
            got = len(list(ex.enumerate_subspaces(full, j)))
            assert got == brute_force_subspace_count(n, j, p)
            assert got == ex.gaussian_binomial(n, j, p)

    def test_gf2_4_counts_match_rank_oracle(self):
        full = ex.full_space(4, 2)
        for j in range(5):
            got = len(list(ex.enumerate_subspaces(full, j)))
            assert got == brute_force_subspace_count(4, j, 2)

    def test_order_is_sorted_and_duplicate_free(self):
        v = ex.full_space(4, 2)
        subs = list(ex.enumerate_subspaces(v, 2))
        assert subs == sorted(subs)
        assert len(set(subs)) == len(subs)

    def test_relative_enumeration(self):
        v = ex.span([E1, E2], 3, 2)
        lines = list(ex.enumerate_subspaces(v, 1))
        assert len(lines) == 3
        assert all(ex.contains(v, l) for l in lines)


class TestEnumerateBetween:
    def test_counts(self):
        lower = ex.span([(1, 0, 0, 0)], 4, 2)
        upper = ex.full_space(4, 2)
        mids = list(ex.enumerate_between(lower, upper, 2))
        assert len(mids) == ex.gaussian_binomial(3, 1, 2)
        for m in mids:
            assert ex.contains(m, lower) and ex.contains(upper, m)

    def test_exhaustive_against_filter(self):
        spaces = all_subspaces(3, 2)
        full_list = spaces
        for lower, upper in itertools.product(spaces, repeat=2):
            for d in range(4):
                got = set(ex.enumerate_between(lower, upper, d))
                want = {
                    s
                    for s in full_list
                    if s.dim == d and ex.contains(s, lower) and ex.contains(upper, s)
                }
                assert got == want

    def test_incompatible_is_empty(self):
        assert list(ex.enumerate_between(sp([E3], 3), sp([E1, E2], 3), 2)) == []

    @pytest.mark.parametrize("n,p", [(4, 2), (3, 3)])
    def test_forced_levels_equal_general_path(self, n, p):
        # a level at lower's or upper's dimension is that space alone,
        # as the complement path finds it; the other levels agree too
        spaces = all_subspaces(n, p)
        forced = 0
        for lower, upper in itertools.product(spaces, repeat=2):
            for d in range(n + 1):
                got = tuple(ex.enumerate_between(lower, upper, d))
                assert got == between_by_complement(lower, upper, d)
                if got and d in (lower.dim, upper.dim):
                    assert got == ((lower,) if d == lower.dim else (upper,))
                    forced += 1
        assert forced


class TestGaussianBinomial:
    def test_small_values(self):
        assert ex.gaussian_binomial(2, 1, 2) == 3
        assert ex.gaussian_binomial(4, 2, 2) == 35
        assert ex.gaussian_binomial(4, 2, 3) == 130
        assert ex.gaussian_binomial(3, 5, 2) == 0

    def test_symmetry(self):
        for n in range(6):
            for k in range(n + 1):
                assert ex.gaussian_binomial(n, k, 3) == ex.gaussian_binomial(n, n - k, 3)


def _mixed_stages(n, p):
    """Levels bounded by fixed spaces, earlier choices and their sums and
    intersections; the last level is empty for some prefixes."""
    full, zero = ex.full_space(n, p), ex.zero_subspace(n, p)
    hyper = ex.span([unit_vector(i, n) for i in range(n - 1)], n, p)
    last = ex.span([unit_vector(n - 1, n)], n, p)
    return [
        ex.Stage(lambda c: (zero, full), 0, n, 1),
        ex.Stage(lambda c: (zero, ex.subspace_sum(c[0], last)), 0, 2, 1),
        ex.Stage(lambda c: (ex.subspace_sum(c[0], c[1]), full), 1, n, 2),
        ex.Stage(lambda c: (c[0], ex.intersect(c[2], hyper)), 1, 2, 1),
    ]


def _chain_stages(n, p):
    return ex.chain_stages(ex.zero_subspace(n, p), (ex.full_space(n, p),) * (n - 1))


# (n, p) spaces on which tower bounds are checked against point counts
BOUND_SPACES = [(3, 2), (3, 3), (4, 2)]


def _bound_stage_lists(n, p):
    """Complete flags, and the pinned grid, Bott-Samelson and first-block
    towers of every permutation of S_n (unpinned grids too for n = 3)."""
    from oracles import complete_flag_stages, grid_stages
    from schubres.biflag import standard_frames
    from schubres.bottsamelson import bs_stages
    from schubres.permcomb import all_permutations, bubblesort_word

    frames = standard_frames(n, p)
    stage_lists = [complete_flag_stages(n, p)]
    for w in all_permutations(n):
        v = w(n)
        stage_lists += [
            grid_stages(w, p, pinned_last_row=True),
            bs_stages(bubblesort_word(w), p),
            ex.chain_stages(frames[v - 1], frames[v + 1 :]),
        ]
        if n == 3:  # the unpinned grids of S_4 take seconds
            stage_lists.append(grid_stages(w, p, pinned_last_row=False))
    return stage_lists


class TestTower:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("stages_of", [_mixed_stages, _chain_stages])
    def test_equals_filtered_product(self, n, stages_of):
        stages = stages_of(n, 2)
        full = ex.full_space(n, 2)
        want = []
        levels = [list(ex.enumerate_subspaces(full, st.dim)) for st in stages]
        for choice in itertools.product(*levels):
            for i, st in enumerate(stages):
                lower, upper = st.spaces(choice[:i])
                if not (ex.contains(choice[i], lower) and ex.contains(upper, choice[i])):
                    break
            else:
                want.append(choice)
        got = list(ex.tower(stages, 2, ex.DEFAULT_BUDGET))
        assert got == want
        assert len(got) <= ex.tower_bound(stages, 2)

    @pytest.mark.parametrize("n,p", BOUND_SPACES)
    def test_bound_equals_count(self, n, p):
        for stages in _bound_stage_lists(n, p):
            bound = ex.tower_bound(stages, p)
            assert len(list(ex.tower(stages, p, bound))) == bound

    def test_no_stages_yield_one_empty_point(self):
        assert list(ex.tower([], 2, 1)) == [()]

    def test_chain_stages_levels(self):
        # level i chooses dim base + i between the previous choice (base
        # first) and uppers[i-1], with lo = dim base + i - 1, up = dim uppers[i-1]
        from schubres.biflag import standard_frames

        frames = standard_frames(5, 2)
        stages = ex.chain_stages(frames[1], frames[3:])
        assert [(st.lo, st.up, st.dim) for st in stages] == [(1, 3, 2), (2, 4, 3), (3, 5, 4)]
        assert stages[0].spaces([]) == (frames[1], frames[3])
        assert stages[2].spaces([frames[2], frames[3]]) == (frames[3], frames[5])

    @pytest.mark.parametrize("n,p", BOUND_SPACES)
    def test_matches_recursive_oracle(self, n, p):
        from oracles import recursive_tower

        for stages in _bound_stage_lists(n, p):
            got = list(ex.tower(stages, p, ex.DEFAULT_BUDGET))
            assert got == list(recursive_tower(stages, p, ex.DEFAULT_BUDGET))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_frame_towers_match_recursive_oracle(self, n, monkeypatch):
        # the chain, chain-variety and grid towers of every default frame
        import oracles
        from schubres import wflag
        from schubres.grassfib import make_frame

        frames = [
            make_frame(n, 2, beta)
            for k in range(1, n + 1)
            for beta in itertools.combinations(range(1, n + 1), k)
        ]

        def points(ghat):
            out = []
            for cfg in frames:
                flag = tuple(cfg.frames[b] for b in cfg.beta)
                out.append(list(oracles.kl_points(flag, 2)))
                out.append(list(wflag.enumerate_gcal(cfg)))
                out.append(list(ghat(cfg)))
            return out

        # the grid's row graph walks rows, not a tower: check its flat oracle's tower
        got = points(lambda cfg: oracles.fan_points(ex.RowGraph(*wflag.ghat_rows(cfg))))
        monkeypatch.setattr(wflag, "tower", oracles.recursive_tower)
        monkeypatch.setattr(oracles, "tower", oracles.recursive_tower)
        assert got == points(oracles.enumerate_ghat_flat)


def _standard_flags(n, p):
    """Every standard partial flag (F_b)_b of GF(p)^n, b increasing."""
    frames = [ex.coordinate_space(range(b), n, p) for b in range(n + 1)]
    for k in range(1, n + 1):
        for beta in itertools.combinations(range(1, n + 1), k):
            yield tuple(frames[b] for b in beta)


def _one_row(flag):
    """A walk of one row under ``flag``: cell c of dimension c + 1."""
    zero = ex.zero_subspace(flag[0].n, flag[0].p)
    return flag, [(range(1, len(flag) + 1), zero)]


class TestWalkRows:
    """``walk_fans`` on grids of one row, and at its budget boundary."""

    @pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3) for n in range(1, 5)])
    def test_one_row_is_the_chain_tower(self, n, p):
        from oracles import kl_points

        for flag in _standard_flags(n, p):
            ((upper, fan),) = ex.walk_fans(ex.RowGraph(*_one_row(flag)), ex.DEFAULT_BUDGET)
            assert upper == () and list(fan) == list(kl_points(flag, p)), flag

    def test_budget_at_bound_runs(self, monkeypatch):
        under, rows = _one_row(tuple(ex.full_space(4, 2) for _ in range(3)))
        bound = ex.rows_bound(under, rows)
        assert sum(len(fan) for _, fan in ex.walk_fans(ex.RowGraph(under, rows), bound)) == bound

        def no_choices(graph, r, below):
            raise AssertionError("a row's choices were asked for")

        monkeypatch.setattr(ex.RowGraph, "choices", no_choices)
        with pytest.raises(ex.BudgetExceededError, match=f"tower needs up to {bound} points"):
            next(ex.walk_fans(ex.RowGraph(under, rows), bound - 1))


def _grid_specs():
    """``RowGraph`` inputs with the flat tower over the same grid: the
    pinned and unpinned grids of every permutation of S_3 and S_4 at p = 2
    and 3 (the unpinned ones up to 30 000 points: the longest of S_4 has
    8.5 million at p = 3), and the W-flag grid of every default frame
    with n <= 5 at p = 2 and n <= 4 at p = 3."""
    from oracles import enumerate_ghat_flat, enumerate_grid_flat

    from schubres.biflag import grid_rows
    from schubres.grassfib import make_frame
    from schubres.permcomb import all_permutations
    from schubres.wflag import ghat_rows

    for p in (2, 3):
        for n in (3, 4):
            for w in all_permutations(n):
                for pinned, name in ((True, "shat"), (False, "flw")):
                    spec = grid_rows(w, p, pinned)
                    if pinned or ex.rows_bound(*spec) <= 30_000:
                        yield f"{name}-{w.one_line}-p{p}", spec, enumerate_grid_flat(w, p, pinned)
        for n in range(1, 6 if p == 2 else 5):
            for k in range(1, n + 1):
                for beta in itertools.combinations(range(1, n + 1), k):
                    cfg = make_frame(n, p, beta)
                    yield f"ghat-{n}-{beta}-p{p}", ghat_rows(cfg), enumerate_ghat_flat(cfg)


class TestWalkFans:
    """``walk_fans`` against the flat towers over all cells."""

    def test_fans_are_the_points_in_order(self):
        for name, (under, rows), flat in _grid_specs():
            graph = ex.RowGraph(under, rows)
            fans = list(ex.walk_fans(graph, ex.DEFAULT_BUDGET))
            points = [(row,) + upper for upper, fan in fans for row in fan]
            assert points == list(flat), name
            # a fan is the graph's own tuple of last-row choices
            last = len(rows) - 1
            for upper, fan in fans:
                assert fan is graph.choices(last, upper[0] if upper else under), name
            # one object per row value
            objects = {}
            for pt in points:
                for row in pt:
                    assert objects.setdefault(row, row) is row, name
            assert len(objects) <= len(graph.interned)

    def test_equal_rows_over_distinct_rows_below_are_one_object(self):
        # the longest word of S_4 at p = 2: rows built over distinct rows
        # below share their values, and the graph keeps one object each
        from schubres.biflag import grid_rows
        from schubres.permcomb import Permutation

        graph = ex.RowGraph(*grid_rows(Permutation((4, 3, 2, 1)), 2, True))
        built = [
            row
            for upper, fan in ex.walk_fans(graph, ex.DEFAULT_BUDGET)
            for row in (*fan, *upper)
        ]
        assert len({id(row) for row in built}) == len(set(built)) == len(graph.interned)
        memo_rows = [row for memo in graph.memos for rows in memo.values() for row in rows]
        assert len(memo_rows) > len(graph.interned)

    def test_refused_before_anything_is_built(self, monkeypatch):
        under, rows = _one_row(tuple(ex.full_space(4, 2) for _ in range(3)))
        graph = ex.RowGraph(under, rows)
        bound = ex.rows_bound(under, rows)
        assert sum(len(fan) for _, fan in ex.walk_fans(graph, bound)) == bound

        def no_row(lower, upper, dim):
            raise AssertionError("a row was built")

        # the graph is built: the bound is still checked first
        monkeypatch.setattr(ex, "enumerate_between", no_row)
        with pytest.raises(ex.BudgetExceededError, match=f"tower needs up to {bound} points"):
            next(ex.walk_fans(graph, bound - 1))
        with pytest.raises(ex.BudgetExceededError):
            next(ex.walk_fans(ex.RowGraph(under, rows), bound - 1))


class _Counted(ex.Subspace):
    """A subspace that counts how often it is hashed."""

    __slots__ = ()
    hashes = [0]

    def __hash__(self):
        self.hashes[0] += 1
        return super().__hash__()


class TestSpaceNumbers:
    """``SpaceNumbers``, the one reader of rows and subspaces."""

    def test_spaces_numbered_in_first_lookup_order(self):
        a, b = sp([E1], 3), sp([E2], 3)
        ids = ex.SpaceNumbers()
        assert (ids[b], ids[a], ids[sp([E2], 3)]) == (0, 1, 0)
        assert ids.spaces == [b, a]

    def test_row_read_twice_hashes_its_cells_once(self):
        row = tuple(_Counted(*sp(vecs, 3)) for vecs in ([E1], [E1, E2], [E1, E2, E3]))
        ids = ex.SpaceNumbers()
        _Counted.hashes[0] = 0
        got = ids.row(row)
        hashes = _Counted.hashes[0]
        assert got == (0, 1, 2) and hashes > 0
        # the second read is one lookup by the row's id: no cell is hashed
        assert ids.row(row) is got
        assert _Counted.hashes[0] == hashes
        assert ids.spaces == list(row)

    def test_equal_rows_as_distinct_objects_get_equal_ints(self):
        from oracles import copied, enumerate_grid_flat

        from schubres.permcomb import Permutation

        ids = ex.SpaceNumbers()
        for pt in enumerate_grid_flat(Permutation((2, 4, 1, 3)), 2, True):
            twin = copied(pt)
            assert [ids.row(row) for row in twin] == [ids.row(row) for row in pt]
            assert all(a is not b for a, b in zip(twin, pt))

    def test_fed_row_is_numbered_like_any_other(self):
        # rows no ``RowGraph`` built, each dropped once read: the reader
        # holds each one, so a new row never takes the id of a freed one
        ids = ex.SpaceNumbers()
        lines = [s for s in all_subspaces(3, 2) if s.dim == 1]
        for i in range(50):
            row = (lines[i % 7], lines[2 * i % 7], lines[3 * i % 7])
            assert ids.row(row) == (ids[row[0]], ids[row[1]], ids[row[2]]), i
            del row
        graph = ex.RowGraph(*_one_row(tuple(ex.full_space(3, 2) for _ in range(2))))
        for upper, fan in ex.walk_fans(graph, ex.DEFAULT_BUDGET):
            for row in fan:
                assert ids.row(row) == tuple(ids[s] for s in row)


class TestMemo:
    def test_tuple_key_is_unpacked_and_made_once(self):
        calls = []
        memo = ex.Memo(lambda i, j: calls.append((i, j)) or i * j)
        assert (memo[2, 3], memo[2, 3], memo[3, 2]) == (6, 6, 6)
        assert calls == [(2, 3), (3, 2)]

    def test_other_key_is_passed_whole(self):
        memo = ex.Memo(lambda k: k + 1)
        assert memo[4] == 5 and dict(memo) == {4: 5}


class TestCheckBudget:
    def test_refusal_of_a_huge_bound_prints(self):
        # past 4 300 digits Python 3.11 and later refuse str() of an int,
        # so the message gives such a bound as a power of ten
        with pytest.raises(ex.BudgetExceededError) as exc:
            ex.check_budget(10**5000, 1)
        assert str(exc.value) == "tower needs up to about 10^5000.0 points, budget is 1"

    def test_counts_exact_up_to_300_digits(self):
        assert ex.count_text(10**300 - 1) == "9" * 300
        assert ex.count_text(10**300) == "about 10^300.0"
        assert ex.count_text(49) == "49"


def _enumerators():
    from oracles import enumerate_complete_flags, fan_points, kl_points
    from schubres import biflag, bottsamelson, wflag
    from schubres.grassfib import make_frame
    from schubres.permcomb import Permutation, bubblesort_word

    w = Permutation((3, 1, 2))
    cfg = make_frame(4, 2, (2, 4))
    flag = tuple(cfg.frames[b] for b in cfg.beta)
    # the three grids, the full and pinned grids of w and the W-flag grid
    # of cfg, are walked fan by fan over their row graphs
    return {
        "enumerate_flw": lambda b: fan_points(ex.RowGraph(*biflag.grid_rows(w, 2, False)), b),
        "enumerate_shat": lambda b: fan_points(biflag.shat_graph(w, 2), b),
        "enumerate_complete_flags": lambda b: enumerate_complete_flags(3, 2, b),
        "enumerate_bs": lambda b: bottsamelson.enumerate_bs(bubblesort_word(w), 2, b),
        "kl_points": lambda b: kl_points(flag, 2, b),
        "enumerate_gcal": lambda b: wflag.enumerate_gcal(cfg, b),
        "enumerate_ghat": lambda b: fan_points(ex.RowGraph(*wflag.ghat_rows(cfg)), b),
    }


@pytest.mark.parametrize("name", list(_enumerators()))
def test_enumerator_refuses_budget_below_bound(name):
    make = _enumerators()[name]
    count = len(list(make(ex.DEFAULT_BUDGET)))
    it = make(count - 1)  # every bound is at least the point count
    with pytest.raises(ex.BudgetExceededError):
        next(it)
