"""Permutation combinatorics: inversions, rank matrices, bubblesort words."""

import itertools

import pytest
from oracles import (
    bruhat_interval_oracle,
    bruhat_leq,
    cumulative_block_formula,
    identity,
    incidence_by_scan,
)

from schubres.permcomb import (
    Permutation,
    ReducedWord,
    all_permutations,
    bruhat_interval,
    bubblesort_word,
    jump_points,
    length,
    rank_matrix,
    word_product,
)

SIGMA = Permutation((4, 8, 6, 2, 7, 3, 1, 5))


class TestBasics:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_length_identity(self):
        assert length(identity(5)) == 0

    def test_length_sigma(self):
        assert length(SIGMA) == 18

    def test_length_small(self):
        assert length(Permutation((2, 3, 1))) == 2


class TestValueTypes:
    def test_permutation_rejects_bad_input(self):
        for bad in ((1, 1, 3), (2, 3), (0, 1)):
            with pytest.raises(ValueError, match="not a permutation of 1.."):
                Permutation(bad)

    def test_permutation_hash_order_and_repr(self):
        perms = list(all_permutations(4))
        for u in perms:
            assert hash(u) == hash((u.one_line,))
            for v in perms:
                assert (u < v, u <= v, u == v) == (
                    u.one_line < v.one_line,
                    u.one_line <= v.one_line,
                    u.one_line == v.one_line,
                )
        assert repr(Permutation((2, 3, 1))) == "Permutation(one_line=(2, 3, 1))"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_word_letters_and_last_occurrences(self, n):
        # both are stored when the word is made; they equal the letters
        # flattened from the blocks and the last index of each letter
        for w in all_permutations(n):
            word = bubblesort_word(w)
            letters = tuple(itertools.chain.from_iterable(word.blocks))
            last = tuple(
                max((j for j, d in enumerate(letters, start=1) if d == i), default=None)
                for i in range(1, n)
            )
            assert word.letters == letters and len(word) == len(letters)
            assert word.last_occurrences == last


class TestRankMatrix:
    def test_identity_is_min(self):
        d = rank_matrix(identity(3))
        for p in range(1, 4):
            for q in range(1, 4):
                assert d[p][q] == min(p, q)

    def test_transposition(self):
        d = rank_matrix(Permutation((2, 1)))
        assert [d[1][1], d[1][2], d[2][1], d[2][2]] == [0, 1, 1, 2]

    def test_last_row_and_column(self):
        for w in all_permutations(4):
            d = rank_matrix(w)
            assert [d[p][4] for p in range(1, 5)] == [1, 2, 3, 4]
            assert [d[4][q] for q in range(1, 5)] == [1, 2, 3, 4]

    @pytest.mark.parametrize("n", [4, 6])
    def test_slowly_increasing(self, n):
        for w in all_permutations(n):
            d = rank_matrix(w)
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    assert d[p][q] - d[p][q - 1] in (0, 1)
                    assert d[p][q] - d[p - 1][q] in (0, 1)

    def test_counts_image_intersection(self):
        # second form of the defining count: #(w({1..p}) ∩ {1..q})
        for w in all_permutations(4):
            d = rank_matrix(w)
            for p in range(1, 5):
                img = {w(i) for i in range(1, p + 1)}
                for q in range(1, 5):
                    assert d[p][q] == len(img & set(range(1, q + 1)))


class TestJumpPoints:
    def test_identity(self):
        assert jump_points(identity(4)) == (1, 2, 3, 4)

    def test_equals_one_line(self):
        assert jump_points(Permutation((2, 3, 1))) == (2, 3, 1)
        assert jump_points(SIGMA) == SIGMA.one_line

    @pytest.mark.parametrize("n", [5, 6])
    def test_full_sweep(self, n):
        for w in all_permutations(n):
            assert jump_points(w) == w.one_line


class TestBruhat:
    def test_reflexive(self):
        for w in all_permutations(3):
            assert bruhat_leq(w, w)

    def test_identity_minimum(self):
        e = identity(3)
        for w in all_permutations(3):
            assert bruhat_leq(e, w)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq(identity(2), identity(3))

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_subword_oracle(self, n):
        perms = list(all_permutations(n))
        intervals = {w: bruhat_interval_oracle(w) for w in perms}
        for w in perms:
            for u in perms:
                assert bruhat_leq(u, w) == (u in intervals[w])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_interval_matches_rank_matrix_oracle(self, n):
        perms = list(all_permutations(n))
        for w in perms:
            assert bruhat_interval(w) == {u for u in perms if bruhat_leq(u, w)}, w

    @pytest.mark.parametrize("n", range(1, 6))
    def test_interval_matches_subword_oracle(self, n):
        for w in all_permutations(n):
            assert bruhat_interval(w) == bruhat_interval_oracle(w), w

    def test_interval_of_sigma(self):
        # the paper's example: 9 360 elements, read off 18 letters
        below = bruhat_interval(SIGMA)
        assert len(below) == 9360 and SIGMA in below and identity(8) in below


class TestBubblesort:
    def test_identity_word_empty(self):
        word = bubblesort_word(identity(4))
        assert word.letters == ()
        assert word.blocks == ((), (), ())

    def test_hand_example(self):
        # e·s_1·s_2 = (2 3 1) by position swaps
        word = bubblesort_word(Permutation((2, 3, 1)))
        assert word.blocks == ((1, 2), ())
        assert word.letters == (1, 2)

    def test_sigma_word(self):
        word = bubblesort_word(SIGMA)
        assert len(word) == 18
        assert word_product(word.letters, 8) == SIGMA

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_product_and_length_sweep(self, n):
        for w in all_permutations(n):
            word = bubblesort_word(w)
            assert len(word) == length(w)
            assert word_product(word.letters, n) == w
            assert len(word.blocks) == n - 1
            for d in word.letters:
                assert 1 <= d <= n - 1


class TestLastOccurrence:
    def test_identity_all_absent(self):
        word = bubblesort_word(identity(4))
        assert word.last_occurrences == (None, None, None)

    def test_simple_word(self):
        word = bubblesort_word(Permutation((2, 3, 1)))
        assert word.last_occurrences == (1, 2)

    def test_formula_discrepancy_witness(self):
        # with an empty block the closed formula counts past the last
        # actual occurrence: here it reports 2 while s_1 last occurs at 1
        w = Permutation((2, 3, 1))
        word = bubblesort_word(w)
        assert cumulative_block_formula(w) == (2, 2)
        assert word.last_occurrences == (1, 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_formula_agrees_when_final_block_nonempty(self, n):
        for w in all_permutations(n):
            word = bubblesort_word(w)
            occ = word.last_occurrences
            formula = cumulative_block_formula(w)
            for i in range(1, n):
                # block t_{n-i} ends with s_i whenever it is nonempty
                if word.blocks[n - i - 1]:
                    assert occ[i - 1] == formula[i - 1]
            # the formula always counts the letters of blocks t_1..t_{n-i}
            for i in range(1, n):
                assert formula[i - 1] == sum(len(b) for b in word.blocks[: n - i])


class TestBSIncidence:
    def test_single_letter(self):
        word = ReducedWord(2, ((1,),))
        assert word.left == (None,)   # falls back to F_0
        assert word.right == (None,)  # falls back to F_2

    def test_ascending_word(self):
        word = ReducedWord(3, ((1, 2), ()))
        assert word.left[1] == 1      # j=2 sees index 1 carrying s_1
        assert word.right[1] is None  # falls back to F_3

    def test_descending_word(self):
        word = ReducedWord(3, ((2, 1), ()))
        # j=2 has d_2 = 1: no earlier s_0, but index 1 carries s_2
        assert word.left[1] is None
        assert word.right[1] == 1

    def test_refs_precede_their_letter(self):
        for w in all_permutations(5):
            word = bubblesort_word(w)
            for j in range(1, len(word.letters) + 1):
                for ref in (word.left[j - 1], word.right[j - 1]):
                    if ref is not None:
                        assert ref < j

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bubblesort_words_match_scan(self, n):
        for w in all_permutations(n):
            word = bubblesort_word(w)
            assert (word.left, word.right, word.last_occurrences) == incidence_by_scan(word), w

    def test_letter_sequences_match_scan(self):
        # ``enumerate_bs`` accepts any word, so words that are not reduced count too
        for size in range(6):
            for letters in itertools.product((1, 2, 3), repeat=size):
                word = ReducedWord(4, (letters,))
                got = (word.left, word.right, word.last_occurrences)
                assert got == incidence_by_scan(word), letters