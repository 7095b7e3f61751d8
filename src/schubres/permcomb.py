"""Permutation combinatorics: rank matrices, bubblesort words and their incidence.

Permutations live in S_n with 1-based one-line notation w(1), ..., w(n).
The composition convention is fixed once: right multiplication by the
adjacent transposition s_i swaps positions i and i+1 of the one-line
word, and a reduced word is applied letter by letter, left to right,
starting from the identity.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple

from schubres.exactlin import InvariantError
from schubres.report import EnumReport


class _PermutationFields(NamedTuple):
    one_line: tuple[int, ...]


class Permutation(_PermutationFields):
    """A permutation of 1..n in one-line notation, ordered and hashed as
    the 1-tuple ``(one_line,)``."""

    __slots__ = ()

    def __new__(cls, one_line: tuple[int, ...]) -> "Permutation":
        n = len(one_line)
        if sorted(one_line) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {one_line}")
        return super().__new__(cls, one_line)

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]


def all_permutations(n: int) -> Iterator[Permutation]:
    for one_line in itertools.permutations(range(1, n + 1)):
        yield Permutation(one_line)


def length(w: Permutation) -> int:
    """Number of inversions of w."""
    ol = w.one_line
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if ol[i] > ol[j])


@lru_cache(maxsize=None)
def rank_matrix(w: Permutation) -> tuple[tuple[int, ...], ...]:
    """The (n+1) x (n+1) table d[p][q] = #{i <= p : w(i) <= q}, 0-row/col zero."""
    n = w.n
    d = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            d[p][q] = d[p - 1][q] + (1 if w(p) <= q else 0)
    return tuple(tuple(row) for row in d)


def jump_points(w: Permutation) -> tuple[int, ...]:
    """For each row p of the rank matrix, the unique column where the
    difference with row p-1 jumps from 0 to 1.  Always equals w(p)."""
    d = rank_matrix(w)
    out = []
    for p in range(1, w.n + 1):
        q = next(q for q in range(1, w.n + 1) if d[p][q] - d[p - 1][q] == 1)
        out.append(q)
    return tuple(out)


def apply_letter(one_line: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Right multiplication by s_i: swap positions i, i+1 (1-based)."""
    ol = list(one_line)
    ol[i - 1], ol[i] = ol[i], ol[i - 1]
    return tuple(ol)


def word_product(letters: tuple[int, ...], n: int) -> Permutation:
    """Apply the letters left to right to the identity."""
    ol = tuple(range(1, n + 1))
    for i in letters:
        ol = apply_letter(ol, i)
    return Permutation(ol)


class ReducedWord:
    """A reduced word split into bubblesort blocks t_1, ..., t_{n-1}.

    Block t_s collects the letters that move the value w(n-s+1) into
    position n-s+1; the flattened letter sequence multiplies to w.
    ``letters`` is that sequence and ``last_occurrences[i-1]`` the
    1-based index of the last occurrence of s_i in it, or None when s_i
    never occurs (the fixed space F_i is used then).  The word carries
    its own Bott-Samelson incidence: for letter j = s_d, ``left[j-1]``
    and ``right[j-1]`` are the latest earlier indices carrying s_{d-1}
    and s_{d+1}, or None when there is none (the fixed spaces F_{d-1}
    and F_{d+1} bound the choice then).  All are computed in one pass,
    when the word is made; a word has no equality of its own, and its
    length is its number of letters.
    """

    __slots__ = ("n", "blocks", "letters", "last_occurrences", "left", "right")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        self.n = n
        self.blocks = blocks
        self.letters = tuple(itertools.chain.from_iterable(blocks))
        # last[d] is the latest index so far carrying s_d; s_0 and s_n never occur
        last: list[int | None] = [None] * (n + 1)
        left: list[int | None] = []
        right: list[int | None] = []
        for j, d in enumerate(self.letters, start=1):
            left.append(last[d - 1])
            right.append(last[d + 1])
            last[d] = j
        self.last_occurrences = tuple(last[1:n])
        self.left = tuple(left)
        self.right = tuple(right)

    def __len__(self) -> int:
        return len(self.letters)


def bubblesort_word(w: Permutation) -> ReducedWord:
    """The bubblesort reduced word of w.

    Values w(n), w(n-1), ... are bubbled into their final positions by
    right multiplications; the remaining values always stay in
    increasing order, so each block is a run s_a, s_{a+1}, ..., s_{m-1}.
    """
    n = w.n
    cur = list(range(1, n + 1))
    blocks = []
    for m in range(n, 1, -1):
        pos = cur.index(w(m)) + 1
        block = tuple(range(pos, m))
        for i in block:
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
        blocks.append(block)
    if tuple(cur) != w.one_line:
        raise InvariantError(f"bubblesort of {w.one_line} ends at {tuple(cur)}")
    return ReducedWord(n, tuple(blocks))


def bruhat_interval(w: Permutation) -> frozenset[Permutation]:
    """The lower Bruhat interval [e, w]: the products of the subwords of
    the bubblesort word of w (the subword property, Björner and Brenti,
    Combinatorics of Coxeter Groups, Thm 2.2.2), built a letter at a
    time, S <- S ∪ S·s, so no permutation outside it is visited."""
    below = {tuple(range(1, w.n + 1))}
    for i in bubblesort_word(w).letters:
        below |= {apply_letter(one_line, i) for one_line in below}
    return frozenset(map(Permutation, below))


def rank_matrix_report(w: Permutation) -> EnumReport:
    """The rank matrix of w and its jump points; checks that the matrix
    grows by 0 or 1 per step along rows and columns and that the jumps
    spell w."""
    with EnumReport("rankmatrix", {"perm": list(w.one_line)}) as report:
        d = rank_matrix(w)
        report.counts["matrix"] = [list(d[p][1:]) for p in range(1, w.n + 1)]
        report.counts["jump_points"] = list(jump_points(w))
        slow = all(
            d[p][q] - d[p][q - 1] in (0, 1) and d[p][q] - d[p - 1][q] in (0, 1)
            for p in range(1, w.n + 1)
            for q in range(1, w.n + 1)
        )
        report.add("slowly_increasing", slow)
        report.add("jumps_equal_one_line", jump_points(w) == w.one_line)
    return report


def bubblesort_report(w: Permutation) -> EnumReport:
    """The bubblesort word of w; checks that it multiplies to w and has
    length(w) letters."""
    with EnumReport("bubblesort", {"perm": list(w.one_line)}) as report:
        word = bubblesort_word(w)
        report.counts["word"] = list(word.letters)
        report.counts["blocks"] = [list(b) for b in word.blocks]
        report.counts["length"] = len(word)
        report.add("product_is_perm", word_product(word.letters, w.n) == w)
        report.add("letter_count_is_length", len(word) == length(w))
    return report
