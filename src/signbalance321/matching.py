"""
The excedance / anti-excedance matching and the second-row-sum statistic.

The matching walks two cursors, a over the excedances i_1 < i_2 < ... and b
over the anti-excedances j_1 < j_2 < ...:

- if i_a > j_b, advance b;
- else if the letter at i_a is smaller than the letter at j_b, advance a;
- else (i_a < j_b and the letters descend) match i_a with j_b and advance
  both.

Exactly one rule applies at every step; this is asserted at runtime.
Matched excedance letters are exactly the second row of the insertion
tableau, and matched anti-excedance positions the second row of the
recording tableau, which makes ``srs`` (the sum of both second rows)
computable from either side.  ``sign_by_srs`` turns that sum into the sign
of the permutation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import Not321Avoiding, NotAMatchedPair
from .permutations import Permutation, _is_321_avoiding
from .tableaux import _rsk_ballots

__all__ = [
    "Matching",
    "RegionCounts",
    "match_pairs",
    "srs",
    "region_counts",
    "sign_by_srs",
]


@dataclass(frozen=True)
class Matching:
    """Matched (excedance position, anti-excedance position) pairs, i < j."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RegionCounts:
    """Counts of letters in the four regions spanned by a matched pair (i, j).

    With v_i, v_j the letters at i and j: region 1 holds positions l between
    i and j with v_j < v_l < v_i, region 2 those with v_l > v_i; regions 3
    and 4 are the same splits for l > j.  ``c`` is the combined count of
    regions 2 and 3.
    """

    c1: int
    c2: int
    c3: int
    c4: int

    @property
    def c(self) -> int:
        return self.c2 + self.c3


def _match_pairs(values: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    exc = [i for i, x in enumerate(values, 1) if x > i]
    anti = [i for i, x in enumerate(values, 1) if x < i]
    pairs = []
    a = b = 0
    while a < len(exc) and b < len(anti):
        i, j = exc[a], anti[b]
        if i > j:
            b += 1
        elif values[i - 1] < values[j - 1]:
            a += 1
        else:
            assert i < j and values[i - 1] > values[j - 1]
            pairs.append((i, j))
            a += 1
            b += 1
    return tuple(pairs)


def match_pairs(w: Permutation) -> Matching:
    """Run the two-cursor matching; deterministic for a fixed input."""
    if not _is_321_avoiding(w.values):
        raise Not321Avoiding(f"matching is defined on 321-avoiding input: {w}")
    return Matching(_match_pairs(w.values))


def _second_row_sum(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    # The positions holding -1 in a ballot tuple are its tableau's second row.
    total = sum(i for i, e in enumerate(p, 1) if e < 0)
    return total + sum(i for i, e in enumerate(q, 1) if e < 0)


def srs(w: Permutation, cross_check: bool = False) -> int:
    """Sum of the second rows of the insertion and recording tableaux.

    Computed from the ballot encodings.  With ``cross_check`` the matched-pair
    sum (letter at i plus position j, over all matched pairs) is computed as
    well and asserted equal; enumeration loops use the cheap path.
    """
    total = _second_row_sum(*_rsk_ballots(w.values))
    if cross_check:
        pair_total = sum(w.values[i - 1] + j for i, j in match_pairs(w).pairs)
        if pair_total != total:
            raise AssertionError(
                f"second-row sum {total} differs from matched-pair sum "
                f"{pair_total} for {w}"
            )
    return total


def _region_counts(values: tuple[int, ...], i: int, j: int) -> RegionCounts:
    # Tuple-level counting for a pair (i, j) already known to be matched.
    vi, vj = values[i - 1], values[j - 1]
    c1 = c2 = c3 = c4 = 0
    for l in range(i + 1, j):
        x = values[l - 1]
        if x > vi:
            c2 += 1
        elif vj < x:
            c1 += 1
    for l in range(j + 1, len(values) + 1):
        x = values[l - 1]
        if x > vi:
            c4 += 1
        elif vj < x:
            c3 += 1
    return RegionCounts(c1, c2, c3, c4)


def region_counts(w: Permutation, pair: tuple[int, int]) -> RegionCounts:
    """Region counts for one matched pair of w."""
    matching = match_pairs(w)
    pair = tuple(pair)
    if not set(map(type, pair)) <= {int} or pair not in matching.pairs:
        raise NotAMatchedPair(f"{pair} is not a matched pair of {w}")
    return _region_counts(w.values, *pair)


def _sign_by_srs(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    k = sum(1 for e in p if e > 0)
    return -1 if (_second_row_sum(p, q) + len(p) - k) % 2 else 1


def sign_by_srs(w: Permutation) -> int:
    """Sign read off the tableau pair: parity of srs plus the second-row
    length (the number of letters, n, minus the first-row length)."""
    return _sign_by_srs(*_rsk_ballots(w.values))
