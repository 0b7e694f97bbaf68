"""
Exact enumeration of 321-avoiding permutations and their signed statistics.

Two independent generators are provided: a factorial-time filter over the
whole symmetric group (the oracle, capped at size 9 by default) and a
Catalan-time generator that walks all same-weight ballot pairs and applies
reverse row insertion (capped at size 14 by default, 16 hard).  Both caps
can be overridden with ``allow_large=True``, which emits a warning; the
ballot cap of 16 is final.

All counts and coefficients are exact integers.  Python integers are
arbitrary precision, so the arithmetic cannot wrap or overflow silently.

Enumeration order is fixed: ballot pairs are iterated lexicographically with
the insertion-side sequence outer, the recording side inner, and the number
of +1 entries ascending.  Reports built on these streams are therefore
byte-identical across runs and worker counts.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations as _sym_group, starmap
from math import comb
from typing import Iterator, Mapping

from .ballots import _check_size, _iter_ballot_tuples
from .errors import LimitExceeded
from .permutations import Permutation, _is_321_avoiding, _ldes, _lis, _sign
from .tableaux import _values_from_ballots

__all__ = [
    "FILTER_CAP",
    "BALLOT_SOFT_CAP",
    "BALLOT_HARD_CAP",
    "ballot_number",
    "catalan",
    "a_star_count",
    "psi_fixed_point_count",
    "generate_Tn_filter",
    "generate_Tn_ballot",
    "SignedDistribution",
    "SignedPolynomial",
    "signed_distribution",
    "signed_polynomial",
]

FILTER_CAP = 9
BALLOT_SOFT_CAP = 14
BALLOT_HARD_CAP = 16

STATISTICS = ("lis", "ldes", "lind")


def ballot_number(n: int, k: int) -> int:
    """Number of ballot sequences of length n with exactly k entries +1.

    >>> [ballot_number(4, k) for k in range(5)]
    [0, 0, 2, 3, 1]
    """
    if not 0 <= k <= n:
        return 0
    num = 2 * k - n + 1
    if num <= 0:
        return 0
    total = num * comb(n + 1, k + 1)
    assert total % (n + 1) == 0
    return total // (n + 1)


def catalan(n: int) -> int:
    """The nth Catalan number.

    >>> [catalan(n) for n in range(5)]
    [1, 1, 2, 5, 14]
    """
    return comb(2 * n, n) // (n + 1)


def a_star_count(n: int, k: int) -> int:
    """Number of length-n ballot sequences with k ones in class A* (every
    even position equal to its successor)."""
    if n == 0:
        return 1 if k == 0 else 0
    if n % 2:
        if k % 2 == 0:
            return 0
        return ballot_number((n - 1) // 2, (k - 1) // 2)
    return ballot_number(n // 2 - 1, (k - 1) // 2)


def psi_fixed_point_count(n: int, d: int) -> int:
    """Closed form for the number of fixed points of the descent-preserving
    involution on size-n input with maximum descent d.  Valid for n >= 2."""
    if n % 2:
        if d % 2:
            return 0
        return ballot_number((n + d - 3) // 2, (n - 3) // 2)
    return ballot_number((n + d - 2) // 2, (n - 2) // 2)


def _check_filter_cap(n: int, allow_large: bool) -> None:
    _check_size(n)
    if n <= FILTER_CAP:
        return
    if not allow_large:
        raise LimitExceeded(
            f"filter generator capped at n = {FILTER_CAP} (got {n}); "
            "pass allow_large=True to override"
        )
    warnings.warn(
        f"filtering all {n}! permutations; this may take a very long time",
        RuntimeWarning,
        stacklevel=3,
    )


def _check_ballot_cap(n: int, allow_large: bool) -> None:
    _check_size(n)
    if n > BALLOT_HARD_CAP:
        raise LimitExceeded(
            f"ballot generator hard-capped at n = {BALLOT_HARD_CAP} (got {n})"
        )
    if n <= BALLOT_SOFT_CAP:
        return
    if not allow_large:
        raise LimitExceeded(
            f"ballot generator capped at n = {BALLOT_SOFT_CAP} (got {n}); "
            "pass allow_large=True to override"
        )
    warnings.warn(
        f"enumerating roughly {catalan(n)} permutations of size {n}",
        RuntimeWarning,
        stacklevel=3,
    )


def generate_Tn_filter(n: int, allow_large: bool = False) -> Iterator[Permutation]:
    """All 321-avoiding permutations of size n, by filtering the symmetric
    group in lexicographic order."""
    _check_filter_cap(n, allow_large)
    for values in _sym_group(range(1, n + 1)):
        if _is_321_avoiding(values):
            yield Permutation(values)


@lru_cache(maxsize=None)
def _sides(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The ballot tuples of length n with k entries +1, in lexicographic
    order, listed once per (n, k) rather than once per slice."""
    return tuple(_iter_ballot_tuples(n, k))


def _iter_tn_pairs(n: int, start: int, stop: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The ballot pairs (p, q) of T_n at positions start up to (not
    including) stop of the enumeration, in enumeration order: weight
    ascending, insertion side p outer, recording side q inner."""
    position = 0  # enumeration position of the current weight's first pair
    for k in range(n + 1):
        count = ballot_number(n, k)
        if start < position + count * count:
            side = _sides(n, k)
            for i in range(max(start - position, 0) // count, count):
                first = position + i * count  # position of (side[i], side[0])
                if first >= stop:
                    return
                p = side[i]
                for q in side[max(start - first, 0):stop - first]:
                    yield p, q
        position += count * count


def _iter_tn_slice(n: int, start: int, stop: int) -> Iterator[tuple[int, ...]]:
    """One-line value tuples of the permutations of T_n at positions start
    up to (not including) stop of the enumeration, in enumeration order."""
    return starmap(_values_from_ballots, _iter_tn_pairs(n, start, stop))


def _iter_tn_values(n: int) -> Iterator[tuple[int, ...]]:
    """One-line value tuples of all 321-avoiding permutations of size n, in
    ballot-pair order (weight ascending, insertion side outer)."""
    return _iter_tn_slice(n, 0, catalan(n))


def generate_Tn_ballot(n: int, allow_large: bool = False) -> Iterator[Permutation]:
    """All 321-avoiding permutations of size n, each exactly once, produced
    from same-weight ballot pairs through reverse row insertion."""
    _check_ballot_cap(n, allow_large)
    for values in _iter_tn_values(n):
        yield Permutation(values)


@lru_cache(maxsize=None)
def _joint_rows(n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """Cached sweep of T_n: sorted (lis, ldes, lind, sign, count) rows.

    Every statistic is computed from the permutation word itself (the
    longest increasing subsequence by dynamic programming, the sign by
    inversion count), not read off the generating ballot pair.  For n = 0
    the lind slot holds 0 as an internal placeholder.  Callers check the
    size caps.
    """
    acc: dict[tuple[int, int, int, int], int] = {}
    for values in _iter_tn_values(n):
        key = (
            _lis(values),
            _ldes(values),
            values.index(n) + 1 if n else 0,
            _sign(values),
        )
        acc[key] = acc.get(key, 0) + 1
    return tuple(sorted((k, d, l, s, c) for (k, d, l, s), c in acc.items()))


@dataclass
class SignedDistribution:
    """Per statistic value, the number of even and odd permutations."""

    statistic: str
    n: int
    rows: dict[int, tuple[int, int]] = field(default_factory=dict)

    def total(self) -> int:
        return sum(e + o for e, o in self.rows.values())

    def signed(self) -> dict[int, int]:
        """Map value -> (even count - odd count), zero entries dropped."""
        return {v: e - o for v, (e, o) in self.rows.items() if e != o}

    def counts(self) -> dict[int, int]:
        return {v: e + o for v, (e, o) in self.rows.items()}


@dataclass
class SignedPolynomial:
    """Sparse polynomial with exact integer coefficients and tuple exponents
    (one variable for a single statistic, two for a joint one)."""

    coefficients: dict[tuple[int, ...], int] = field(default_factory=dict)

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, ...], int]) -> "SignedPolynomial":
        return cls({e: c for e, c in terms.items() if c != 0})

    @classmethod
    def monomial(cls, exponents: tuple[int, ...], coeff: int = 1) -> "SignedPolynomial":
        return cls.from_terms({exponents: coeff})

    def __add__(self, other: "SignedPolynomial") -> "SignedPolynomial":
        out = dict(self.coefficients)
        for e, c in other.coefficients.items():
            out[e] = out.get(e, 0) + c
        return SignedPolynomial.from_terms(out)

    def __sub__(self, other: "SignedPolynomial") -> "SignedPolynomial":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return SignedPolynomial.from_terms(
                {e: c * other for e, c in self.coefficients.items()}
            )
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coefficients.items():
            for e2, c2 in other.coefficients.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SignedPolynomial.from_terms(out)

    __rmul__ = __mul__

    def shift(self, *offsets: int) -> "SignedPolynomial":
        """Multiply by the monomial with the given exponent offsets."""
        return SignedPolynomial.from_terms(
            {
                tuple(a + b for a, b in zip(e, offsets)): c
                for e, c in self.coefficients.items()
            }
        )

    def as_map(self) -> dict[str, int]:
        """JSON-friendly view: exponent tuples as comma-joined keys."""
        return {
            ",".join(str(x) for x in e): c
            for e, c in sorted(self.coefficients.items())
        }

    def is_zero(self) -> bool:
        return not self.coefficients


def _signed_distribution(n: int, statistic: str) -> SignedDistribution:
    pick = STATISTICS.index(statistic)
    rows: dict[int, tuple[int, int]] = {}
    for row in _joint_rows(n):
        value, s, count = row[pick], row[3], row[4]
        e, o = rows.get(value, (0, 0))
        rows[value] = (e + count, o) if s > 0 else (e, o + count)
    return SignedDistribution(statistic, n, dict(sorted(rows.items())))


def signed_distribution(
    n: int, statistic: str, allow_large: bool = False
) -> SignedDistribution:
    """Even and odd counts over T_n per value of the statistic, with the
    sign taken from the inversion count."""
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}, expected one of {STATISTICS}")
    if statistic == "lind" and n == 0:
        raise ValueError("lind is undefined for the empty permutation")
    _check_ballot_cap(n, allow_large)
    return _signed_distribution(n, statistic)


def _signed_polynomial(
    n: int,
    statistics: tuple[str, ...],
    lis_parity: int | None = None,
    ldes_parity: int | None = None,
) -> SignedPolynomial:
    terms: dict[tuple[int, ...], int] = {}
    for k, d, _l, s, count in _joint_rows(n):
        if lis_parity is not None and k % 2 != lis_parity:
            continue
        if ldes_parity is not None and d % 2 != ldes_parity:
            continue
        exps = tuple(k if name == "lis" else d for name in statistics)
        terms[exps] = terms.get(exps, 0) + s * count
    return SignedPolynomial.from_terms(terms)


def signed_polynomial(
    n: int,
    statistics,
    lis_parity: int | None = None,
    ldes_parity: int | None = None,
    allow_large: bool = False,
) -> SignedPolynomial:
    """Signed generating polynomial over T_n in one or two statistics.

    ``statistics`` is "lis", "ldes", or the pair ("lis", "ldes").  The
    parity filters restrict the summation to permutations whose statistic
    has the given parity (0 even, 1 odd), which realizes the filtered
    subsets used by the joint identities; any other value raises ValueError.
    """
    if isinstance(statistics, str):
        statistics = (statistics,)
    statistics = tuple(statistics)
    if statistics not in (("lis",), ("ldes",), ("lis", "ldes")):
        raise ValueError(
            f"statistics must be ('lis',), ('ldes',) or ('lis', 'ldes'), got {statistics!r}"
        )
    for name, parity in (("lis_parity", lis_parity), ("ldes_parity", ldes_parity)):
        if not (parity is None or type(parity) is int and parity in (0, 1)):
            raise ValueError(f"{name} must be None, 0 or 1, got {parity!r}")
    _check_ballot_cap(n, allow_large)
    return _signed_polynomial(n, statistics, lis_parity, ldes_parity)
