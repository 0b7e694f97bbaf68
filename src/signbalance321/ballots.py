"""
Ballot sequences: ±1 sequences whose prefix sums never go negative.

A ballot sequence encodes a standard Young tableau with at most two rows
(+1 at position i means i sits in the first row).  This module owns the
sequence-level statistics and the two local moves used by the permutation
involutions:

- ``epsilon``: the smallest even position whose entry differs from its
  successor (0 if none).
- ``delta``: the greatest position holding +1 directly followed by -1
  (0 if none; the all-plus convention mirrors ldes of the identity).
- ``phi``: swap the entries at positions epsilon, epsilon + 1.
- ``psi`` / ``psi_inverse``: the descent-preserving exchange between the
  "A*" and "B*" classes.

Text format: a string over '+' and '-', e.g. ``"+++--+-++++-"``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .errors import NotBallot, NotInDomain

__all__ = [
    "BallotSequence",
    "BallotClassTag",
    "BallotClass",
    "parse_ballot",
    "generate_ballot_sequences",
    "ones_count",
    "ballot_sign",
    "epsilon",
    "delta",
    "classify",
    "phi",
    "psi",
    "psi_inverse",
]


@dataclass(frozen=True)
class BallotSequence:
    """A ±1 sequence with nonnegative prefix sums.

    >>> str(BallotSequence((1, -1, 1)))
    '+-+'
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        total = 0
        for i, e in enumerate(entries, 1):
            if type(e) is not int or e not in (1, -1):
                raise NotBallot(f"entry at position {i} is {e!r}, expected +1 or -1")
            total += e
            if total < 0:
                raise NotBallot(
                    f"prefix sum is negative after position {i}: {_render(entries)}"
                )

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        return _render(self.entries)


def _render(entries: Sequence[int]) -> str:
    return "".join("+" if e > 0 else "-" for e in entries)


def parse_ballot(text: str) -> BallotSequence:
    """Parse a '+'/'-' string; raises NotBallot on a negative prefix sum."""
    entries = []
    for i, ch in enumerate(text.strip(), 1):
        if ch == "+":
            entries.append(1)
        elif ch == "-":
            entries.append(-1)
        else:
            raise ValueError(f"invalid ballot character {ch!r} at position {i}")
    return BallotSequence(tuple(entries))


def _iter_ballot_tuples(n: int, ones: int | None = None) -> Iterator[tuple[int, ...]]:
    """All ballot tuples of length n (with exactly ``ones`` entries +1 when
    given), ascending lexicographically with -1 < +1."""
    seq: list[int] = []

    def rec(pos: int, s: int, ones_left: int | None) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(seq)
            return
        rest = n - pos
        minus_allowed = s > 0 and (ones_left is None or rest - ones_left > 0)
        plus_allowed = ones_left is None or ones_left > 0
        if minus_allowed:
            seq.append(-1)
            yield from rec(pos + 1, s - 1, ones_left)
            seq.pop()
        if plus_allowed:
            seq.append(1)
            yield from rec(pos + 1, s + 1, None if ones_left is None else ones_left - 1)
            seq.pop()

    if ones is not None and not 0 <= ones <= n:
        return
    yield from rec(0, 0, ones)


def _check_size(n: int) -> None:
    # type(n) is int: a bool or a float that equals an integer is no size.
    if type(n) is not int:
        raise ValueError(f"size must be an int, got n = {n!r}")
    if n < 0:
        raise ValueError(f"size must be nonnegative, got n = {n}")


def generate_ballot_sequences(n: int, ones: int | None = None) -> Iterator[BallotSequence]:
    """Stream all ballot sequences of length n in lexicographic order,
    optionally restricted to a fixed number of +1 entries.  Raises
    ValueError unless n is a nonnegative int and ones None or an int."""
    _check_size(n)
    if ones is not None and type(ones) is not int:
        raise ValueError(f"ones must be None or an int, got {ones!r}")
    for entries in _iter_ballot_tuples(n, ones):
        yield BallotSequence(entries)


def ones_count(b: BallotSequence) -> int:
    """Number of +1 entries."""
    return sum(1 for e in b.entries if e > 0)


def ballot_sign(b: BallotSequence) -> int:
    """+1 if the sum of the positions holding -1 is even, else -1."""
    total = sum(i for i, e in enumerate(b.entries, 1) if e < 0)
    return -1 if total % 2 else 1


def _epsilon(entries: Sequence[int]) -> int:
    for i in range(2, len(entries), 2):
        if entries[i - 1] != entries[i]:
            return i
    return 0


def _delta(entries: Sequence[int]) -> int:
    for i in range(len(entries) - 1, 0, -1):
        if entries[i - 1] > 0 and entries[i] < 0:
            return i
    return 0


def epsilon(b: BallotSequence) -> int:
    """Smallest even position i with b_i different from b_{i+1}; 0 if none.

    >>> epsilon(parse_ballot("+-+"))
    2
    """
    return _epsilon(b.entries)


def delta(b: BallotSequence) -> int:
    """Greatest position i with b_i = +1 and b_{i+1} = -1; 0 if none."""
    return _delta(b.entries)


class BallotClassTag(Enum):
    A_STAR = "A*"
    B = "B"
    B_STAR = "B*"
    B_TIMES = "Bx"


@dataclass(frozen=True)
class BallotClass:
    """Class of a ballot sequence under the epsilon/delta comparison.

    ``ends_plus`` distinguishes, inside B*, the sequences whose final entry
    is +1 (written "B*+" in reports).
    """

    tag: BallotClassTag
    ends_plus: bool

    @property
    def label(self) -> str:
        if self.tag is BallotClassTag.B_STAR and self.ends_plus:
            return "B*+"
        return self.tag.value


def _classify(entries: Sequence[int]) -> BallotClass:
    e = _epsilon(entries)
    ends_plus = len(entries) > 0 and entries[-1] > 0
    if e == 0:
        return BallotClass(BallotClassTag.A_STAR, ends_plus)
    d = _delta(entries)
    if e < d - 1:
        return BallotClass(BallotClassTag.B, ends_plus)
    if e == d - 1:
        return BallotClass(BallotClassTag.B_STAR, ends_plus)
    return BallotClass(BallotClassTag.B_TIMES, ends_plus)


def classify(b: BallotSequence) -> BallotClass:
    """Classify by comparing epsilon and delta.

    A* when epsilon = 0; B when 0 < epsilon < delta - 1; B* when
    epsilon = delta - 1 > 0; Bx when epsilon >= delta and epsilon > 0.
    """
    return _classify(b.entries)


# Tuple-level moves.  Each assumes its argument lies in the move's domain;
# the public functions below check the domain and validate the result.
def _swap(entries: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    out = list(entries)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def _phi(entries: Sequence[int]) -> tuple[int, ...]:
    j = _epsilon(entries)
    return _swap(entries, j, j + 1)


def _psi(entries: Sequence[int], d: int) -> tuple[int, ...]:
    return _swap(entries, d - 1, len(entries) - entries[::-1].index(-1))


def _psi_inverse(entries: Sequence[int], d: int) -> tuple[int, ...]:
    return _swap(entries, d - 1, entries.index(1, d) + 1)


def phi(b: BallotSequence) -> BallotSequence:
    """Swap the entries at positions epsilon, epsilon + 1.

    Defined only when epsilon > 0.  The result is again a ballot sequence
    with the same number of +1 entries, the opposite sign, and the same
    epsilon.

    >>> str(phi(parse_ballot("+-+")))
    '++-'
    """
    if _epsilon(b.entries) == 0:
        raise NotInDomain(f"phi undefined: epsilon = 0 for {b}")
    return BallotSequence(_phi(b.entries))


def psi(b: BallotSequence, d: int) -> BallotSequence:
    """Exchange the entry at position d - 1 with the last -1 entry.

    Domain: b in class A* with delta(b) = d, d odd and at least 3, and an
    even number of -1 entries (which puts a -1 beyond position d + 1).  The
    image lies in B* (in fact ends with +1), keeps delta = d, and reverses
    the sign.

    >>> str(psi(parse_ballot("+++--"), 3))
    '+-+-+'
    """
    entries = b.entries
    if _epsilon(entries) != 0:
        raise NotInDomain(f"psi requires class A*, got {classify(b).label} for {b}")
    if _delta(entries) != d:
        raise NotInDomain(f"psi requires delta = {d}, got {_delta(entries)} for {b}")
    if d % 2 == 0 or d < 3:
        raise NotInDomain(f"psi requires an odd target descent >= 3, got {d}")
    if entries.count(-1) % 2:
        # With an odd number of -1 entries the trailing -1 run ends at an
        # even position and the exchange drives a prefix sum negative.
        raise NotInDomain(f"psi requires an even number of -1 entries in {b}")
    return BallotSequence(_psi(entries, d))


def psi_inverse(b: BallotSequence, d: int) -> BallotSequence:
    """Exchange the entry at position d - 1 with the first +1 after position d.

    Domain: b in class B* with delta(b) = d and a +1 entry beyond position d.
    Inverts ``psi``: the image lies in A*, keeps delta = d, and reverses the
    sign.

    >>> str(psi_inverse(parse_ballot("+-+-+"), 3))
    '+++--'
    """
    entries = b.entries
    cls = _classify(entries)
    if cls.tag is not BallotClassTag.B_STAR:
        raise NotInDomain(f"psi_inverse requires class B*, got {cls.label} for {b}")
    if _delta(entries) != d:
        raise NotInDomain(f"psi_inverse requires delta = {d}, got {_delta(entries)} for {b}")
    if 1 not in entries[d:]:
        raise NotInDomain(f"psi_inverse requires a +1 beyond position {d} in {b}")
    return BallotSequence(_psi_inverse(entries, d))
