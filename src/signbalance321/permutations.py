"""
Permutations in one-line notation and their direct statistics.

Conventions used throughout the package:

- Positions and letters are 1-based.  A permutation of size n rearranges the
  letters 1..n, and position i holds the letter ``w.values[i - 1]``.
- The empty permutation (n = 0) is legal, with the empty conventions
  inversions = 0, ldes = 0, lis = 0.  Only ``lind`` (the position of the
  largest letter) rejects it.
- Statistics are pure functions of immutable inputs and are safe to call
  concurrently.

The text format is whitespace- or comma-separated one-line notation,
e.g. ``"4 1 2 5 7 8 3 6 9 12 10 11"``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "Permutation",
    "DescentSet",
    "identity",
    "parse_permutation",
    "inverse",
    "is_321_avoiding",
    "inversion_count",
    "sign_by_inversions",
    "descent_set",
    "ldes",
    "lind",
    "excedances",
    "anti_excedances",
    "fixed_points",
    "is_bi_increasing",
    "lis_oracle",
]

# Strictly increasing tuple of positions i with w_i > w_{i+1}.
DescentSet = tuple[int, ...]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored in one-line notation.

    >>> Permutation((2, 3, 1)).n
    3
    >>> str(Permutation((2, 3, 1)))
    '2 3 1'
    """

    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        n = len(values)
        # Entries must be ints: 1.0 and True compare equal to 1.
        all_ints = set(map(type, values)) <= {int}
        if not all_ints or sorted(values) != list(range(1, n + 1)):
            raise ValueError(
                f"not a permutation of 1..{n}: {values!r} "
                "(entries must be exactly the letters 1..n, each once)"
            )

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.values)


def identity(n: int) -> Permutation:
    """The identity permutation of size n."""
    return Permutation(tuple(range(1, n + 1)))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, separated by whitespace or commas.

    Rejects non-integers, duplicates, and gaps with a descriptive error.

    >>> parse_permutation("2, 3, 1").values
    (2, 3, 1)
    """
    tokens = text.replace(",", " ").split()
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"not an integer: {token!r} in {text!r}") from None
    return Permutation(tuple(values))


def inverse(w: Permutation) -> Permutation:
    """The inverse permutation."""
    return Permutation(_inverse(w.values))


# Tuple-level implementations.  Public functions unwrap the Permutation and
# delegate here; enumeration loops use these directly on raw value tuples.
# Every one reads the word itself and is independent of the tableau code.
# The inversion count takes O(n log n) comparisons: each letter is counted
# against a sorted list of the letters before it by binary search, then
# inserted there.  An insertion shifts the list's tail in one C memmove, so
# the O(n^2) pointer moves in total stay far cheaper than Python-level
# comparisons at the sizes this package handles (n up to a few hundred).

def _is_321_avoiding(values: Sequence[int]) -> bool:
    # Track the running maximum and the largest letter seen so far that has a
    # strictly larger letter before it; any later letter below the latter
    # completes a decreasing triple.
    max_seen = 0
    best_mid = 0
    for x in values:
        if x < best_mid:
            return False
        if x < max_seen:
            best_mid = x
        elif x > max_seen:
            max_seen = x
    return True


def _inversion_count(values: Sequence[int]) -> int:
    # Letter x at index i has i letters before it; those above x are
    # i - bisect_right(seen, x) of them.
    seen: list[int] = []
    total = 0
    for i, x in enumerate(values):
        total += i - bisect_right(seen, x)
        insort(seen, x)
    return total


def _sign(values: Sequence[int]) -> int:
    return -1 if _inversion_count(values) % 2 else 1


def _inverse(values: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(values)
    for i, x in enumerate(values, 1):
        inv[x - 1] = i
    return tuple(inv)


def _descents(values: Sequence[int]) -> tuple[int, ...]:
    return tuple(
        i for i in range(1, len(values)) if values[i - 1] > values[i]
    )


def _ldes(values: Sequence[int]) -> int:
    for i in range(len(values) - 1, 0, -1):
        if values[i - 1] > values[i]:
            return i
    return 0


def _lind(values: Sequence[int]) -> int:
    return values.index(len(values)) + 1


def _lis(values: Sequence[int]) -> int:
    # Patience-sorting tails; length of the longest strictly increasing
    # subsequence.
    tails: list[int] = []
    for x in values:
        idx = bisect_left(tails, x)
        if idx == len(tails):
            tails.append(x)
        else:
            tails[idx] = x
    return len(tails)


def is_321_avoiding(w: Permutation) -> bool:
    """True iff there are no positions i < j < k with w_i > w_j > w_k.

    >>> is_321_avoiding(Permutation((3, 2, 1)))
    False
    >>> is_321_avoiding(Permutation((4, 1, 2, 5, 7, 8, 3, 6, 9, 12, 10, 11)))
    True
    """
    return _is_321_avoiding(w.values)


def inversion_count(w: Permutation) -> int:
    """Number of pairs i < j with w_i > w_j.

    Counted from the word by binary search into the sorted prefix: O(n log n)
    comparisons plus one list insertion (a memmove) per letter.

    >>> inversion_count(Permutation((2, 3, 1)))
    2
    """
    return _inversion_count(w.values)


def sign_by_inversions(w: Permutation) -> int:
    """The sign of the permutation: (-1) raised to the inversion count.

    Uses the same O(n log n) count as ``inversion_count``, read off the word,
    not off the tableau pair or the cycle type, so it stays an independent
    check of the tableau sign formula.

    >>> sign_by_inversions(Permutation((1, 3, 2)))
    -1
    """
    return _sign(w.values)


def descent_set(w: Permutation) -> DescentSet:
    """Positions i with w_i > w_{i+1}, strictly increasing.

    >>> descent_set(Permutation((2, 3, 1)))
    (2,)
    """
    return _descents(w.values)


def ldes(w: Permutation) -> int:
    """The maximum descent, or 0 when the descent set is empty."""
    return _ldes(w.values)


def lind(w: Permutation) -> int:
    """The position of the largest letter n.  Undefined for n = 0."""
    if w.n == 0:
        raise ValueError("lind is undefined for the empty permutation")
    return _lind(w.values)


def excedances(w: Permutation) -> tuple[int, ...]:
    """Positions i with w_i > i."""
    return tuple(i for i, x in enumerate(w.values, 1) if x > i)


def anti_excedances(w: Permutation) -> tuple[int, ...]:
    """Positions i with w_i < i."""
    return tuple(i for i, x in enumerate(w.values, 1) if x < i)


def fixed_points(w: Permutation) -> tuple[int, ...]:
    """Positions i with w_i = i."""
    return tuple(i for i, x in enumerate(w.values, 1) if x == i)


def is_bi_increasing(w: Permutation) -> bool:
    """True iff the excedance letters and the remaining letters each form an
    increasing subword.  Agrees with ``is_321_avoiding`` on every permutation.
    """
    last_exc = 0
    last_rest = 0
    for i, x in enumerate(w.values, 1):
        if x > i:
            if x < last_exc:
                return False
            last_exc = x
        else:
            if x < last_rest:
                return False
            last_rest = x
    return True


def lis_oracle(w: Permutation) -> int:
    """Length of the longest strictly increasing subsequence.

    A direct dynamic program, independent of any tableau machinery, so it can
    serve as an oracle for row lengths computed elsewhere.

    >>> lis_oracle(Permutation((2, 3, 1)))
    2
    """
    return _lis(w.values)
