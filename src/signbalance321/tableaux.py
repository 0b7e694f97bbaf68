"""
Standard Young tableaux with at most two rows, and the row-insertion
correspondence between permutations and same-shape tableau pairs.

The insertion engine is deliberately specialized: a bump that would open a
third row raises ``ThirdRowRequired`` instead of growing the shape, since a
third row appears exactly when the permutation contains a decreasing
subsequence of length three.

Reverse insertion processes recording entries n down to 1; for an entry in
the second row, the evicted first-row letter is the largest one smaller than
the evictee.

Text format for a tableau: two lines of space-separated entries, the second
line possibly empty.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .ballots import BallotSequence
from .errors import MalformedPair, MalformedTableau, ThirdRowRequired
from .permutations import Permutation

__all__ = [
    "TwoRowTableau",
    "TableauPair",
    "parse_tableau",
    "rsk",
    "inverse_rsk",
    "tableau_to_ballot",
    "ballot_to_tableau",
]


@dataclass(frozen=True)
class TwoRowTableau:
    """A standard Young tableau with at most two rows.

    Rows are strictly increasing, together they hold exactly the letters
    1..n, the first row is at least as long as the second, and each column
    increases downwards.  An empty second row is an empty tuple, never
    absent.
    """

    row1: tuple[int, ...]
    row2: tuple[int, ...] = ()

    def __post_init__(self):
        row1 = tuple(self.row1)
        row2 = tuple(self.row2)
        object.__setattr__(self, "row1", row1)
        object.__setattr__(self, "row2", row2)
        n = len(row1) + len(row2)
        # Entries must be ints: 1.0 and True compare equal to 1.
        all_ints = set(map(type, row1 + row2)) <= {int}
        if not all_ints or sorted(row1 + row2) != list(range(1, n + 1)):
            raise MalformedTableau(
                f"rows must hold exactly the letters 1..{n}: {row1} / {row2}"
            )
        if any(a >= b for a, b in zip(row1, row1[1:])) or any(
            a >= b for a, b in zip(row2, row2[1:])
        ):
            raise MalformedTableau(f"rows must strictly increase: {row1} / {row2}")
        if len(row1) < len(row2):
            raise MalformedTableau(
                f"first row shorter than second: {row1} / {row2}"
            )
        for c in range(len(row2)):
            if row1[c] >= row2[c]:
                raise MalformedTableau(
                    f"column {c + 1} does not increase downwards: {row1} / {row2}"
                )

    @property
    def n(self) -> int:
        return len(self.row1) + len(self.row2)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row1), len(self.row2))

    def __str__(self) -> str:
        first = " ".join(str(x) for x in self.row1)
        second = " ".join(str(x) for x in self.row2)
        return f"{first}\n{second}"


@dataclass(frozen=True)
class TableauPair:
    """Same-shape insertion (P) and recording (Q) tableaux."""

    insertion: TwoRowTableau
    recording: TwoRowTableau

    def __post_init__(self):
        if self.insertion.shape != self.recording.shape:
            raise MalformedPair(
                f"shapes differ: {self.insertion.shape} vs {self.recording.shape}"
            )


def parse_tableau(text: str) -> TwoRowTableau:
    """Parse the two-line text format (second line may be empty or missing)."""
    lines = text.splitlines() or [""]
    if len(lines) > 2:
        raise MalformedTableau(f"expected at most two rows, got {len(lines)}")
    row1 = tuple(int(t) for t in lines[0].split())
    row2 = tuple(int(t) for t in lines[1].split()) if len(lines) == 2 else ()
    return TwoRowTableau(row1, row2)


def _rsk_ballots(values: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row-insert the word; return the insertion- and recording-side ballot
    tuples.  Raises ThirdRowRequired on a second-row bump.  The letters are
    positive."""
    n = len(values)
    row1: list[int] = []
    last = 0  # the first row's last letter, 0 while the row is empty
    row2_tail = 0
    p = [1] * n
    q = [1] * n
    for pos, x in enumerate(values):
        if x > last:
            row1.append(x)
            last = x
        else:
            idx = bisect_left(row1, x)
            y = row1[idx]
            row1[idx] = x
            if y == last:
                last = x
            if y < row2_tail:
                raise ThirdRowRequired(
                    f"letter {y} bumped below an occupied second-row cell; "
                    "the word contains a decreasing subsequence of length three"
                )
            row2_tail = y
            p[y - 1] = -1
            q[pos] = -1
    return tuple(p), tuple(q)


def _values_from_ballots(
    p: Sequence[int], q: Sequence[int]
) -> tuple[int, ...]:
    """Reverse row insertion on a ballot-encoded pair with equal +1 counts."""
    n = len(p)
    row1: list[int] = []
    row2: list[int] = []
    for i in range(n):
        (row1 if p[i] > 0 else row2).append(i + 1)
    out = [0] * n
    for m in range(n, 0, -1):
        if q[m - 1] > 0:
            out[m - 1] = row1.pop()
        else:
            x = row2.pop()
            t = bisect_left(row1, x) - 1
            out[m - 1] = row1[t]
            row1[t] = x
    return tuple(out)


def _rows_to_ballot(row1: Sequence[int], n: int) -> tuple[int, ...]:
    entries = [-1] * n
    for i in row1:
        entries[i - 1] = 1
    return tuple(entries)


def rsk(w: Permutation) -> TableauPair:
    """The row-insertion correspondence, restricted to two-row shapes.

    P is the insertion tableau, Q the recording tableau; the first row of P
    has length ``lis_oracle(w)``.  Raises ThirdRowRequired when the input
    contains a decreasing subsequence of length three.
    """
    p, q = _rsk_ballots(w.values)
    return TableauPair(ballot_to_tableau(BallotSequence(p)),
                       ballot_to_tableau(BallotSequence(q)))


def inverse_rsk(pair: TableauPair) -> Permutation:
    """The unique permutation inserting to the given pair."""
    n = pair.insertion.n
    p = _rows_to_ballot(pair.insertion.row1, n)
    q = _rows_to_ballot(pair.recording.row1, n)
    return Permutation(_values_from_ballots(p, q))


def tableau_to_ballot(t: TwoRowTableau) -> BallotSequence:
    """+1 at the positions listed in the first row, -1 elsewhere.

    The ballot property is implied by column-strictness; constructing the
    BallotSequence asserts it.
    """
    return BallotSequence(_rows_to_ballot(t.row1, t.n))


def ballot_to_tableau(b: BallotSequence) -> TwoRowTableau:
    """First row: positions of +1; second row: positions of -1."""
    row1 = tuple(i for i, e in enumerate(b.entries, 1) if e > 0)
    row2 = tuple(i for i, e in enumerate(b.entries, 1) if e < 0)
    return TwoRowTableau(row1, row2)
