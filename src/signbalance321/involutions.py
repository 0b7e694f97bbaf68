"""
Permutation-level maps built on the tableau encodings.

``capital_phi`` applies the epsilon-swap to the insertion-side ballot when
possible, otherwise to the recording side, otherwise fixes the permutation.
It is an involution that preserves the longest-increasing-subsequence length
and reverses the sign off its fixed points.

``capital_psi`` refines this so the maximum descent is preserved as well:
the recording side is swapped only in class B, and the A*/B*+ cases go
through the descent-preserving exchange (forward on A*, inverse on B*+).

Both maps act on the ballot pair (p, q) of a permutation: ``_phi_pair`` and
``_psi_pair`` map it to (branch, p', q'); the verifier's sweeps call them and
decode (p', q') to a value tuple.  Only the public maps validate: row
insertion rejects a 321 pattern, and the image is built as a ``Permutation``.

``ldes_lind_bijection`` is the delete/reinsert map sending the maximum
descent d to the position d + 1 of the largest letter.  The d = 0 case
inserts the largest letter at position 1; together with the inverse below,
this is the unique reading under which the map is a bijection (checked
exhaustively in the test suite).  Its two directions act on value tuples
in ``_reinsert`` and ``_reinsert_inverse``, which the verifier's sweep calls
directly; like Phi and Psi, only the public maps validate.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ballots import BallotClassTag, _classify, _delta, _epsilon, _phi, _psi, _psi_inverse
from .enumeration import _check_ballot_cap, _iter_tn_pairs, catalan
from .errors import Not321Avoiding
from .permutations import Permutation, _is_321_avoiding, _ldes
from .tableaux import _rsk_ballots, _values_from_ballots

__all__ = [
    "MapOutcome",
    "capital_phi",
    "capital_psi",
    "ldes_lind_bijection",
    "ldes_lind_inverse",
    "fixed_points_of",
]

PHI_BRANCHES = ("P-side", "Q-side", "fixed")
PSI_BRANCHES = ("P-side", "Q-phi", "Q-psi-forward", "Q-psi-inverse", "fixed")


@dataclass(frozen=True)
class MapOutcome:
    """Image of a map application plus the definitional case that fired."""

    image: Permutation
    fixed: bool
    branch: str


def _phi_pair(p: tuple[int, ...], q: tuple[int, ...]) -> tuple:
    if _epsilon(p) > 0:
        return "P-side", _phi(p), q
    if _epsilon(q) > 0:
        return "Q-side", p, _phi(q)
    return "fixed", p, q


def _psi_pair(p: tuple[int, ...], q: tuple[int, ...]) -> tuple:
    # delta(q) is the maximum descent of the word, and p and q have the same
    # number of -1 entries.
    if _epsilon(p) > 0:
        return "P-side", _phi(p), q
    q_class = _classify(q)
    if q_class.tag is BallotClassTag.B:
        return "Q-phi", p, _phi(q)
    d = _delta(q)
    if q.count(-1) % 2 == 0 and d % 2 == 1:
        if q_class.tag is BallotClassTag.A_STAR:
            return "Q-psi-forward", p, _psi(q, d)
        if q_class.tag is BallotClassTag.B_STAR and q_class.ends_plus:
            return "Q-psi-inverse", p, _psi_inverse(q, d)
    return "fixed", p, q


def _outcome(w: Permutation, branch: str, p: tuple[int, ...], q: tuple[int, ...]) -> MapOutcome:
    """The outcome of a core's result on w, with the image materialized."""
    if branch == "fixed":
        return MapOutcome(w, True, branch)
    return MapOutcome(Permutation(_values_from_ballots(p, q)), False, branch)


def capital_phi(w: Permutation) -> MapOutcome:
    """Sign-reversing involution preserving the longest increasing
    subsequence length."""
    return _outcome(w, *_phi_pair(*_rsk_ballots(w.values)))


def capital_psi(w: Permutation) -> MapOutcome:
    """Sign-reversing involution preserving both the longest increasing
    subsequence length and the maximum descent.  It acts on the ballot pair
    of w and validates only here: the input by row insertion, the image as a
    ``Permutation``."""
    return _outcome(w, *_psi_pair(*_rsk_ballots(w.values)))


def _reinsert(values: tuple[int, ...]) -> tuple[int, ...]:
    n = len(values)
    rest = list(values)
    del rest[values.index(n)]
    rest.insert(_ldes(values), n)
    return tuple(rest)


def _reinsert_inverse(values: tuple[int, ...]) -> tuple[int, ...]:
    # d is lind - 1: the maximum descent the forward map read.
    n = len(values)
    d = values.index(n)
    rest = list(values)
    del rest[d]
    if d == _ldes(rest):
        rest.append(n)
    else:
        rest.insert(d - 1, n)
    return tuple(rest)


def ldes_lind_bijection(w: Permutation) -> Permutation:
    """Delete the largest letter and reinsert it right after position
    ldes(w).  The image has the largest letter at position ldes(w) + 1 and
    the same inverse-descent trace below n - 1."""
    if w.n == 0:
        raise ValueError("map undefined for the empty permutation")
    if not _is_321_avoiding(w.values):
        raise Not321Avoiding(f"map is defined on 321-avoiding input: {w}")
    return Permutation(_reinsert(w.values))


def ldes_lind_inverse(w: Permutation) -> Permutation:
    """Inverse of ``ldes_lind_bijection``: read d from the position of the
    largest letter, delete it, and reinsert at position d when that raises
    the maximum descent to d, else at the end."""
    if w.n == 0:
        raise ValueError("map undefined for the empty permutation")
    if not _is_321_avoiding(w.values):
        raise Not321Avoiding(f"map is defined on 321-avoiding input: {w}")
    return Permutation(_reinsert_inverse(w.values))


def fixed_points_of(which: str, n: int, allow_large: bool = False) -> list[Permutation]:
    """All fixed points of the named map ("Phi" or "Psi") across the
    321-avoiding permutations of size n, in enumeration order."""
    cores = {"Phi": _phi_pair, "Psi": _psi_pair}
    if which not in cores:
        raise ValueError(f"unknown map {which!r}, expected 'Phi' or 'Psi'")
    core = cores[which]
    _check_ballot_cap(n, allow_large)
    # The maps act on ballot pairs: decode only the fixed points.
    return [
        Permutation(_values_from_ballots(p, q))
        for p, q in _iter_tn_pairs(n, 0, catalan(n))
        if core(p, q)[0] == "fixed"
    ]
