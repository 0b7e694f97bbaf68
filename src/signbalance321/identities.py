"""
Exhaustive verification of the sign-balance identities.

Each label names one claim, registered once in ``_REGISTRY`` with its
first size, its checker and its summary.  ``verify(label, n_max)`` runs the
claim at every applicable size up to ``n_max`` and returns a report with one
row per size: pass/fail, the compared exact values, and the first
counterexample when an elementwise check fails.

A checker returns its two compared maps and its first witness; it never
judges.  Every claim has the same verdict: a check passes exactly when its
two compared maps are equal.  Aggregate claims (the signed-polynomial
identities) compare left- and right-hand polynomials; elementwise claims put
their violation count on the left against an expected zero on the right,
alongside whatever aggregate values make the comparison auditable.

Elementwise claims that sweep T_n are registered as a ``_Sweep``: a step
that checks one permutation and a finish that runs once per size.
``verify`` cuts each T_n into runs of ``_SLICE`` permutations of the
enumeration, the same for any worker count, which worker processes (at most
one per CPU) check when there are several workers.  ``_run_task`` holds the
one loop over a run: it feeds each permutation, as a value tuple, to the
step, which records violations in a ``_Violations`` and what the size-wide
checks need in a ``Counter``.  No step keys a count by a permutation or its
image, so these counts stay small whatever Catalan(n).  They add up run by
run in enumeration order, keeping the first witness, so the report is
ordered by size and identical for any worker count.  Only ``verify`` and
``check_identity_at`` validate; steps and checkers run on unchecked tuple
cores, and a witness is rendered only when a clause fails.
"""
from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from itertools import groupby
from typing import Callable, NamedTuple

from .ballots import (
    BallotClassTag,
    _classify,
    _epsilon,
    ballot_sign,
    classify,
    delta,
    epsilon,
    generate_ballot_sequences,
    ones_count,
    phi,
)
from .enumeration import (
    SignedPolynomial,
    _check_ballot_cap,
    _iter_tn_slice,
    _joint_rows,
    _signed_distribution,
    _signed_polynomial,
    a_star_count,
    ballot_number,
    catalan,
    psi_fixed_point_count,
)
from .errors import UnknownIdentity
from .involutions import _phi_pair, _psi_pair, _reinsert, _reinsert_inverse
from .matching import _match_pairs, _region_counts, _second_row_sum, _sign_by_srs
from .permutations import (
    _descents,
    _inverse,
    _inversion_count,
    _is_321_avoiding,
    _ldes,
    _lind,
    _lis,
    _sign,
)
from .tableaux import _rsk_ballots, _values_from_ballots

__all__ = [
    "IDENTITY_LABELS",
    "IDENTITY_SUMMARIES",
    "IdentityCheck",
    "VerificationReport",
    "applicable_sizes",
    "check_identity_at",
    "verify",
    "report_rows",
    "report_json",
    "report_csv",
]

@dataclass
class IdentityCheck:
    """Result of one identity at one size."""

    identity: str
    n: int
    passed: bool
    lhs: dict[str, int]
    rhs: dict[str, int]
    counterexample: str | None = None


@dataclass
class VerificationReport:
    identity: str
    n_max: int
    checks: list[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> IdentityCheck | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None


# What a checker returns: the two compared maps and the first witness.
_Compared = tuple[dict[str, int], dict[str, int], "str | None"]


class _Violations:
    """Collects a violation count and the first offending witness."""

    def __init__(self, count: int = 0, witness: str | None = None):
        self.count = count
        self.witness = witness

    def __add__(self, later: "_Violations") -> "_Violations":
        # Violations of consecutive runs: the earlier run's witness wins.
        witness = self.witness if self.witness is not None else later.witness
        return _Violations(self.count + later.count, witness)

    def hit(self, ok: bool, witness) -> None:
        if not ok:
            self.count += 1
            if self.witness is None:
                is_word = isinstance(witness, tuple)  # a value tuple: one-line notation
                self.witness = " ".join(map(str, witness)) if is_word else str(witness)

    def compared(self, lhs: dict[str, int], rhs: dict[str, int]) -> _Compared:
        """The compared maps with the violation count appended against an
        expected zero, and the first witness."""
        lhs = {**lhs, "violations": self.count}
        return lhs, {**rhs, "violations": 0}, self.witness


def _strip_zeros(mapping: dict) -> dict[str, int]:
    return {str(k): v for k, v in sorted(mapping.items()) if v != 0}


def _in_q_squared(counts: dict[int, int]) -> SignedPolynomial:
    """The polynomial sum of c_k q^(2k) over the counts k -> c_k."""
    return SignedPolynomial.from_terms({(2 * k,): c for k, c in counts.items()})


def _thm1_1_rhs(n: int, lis_counts: dict[int, int]) -> SignedPolynomial:
    """Theorem 1.1's right-hand side from the lis counts c_k of the half
    size (n - 1) // 2: q * sum of c_k q^(2k), times (q - 1) for even n."""
    rhs = _in_q_squared(lis_counts).shift(1)
    return rhs if n % 2 else SignedPolynomial.from_terms({(1,): 1, (0,): -1}) * rhs


def _check_thm1_1(n: int) -> _Compared:
    lhs = _signed_polynomial(n, ("lis",))
    rhs = _thm1_1_rhs(n, _signed_distribution((n - 1) // 2, "lis").counts())
    return lhs.as_map(), rhs.as_map(), None


def _check_thm4_1(n: int) -> _Compared:
    lhs = _signed_polynomial(n, ("ldes",))
    rhs = _in_q_squared(_signed_distribution(n // 2, "ldes").counts())
    if n % 2 == 0:
        rhs = SignedPolynomial.from_terms({(0,): 1, (1,): -1}) * rhs
    return lhs.as_map(), rhs.as_map(), None


def _check_eo_identities(n: int) -> _Compared:
    # Theorem 1.1 per lis value; T_m has B(m, k)^2 permutations of lis k.
    m = (n - 1) // 2
    expected = _thm1_1_rhs(n, {k: ballot_number(m, k) ** 2 for k in range(m + 1)})
    observed = _signed_distribution(n, "lis").signed()
    return _strip_zeros(observed), expected.as_map(), None


def _step_prop2_1(n: int, w: tuple[int, ...], bad: _Violations, seen: Counter) -> None:
    s_tab = _sign_by_srs(*_rsk_ballots(w))
    s_inv = _sign(w)
    seen["srs", s_tab] += 1
    seen["inv", s_inv] += 1
    bad.hit(s_tab == s_inv, w)


def _finish_prop2_1(n: int, bad: _Violations, seen: Counter) -> _Compared:
    return bad.compared(
        {"even": seen["srs", 1], "odd": seen["srs", -1]},
        {"even": seen["inv", 1], "odd": seen["inv", -1]},
    )


def _step_lemma2_2(n: int, w: tuple[int, ...], bad: _Violations, seen: Counter) -> None:
    c_sum = 0
    for i, j in _match_pairs(w):
        rc = _region_counts(w, i, j)
        vi = w[i - 1]
        bad.hit(rc.c1 == 0, w)
        bad.hit((rc.c - (vi + j)) % 2 == 0, w)
        bad.hit(rc.c2 + rc.c3 + 2 * rc.c4 == (n - vi) + (n - j), w)
        c_sum += rc.c
    inv = _inversion_count(w)
    decomposition = c_sum + (n - _lis(w))
    bad.hit(inv == decomposition, w)
    seen["inversions"] += inv
    seen["decomposed"] += decomposition


def _finish_lemma2_2(n: int, bad: _Violations, seen: Counter) -> _Compared:
    return bad.compared(
        {"inversion_total": seen["inversions"]},
        {"inversion_total": seen["decomposed"]},
    )


def _check_prop3_1(n: int) -> _Compared:
    bad = _Violations()
    observed: dict[int, int] = {}
    for b in generate_ballot_sequences(n):
        k = ones_count(b)
        e = epsilon(b)
        pairwise = all(
            b.entries[i - 1] == b.entries[i] for i in range(2, n, 2)
        )
        bad.hit((e == 0) == pairwise, b)
        if e == 0:
            observed[k] = observed.get(k, 0) + 1
            # "+-" (length 2) is the unique epsilon-free sequence with
            # delta = 1; from length 3 on, prefix-sum nonnegativity rules
            # delta = 1 out.
            if n != 2:
                bad.hit(delta(b) != 1, b)
        else:
            c = phi(b)
            bad.hit(phi(c) == b, b)
            bad.hit(ballot_sign(c) == -ballot_sign(b), b)
            bad.hit(ones_count(c) == k, b)
            bad.hit(epsilon(c) == e, b)
    expected = {k: a_star_count(n, k) for k in range(n + 1)}
    return bad.compared(_strip_zeros(observed), _strip_zeros(expected))


def _check_involution(core: Callable, w: tuple[int, ...], bad: _Violations) -> tuple:
    """Check at w the clauses of every sign-reversing involution ``core`` on
    ballot pairs, and return the core's branch and the image of w."""
    p, q = _rsk_ballots(w)
    branch, *image_pair = core(p, q)
    fixed = branch == "fixed"
    image = w if fixed else _values_from_ballots(*image_pair)
    bad.hit(core(*_rsk_ballots(image))[1:] == (p, q), w)
    bad.hit(_lis(image) == _lis(w), w)
    bad.hit(fixed == (image == w), w)
    if not fixed:
        bad.hit(_sign(image) == -_sign(w), w)
    return branch, image


def _step_phi_involution(n: int, w: tuple[int, ...], bad: _Violations, seen: Counter) -> None:
    branch, _image = _check_involution(_phi_pair, w, bad)
    if branch == "fixed":
        k = _lis(w)
        seen[k] += 1
        bad.hit(_sign(w) == (1 if n % 2 or k % 2 == 0 else -1), w)


def _finish_phi_involution(n: int, bad: _Violations, seen: Counter) -> _Compared:
    # seen: fixed points by lis.
    expected = {k: a_star_count(n, k) ** 2 for k in range(n + 1)}
    return bad.compared(_strip_zeros(seen), _strip_zeros(expected))


def _step_lemma4_2(n: int, w: tuple[int, ...], bad: _Violations, seen: Counter) -> None:
    # Elementwise parity claims over the permutations whose insertion-side
    # sequence is in A* and whose recording side avoids class B.
    p, q = _rsk_ballots(w)
    if _epsilon(p):
        return
    q_cls = _classify(q)
    if q_cls.tag is BallotClassTag.B:
        return
    d = _ldes(w)
    k = _lis(w)
    s = _sign(w)
    if d % 2 == 0:
        bad.hit(s == 1, w)
    elif n % 2:
        bad.hit((s == 1) == (q_cls.tag is BallotClassTag.A_STAR), w)
    else:
        bad.hit((s == 1) == (q_cls.tag is BallotClassTag.A_STAR and k % 2 == 0), w)


def _finish_lemma4_2(n: int, bad: _Violations, seen: Counter) -> _Compared:
    # Class-count equalities over the ballot sequences themselves: odd
    # descent, ones of the parity of n, and for even n only B* sequences
    # ending in +1.
    a_counts: dict[tuple[int, int], int] = {}
    b_counts: dict[tuple[int, int], int] = {}
    for b in generate_ballot_sequences(n):
        k = ones_count(b)
        d = delta(b)
        if d % 2 == 0 or k % 2 != n % 2:
            continue
        cls = classify(b)
        if cls.tag is BallotClassTag.A_STAR:
            a_counts[(k, d)] = a_counts.get((k, d), 0) + 1
        elif cls.tag is BallotClassTag.B_STAR and (n % 2 or cls.ends_plus):
            b_counts[(k, d)] = b_counts.get((k, d), 0) + 1
    cells = sorted(set(a_counts) | set(b_counts))
    return bad.compared(
        {f"{k},{d}": a_counts.get((k, d), 0) for k, d in cells},
        {f"{k},{d}": b_counts.get((k, d), 0) for k, d in cells},
    )


def _step_prop4_3(n: int, w: tuple[int, ...], bad: _Violations, seen: Counter) -> None:
    branch, image = _check_involution(_psi_pair, w, bad)
    d = _ldes(w)
    bad.hit(_ldes(image) == d, w)
    if branch == "fixed":
        seen[d] += 1
        bad.hit((_sign(w) == -1) == (n % 2 == 0 and d % 2 == 1), w)


def _finish_prop4_3(n: int, bad: _Violations, seen: Counter) -> _Compared:
    # seen: fixed points by ldes.
    expected = {d: psi_fixed_point_count(n, d) for d in range(n)}
    if n % 2 == 0:
        for d in range(0, n, 2):
            bad.hit(
                seen[d] == seen[d + 1],
                f"fixed-point counts at descents {d} and {d + 1} differ",
            )
    return bad.compared(_strip_zeros(seen), _strip_zeros(expected))


def _check_cor4_4(n: int) -> _Compared:
    # The counting polynomial of T_(n // 2) in (2 * lis + 1, 2 * ldes).
    terms: Counter = Counter()
    for k, d, _l, _s, c in _joint_rows(n // 2):
        terms[2 * k + 1, 2 * d] += c
    lhs = SignedPolynomial.from_terms(terms)
    rhs = _signed_polynomial(n, ("lis", "ldes"), lis_parity=1, ldes_parity=0)
    if n % 2 == 0:
        rhs += _signed_polynomial(
            n, ("lis", "ldes"), lis_parity=0, ldes_parity=0
        ).shift(1, 0)
    return lhs.as_map(), rhs.as_map(), None


def _step_thm5_1(n: int, w: tuple[int, ...], bad: _Violations, seen: Counter) -> None:
    # An image in T_n with a left inverse makes the map injective on the
    # finite set T_n, hence a bijection; the right-inverse clause checks that
    # it is onto directly.  Both are checked one permutation at a time.
    image = _reinsert(w)
    bad.hit(_is_321_avoiding(image), w)
    bad.hit(_lind(image) == _ldes(w) + 1, w)
    fiber = tuple(i for i in _descents(_inverse(w)) if i <= n - 2)
    fiber_img = tuple(i for i in _descents(_inverse(image)) if i <= n - 2)
    bad.hit(fiber == fiber_img, w)
    bad.hit(_reinsert_inverse(image) == w, w)
    bad.hit(_reinsert(_reinsert_inverse(w)) == w, w)
    seen["lind", fiber, _lind(w)] += 1
    seen["ldes", fiber, _ldes(w) + 1] += 1


def _finish_thm5_1(n: int, bad: _Violations, seen: Counter) -> _Compared:
    fiber_lind = {key[1:]: c for key, c in seen.items() if key[0] == "lind"}
    fiber_ldes = {key[1:]: c for key, c in seen.items() if key[0] == "ldes"}
    # Equidistribution of lind and ldes + 1, jointly with the inverse-descent
    # trace below n - 1.
    bad.hit(fiber_lind == fiber_ldes, "joint fiber distributions differ")
    lhs_counts = _signed_distribution(n, "lind").counts()
    rhs_counts = {
        d + 1: c for d, c in _signed_distribution(n, "ldes").counts().items()
    }
    return bad.compared(_strip_zeros(lhs_counts), _strip_zeros(rhs_counts))


def _step_srs_matching(n: int, w: tuple[int, ...], bad: _Violations, seen: Counter) -> None:
    pairs = _match_pairs(w)
    p, q = _rsk_ballots(w)
    row2_letters = {i for i, e in enumerate(p, 1) if e < 0}
    row2_positions = {i for i, e in enumerate(q, 1) if e < 0}
    bad.hit({w[i - 1] for i, _ in pairs} == row2_letters, w)
    bad.hit({j for _, j in pairs} == row2_positions, w)
    bad.hit(len(pairs) == n - _lis(w), w)
    pair_total = sum(w[i - 1] + j for i, j in pairs)
    bad.hit(_second_row_sum(p, q) == pair_total, w)


def _finish_srs_matching(n: int, bad: _Violations, seen: Counter) -> _Compared:
    return bad.compared({}, {})


class _Sweep(NamedTuple):
    """A claim checked permutation by permutation over T_n.

    ``step(n, w, bad, seen)`` checks one permutation w, a value tuple, on
    the unchecked tuple cores: it records violations in ``bad`` (a
    ``_Violations``) and counts in ``seen`` (a ``Counter``) what the
    size-wide checks need.  ``finish(n, bad, seen)`` runs those checks once
    every run of T_n is stepped through and merged in enumeration order.
    """

    step: Callable[[int, tuple[int, ...], _Violations, Counter], None]
    finish: Callable[[int, _Violations, Counter], _Compared]


class _Claim(NamedTuple):
    start: int
    checker: Callable[[int], _Compared] | _Sweep
    summary: str


# Label -> first size, checker and summary, in report and help order.
_REGISTRY = {
    "thm1.1": _Claim(
        3, _check_thm1_1,
        "signed lis-polynomial of size n telescopes to the unsigned"
        " polynomial of half size (odd n), times (q - 1) for even n"),
    "prop2.1": _Claim(
        1, _Sweep(_step_prop2_1, _finish_prop2_1),
        "tableau sign formula agrees with the inversion-count sign"),
    "lemma2.2": _Claim(
        1, _Sweep(_step_lemma2_2, _finish_lemma2_2),
        "per-pair region counts: parity and inversion decomposition"),
    "prop3.1": _Claim(
        1, _check_prop3_1,
        "ballot swap at epsilon is a sign-reversing involution;"
        " fixed-class counts match the closed form"),
    "phi-involution": _Claim(
        1, _Sweep(_step_phi_involution, _finish_phi_involution),
        "the lis-preserving involution on permutations:"
        " involutive, sign-reversing off fixed points, fixed counts squared"),
    "eo-identities": _Claim(
        1, _check_eo_identities,
        "the four even-minus-odd count identities per lis value"),
    "thm4.1": _Claim(
        2, _check_thm4_1,
        "signed ldes-polynomial telescopes to half size"),
    "lemma4.2-parity": _Claim(
        1, _Sweep(_step_lemma4_2, _finish_lemma4_2),
        "parity of sign under the A*/B*/Bx case split, plus"
        " the matching class counts"),
    "prop4.3": _Claim(
        2, _Sweep(_step_prop4_3, _finish_prop4_3),
        "the ldes-preserving involution: involutive, sign-reversing"
        " off fixed points, fixed counts per descent match the closed form"),
    "cor4.4": _Claim(
        2, _check_cor4_4,
        "both joint (lis, ldes) identities with the parity filters"),
    "thm5.1": _Claim(
        1, _Sweep(_step_thm5_1, _finish_thm5_1),
        "delete/reinsert map is a bijection transporting ldes + 1 to"
        " the position of the largest letter, preserving inverse descents"),
    "srs-matching-consistency": _Claim(
        1, _Sweep(_step_srs_matching, _finish_srs_matching),
        "matched letters/positions equal the second"
        " rows; second-row sum equals the matched-pair sum"),
}

IDENTITY_LABELS = tuple(_REGISTRY)
IDENTITY_SUMMARIES = {label: claim.summary for label, claim in _REGISTRY.items()}


def _claim(identity: str) -> _Claim:
    if identity not in _REGISTRY:
        raise UnknownIdentity(
            f"unknown identity {identity!r}; expected one of {', '.join(IDENTITY_LABELS)}"
        )
    return _REGISTRY[identity]


def applicable_sizes(identity: str, n_max: int) -> list[int]:
    """Sizes at which the labelled identity is claimed, up to n_max."""
    if type(n_max) is not int:
        raise ValueError(f"size must be an int, got n_max = {n_max!r}")
    return list(range(_claim(identity).start, n_max + 1))


def _applicable(identity: str, n_max: int) -> list[int]:
    sizes = applicable_sizes(identity, n_max)
    if not sizes:
        raise ValueError(
            f"{identity} applies from n = {_REGISTRY[identity].start};"
            f" n_max = {n_max} selects no size"
        )
    return sizes


# Permutations per slice of a T_n sweep: the longest power of two that still
# splits n = 10 (into 2 runs; n = 11 into 4) so that two workers share it,
# while sizes up to 9 stay whole.  Neither peak memory nor wall time moves
# measurably with it from 1024 up.
_SLICE = 16384


def _tasks(identity: str, sizes: list[int]) -> list[tuple]:
    """(n, bounds) tasks in enumeration order: a sweep claim's T_n in runs
    [start, stop) of _SLICE enumeration positions (the last may be shorter),
    any other claim's sizes whole (bounds None)."""
    if not isinstance(_REGISTRY[identity].checker, _Sweep):
        return [(n, None) for n in sizes]
    return [
        (n, (start, min(start + _SLICE, catalan(n))))
        for n in sizes
        for start in range(0, catalan(n), _SLICE)
    ]


def _run_task(identity: str, n: int, bounds: tuple[int, int] | None):
    checker = _REGISTRY[identity].checker
    if bounds is None:
        return checker(n)
    # The one loop over the permutations of a run of T_n.
    bad, seen = _Violations(), Counter()
    for values in _iter_tn_slice(n, *bounds):
        checker.step(n, values, bad, seen)
    return bad, seen


def _merged(earlier: tuple, later: tuple) -> tuple:
    # In place: a size holds one Counter however many runs it is cut into.
    (bad, seen), (later_bad, later_seen) = earlier, later
    seen.update(later_seen)
    return bad + later_bad, seen


def _check_sizes(identity: str, sizes: list[int], workers: int) -> list[IdentityCheck]:
    """Run the tasks of every size, on worker processes when there are
    several workers, and judge each size once its slices are merged."""
    tasks = _tasks(identity, sizes)
    run = partial(_run_task, identity)
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes > 1:
        # Fork where the platform can, whatever the default start method:
        # forked workers see this module as patched; forkserver re-imports it.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ProcessPoolExecutor(processes, mp_context=context) as pool:
            return _judged(identity, tasks, pool.map(run, *zip(*tasks)))
    return _judged(identity, tasks, map(run, *zip(*tasks)))


def _judged(identity: str, tasks: list[tuple], results) -> list[IdentityCheck]:
    """Merge each size's results in task order as they arrive and judge the
    size, so that in this process a size's counts are released before the
    next size is swept.

    This is the only place a verdict is set, by one rule for every claim:
    the check passes exactly when its two compared maps are equal.
    """
    checker = _REGISTRY[identity].checker
    checks = []
    for n, group in groupby(zip(tasks, results), key=lambda done: done[0][0]):
        merged = reduce(_merged, (result for _task, result in group))
        if isinstance(checker, _Sweep):
            merged = checker.finish(n, *merged)
        lhs, rhs, witness = merged
        checks.append(IdentityCheck(identity, n, lhs == rhs, lhs, rhs, witness))
    return checks


def check_identity_at(identity: str, n: int, allow_large: bool = False) -> IdentityCheck:
    """Run one identity at one size, in this process.

    Raises ValueError when n is below the label's first size.
    """
    _applicable(identity, n)
    _check_ballot_cap(n, allow_large)
    return _check_sizes(identity, [n], 1)[0]


def verify(
    identity: str,
    n_max: int,
    workers: int = 1,
    allow_large: bool = False,
) -> VerificationReport:
    """Verify the labelled identity at every applicable size up to n_max.

    Each T_n sweep is cut into the same runs of ``_SLICE`` permutations
    for any worker count, checked by up to ``workers`` processes, one per
    CPU at most; their counts merge in enumeration order, so the report is
    identical for any worker count.  Raises ValueError when no size applies
    (n_max below the label's first size) or when fewer than one worker is
    asked for, so that no report can pass over zero checks.
    """
    sizes = _applicable(identity, n_max)
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be an int of at least 1, got {workers!r}")
    _check_ballot_cap(max(sizes), allow_large)
    return VerificationReport(identity, n_max, _check_sizes(identity, sizes, workers))


def report_rows(report: VerificationReport) -> list[dict]:
    """Rows in the stable JSON schema."""
    return [
        {
            "identity": c.identity,
            "n": c.n,
            "pass": c.passed,
            "lhs": c.lhs,
            "rhs": c.rhs,
            "counterexample": c.counterexample,
        }
        for c in report.checks
    ]


def report_json(report: VerificationReport) -> str:
    return json.dumps(report_rows(report), indent=2, sort_keys=True)


def report_csv(report: VerificationReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["identity", "n", "key", "lhs", "rhs", "pass"])
    for c in report.checks:
        keys = sorted(set(c.lhs) | set(c.rhs))
        for key in keys:
            left = c.lhs.get(key, 0)
            right = c.rhs.get(key, 0)
            writer.writerow([c.identity, c.n, key, left, right, left == right])
    return out.getvalue()
