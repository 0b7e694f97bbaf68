"""The verification driver: labels, reports, and output formats."""
import functools
import json
import multiprocessing
import os
import re
from collections import Counter
from pathlib import Path

import pytest

from signbalance321 import (
    IDENTITY_LABELS,
    Permutation,
    UnknownIdentity,
    check_identity_at,
    report_csv,
    report_json,
    report_rows,
    verify,
)
from signbalance321 import cli, enumeration, identities
from signbalance321.enumeration import SignedDistribution, SignedPolynomial
from signbalance321.errors import LimitExceeded
from signbalance321.identities import IdentityCheck, VerificationReport, applicable_sizes


def test_all_labels_pass_at_small_sizes():
    for label in IDENTITY_LABELS:
        report = verify(label, 7)
        assert report.passed, (label, report.first_failure())


def test_readme_label_table_matches_registry():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Identity labels", 1)[1]
    section = section.split("\n## ", 1)[0]
    labels = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert tuple(labels) == IDENTITY_LABELS


def test_unknown_label():
    with pytest.raises(UnknownIdentity):
        verify("thm9.9", 5)
    with pytest.raises(UnknownIdentity):
        check_identity_at("nope", 3)


def test_verify_rejects_empty_size_range():
    for n_max in (2, 0, -3):
        with pytest.raises(ValueError, match="thm1.1 applies from n = 3"):
            verify("thm1.1", n_max)
    with pytest.raises(ValueError, match="n = 2"):
        verify("prop4.3", 1)


def test_check_identity_at_rejects_sizes_below_first():
    # The same message as verify over an empty size range; no spurious row.
    for label, n in (("prop4.3", 0), ("prop4.3", 1), ("thm4.1", 0), ("thm1.1", 0)):
        start = identities._REGISTRY[label].start
        with pytest.raises(
            ValueError, match=f"^{re.escape(label)} applies from n = {start}; n_max = {n} selects no size$"
        ):
            check_identity_at(label, n)


def test_verify_rejects_bad_worker_count():
    for workers in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match=f"workers must be an int of at least 1, got {workers}"):
            verify("prop2.1", 3, workers=workers)


@pytest.mark.parametrize("run", [verify, check_identity_at])
@pytest.mark.parametrize("n", [5.0, True])
def test_non_int_size_rejected(run, n):
    # True compares equal to 1, and a row must not report "n": true.
    with pytest.raises(ValueError, match=f"size must be an int, got n_max = {n!r}"):
        run("prop2.1", n)


@pytest.mark.parametrize("label", IDENTITY_LABELS)
def test_check_identity_at_is_the_last_row_of_verify(label):
    n = identities._REGISTRY[label].start + 3
    check = check_identity_at(label, n)
    assert check.passed and check.n == n
    assert check == verify(label, n).checks[-1]


def test_applicable_sizes():
    assert applicable_sizes("thm1.1", 6) == [3, 4, 5, 6]
    assert applicable_sizes("thm4.1", 4) == [2, 3, 4]
    assert applicable_sizes("prop4.3", 4) == [2, 3, 4]
    assert applicable_sizes("prop2.1", 3) == [1, 2, 3]


def test_report_rows_schema():
    report = verify("thm1.1", 5)
    rows = report_rows(report)
    assert [r["n"] for r in rows] == [3, 4, 5]
    for row in rows:
        assert set(row) == {"identity", "n", "pass", "lhs", "rhs", "counterexample"}
        assert row["identity"] == "thm1.1"
        assert row["pass"] is True
        assert row["counterexample"] is None
        assert isinstance(row["lhs"], dict) and isinstance(row["rhs"], dict)


def test_json_round_trip_and_determinism():
    report = verify("prop2.1", 5)
    doc = report_json(report)
    assert doc == report_json(verify("prop2.1", 5))
    rows = json.loads(doc)
    assert all(row["pass"] for row in rows)


def test_workers_do_not_change_output():
    sequential = report_json(verify("lemma2.2", 7))
    parallel = report_json(verify("lemma2.2", 7, workers=3))
    assert sequential == parallel


def test_csv_format():
    report = verify("eo-identities", 4)
    lines = report_csv(report).strip().splitlines()
    assert lines[0] == "identity,n,key,lhs,rhs,pass"
    assert all(line.startswith("eo-identities,") for line in lines[1:])
    assert len(lines) > 1


def test_failure_rendering():
    # A hand-built failing report renders its counterexample.
    check = IdentityCheck(
        identity="demo",
        n=3,
        passed=False,
        lhs={"violations": 1},
        rhs={"violations": 0},
        counterexample="2 3 1",
    )
    report = VerificationReport("demo", 3, [check])
    assert not report.passed
    assert report.first_failure() is check
    rows = report_rows(report)
    assert rows[0]["counterexample"] == "2 3 1"
    csv_doc = report_csv(report)
    assert "demo,3,violations,1,0,False" in csv_doc


def test_thm1_1_polynomials_in_report():
    report = verify("thm1.1", 3)
    row = report_rows(report)[0]
    assert row["lhs"] == {"3": 1}
    assert row["rhs"] == {"3": 1}


def test_delete_reinsert_label_to_ten():
    # Includes the joint equidistribution with inverse-descent fibers.
    assert verify("thm5.1", 10).passed


def test_lind_and_shifted_ldes_equidistributed_to_ten():
    from signbalance321 import signed_distribution

    for n in range(1, 11):
        lhs = signed_distribution(n, "lind").counts()
        rhs = {
            d + 1: c
            for d, c in signed_distribution(n, "ldes").counts().items()
        }
        assert lhs == rhs


def _flip_some_signs(real):
    # Wrong on every value tuple that starts with 1, the identity included.
    return lambda values: -real(values) if values[0] == 1 else real(values)


def _plus_one(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def _bump_first_row(real):
    # One extra even permutation at the smallest statistic value.
    def fake(n, statistic):
        dist = real(n, statistic)
        value, (even, odd) = next(iter(dist.rows.items()))
        return SignedDistribution(
            dist.statistic, dist.n, {**dist.rows, value: (even + 1, odd)}
        )

    return fake


def _extra_constant_term(real):
    # For the bivariate (lis, ldes) polynomials.
    extra = SignedPolynomial.monomial((0, 0))
    return lambda *args, **kwargs: real(*args, **kwargs) + extra


# label -> (dependency looked up in signbalance321.identities, fault,
#           whether the claim is checked permutation by permutation).
# Sweep steps and aggregate checkers call the unchecked cores, so the faults
# go there; prop3.1 keeps the public ballot API.
_INJECTED_FAULTS = {
    "thm1.1": ("_signed_distribution", _bump_first_row, False),
    "prop2.1": ("_sign", _flip_some_signs, True),
    "lemma2.2": ("_lis", _plus_one, True),
    "prop3.1": ("delta", _plus_one, True),
    "phi-involution": ("_sign", _flip_some_signs, True),
    "eo-identities": ("_signed_distribution", _bump_first_row, False),
    "thm4.1": ("_signed_distribution", _bump_first_row, False),
    "lemma4.2-parity": ("_sign", _flip_some_signs, True),
    "prop4.3": ("_sign", _flip_some_signs, True),
    "cor4.4": ("_signed_polynomial", _extra_constant_term, False),
    "thm5.1": ("_lind", _plus_one, True),
    "srs-matching-consistency": ("_lis", _plus_one, True),
}


@pytest.mark.parametrize("label", IDENTITY_LABELS)
def test_no_check_passes_vacuously(monkeypatch, label):
    # A wrong dependency must turn the verdict: the claim fails, the failing
    # row shows unequal sides, and elementwise claims name a witness.
    name, fault, elementwise = _INJECTED_FAULTS[label]
    monkeypatch.setattr(identities, name, fault(getattr(identities, name)))
    report = verify(label, 7)
    assert not report.passed
    failure = report.first_failure()
    assert failure.lhs != failure.rhs
    if elementwise:
        assert failure.counterexample is not None


def test_thm5_1_reports_an_image_outside_t_n(monkeypatch):
    # An image with a 321 pattern is a failing row with a witness (exit 1),
    # not an invalid input (exit 2).
    real = identities._reinsert
    monkeypatch.setattr(
        identities,
        "_reinsert",
        lambda values: (4, 3, 1, 2) if values == (1, 2, 3, 4) else real(values),
    )
    failure = verify("thm5.1", 5).first_failure()
    assert failure.n == 4 and failure.counterexample is not None
    assert failure.lhs != failure.rhs
    assert cli.main(["verify", "--identity", "thm5.1", "--n-max", "5"]) == 1


# Claims checked by a sweep over T_n: verify cuts each size into fixed runs
# of the enumeration that worker processes check.
SWEEP_LABELS = (
    "prop2.1",
    "lemma2.2",
    "phi-involution",
    "lemma4.2-parity",
    "prop4.3",
    "thm5.1",
    "srs-matching-consistency",
)


def test_sweep_labels_match_registry():
    assert SWEEP_LABELS == tuple(
        label
        for label, claim in identities._REGISTRY.items()
        if isinstance(claim.checker, identities._Sweep)
    )


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_worker_count_never_changes_a_report(monkeypatch, label, faulted):
    # With a fault the merged violation counts and the first witness must
    # still match the serial report.  Worker processes are forked wherever
    # the platform can fork, so they see the patched dependency whatever the
    # default start method (see the forkserver test below).
    if faulted:
        name, fault, _elementwise = _INJECTED_FAULTS[label]
        monkeypatch.setattr(identities, name, fault(getattr(identities, name)))
    serial = report_json(verify(label, 8))
    assert ('"pass": false' in serial) == faulted
    # The pool is capped at the CPU count: run each distinct pool size once.
    cpus = os.cpu_count() or 1
    for workers in sorted({min(w, cpus) for w in (2, 3, cpus)}):
        assert report_json(verify(label, 8, workers=workers)) == serial, workers


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_slicing_never_changes_a_report(monkeypatch, label, faulted):
    # No size up to 9 is split at the default slice length, so shorter
    # slices make every size from 4 on merge many tallies, in this process
    # and across workers; the first witness must still be the serial one.
    if faulted:
        name, fault, _elementwise = _INJECTED_FAULTS[label]
        monkeypatch.setattr(identities, name, fault(getattr(identities, name)))
    serial = report_json(verify(label, 8))
    monkeypatch.setattr(identities, "_SLICE", 5)
    for workers in (1, 2):
        assert report_json(verify(label, 8, workers=workers)) == serial, workers


@pytest.mark.parametrize("label", IDENTITY_LABELS)
def test_allow_large_reaches_every_label(monkeypatch, label):
    # Past the soft ballot cap, allow_large is checked once, at verify's
    # boundary; no checker behind it may check the cap again.
    monkeypatch.setattr(enumeration, "BALLOT_SOFT_CAP", 5)
    with pytest.raises(LimitExceeded, match="pass allow_large=True"):
        verify(label, 6)
    with pytest.warns(RuntimeWarning) as warned:
        report = verify(label, 6, allow_large=True)
    assert report.passed and report.checks[-1].n == 6
    assert [w.category for w in warned] == [RuntimeWarning]
    args = ["verify", "--identity", label, "--n-max", "6", "--allow-large"]
    with pytest.warns(RuntimeWarning) as warned:
        assert cli.main(args) == 0
    assert [w.category for w in warned] == [RuntimeWarning]


@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_passing_sweep_builds_no_permutation(monkeypatch, label):
    # Steps get value tuples and call the unchecked cores; a Permutation is
    # built only at a public boundary.
    built = []
    real = Permutation.__post_init__

    def counted(self):
        built.append(self.values)
        real(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    assert verify(label, 8).passed
    assert built == []


def _swept(label, n):
    """The merged violations and counts of one whole T_n sweep."""
    return identities._run_task(label, n, (0, identities.catalan(n)))


def _finish_violations(label, n, seen):
    bad = identities._Violations()
    lhs, _rhs, witness = identities._REGISTRY[label].checker.finish(n, bad, seen)
    return lhs["violations"], witness


@pytest.mark.parametrize("wrong_at", ["w", "image"])
def test_thm5_1_step_checks_both_inverse_directions(monkeypatch, wrong_at):
    # An inverse wrong at one word is caught at the one permutation it
    # concerns: at w itself by the right-inverse (onto) clause, at the image
    # of w by the left-inverse clause.
    n = 6
    w = Permutation((2, 1, 4, 3, 6, 5))
    target = w.values if wrong_at == "w" else identities._reinsert(w.values)
    assert target != identities._reinsert(target)
    real = identities._reinsert_inverse
    monkeypatch.setattr(
        identities,
        "_reinsert_inverse",
        lambda values: values if values == target else real(values),
    )
    bad, seen = identities._Violations(), Counter()
    identities._REGISTRY["thm5.1"].checker.step(n, identities._rsk_ballots(w.values), bad, seen)
    assert (bad.count, bad.witness) == (1, str(w))


@pytest.mark.parametrize(
    "broken,violations",
    [("sends back", 1), ("keeps lis", 1), ("fixed iff", 2), ("flips sign", 1)],
)
def test_involution_check_counts_each_broken_clause(monkeypatch, broken, violations):
    # Phi moves w = 2 3 1 to 1 3 2, and w comes first in T_3.  Each fault
    # breaks one clause per visit; a core that claims to move w but leaves it
    # in place also leaves its sign.  A fault that keeps the 2-orbit breaks
    # the clause at both members, which the visit at w checks together.
    w, image = (2, 3, 1), (1, 3, 2)
    sweep = identities._REGISTRY["phi-involution"].checker
    core = fake = sweep.core
    pair = identities._rsk_ballots(w)
    if broken == "sends back":
        fake = lambda p, q: core(p, q) if (p, q) == pair else ("fixed", p, q)
    elif broken == "fixed iff":
        fake, image = (lambda p, q: ("P-side", p, q)), w
    else:
        name = "_lis" if broken == "keeps lis" else "_sign"
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda v: -real(v) if v == image else real(v))
    bad, seen = identities._Violations(), Counter()
    identities._check_involution(sweep._replace(core=fake), 3, pair, bad, seen)
    visits = 2 if fake is core else 1
    assert (bad.count, bad.witness, seen) == (violations * visits, "2 3 1", Counter())


def test_psi_step_checks_that_ldes_is_kept(monkeypatch):
    # Psi, like Phi, moves w = 2 3 1 to 1 3 2; an ldes wrong at the image
    # only breaks the one clause Psi adds to the shared ones, at w and at
    # its partner 1 3 2, which the visit at w also checks.
    real = identities._ldes
    monkeypatch.setattr(identities, "_ldes", lambda v: real(v) + (v == (1, 3, 2)))
    bad, seen = identities._Violations(), Counter()
    sweep = identities._REGISTRY["prop4.3"].checker
    identities._check_involution(sweep, 3, identities._rsk_ballots((2, 3, 1)), bad, seen)
    assert (bad.count, bad.witness) == (2, "2 3 1")


INVOLUTION_LABELS = ("phi-involution", "prop4.3")


def _oracle_visit(label, n, w, bad, seen):
    """The Phi/Psi clauses checked at one permutation, each at its own
    visit: the per-permutation step that the 2-orbit sweep replaces."""
    core = identities._REGISTRY[label].checker.core
    p, q = identities._rsk_ballots(w)
    branch, *image_pair = core(p, q)
    fixed = branch == "fixed"
    image = w if fixed else identities._values_from_ballots(*image_pair)
    bad.hit(core(*identities._rsk_ballots(image))[1:] == (p, q), w)
    bad.hit(identities._lis(image) == identities._lis(w), w)
    bad.hit(fixed == (image == w), w)
    if not fixed:
        bad.hit(identities._sign(image) == -identities._sign(w), w)
    if label == "prop4.3":
        d = identities._ldes(w)
        bad.hit(identities._ldes(image) == d, w)
        if fixed:
            seen[d] += 1
            bad.hit((identities._sign(w) == -1) == (n % 2 == 0 and d % 2 == 1), w)
    elif fixed:
        k = identities._lis(w)
        seen[k] += 1
        bad.hit(identities._sign(w) == (1 if n % 2 or k % 2 == 0 else -1), w)


def _oracle_sweep(label, n):
    bad, seen = identities._Violations(), Counter()
    for w in enumeration._iter_tn_slice(n, 0, enumeration.catalan(n)):
        _oracle_visit(label, n, w, bad, seen)
    return bad.count, bad.witness, seen


def _widest_orbit(label, n):
    """The 2-orbit (e, z), e first, whose members lie farthest apart in T_n."""
    core = identities._REGISTRY[label].checker.core
    pairs = list(enumeration._iter_tn_pairs(n, 0, enumeration.catalan(n)))
    position = {pair: i for i, pair in enumerate(pairs)}
    orbits = [
        (e, core(*e)[1:])
        for e in pairs
        if core(*e)[0] != "fixed" and position[core(*e)[1:]] > position[e]
    ]
    return max(orbits, key=lambda orbit: position[orbit[1]] - position[orbit[0]])


def _wrong_at_later_word(name, wrong):
    def apply(monkeypatch, label, e, z):
        u = identities._values_from_ballots(*z)
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda v: wrong(real(v)) if v == u else real(v))

    return apply


def _later_word_reads_back_as(pick):
    # Row insertion of the later member gives another pair; the visit at
    # the earlier member then checks the later one from that pair.
    def apply(monkeypatch, label, e, z):
        u = identities._values_from_ballots(*z)
        real = identities._rsk_ballots
        wrong = pick(identities._REGISTRY[label].checker.core, e, z)
        monkeypatch.setattr(identities, "_rsk_ballots", lambda v: wrong if v == u else real(v))

    return apply


def _with_core(monkeypatch, label, fake_for):
    claim = identities._REGISTRY[label]
    fake = fake_for(claim.checker.core)
    monkeypatch.setitem(
        identities._REGISTRY, label, claim._replace(checker=claim.checker._replace(core=fake))
    )


def _core_wrong_at_later_pair(result):
    def apply(monkeypatch, label, e, z):
        _with_core(monkeypatch, label, lambda real: lambda p, q: result(e, z) if (p, q) == z else real(p, q))

    return apply


def _identity_pair(e, z):
    # The last pair of T_n, which both maps fix.
    n = len(z[0])
    return "P-side", (1,) * n, (1,) * n


def _leaves_t_n(monkeypatch, label, e, z):
    # The later member and a pair outside T_n, its p with the first +1 and
    # the first -1 swapped (the same weight, but it starts below zero), are
    # sent to each other.
    p = list(z[0])
    minus = p.index(-1)
    p[0], p[minus] = -1, 1
    outside = (tuple(p), z[1])
    swapped = {z: ("P-side", *outside), outside: ("P-side", *z)}
    _with_core(monkeypatch, label, lambda real: lambda p, q: swapped.get((p, q)) or real(p, q))


# Faults that break only the later member of one 2-orbit, at every size.
_LATER_MEMBER_FAULTS = {
    "none": lambda monkeypatch, label, e, z: None,
    "sign": _wrong_at_later_word("_sign", lambda s: -s),
    "lis": _wrong_at_later_word("_lis", lambda k: k + 1),
    "ldes": _wrong_at_later_word("_ldes", lambda d: d + 1),
    "core calls the move fixed": _core_wrong_at_later_pair(lambda e, z: ("fixed", *e)),
    "core moves nothing": _core_wrong_at_later_pair(lambda e, z: ("P-side", *z)),
    "core is not involutive": _core_wrong_at_later_pair(_identity_pair),
    "core leaves T_n": _leaves_t_n,
    "row insertion reads a fixed pair": _later_word_reads_back_as(
        lambda core, e, z: ((1,) * len(z[0]),) * 2
    ),
    "row insertion reads another moved pair": _later_word_reads_back_as(
        lambda core, e, z: next(
            x for x in enumeration._iter_tn_pairs(len(e[0]), 0, enumeration.catalan(len(e[0])))
            if core(*x)[0] != "fixed" and not {x, core(*x)[1:]} & {e, z}
        )
    ),
}


@pytest.mark.parametrize("fault", _LATER_MEMBER_FAULTS)
@pytest.mark.parametrize("label", INVOLUTION_LABELS)
def test_2_orbit_sweep_matches_the_per_permutation_check(monkeypatch, label, fault):
    # Equal violation counts, first witness and fixed-point tallies, over
    # the whole of T_n and merged from runs of 5 pairs.
    for n in range(max(identities._REGISTRY[label].start, 3), 10):
        with monkeypatch.context() as patched:
            _LATER_MEMBER_FAULTS[fault](patched, label, *_widest_orbit(label, n))
            expected = _oracle_sweep(label, n)
            assert (expected[0] == 0) == (fault == "none" or (fault, label) == ("ldes", "phi-involution"))
            bad, seen = _swept(label, n)
            assert (bad.count, bad.witness, seen) == expected, n
            if n <= 7:
                runs = [
                    identities._run_task(label, n, (start, min(start + 5, enumeration.catalan(n))))
                    for start in range(0, enumeration.catalan(n), 5)
                ]
                bad, seen = functools.reduce(identities._merged, runs)
                assert (bad.count, bad.witness, seen) == expected, n


@pytest.mark.parametrize("label", INVOLUTION_LABELS)
def test_witness_is_the_first_failure_in_enumeration_order(monkeypatch, label):
    # The later member u of a 2-orbit fails alone: its pair reads back as a
    # pair that the core sends to its partner's, so only u's sends-back
    # clause breaks.  The sweep checks u when it reaches u's partner, before
    # the permutations between the two, and one of those, x, fails too: the
    # report must name x, for any worker count and slice length.
    n = 8
    core = identities._REGISTRY[label].checker.core
    e, z = _widest_orbit(label, n)
    pairs = list(enumeration._iter_tn_pairs(n, 0, enumeration.catalan(n)))
    between = pairs[pairs.index(e) + 1:pairs.index(z)]
    # A fixed point or an earlier member, so that no failure precedes x, and
    # the last one, so that runs of 5 put it in another run than e.
    x_pair = next(
        pair for pair in reversed(between)
        if core(*pair)[0] == "fixed" or pairs.index(core(*pair)[1:]) > pairs.index(pair)
    )
    assert pairs.index(x_pair) // 5 > pairs.index(e) // 5
    u = identities._values_from_ballots(*z)
    x = identities._values_from_ballots(*x_pair)
    read_back = ((0,), (0,))
    real_rsk = identities._rsk_ballots
    monkeypatch.setattr(identities, "_rsk_ballots", lambda v: read_back if v == u else real_rsk(v))
    _with_core(monkeypatch, label, lambda real: lambda p, q: ("P-side", *e) if (p, q) == read_back else real(p, q))
    assert verify(label, n).first_failure().counterexample == " ".join(map(str, u))
    real_sign = identities._sign
    monkeypatch.setattr(identities, "_sign", lambda v: -real_sign(v) if v == x else real_sign(v))
    serial = report_json(verify(label, n))
    assert verify(label, n).first_failure().counterexample == " ".join(map(str, x))
    for slice_length in (identities._SLICE, 5):
        monkeypatch.setattr(identities, "_SLICE", slice_length)
        for workers in (1, 2):
            assert report_json(verify(label, n, workers=workers)) == serial, (slice_length, workers)


@pytest.mark.parametrize("label,checks", [("phi-involution", 8412), ("prop4.3", 8440)])
def test_each_2_orbit_is_checked_once(monkeypatch, label, checks):
    # One full check per fixed point and per 2-orbit, each with one row
    # insertion, against Catalan(10) = 16796 visits before; every pair is
    # decoded once, a later member with its partner and never at its own
    # visit.
    n = 10
    inserted, decoded = [], []
    real_rsk, real_decode = identities._rsk_ballots, identities._values_from_ballots
    monkeypatch.setattr(identities, "_rsk_ballots", lambda v: inserted.append(v) or real_rsk(v))
    monkeypatch.setattr(
        identities, "_values_from_ballots", lambda p, q: decoded.append((p, q)) or real_decode(p, q)
    )
    bad, seen = _swept(label, n)
    fixed = sum(seen.values())
    assert bad.count == 0
    assert len(inserted) == fixed + (enumeration.catalan(n) - fixed) // 2 == checks
    assert sorted(decoded) == sorted(enumeration._iter_tn_pairs(n, 0, enumeration.catalan(n)))


@pytest.mark.parametrize(
    "label,decodes,insertions",
    [
        ("prop2.1", 16796, 16796),
        ("lemma2.2", 16796, 0),
        ("lemma4.2-parity", 110, 0),
        ("thm5.1", 16796, 0),
        ("srs-matching-consistency", 16796, 0),
    ],
)
def test_each_step_decodes_only_what_its_clauses_read(monkeypatch, label, decodes, insertions):
    # Every step gets the ballot pair: lemma4.2-parity decodes only the pairs
    # its clauses cover, and only prop2.1 row-inserts, once per pair, for
    # its round-trip clause.
    n = 10
    inserted, decoded = [], []
    real_rsk, real_decode = identities._rsk_ballots, identities._values_from_ballots
    monkeypatch.setattr(identities, "_rsk_ballots", lambda v: inserted.append(v) or real_rsk(v))
    monkeypatch.setattr(
        identities, "_values_from_ballots", lambda p, q: decoded.append((p, q)) or real_decode(p, q)
    )
    bad, _seen = _swept(label, n)
    assert bad.count == 0
    assert (len(decoded), len(inserted)) == (decodes, insertions)
    assert len(set(decoded)) == len(decoded)


@pytest.mark.parametrize("label", ["prop2.1", "srs-matching-consistency"])
def test_a_wrong_decode_is_caught(monkeypatch, label):
    # At one pair e of T_6 the decode returns the word of another pair, of
    # the same sign, so only clauses that read e itself can see it: prop2.1's
    # round trip and srs-matching-consistency's second rows.
    n = 6
    pairs = list(enumeration._iter_tn_pairs(n, 0, enumeration.catalan(n)))
    real = identities._values_from_ballots
    e = pairs[len(pairs) // 2]
    word = next(
        real(*z) for z in pairs
        if z[0] != e[0] and z[1] != e[1] and identities._sign(real(*z)) == identities._sign(real(*e))
    )
    monkeypatch.setattr(
        identities, "_values_from_ballots", lambda p, q: word if (p, q) == e else real(p, q)
    )
    for workers in (1, 2):
        failure = verify(label, n, workers=workers).first_failure()
        assert failure.n == n and failure.lhs["violations"] >= 1, workers
        assert failure.counterexample == " ".join(map(str, word)), workers


@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_witness_does_not_depend_on_visit_order(monkeypatch, label):
    # Every step hit names its pair, so a walk of T_n backwards, or in any
    # order a sampler draws the pairs in, names the same first failure.
    name, fault, _elementwise = _INJECTED_FAULTS[label]
    monkeypatch.setattr(identities, name, fault(getattr(identities, name)))
    n = 7
    checker = identities._REGISTRY[label].checker
    visit = checker.step if checker.core is None else functools.partial(identities._check_involution, checker)
    pairs = list(enumeration._iter_tn_pairs(n, 0, enumeration.catalan(n)))
    runs = []
    for order in (pairs, pairs[::-1]):
        bad, seen = identities._Violations(), Counter()
        for e in order:
            visit(n, e, bad, seen)
        runs.append((bad.count, bad.witness, seen))
    assert runs[0] == runs[1] and runs[0][0] > 0


def test_thm5_1_sweep_keeps_only_fiber_counts():
    # At most one key per (statistic, inverse-descent trace below n - 1,
    # value): the counts do not grow with Catalan(n).
    n = 8
    bad, seen = _swept("thm5.1", n)
    assert bad.count == 0
    assert {key[0] for key in seen} == {"lind", "ldes"}
    assert len(seen) <= 2 * 2 ** (n - 2) * n


def test_thm5_1_finish_compares_fibers():
    n = 6
    bad, seen = _swept("thm5.1", n)
    assert bad.count == 0
    assert _finish_violations("thm5.1", n, seen.copy()) == (0, None)
    # One fiber count off by one.
    off = seen.copy()
    off[next(key for key in off if key[0] == "lind")] += 1
    count, witness = _finish_violations("thm5.1", n, off)
    assert count >= 1 and witness == "joint fiber distributions differ"


def test_prop4_3_finish_pairs_fixed_counts_at_even_n():
    n = 6
    bad, seen = _swept("prop4.3", n)
    assert bad.count == 0 and seen[0] == seen[1] > 0
    assert _finish_violations("prop4.3", n, seen.copy()) == (0, None)
    unpaired = seen.copy()
    unpaired[0] += 1
    count, witness = _finish_violations("prop4.3", n, unpaired)
    assert count >= 1
    assert witness == "fixed-point counts at descents 0 and 1 differ"


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    # Asking for more workers than CPUs starts at most one process per CPU.
    cpus = os.cpu_count() or 1
    real = identities.ProcessPoolExecutor
    asked = []

    def bounded(max_workers, **kwargs):
        asked.append(max_workers)
        if max_workers > cpus:
            raise AssertionError(f"{max_workers} worker processes on {cpus} CPUs")
        return real(max_workers, **kwargs)

    monkeypatch.setattr(identities, "ProcessPoolExecutor", bounded)
    serial = report_json(verify("prop2.1", 9))
    assert report_json(verify("prop2.1", 9, workers=cpus + 3)) == serial
    assert len(asked) == (1 if cpus > 1 else 0)


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="the forkserver start method is not available",
)
def test_workers_see_patched_dependency_under_forkserver_default(monkeypatch):
    # forkserver workers re-import the package and would miss the fault.
    name, fault, _elementwise = _INJECTED_FAULTS["prop4.3"]
    monkeypatch.setattr(identities, name, fault(getattr(identities, name)))
    serial = report_json(verify("prop4.3", 8))
    assert '"pass": false' in serial
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        assert report_json(verify("prop4.3", 8, workers=2)) == serial
    finally:
        multiprocessing.set_start_method(default, force=True)


def test_largest_size_split_across_workers_matches_serial():
    assert report_json(verify("prop4.3", 11, workers=2)) == report_json(
        verify("prop4.3", 11)
    )
