"""Generators, closed-form counts, and signed distributions/polynomials."""
import pytest

from signbalance321 import (
    LimitExceeded,
    SignedPolynomial,
    a_star_count,
    ballot_number,
    catalan,
    epsilon,
    generate_Tn_ballot,
    generate_Tn_filter,
    generate_ballot_sequences,
    signed_distribution,
    signed_polynomial,
)
from signbalance321 import enumeration
from signbalance321.ballots import _iter_ballot_tuples
from signbalance321.enumeration import _iter_tn_slice, _joint_rows, _signed_distribution
from signbalance321.permutations import _ldes, _lis, _sign
from signbalance321.tableaux import _values_from_ballots


class TestBallotNumber:
    def test_examples(self):
        assert ballot_number(4, 2) == 2
        assert ballot_number(4, 3) == 3
        assert ballot_number(4, 4) == 1
        assert ballot_number(3, 1) == 0
        assert all(ballot_number(n, n) == 1 for n in range(13))

    def test_out_of_range(self):
        assert ballot_number(4, 5) == 0
        assert ballot_number(4, -1) == 0
        assert ballot_number(-1, -1) == 0

    def test_matches_enumeration(self):
        for n in range(11):
            for k in range(n + 2):
                count = sum(1 for _ in generate_ballot_sequences(n, k))
                assert ballot_number(n, k) == count


class TestCatalan:
    def test_examples(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(4) == 14
        assert catalan(4) == sum(ballot_number(4, k) ** 2 for k in range(5))

    def test_squares_sum(self):
        for n in range(14):
            assert catalan(n) == sum(ballot_number(n, k) ** 2 for k in range(n + 1))


class TestAStarCount:
    def test_matches_enumeration(self):
        for n in range(12):
            for k in range(n + 1):
                observed = sum(
                    1
                    for b in generate_ballot_sequences(n, k)
                    if epsilon(b) == 0
                )
                assert a_star_count(n, k) == observed, (n, k)

    def test_examples(self):
        assert a_star_count(2, 1) == 1
        assert a_star_count(2, 2) == 1
        assert a_star_count(5, 3) == ballot_number(2, 1) == 1
        assert a_star_count(5, 2) == 0


class TestGenerators:
    def test_filter_order_and_content(self):
        perms = [w.values for w in generate_Tn_filter(3)]
        assert perms == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]

    def test_filter_empty_size(self):
        assert [w.values for w in generate_Tn_filter(0)] == [()]

    def test_ballot_generator_order(self):
        perms = [str(w) for w in generate_Tn_ballot(3)]
        assert perms == ["2 1 3", "2 3 1", "3 1 2", "1 3 2", "1 2 3"]

    def test_agreement(self):
        for n in range(8):
            a = {w.values for w in generate_Tn_filter(n)}
            b = [w.values for w in generate_Tn_ballot(n)]
            assert len(b) == len(set(b)) == catalan(n)
            assert a == set(b)

    def test_caps(self):
        with pytest.raises(LimitExceeded):
            next(generate_Tn_filter(10))
        with pytest.raises(LimitExceeded):
            next(generate_Tn_ballot(15))
        with pytest.raises(LimitExceeded):
            next(generate_Tn_ballot(17, allow_large=True))

    def test_negative_size_rejected(self):
        for gen in (generate_Tn_ballot, generate_Tn_filter):
            with pytest.raises(ValueError, match="nonnegative"):
                next(gen(-1))

    def test_override_warns(self):
        with pytest.warns(RuntimeWarning):
            gen = generate_Tn_ballot(15, allow_large=True)
            next(gen)

    def test_filter_override_warns(self, monkeypatch):
        monkeypatch.setattr(enumeration, "FILTER_CAP", 3)
        with pytest.raises(LimitExceeded, match="filter generator capped at n = 3"):
            next(generate_Tn_filter(4))
        with pytest.warns(RuntimeWarning, match="filtering all 4! permutations"):
            assert len(list(generate_Tn_filter(4, allow_large=True))) == catalan(4)

    @pytest.mark.parametrize("gen", [generate_Tn_ballot, generate_Tn_filter])
    @pytest.mark.parametrize("n", [3.0, True])
    def test_non_int_size_rejected(self, gen, n):
        with pytest.raises(ValueError, match=f"size must be an int, got n = {n!r}"):
            next(gen(n))

    def test_slices_partition_enumeration(self):
        # The whole enumeration is catalan(n) distinct words in ballot-pair
        # order: weight ascending, insertion side outer, recording side
        # inner.  Runs of any fixed length concatenated in order are the
        # whole enumeration, none is empty, and each yields exactly
        # stop - start words.
        for n in range(11):
            whole = list(_iter_tn_slice(n, 0, catalan(n)))
            assert len(set(whole)) == len(whole) == catalan(n)
            sides = [list(_iter_ballot_tuples(n, k)) for k in range(n + 1)]
            assert whole == [
                _values_from_ballots(p, q) for side in sides for p in side for q in side
            ]
            assert whole == [w.values for w in generate_Tn_ballot(n)]
            for length in (1, 2, 3, 7, 100, 4096, catalan(n) + 1):
                bounds = [
                    (start, min(start + length, catalan(n)))
                    for start in range(0, catalan(n), length)
                ]
                runs = [list(_iter_tn_slice(n, *b)) for b in bounds]
                assert [v for run in runs for v in run] == whole
                for run, (start, stop) in zip(runs, bounds):
                    assert len(run) == stop - start > 0


def _word_sweep_rows(n):
    """The oracle for ``_joint_rows``: sorted (lis, ldes, lind, sign, count)
    rows from a sweep of T_n, each statistic computed from the permutation
    word (lis by dynamic programming, the sign by inversion count)."""
    acc = {}
    for values in _iter_tn_slice(n, 0, catalan(n)):
        key = (_lis(values), _ldes(values), values.index(n) + 1 if n else 0, _sign(values))
        acc[key] = acc.get(key, 0) + 1
    return tuple(sorted((k, d, l, s, c) for (k, d, l, s), c in acc.items()))


class TestJointRows:
    @pytest.mark.parametrize("n", range(13))
    def test_engine_matches_word_sweep(self, n):
        assert _joint_rows(n) == _word_sweep_rows(n)

    # Past the public cap of 16, against closed forms that do not read the
    # engine; _signed_distribution folds the rows without a size cap.
    LARGE = range(1, 41)

    def test_lis_marginal(self):
        for n in self.LARGE:
            assert _signed_distribution(n, "lis").counts() == {
                k: ballot_number(n, k) ** 2 for k in range((n + 1) // 2, n + 1)
            }, n

    def test_ldes_marginal(self):
        for n in self.LARGE:
            assert _signed_distribution(n, "ldes").counts() == {
                d: ballot_number(n + d - 1, n - 1) for d in range(n)
            }, n

    def test_total(self):
        for n in self.LARGE:
            assert sum(row[4] for row in _joint_rows(n)) == catalan(n), n

    def test_simion_schmidt_balance(self):
        # Even minus odd: 0 for even n, C_((n - 1) / 2) for odd n.
        for n in self.LARGE:
            balance = sum(row[3] * row[4] for row in _joint_rows(n))
            assert balance == (catalan((n - 1) // 2) if n % 2 else 0), n

    def test_signed_lind_is_signed_ldes_plus_one_up_to_sign(self):
        # Thm 5.1's sign statement with its factor (-1)^(n - 1), from the
        # engine and, for n <= 9, from the words of T_n.
        for n in self.LARGE:
            ldes = _signed_distribution(n, "ldes").signed()
            assert _signed_distribution(n, "lind").signed() == {
                d + 1: (-1) ** (n - 1) * c for d, c in ldes.items()
            }, n
        for n in range(1, 10):
            signed = {}
            for _k, d, lind, s, c in _word_sweep_rows(n):
                signed[lind] = signed.get(lind, 0) + s * c
                signed[d + 1] = signed.get(d + 1, 0) - (-1) ** (n - 1) * s * c
            assert not any(signed.values()), n


class TestSignedDistribution:
    def test_lis_examples(self):
        dist = signed_distribution(3, "lis")
        assert dist.rows == {2: (2, 2), 3: (1, 0)}
        assert dist.signed() == {3: 1}
        dist = signed_distribution(4, "lis")
        assert dist.signed() == {3: -1, 4: 1}

    def test_ldes_example(self):
        dist = signed_distribution(2, "ldes")
        assert dist.rows == {0: (1, 0), 1: (0, 1)}

    def test_totals(self):
        for n in range(10):
            for stat in ("lis", "ldes"):
                assert signed_distribution(n, stat).total() == catalan(n)

    def test_lis_counts_are_squared_ballot_numbers(self):
        for n in range(1, 10):
            counts = signed_distribution(n, "lis").counts()
            for k in range(1, n + 1):
                assert counts.get(k, 0) == ballot_number(n, k) ** 2

    def test_ldes_counts(self):
        for n in range(1, 10):
            counts = signed_distribution(n, "ldes").counts()
            for d in range(n):
                assert counts.get(d, 0) == ballot_number(n + d - 1, n - 1)

    def test_guards(self):
        with pytest.raises(ValueError):
            signed_distribution(3, "descents")
        with pytest.raises(ValueError):
            signed_distribution(0, "lind")
        with pytest.raises(LimitExceeded):
            signed_distribution(15, "lis")
        for stat in ("lis", "ldes", "lind"):
            with pytest.raises(ValueError, match="nonnegative"):
                signed_distribution(-1, stat)
            with pytest.raises(ValueError, match="size must be an int, got n = 5.0"):
                signed_distribution(5.0, stat)


class TestSignedPolynomial:
    def test_arithmetic(self):
        p = SignedPolynomial.from_terms({(0,): 1, (1,): -1})
        q = SignedPolynomial.from_terms({(1,): 1})
        assert (p + q).coefficients == {(0,): 1}
        assert (p - p).is_zero()
        assert (p * q).coefficients == {(1,): 1, (2,): -1}
        assert (2 * q).coefficients == {(1,): 2}
        assert q.shift(2).coefficients == {(3,): 1}

    def test_zero_dropped(self):
        assert SignedPolynomial.from_terms({(1,): 0}).is_zero()

    def test_as_map(self):
        p = SignedPolynomial.from_terms({(3, 0): 1, (1, 2): -2})
        assert p.as_map() == {"1,2": -2, "3,0": 1}

    def test_lis_polynomial_example(self):
        assert signed_polynomial(3, "lis").coefficients == {(3,): 1}

    def test_ldes_polynomial_example(self):
        assert signed_polynomial(5, "ldes").coefficients == {(0,): 1, (2,): 1}

    def test_bivariate_with_parity_filters(self):
        # Size 2, ldes even and lis even, shifted by one in the first slot.
        poly = signed_polynomial(2, ("lis", "ldes"), lis_parity=0, ldes_parity=0)
        assert poly.shift(1, 0).coefficients == {(3, 0): 1}
        star = signed_polynomial(2, ("lis", "ldes"), lis_parity=1, ldes_parity=0)
        assert star.is_zero()

    def test_parity_filters_reject_other_values(self):
        # Any other value would match no row and give a silent zero polynomial.
        # True and 1.0 compare equal to 1, so only a type check tells them apart.
        cases = (
            {"lis_parity": 2}, {"ldes_parity": "0"}, {"lis_parity": -1},
            {"lis_parity": True}, {"lis_parity": 1.0}, {"ldes_parity": False},
        )
        for kwargs in cases:
            name, value = next(iter(kwargs.items()))
            with pytest.raises(ValueError, match=f"{name} must be None, 0 or 1, got {value!r}"):
                signed_polynomial(4, ("lis", "ldes"), **kwargs)

    def test_guards(self):
        with pytest.raises(ValueError):
            signed_polynomial(3, "lind")
        with pytest.raises(ValueError):
            signed_polynomial(3, ("ldes", "lis"))
        for statistics in ("lis", "ldes", ("lis", "ldes")):
            with pytest.raises(ValueError, match="nonnegative"):
                signed_polynomial(-2, statistics)
