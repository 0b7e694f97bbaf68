"""Ballot sequences: statistics, classes, and the two local moves."""
import pytest

from signbalance321 import (
    BallotClassTag,
    BallotSequence,
    NotBallot,
    NotInDomain,
    ballot_number,
    ballot_sign,
    classify,
    delta,
    epsilon,
    generate_ballot_sequences,
    ones_count,
    parse_ballot,
    phi,
    psi,
    psi_inverse,
)

FIG_P = "+++--+-++++-"
FIG_Q = "+-++++--++-+"


class TestConstruction:
    def test_parse_and_str(self):
        b = parse_ballot(FIG_P)
        assert str(b) == FIG_P
        assert b.n == 12 == len(b)
        assert tuple(b) == b.entries
        assert parse_ballot("").n == 0

    def test_entries_validated(self):
        with pytest.raises(NotBallot):
            BallotSequence((1, 0))
        with pytest.raises(NotBallot):
            BallotSequence((-1,))
        with pytest.raises(NotBallot):
            parse_ballot("+--")

    @pytest.mark.parametrize("bad", [(1.0, -1.0), (True,), (1, True, -1)])
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(NotBallot):
            BallotSequence(bad)

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            parse_ballot("+x-")


class TestStatistics:
    def test_ones_count(self):
        assert ones_count(parse_ballot("+++++")) == 5
        assert ones_count(parse_ballot(FIG_P)) == 8
        assert ones_count(parse_ballot("+-+")) == 2

    def test_sign(self):
        assert ballot_sign(parse_ballot("+++")) == 1
        assert ballot_sign(parse_ballot("+-+")) == 1
        assert ballot_sign(parse_ballot("++-")) == -1

    def test_epsilon(self):
        assert epsilon(parse_ballot("++++")) == 0
        assert epsilon(parse_ballot("+-+")) == 2
        assert epsilon(parse_ballot(FIG_P)) == 6

    def test_delta(self):
        assert delta(parse_ballot("+++")) == 0
        assert delta(parse_ballot("+-")) == 1
        assert delta(parse_ballot(FIG_Q)) == 10
        # greatest +/- adjacency of the insertion-side string sits at 11
        assert delta(parse_ballot(FIG_P)) == 11


class TestClassify:
    def test_examples(self):
        c = classify(parse_ballot("+++--"))
        assert c.tag is BallotClassTag.A_STAR and not c.ends_plus
        assert c.label == "A*"
        c = classify(parse_ballot("+-+-+"))
        assert c.tag is BallotClassTag.B_STAR and c.ends_plus
        assert c.label == "B*+"
        assert classify(parse_ballot(FIG_P)).tag is BallotClassTag.B
        c = classify(parse_ballot("++--+"))
        assert c.tag is BallotClassTag.B_TIMES
        assert c.label == "Bx"

    def test_b_star_without_final_plus(self):
        # epsilon = 2, delta = 3, ends with -1
        c = classify(parse_ballot("+-+-"))
        assert c.tag is BallotClassTag.B_STAR and not c.ends_plus
        assert c.label == "B*"

    def test_classes_partition(self):
        for n in range(11):
            for b in generate_ballot_sequences(n):
                c = classify(b)
                e, d = epsilon(b), delta(b)
                if c.tag is BallotClassTag.A_STAR:
                    assert e == 0
                elif c.tag is BallotClassTag.B:
                    assert 0 < e < d - 1
                elif c.tag is BallotClassTag.B_STAR:
                    assert e == d - 1 > 0
                else:
                    assert e >= d and e > 0

    def test_a_star_characterization(self):
        # epsilon-free means every even position equals its successor.
        for n in range(12):
            for b in generate_ballot_sequences(n):
                pairwise = all(
                    b.entries[i - 1] == b.entries[i] for i in range(2, n, 2)
                )
                assert (epsilon(b) == 0) == pairwise

    def test_delta_one_in_a_star_only_at_length_two(self):
        hits = []
        for n in range(12):
            for b in generate_ballot_sequences(n):
                if epsilon(b) == 0 and delta(b) == 1:
                    hits.append(str(b))
        assert hits == ["+-"]


class TestGeneration:
    def test_counts_match_ballot_numbers(self):
        for n in range(11):
            for k in range(n + 1):
                count = sum(1 for _ in generate_ballot_sequences(n, k))
                assert count == ballot_number(n, k)

    def test_lexicographic(self):
        seqs = [tuple(b.entries) for b in generate_ballot_sequences(5)]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))

    def test_negative_size_rejected(self):
        for n in (-1, -5):
            with pytest.raises(ValueError, match=f"size must be nonnegative, got n = {n}"):
                list(generate_ballot_sequences(n))

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_non_int_size_rejected(self, n):
        # No ballot length is 2.5, and 3.0 and True compare equal to 3 and 1.
        with pytest.raises(ValueError, match=f"size must be an int, got n = {n!r}"):
            list(generate_ballot_sequences(n))

    @pytest.mark.parametrize("ones", [2.5, True])
    def test_non_int_ones_rejected(self, ones):
        # A float count would match sequences of two different weights.
        with pytest.raises(ValueError, match=f"ones must be None or an int, got {ones!r}"):
            list(generate_ballot_sequences(4, ones))


class TestPhi:
    def test_examples(self):
        assert str(phi(parse_ballot("+-+"))) == "++-"
        assert str(phi(parse_ballot(FIG_P))) == "+++---+++++-"
        with pytest.raises(NotInDomain):
            phi(parse_ballot("++++"))

    def test_involution_properties_exhaustive(self):
        for n in range(13):
            for b in generate_ballot_sequences(n):
                if epsilon(b) == 0:
                    continue
                c = phi(b)
                assert phi(c) == b
                assert ballot_sign(c) == -ballot_sign(b)
                assert ones_count(c) == ones_count(b)
                assert epsilon(c) == epsilon(b)


class TestPsi:
    def test_examples(self):
        assert str(psi(parse_ballot("+++--"), 3)) == "+-+-+"
        assert str(psi_inverse(parse_ballot("+-+-+"), 3)) == "+++--"
        with pytest.raises(NotInDomain):
            psi(parse_ballot("+-+"), 1)

    @pytest.mark.parametrize("text,d", [("+-", 1), ("+++", 0)])
    def test_target_descent_must_be_odd_and_at_least_three(self, text, d):
        # Class A* with delta = d, so only the descent guard can reject it.
        with pytest.raises(NotInDomain, match=f"odd target descent >= 3, got {d}"):
            psi(parse_ballot(text), d)

    def test_inverse_rejects_a_delta_mismatch(self):
        with pytest.raises(NotInDomain, match="delta = 1, got 3"):
            psi_inverse(parse_ballot("+-+-+"), 1)

    def test_domain_guards(self):
        with pytest.raises(NotInDomain):
            psi(parse_ballot("+-+-+"), 3)  # class B*, not A*
        with pytest.raises(NotInDomain):
            psi(parse_ballot("+++--"), 5)  # delta mismatch
        with pytest.raises(NotInDomain):
            # One -1 entry, at d + 1 = n: rejected by the parity guard, which
            # is all that keeps a -1 beyond d + 1 (see the round trip below).
            psi(parse_ballot("+++-"), 3)
        with pytest.raises(NotInDomain):
            psi(parse_ballot("+++---"), 3)  # odd number of -1 entries
        with pytest.raises(NotInDomain):
            psi_inverse(parse_ballot("+++--"), 3)  # class A*, not B*
        with pytest.raises(NotInDomain):
            psi_inverse(parse_ballot("+-+-"), 3)  # no +1 beyond position d

    def test_round_trip_and_sign_reversal_exhaustive(self):
        # Every epsilon-free sequence with odd delta >= 3 and an even number
        # of -1 entries, all lengths <= 14.  Each has a -1 beyond delta + 1,
        # so psi needs no guard for that beyond its parity guard.
        checked = 0
        for n in range(15):
            for b in generate_ballot_sequences(n):
                d = delta(b)
                if epsilon(b) != 0 or d < 3 or d % 2 == 0:
                    continue
                if (n - ones_count(b)) % 2:
                    continue
                assert -1 in b.entries[d + 1:], str(b)
                image = psi(b, d)
                cls = classify(image)
                assert cls.tag is BallotClassTag.B_STAR and cls.ends_plus
                assert delta(image) == d
                assert ballot_sign(image) == -ballot_sign(b)
                assert ones_count(image) == ones_count(b)
                assert psi_inverse(image, d) == b
                checked += 1
        # exhaustive domain size up to length 14
        assert checked == 72
