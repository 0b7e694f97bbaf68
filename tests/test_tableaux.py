"""Two-row tableaux, row insertion, and the ballot dictionary."""
import pytest

from signbalance321 import (
    MalformedPair,
    MalformedTableau,
    Permutation,
    TableauPair,
    ThirdRowRequired,
    TwoRowTableau,
    ballot_to_tableau,
    delta,
    descent_set,
    generate_Tn_ballot,
    generate_ballot_sequences,
    identity,
    inverse,
    inverse_rsk,
    ldes,
    lis_oracle,
    parse_ballot,
    parse_permutation,
    parse_tableau,
    rsk,
    tableau_to_ballot,
)
from itertools import permutations as sym_group

FIG = parse_permutation("4 1 2 5 7 8 3 6 9 12 10 11")
FIG_P = TwoRowTableau((1, 2, 3, 6, 8, 9, 10, 11), (4, 5, 7, 12))
FIG_Q = TwoRowTableau((1, 3, 4, 5, 6, 9, 10, 12), (2, 7, 8, 11))


class TestTwoRowTableau:
    def test_valid(self):
        t = TwoRowTableau((1, 3), (2,))
        assert t.n == 3
        assert t.shape == (2, 1)
        assert TwoRowTableau(()).n == 0

    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 2), (2,)),       # duplicate letter
            ((1, 4), (2,)),       # gap
            ((2, 1, 3), ()),      # row not increasing
            ((1,), (2, 3)),       # second row longer
            ((2, 3), (1,)),       # column decreases
        ],
    )
    def test_invalid(self, rows):
        with pytest.raises(MalformedTableau):
            TwoRowTableau(*rows)

    @pytest.mark.parametrize(
        "rows", [((1.0, 2.0), (3.0,)), ((1, 2), (3.0,)), ((True,), ())]
    )
    def test_non_integer_entries_rejected(self, rows):
        with pytest.raises(MalformedTableau):
            TwoRowTableau(*rows)

    def test_pair_shape_checked(self):
        with pytest.raises(MalformedPair):
            TableauPair(TwoRowTableau((1, 2, 3)), TwoRowTableau((1, 3), (2,)))

    def test_text_round_trip(self):
        assert parse_tableau("1 3\n2") == TwoRowTableau((1, 3), (2,))
        assert parse_tableau("1 2 3") == TwoRowTableau((1, 2, 3))
        assert parse_tableau("1 2 3\n") == TwoRowTableau((1, 2, 3))
        assert parse_tableau(str(FIG_P)) == FIG_P
        with pytest.raises(MalformedTableau):
            parse_tableau("1\n2\n3")


class TestRsk:
    def test_figure_pair(self):
        pair = rsk(FIG)
        assert pair.insertion == FIG_P
        assert pair.recording == FIG_Q

    def test_identity(self):
        pair = rsk(identity(3))
        assert pair.insertion == pair.recording == TwoRowTableau((1, 2, 3))

    def test_hand_trace(self):
        pair = rsk(Permutation((2, 3, 1)))
        assert pair.insertion == TwoRowTableau((1, 3), (2,))
        assert pair.recording == TwoRowTableau((1, 2), (3,))

    def test_third_row_refused(self):
        # 2 bumps 3 into the second row, then 1 bumps 2 below it.
        message = (
            "letter 2 bumped below an occupied second-row cell; "
            "the word contains a decreasing subsequence of length three"
        )
        with pytest.raises(ThirdRowRequired, match=f"^{message}$"):
            rsk(Permutation((3, 2, 1)))

    def test_refusal_matches_avoidance(self):
        from signbalance321 import is_321_avoiding

        for n in range(8):
            for values in sym_group(range(1, n + 1)):
                w = Permutation(values)
                if is_321_avoiding(w):
                    rsk(w)
                else:
                    with pytest.raises(ThirdRowRequired):
                        rsk(w)


class TestInverseRsk:
    def test_single_row(self):
        pair = TableauPair(TwoRowTableau((1, 2, 3, 4)), TwoRowTableau((1, 2, 3, 4)))
        assert inverse_rsk(pair) == identity(4)

    def test_hand_examples(self):
        pair = TableauPair(
            TwoRowTableau((1, 3), (2,)), TwoRowTableau((1, 2), (3,))
        )
        assert inverse_rsk(pair) == Permutation((2, 3, 1))
        pair = TableauPair(
            TwoRowTableau((1, 2, 3), (4, 5)), TwoRowTableau((1, 2, 5), (3, 4))
        )
        assert inverse_rsk(pair) == Permutation((4, 5, 1, 2, 3))

    def test_round_trip_and_row_lengths(self):
        for n in range(10):
            for w in generate_Tn_ballot(n):
                pair = rsk(w)
                assert inverse_rsk(pair) == w
                assert len(pair.insertion.row1) == lis_oracle(w)

    def test_symmetry_under_inverse(self):
        # The pair of the inverse permutation is the swapped pair.
        for n in range(10):
            for w in generate_Tn_ballot(n):
                pair = rsk(w)
                swapped = rsk(inverse(w))
                assert swapped.insertion == pair.recording
                assert swapped.recording == pair.insertion


class TestBallotDictionary:
    def test_examples(self):
        assert str(tableau_to_ballot(FIG_P)) == "+++--+-++++-"
        assert str(tableau_to_ballot(FIG_Q)) == "+-++++--++-+"
        assert str(tableau_to_ballot(TwoRowTableau((1, 2, 3, 4)))) == "++++"

    def test_ballot_to_tableau(self):
        assert ballot_to_tableau(parse_ballot("+++++")) == TwoRowTableau((1, 2, 3, 4, 5))
        assert ballot_to_tableau(parse_ballot("+++--")) == TwoRowTableau((1, 2, 3), (4, 5))
        assert ballot_to_tableau(parse_ballot("+-+-+")) == TwoRowTableau((1, 3, 5), (2, 4))

    def test_round_trips(self):
        for n in range(11):
            for b in generate_ballot_sequences(n):
                t = ballot_to_tableau(b)
                assert tableau_to_ballot(t) == b


class TestRecordingReaders:
    def test_examples(self):
        assert delta(tableau_to_ballot(FIG_Q)) == 10
        assert delta(tableau_to_ballot(TwoRowTableau((1, 2, 3)))) == 0
        assert delta(tableau_to_ballot(TwoRowTableau((1, 2), (3,)))) == 2

    def test_descents_read_from_recording(self):
        for n in range(1, 10):
            for w in generate_Tn_ballot(n):
                q = rsk(w).recording
                in_row2 = set(q.row2)
                expected = tuple(i for i in q.row1 if i + 1 in in_row2)
                assert descent_set(w) == expected
                assert delta(tableau_to_ballot(q)) == ldes(w)
