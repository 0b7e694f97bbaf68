"""Randomized cross-checks with independent oracles."""
from hypothesis import given, settings
from hypothesis import strategies as st

from signbalance321 import (
    BallotSequence,
    Permutation,
    inverse,
    inversion_count,
    is_321_avoiding,
    lis_oracle,
    parse_ballot,
    parse_permutation,
    rsk,
    inverse_rsk,
    sign_by_inversions,
    tableau_to_ballot,
)
from signbalance321.enumeration import _sides
from signbalance321.tableaux import _values_from_ballots


@st.composite
def permutations_st(draw, max_size=40):
    n = draw(st.integers(min_value=0, max_value=max_size))
    values = draw(st.permutations(tuple(range(1, n + 1))))
    return Permutation(tuple(values))


@st.composite
def ballots_st(draw, max_size=40):
    # Repair a raw coin-flip list into a valid ballot: any step that would
    # drive the prefix sum negative is flipped to +1.
    bits = draw(st.lists(st.booleans(), max_size=max_size))
    entries = []
    total = 0
    for bit in bits:
        e = 1 if bit or total == 0 else -1
        entries.append(e)
        total += e
    return BallotSequence(tuple(entries))


@st.composite
def ballot_pairs_st(draw, max_size=16):
    # Two independent ballot tuples of one length n and one weight k: the
    # same-shape pairs that encode the 321-avoiding permutations of size n.
    n = draw(st.integers(min_value=0, max_value=max_size))
    side = _sides(n, draw(st.integers(min_value=(n + 1) // 2, max_value=n)))
    return draw(st.sampled_from(side)), draw(st.sampled_from(side))


def cycle_count(values):
    seen = [False] * len(values)
    cycles = 0
    for i in range(len(values)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = values[j] - 1
    return cycles


@given(permutations_st())
def test_permutation_text_round_trip(w):
    assert parse_permutation(str(w)) == w


@given(ballots_st())
def test_ballot_text_round_trip(b):
    assert parse_ballot(str(b)) == b


@given(permutations_st(max_size=30))
def test_sign_matches_cycle_parity(w):
    # Independent parity oracle: a cycle of length L contributes L - 1
    # transpositions, so sign = (-1) ** (n - #cycles).
    expected = -1 if (w.n - cycle_count(w.values)) % 2 else 1
    assert sign_by_inversions(w) == expected


@given(permutations_st(max_size=20))
def test_inverse_preserves_inversions(w):
    assert inversion_count(inverse(w)) == inversion_count(w)


@settings(max_examples=60)
@given(ballot_pairs_st())
def test_ballot_pair_round_trip(pair):
    # Insertion of the reconstructed word reproduces the pair it came from.
    from signbalance321 import TableauPair, ballot_to_tableau

    p, q = (BallotSequence(side) for side in pair)
    w = inverse_rsk(TableauPair(ballot_to_tableau(p), ballot_to_tableau(q)))
    assert is_321_avoiding(w)
    again = rsk(w)
    assert tableau_to_ballot(again.insertion) == p
    assert tableau_to_ballot(again.recording) == q


@settings(max_examples=60)
@given(ballot_pairs_st())
def test_rsk_round_trip_on_avoiding_inputs(pair):
    # Every drawn word is 321-avoiding: it is decoded from a ballot pair.
    w = Permutation(_values_from_ballots(*pair))
    assert inverse_rsk(rsk(w)) == w
    assert len(rsk(w).insertion.row1) == lis_oracle(w)
