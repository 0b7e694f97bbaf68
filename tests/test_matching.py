"""The excedance matching, region counts, and the second-row sum."""
import pytest

from signbalance321 import (
    Not321Avoiding,
    NotAMatchedPair,
    Permutation,
    generate_Tn_ballot,
    identity,
    inversion_count,
    lis_oracle,
    match_pairs,
    parse_permutation,
    region_counts,
    rsk,
    sign_by_inversions,
    sign_by_srs,
    srs,
)
from signbalance321 import matching

FIG = parse_permutation("4 1 2 5 7 8 3 6 9 12 10 11")


class TestMatchPairs:
    def test_examples(self):
        assert match_pairs(FIG).pairs == ((1, 2), (4, 7), (5, 8), (10, 11))
        assert match_pairs(identity(5)).pairs == ()
        assert match_pairs(Permutation((2, 3, 1))).pairs == ((1, 3),)

    def test_not_avoiding_rejected(self):
        with pytest.raises(Not321Avoiding):
            match_pairs(Permutation((3, 2, 1)))

    def test_pair_count_is_second_row_length(self):
        for n in range(9):
            for w in generate_Tn_ballot(n):
                assert len(match_pairs(w).pairs) == n - lis_oracle(w)

    def test_pairs_index_second_rows(self):
        for n in range(9):
            for w in generate_Tn_ballot(n):
                pair = rsk(w)
                matched = match_pairs(w).pairs
                assert {w.values[i - 1] for i, _ in matched} == set(pair.insertion.row2)
                assert {j for _, j in matched} == set(pair.recording.row2)


class TestSrs:
    def test_examples(self):
        assert srs(FIG) == 56
        assert srs(identity(4)) == 0
        assert srs(Permutation((2, 3, 1))) == 5

    def test_cross_check_mode(self):
        for n in range(8):
            for w in generate_Tn_ballot(n):
                assert srs(w, cross_check=True) == srs(w)

    def test_cross_check_raises_when_the_matching_disagrees(self, monkeypatch):
        monkeypatch.setattr(matching, "match_pairs", lambda w: matching.Matching(()))
        assert srs(FIG) == 56
        with pytest.raises(AssertionError, match="differs from matched-pair sum 0"):
            srs(FIG, cross_check=True)

    def test_not_avoiding_rejected(self):
        with pytest.raises(Not321Avoiding):
            srs(Permutation((3, 2, 1)))


class TestRegionCounts:
    def test_examples(self):
        assert region_counts(FIG, (1, 2)).c == 2
        assert region_counts(FIG, (5, 8)).c == 1
        assert region_counts(Permutation((2, 3, 1)), (1, 3)).c == 1

    def test_unmatched_pair_rejected(self):
        with pytest.raises(NotAMatchedPair):
            region_counts(FIG, (1, 3))
        with pytest.raises(NotAMatchedPair):
            region_counts(identity(3), (1, 2))

    @pytest.mark.parametrize("pair", [(1.9, 2.2), (1.0, 2.0), (True, 2), ("1", "2")])
    def test_non_integer_pair_rejected(self, pair):
        # (1, 2) is a matched pair of FIG; no entry may be rounded or coerced.
        with pytest.raises(NotAMatchedPair):
            region_counts(FIG, pair)

    def test_region_identities(self):
        # First region empty; the other three tile the letters above or right
        # of the pair.
        for n in range(9):
            for w in generate_Tn_ballot(n):
                for i, j in match_pairs(w).pairs:
                    rc = region_counts(w, (i, j))
                    vi = w.values[i - 1]
                    assert rc.c1 == 0
                    assert rc.c == rc.c2 + rc.c3
                    assert (rc.c - (vi + j)) % 2 == 0
                    assert rc.c2 + rc.c3 + 2 * rc.c4 == (n - vi) + (n - j)

    def test_inversion_decomposition(self):
        for n in range(9):
            for w in generate_Tn_ballot(n):
                total = sum(
                    region_counts(w, pair).c for pair in match_pairs(w).pairs
                )
                assert inversion_count(w) == total + (n - lis_oracle(w))


class TestSignBySrs:
    def test_examples(self):
        assert sign_by_srs(FIG) == 1 == sign_by_inversions(FIG)
        assert sign_by_srs(identity(5)) == 1
        assert sign_by_srs(Permutation((2, 3, 1))) == 1

    def test_agrees_with_inversion_sign(self):
        for n in range(9):
            for w in generate_Tn_ballot(n):
                assert sign_by_srs(w) == sign_by_inversions(w)
