"""The permutation-level maps: branches, fixed points, delete/reinsert."""
from collections import Counter

import pytest

from signbalance321 import (
    BallotSequence,
    LimitExceeded,
    Not321Avoiding,
    Permutation,
    capital_phi,
    capital_psi,
    descent_set,
    fixed_points_of,
    generate_Tn_ballot,
    identity,
    inverse,
    ldes,
    ldes_lind_bijection,
    ldes_lind_inverse,
    lind,
    lis_oracle,
    parse_permutation,
    sign_by_inversions,
)
from signbalance321.involutions import PHI_BRANCHES, PSI_BRANCHES


class TestCapitalPhi:
    def test_p_side_example(self):
        out = capital_phi(Permutation((2, 3, 1)))
        assert out.image == Permutation((1, 3, 2))
        assert out.branch == "P-side"
        assert not out.fixed

    def test_fixed_examples(self):
        out = capital_phi(identity(4))
        assert out.fixed and out.branch == "fixed" and out.image == identity(4)
        out = capital_phi(Permutation((1, 4, 5, 2, 3)))
        assert out.fixed

    def test_q_side_reached(self):
        branches = {capital_phi(w).branch for w in generate_Tn_ballot(6)}
        assert branches == set(PHI_BRANCHES)

    def test_rejects_non_avoiding(self):
        with pytest.raises(Not321Avoiding):
            capital_phi(Permutation((3, 2, 1)))

    def test_involution_sweep(self):
        for n in range(8):
            for w in generate_Tn_ballot(n):
                out = capital_phi(w)
                assert capital_phi(out.image).image == w
                assert lis_oracle(out.image) == lis_oracle(w)
                assert out.fixed == (out.image == w)
                if not out.fixed:
                    assert sign_by_inversions(out.image) == -sign_by_inversions(w)


class TestCapitalPsi:
    def test_fixed_examples(self):
        assert capital_psi(identity(5)).fixed
        out = capital_psi(Permutation((4, 5, 1, 2, 3)))
        assert out.fixed and out.branch == "fixed"

    def test_forward_example(self):
        out = capital_psi(Permutation((1, 4, 5, 2, 3)))
        assert out.branch == "Q-psi-forward"
        assert out.image == Permutation((4, 1, 5, 2, 3))
        assert ldes(out.image) == ldes(Permutation((1, 4, 5, 2, 3))) == 3
        assert sign_by_inversions(out.image) == -sign_by_inversions(
            Permutation((1, 4, 5, 2, 3))
        )

    def test_inverse_branch_round_trip(self):
        w = Permutation((4, 1, 5, 2, 3))
        out = capital_psi(w)
        assert out.branch == "Q-psi-inverse"
        assert out.image == Permutation((1, 4, 5, 2, 3))

    def test_all_branches_reached(self):
        branches = set()
        for n in range(9):
            for w in generate_Tn_ballot(n):
                branches.add(capital_psi(w).branch)
        assert branches == set(PSI_BRANCHES)

    def test_involution_sweep(self):
        for n in range(8):
            for w in generate_Tn_ballot(n):
                out = capital_psi(w)
                assert capital_psi(out.image).image == w
                assert lis_oracle(out.image) == lis_oracle(w)
                assert ldes(out.image) == ldes(w)
                if not out.fixed:
                    assert sign_by_inversions(out.image) == -sign_by_inversions(w)


# Exact branch histograms over T_9 and T_10, in branch order.
BRANCH_COUNTS = {
    (capital_phi, 9): (4696, 152, 14),
    (capital_psi, 9): (4696, 126, 13, 13, 14),
    (capital_phi, 10): (16192, 576, 28),
    (capital_psi, 10): (16192, 494, 13, 13, 84),
}


@pytest.mark.parametrize("apply_map, n", BRANCH_COUNTS)
def test_branch_histograms(apply_map, n):
    branches = PHI_BRANCHES if apply_map is capital_phi else PSI_BRANCHES
    counts = Counter(apply_map(w).branch for w in generate_Tn_ballot(n))
    assert tuple(counts[b] for b in branches) == BRANCH_COUNTS[apply_map, n]
    assert sum(counts.values()) == sum(BRANCH_COUNTS[apply_map, n])


def test_maps_validate_only_at_the_boundary(monkeypatch):
    # The maps act on plain ballot tuples: no BallotSequence is built.
    words = [w for n in range(8) for w in generate_Tn_ballot(n)]

    def refuse(self):
        raise AssertionError(f"BallotSequence built: {self.entries}")

    monkeypatch.setattr(BallotSequence, "__post_init__", refuse)
    for w in words:
        capital_phi(w)
        capital_psi(w)


class TestFixedPoints:
    def test_examples(self):
        assert {str(w) for w in fixed_points_of("Phi", 5)} == {
            "1 2 3 4 5",
            "1 4 5 2 3",
        }
        assert {str(w) for w in fixed_points_of("Psi", 5)} == {
            "1 2 3 4 5",
            "4 5 1 2 3",
        }
        assert {str(w) for w in fixed_points_of("Phi", 2)} == {"1 2", "2 1"}

    def test_unknown_map(self):
        with pytest.raises(ValueError):
            fixed_points_of("phi", 3)

    @pytest.mark.parametrize("which,apply", [("Phi", capital_phi), ("Psi", capital_psi)])
    def test_matches_the_public_map_in_enumeration_order(self, monkeypatch, which, apply):
        for n in range(8):
            expected = [w for w in generate_Tn_ballot(n) if apply(w).fixed]
            built = []
            real = Permutation.__post_init__

            def counted(self):
                built.append(self.values)
                real(self)

            monkeypatch.setattr(Permutation, "__post_init__", counted)
            assert fixed_points_of(which, n) == expected
            monkeypatch.undo()
            # Only the fixed points are wrapped as Permutations.
            assert built == [w.values for w in expected]

    def test_size_caps(self):
        with pytest.raises(ValueError):
            fixed_points_of("Phi", -1)
        with pytest.raises(LimitExceeded):
            fixed_points_of("Psi", 15)


class TestDeleteReinsert:
    def test_examples(self):
        assert ldes_lind_bijection(Permutation((2, 3, 1))) == Permutation((2, 1, 3))
        assert ldes_lind_bijection(identity(3)) == Permutation((3, 1, 2))
        assert ldes_lind_bijection(Permutation((3, 1, 2))) == Permutation((1, 3, 2))

    def test_inverse_examples(self):
        assert ldes_lind_inverse(Permutation((2, 1, 3))) == Permutation((2, 3, 1))
        assert ldes_lind_inverse(Permutation((3, 1, 2))) == identity(3)

    def test_guards(self):
        with pytest.raises(ValueError):
            ldes_lind_bijection(Permutation(()))
        with pytest.raises(Not321Avoiding):
            ldes_lind_bijection(Permutation((3, 2, 1)))
        with pytest.raises(Not321Avoiding):
            ldes_lind_inverse(Permutation((3, 2, 1)))

    def test_bijection_sweep(self):
        for n in range(1, 9):
            seen = set()
            for w in generate_Tn_ballot(n):
                image = ldes_lind_bijection(w)
                seen.add(image.values)
                assert lind(image) == ldes(w) + 1
                assert ldes_lind_inverse(image) == w
                src = {i for i in descent_set(inverse(w)) if i <= n - 2}
                dst = {i for i in descent_set(inverse(image)) if i <= n - 2}
                assert src == dst
            assert len(seen) == sum(1 for _ in generate_Tn_ballot(n))

    def test_statistic_transport_example(self):
        w = parse_permutation("4 1 2 5 7 8 3 6 9 12 10 11")
        image = ldes_lind_bijection(w)
        assert lind(image) == ldes(w) + 1 == 11
