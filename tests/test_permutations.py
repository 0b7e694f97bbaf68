"""Permutation statistics against brute-force oracles and frozen values."""
import random

import pytest

from signbalance321 import (
    Permutation,
    anti_excedances,
    descent_set,
    excedances,
    fixed_points,
    generate_Tn_ballot,
    generate_Tn_filter,
    identity,
    inverse,
    inversion_count,
    is_321_avoiding,
    is_bi_increasing,
    ldes,
    lind,
    lis_oracle,
    parse_permutation,
    sign_by_inversions,
)
from itertools import permutations as sym_group

FIG = parse_permutation("4 1 2 5 7 8 3 6 9 12 10 11")


def brute_contains_321(values):
    n = len(values)
    return any(
        values[i] > values[j] > values[k]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def brute_lis(values):
    # O(n^2) chain DP, independent of the patience-sorting implementation.
    best = [1] * len(values) if values else []
    for i in range(len(values)):
        for j in range(i):
            if values[j] < values[i] and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best, default=0)


def brute_inversions(values):
    return sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )


def cycle_sign(values):
    # Parity from the cycle type, (-1)^(n - #cycles): a method unrelated to
    # counting inversions.
    seen = [False] * len(values)
    cycles = 0
    for start in range(len(values)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = values[i] - 1
    return -1 if (len(values) - cycles) % 2 else 1


def random_inputs(seed=321):
    """Seeded permutations of sizes 0..400: uniform shuffles (which contain
    321 from small sizes on) and merges of two increasing runs (which avoid
    321)."""
    rng = random.Random(seed)
    sizes = list(range(0, 20)) + list(range(20, 400, 17)) + [400]
    inputs = []
    for n in sizes:
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        inputs.append(tuple(shuffled))
        k = rng.randint(0, n)
        letters = sorted(rng.sample(range(1, n + 1), k))
        positions = set(rng.sample(range(n), k))
        rest = iter(sorted(set(range(1, n + 1)) - set(letters)))
        chosen = iter(letters)
        inputs.append(
            tuple(next(chosen) if i in positions else next(rest) for i in range(n))
        )
    return inputs


class TestConstruction:
    def test_valid(self):
        w = Permutation((2, 3, 1))
        assert w.n == len(w) == 3
        assert tuple(w) == w.values
        assert Permutation(()).n == 0

    @pytest.mark.parametrize("bad", [(1, 1), (2, 3), (0, 1), (1, 2, 4)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    @pytest.mark.parametrize("bad", [(1.0, 2.0), (True,), (2, True), ("1",), ("a", 1)])
    def test_non_integer_entries_rejected(self, bad):
        # 1.0 and True compare equal to 1, so only a type check tells them apart.
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_parse(self):
        assert parse_permutation("2, 3, 1").values == (2, 3, 1)
        assert parse_permutation("  2 3\t1 ").values == (2, 3, 1)
        assert parse_permutation("").values == ()

    @pytest.mark.parametrize("text", ["1 1", "1 3", "a b", "1 2 x", "0 1"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_permutation(text)

    def test_str_round_trip(self):
        assert str(FIG) == "4 1 2 5 7 8 3 6 9 12 10 11"
        assert parse_permutation(str(FIG)) == FIG


class TestAvoidance:
    def test_examples(self):
        assert is_321_avoiding(FIG)
        assert not is_321_avoiding(Permutation((3, 2, 1)))
        # brute-force scan of all triples finds 5, 4, 3
        w = Permutation((1, 5, 2, 4, 3))
        assert brute_contains_321(w.values)
        assert not is_321_avoiding(w)

    def test_against_brute_force(self):
        for n in range(8):
            for values in sym_group(range(1, n + 1)):
                assert is_321_avoiding(Permutation(values)) == (
                    not brute_contains_321(values)
                )


class TestInversions:
    def test_examples(self):
        assert inversion_count(identity(6)) == 0
        assert inversion_count(Permutation((2, 3, 1))) == brute_inversions((2, 3, 1)) == 2
        assert inversion_count(FIG) == brute_inversions(FIG.values) == 10

    def test_sign(self):
        assert sign_by_inversions(identity(4)) == 1
        assert sign_by_inversions(Permutation((2, 3, 1))) == 1
        assert sign_by_inversions(Permutation((1, 3, 2))) == -1

    def test_random_against_brute_force(self):
        inputs = random_inputs()
        assert any(brute_contains_321(v) for v in inputs)
        assert any(len(v) > 100 and not brute_contains_321(v) for v in inputs)
        for values in inputs:
            w = Permutation(values)
            assert inversion_count(w) == brute_inversions(values)
            assert sign_by_inversions(w) == cycle_sign(values)

    def test_reversal(self):
        n = 400
        w = Permutation(tuple(range(n, 0, -1)))
        assert inversion_count(w) == brute_inversions(w.values) == n * (n - 1) // 2
        assert sign_by_inversions(w) == cycle_sign(w.values) == 1
        assert sign_by_inversions(Permutation(tuple(range(399, 0, -1)))) == -1


class TestDescents:
    def test_examples(self):
        assert descent_set(identity(5)) == ()
        assert ldes(identity(5)) == 0
        assert descent_set(FIG) == (1, 6, 10)
        assert ldes(FIG) == 10
        assert descent_set(Permutation((2, 3, 1))) == (2,)
        assert ldes(Permutation((2, 3, 1))) == 2

    def test_empty(self):
        assert descent_set(Permutation(())) == ()
        assert ldes(Permutation(())) == 0

    def test_descents_are_excedance_boundaries(self):
        # For 321-avoiding w: i descends iff i is an excedance and i+1 is not.
        for n in range(1, 9):
            for w in generate_Tn_ballot(n):
                exc = set(excedances(w))
                expected = tuple(
                    i for i in range(1, n) if i in exc and i + 1 not in exc
                )
                assert descent_set(w) == expected


class TestLind:
    def test_examples(self):
        assert lind(identity(7)) == 7
        assert lind(Permutation((2, 3, 1))) == 2
        assert lind(Permutation((3, 1, 2))) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lind(Permutation(()))


class TestExcedances:
    def test_identity(self):
        w = identity(4)
        assert excedances(w) == ()
        assert anti_excedances(w) == ()
        assert fixed_points(w) == (1, 2, 3, 4)

    def test_examples(self):
        w = Permutation((2, 3, 1))
        assert excedances(w) == (1, 2)
        assert anti_excedances(w) == (3,)
        assert fixed_points(w) == ()
        assert excedances(FIG) == (1, 4, 5, 6, 10)
        assert anti_excedances(FIG) == (2, 3, 7, 8, 11, 12)
        assert fixed_points(FIG) == (9,)

    def test_partition(self):
        for n in range(7):
            for w in generate_Tn_filter(n):
                merged = sorted(excedances(w) + anti_excedances(w) + fixed_points(w))
                assert merged == list(range(1, n + 1))


class TestBiIncreasing:
    def test_examples(self):
        assert is_bi_increasing(identity(5))
        assert not is_bi_increasing(Permutation((3, 2, 1)))
        assert is_bi_increasing(FIG)

    def test_equals_avoidance_on_all_permutations(self):
        for n in range(9):
            for values in sym_group(range(1, n + 1)):
                w = Permutation(values)
                assert is_bi_increasing(w) == is_321_avoiding(w)


class TestLis:
    def test_examples(self):
        assert lis_oracle(identity(6)) == 6
        assert lis_oracle(Permutation((2, 3, 1))) == 2
        assert lis_oracle(FIG) == brute_lis(FIG.values) == 8
        assert lis_oracle(Permutation(())) == 0

    def test_against_brute_force(self):
        for n in range(8):
            for values in sym_group(range(1, n + 1)):
                assert lis_oracle(Permutation(values)) == brute_lis(values)

    def test_longest_chains_pass_through_fixed_points(self):
        # Restricting to the letters compatible with every fixed point does
        # not shorten the longest increasing subsequence.
        for n in range(1, 9):
            for w in generate_Tn_ballot(n):
                fixed = fixed_points(w)
                compatible = [
                    x
                    for pos, x in enumerate(w.values, 1)
                    if all(
                        pos == f or (pos < f and x < f) or (pos > f and x > f)
                        for f in fixed
                    )
                ]
                assert brute_lis(compatible) == lis_oracle(w)


class TestInverse:
    def test_round_trip(self):
        for n in range(7):
            for values in sym_group(range(1, n + 1)):
                w = Permutation(values)
                assert inverse(inverse(w)) == w

    def test_example(self):
        assert inverse(Permutation((2, 3, 1))) == Permutation((3, 1, 2))
