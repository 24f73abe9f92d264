"""Partitions, arithmetic functions, and prime-set factor splitting."""

from __future__ import annotations

from itertools import combinations

import pytest

from symlie import MOEBIUS, Partition, PrimeSet, divisors, is_prime, moebius, p_of, partitions_of, totient, z_of
from symlie.partitions import EMPTY, factorize

from helpers import P, brute_partitions, naive_moebius, naive_totient, sieve_primes

# p(0), p(1), ..., p(30)
PARTITION_COUNTS = [
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
    231, 297, 385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604,
]


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((-1,))
        # parts are ints, never rounded
        for parts in ((3.7, 1), (True,), ("2",)):
            with pytest.raises(ValueError, match="parts must be positive integers"):
                Partition(parts)
        with pytest.raises(ValueError, match="parts must be positive integers"):
            p_of((2.5,))
        # the interning constructor refuses the same parts once their int twin is interned
        assert Partition.of((2, 1)) is P(2, 1)
        for parts in ((2.0, 1), (2, 1.0), (True,), [2.0, 1]):
            with pytest.raises(ValueError, match="parts must be positive integers"):
                Partition.of(parts)

    def test_basic_fields(self):
        p = P(3, 1, 1)
        assert p.size == 5
        assert p.length == 3
        assert p.multiplicities() == {3: 1, 1: 2}
        assert sum(i * m for i, m in p.multiplicities().items()) == p.size

    def test_empty_partition_unique(self):
        assert P() is EMPTY
        assert EMPTY.size == 0
        assert EMPTY.length == 0

    def test_interning(self):
        assert P(4, 2) is P(4, 2)
        assert P(4, 2) is Partition.of([4, 2])

    def test_text_roundtrip(self):
        assert repr(P(3, 1, 1)) == "[3,1,1]"
        assert repr(EMPTY) == "[]"
        assert Partition.from_text("[3,1,1]") is P(3, 1, 1)
        assert Partition.from_text("[]") is EMPTY
        with pytest.raises(ValueError):
            Partition.from_text("3,1")
        for text in ("[2,x]", "[2.5]", "[2,,1]"):
            with pytest.raises(ValueError, match="malformed partition text"):
                Partition.from_text(text)

    def test_conjugate(self):
        assert P(3, 1).conjugate() == P(2, 1, 1)
        assert P(2, 2).conjugate() == P(2, 2)
        assert EMPTY.conjugate() is EMPTY
        for n in range(8):
            for lam in partitions_of(n):
                assert lam.conjugate().conjugate() is lam


class TestEnumeration:
    def test_counts_match_partition_numbers(self):
        for n, expected in enumerate(PARTITION_COUNTS):
            assert len(partitions_of(n)) == expected

    def test_partitions_of_zero(self):
        assert partitions_of(0) == (EMPTY,)

    def test_descending_lex_order(self):
        assert [p.parts for p in partitions_of(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        for n in range(25):
            seq = [p.parts for p in partitions_of(n)]
            assert seq == sorted(seq, reverse=True)

    def test_against_independent_enumeration(self):
        for n in range(13):
            assert {p.parts for p in partitions_of(n)} == brute_partitions(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)
        # checked before the memo, where True would find the entry for 1
        partitions_of(1)
        for n in (True, 2.5, 2.0, "3"):
            with pytest.raises(ValueError, match=f"partitions_of requires an integer n, got {n!r}"):
                partitions_of(n)


class TestArithmetic:
    def test_moebius_values(self):
        assert moebius(1) == 1
        assert moebius(4) == 0
        assert moebius(6) == 1
        for n in range(1, 200):
            assert moebius(n) == naive_moebius(n)

    def test_totient_values(self):
        assert totient(12) == 4
        for n in range(1, 200):
            assert totient(n) == naive_totient(n)

    def test_divisors(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(1) == (1,)
        for n in range(1, 120):
            assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            moebius(0)
        with pytest.raises(ValueError):
            totient(0)
        with pytest.raises(ValueError):
            divisors(0)

    def test_non_integers_rejected(self):
        # checked before the caches of factorize and divisors, where True would find the entry for 1
        for f in (factorize, divisors, moebius, totient, is_prime):
            f(1)
        for n in (2.5, 6.0, True, "6"):
            for f in (factorize, divisors, moebius, totient):
                with pytest.raises(ValueError, match=f"{f.__name__} requires an integer n >= 1, got {n!r}"):
                    f(n)
            with pytest.raises(ValueError, match=f"is_prime requires an integer n, got {n!r}"):
                is_prime(n)
        with pytest.raises(ValueError, match="moebius requires an integer n >= 1, got 2.5"):
            MOEBIUS(2.5)

    def test_divisor_sums(self):
        for n in range(1, 201):
            assert sum(totient(d) for d in divisors(n)) == n
            assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)

    def test_is_prime(self):
        primes_to_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        assert {n for n in range(51) if is_prime(n)} == primes_to_50
        assert {n for n in range(-3, 10**4 + 1) if is_prime(n)} == sieve_primes(10**4)

    def test_z_of(self):
        assert z_of(P(2, 1)) == 2
        assert z_of(P(1, 1, 1)) == 6
        assert z_of(EMPTY) == 1
        assert z_of(P(3, 3, 2)) == 36  # 3^2 * 2! * 2^1 * 1!


class TestPrimeSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrimeSet((4,))
        for primes in ((2.5,), (True,), (3, 2.0)):
            with pytest.raises(ValueError, match="primes must be integers"):
                PrimeSet(primes)
        assert PrimeSet((3, 2, 2)).primes == (2, 3)

    def test_factor_split_examples(self):
        assert PrimeSet((2,)).factor_split(12) == (4, 3)
        assert PrimeSet(()).factor_split(12) == (1, 12)
        assert PrimeSet((2, 3)).factor_split(18) == (18, 1)

    def test_non_integers_rejected(self):
        # a float or a bool used to be split: factor_split(6.0) gave (2, 3.0), is_smooth(True) and is_rough(2.5) held
        S2 = PrimeSet((2,))
        for n in (6.0, 2.5, True, False, "6", 0, -4):
            for f in (S2.factor_split, S2.is_smooth, S2.is_rough):
                with pytest.raises(ValueError, match=f"factor_split requires an integer n >= 1, got {n!r}"):
                    f(n)

    def test_membership_examples(self):
        S2 = PrimeSet((2,))
        assert S2.is_smooth(8)
        assert not S2.is_smooth(12)
        assert S2.is_rough(9)
        assert S2.is_smooth(1) and S2.is_rough(1)

    def test_split_properties(self):
        sets = [PrimeSet(c) for r in range(5) for c in combinations((2, 3, 5, 7), r)]
        for S in sets:
            for n in range(1, 501):
                smooth, rough = S.factor_split(n)
                assert smooth * rough == n
                from math import gcd

                assert gcd(smooth, rough) == 1
                assert S.is_smooth(smooth)
                assert S.is_rough(rough)

    def test_smooth_rough_intersection_is_one(self):
        for primes in ((), (2,), (3,), (2, 3), (2, 5), (2, 3, 5, 7)):
            S = PrimeSet(primes)
            both = [n for n in range(1, 501) if S.is_smooth(n) and S.is_rough(n)]
            assert both == [1]

    def test_text(self):
        assert repr(PrimeSet((3, 2))) == "{2,3}"
        assert PrimeSet.from_text("2,3") == PrimeSet((2, 3))
        assert PrimeSet.from_text("") == PrimeSet(())
