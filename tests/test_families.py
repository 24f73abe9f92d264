"""Divisor-weight families: values, identities between constructors, tables."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

import pytest

from symlie import (
    DivisorWeight,
    MOEBIUS,
    PartSet,
    PrimeSet,
    SymFunc,
    TOTIENT,
    conj,
    divisors,
    exponent_eval,
    exponent_poly,
    foulkes,
    foulkes_series,
    from_divisor_weight,
    h_of,
    is_schur_positive,
    lie,
    lie_primes,
    lie_primes_bar,
    lie_series,
    moebius,
    part_family,
    part_family_ext,
    part_family_via_lie,
    partitions_of,
    pleth_p,
    p_of,
    syt_maj_distribution,
    to_schur,
    totient,
)

from helpers import P, foulkes_series_by_degree, frac, part_family_ext_by_count


class TestPartSet:
    def test_membership(self):
        assert 8 in PartSet.powers_of(2)
        assert 1 in PartSet.powers_of(3)
        assert 6 not in PartSet.powers_of(3)
        assert 3 in PartSet.divisors_of(12)
        assert 5 not in PartSet.divisors_of(12)
        assert 7 in PartSet.mod_one(3)
        assert 1 in PartSet.mod_one(5)
        assert 4 in PartSet.up_to(4)
        assert 5 not in PartSet.up_to(4)
        assert all(n in PartSet.everything() for n in range(1, 20))
        assert 12 in PartSet.smooth_over((2, 3))
        assert 35 in PartSet.rough_over((2, 3))

    def test_mod_one_of_one_is_everything(self):
        T = PartSet.mod_one(1)
        assert all(n in T for n in range(1, 30))

    def test_powers_of_one(self):
        T = PartSet.powers_of(1)
        assert 1 in T and 2 not in T

    def test_parse_roundtrip(self):
        for text in ("1,5", "le(5)", "div(12)", "mod1(4)", "pow(3)", "all", "smooth(2,3)", "rough(2)"):
            T = PartSet.parse(text)
            assert T.descriptor() == repr(T) == text
            assert PartSet.parse(T.descriptor()) == T
        # the constructors write the canonical text, and equal texts are equal sets
        assert PartSet.of(5, 1, 5).descriptor() == "1,5"
        assert PartSet.smooth_over((3, 2)).descriptor() == "smooth(2,3)"
        assert PartSet.parse(" le( 5)") == PartSet.up_to(5)
        assert hash(PartSet.parse("rough(2)")) == hash(PartSet.rough_over([2]))
        assert PartSet.up_to(3) != PartSet.of(1, 2, 3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            PartSet.parse("le(x)")
        with pytest.raises(ValueError):
            PartSet.parse("")
        with pytest.raises(ValueError):
            PartSet.parse("banana")
        with pytest.raises(ValueError, match="le parameter must be >= 1"):
            PartSet.parse("le(0)")
        with pytest.raises(ValueError, match="explicit part set must be nonempty positive integers"):
            PartSet.of(0, 2)
        # the constructors take ints, never rounded, and never a bool
        for make, head in ((PartSet.up_to, "le"), (PartSet.divisors_of, "div"), (PartSet.mod_one, "mod1"), (PartSet.powers_of, "pow")):
            for k in (2.5, True, "3"):
                with pytest.raises(ValueError, match=f"{head} parameter must be an integer, got {k!r}"):
                    make(k)
        for values in ((1.5, 3), (True,), ("1",)):
            with pytest.raises(ValueError, match="explicit part set must be nonempty positive integers"):
                PartSet.of(*values)
        for r in (2.5, True):
            with pytest.raises(ValueError, match=f"ramanujan weight requires an integer r >= 1, got {r!r}"):
                DivisorWeight.ramanujan(r)

    def test_parse_names_the_malformed_descriptor(self):
        for text in ("le(x)", "div(x)", "mod1(x)", "pow(x)", "le()", "pow(2.5)", "1,x"):
            with pytest.raises(ValueError) as exc:
                PartSet.parse(text)
            assert str(exc.value) == f"malformed part-set descriptor {text!r}"

    def test_members_up_to(self):
        assert PartSet.powers_of(3).members_up_to(30) == (1, 3, 9, 27)
        assert PartSet.mod_one(4).members_up_to(14) == (1, 5, 9, 13)


class TestWeights:
    def test_builtin_values(self):
        for d in range(1, 40):
            assert MOEBIUS(d) == moebius(d)
            assert TOTIENT(d) == totient(d)

    def test_ramanujan_frozen(self):
        w = DivisorWeight.ramanujan(2)
        assert [w(d) for d in (1, 2, 4)] == [1, 1, -2]

    def test_ramanujan_integrality(self):
        for r in range(1, 13):
            w = DivisorWeight.ramanujan(r)
            for d in range(1, 61):
                assert isinstance(w(d), int)

    def test_prime_split_weight(self):
        w = DivisorWeight.prime_split(PrimeSet((2,)))
        # d = 12 splits as 4 * 3: phi(4) * mu(3) = 2 * -1
        assert w(12) == -2
        assert w(8) == totient(8)
        assert w(15) == moebius(15)

    def test_part_set_weight_recovers_classics(self):
        w_all = DivisorWeight.part_set(PartSet.everything())
        w_one = DivisorWeight.part_set(PartSet.of(1))
        for d in range(1, 61):
            assert w_all(d) == totient(d)
            assert w_one(d) == moebius(d)

    def test_part_set_weight_matches_prime_split(self):
        for primes in ((), (2,), (3,), (2, 3)):
            S = PrimeSet(primes)
            w_T = DivisorWeight.part_set(PartSet.smooth_over(S))
            w_S = DivisorWeight.prime_split(S)
            w_Tbar = DivisorWeight.part_set(PartSet.rough_over(S))
            w_Sbar = DivisorWeight.prime_split_bar(S)
            for d in range(1, 61):
                assert w_T(d) == w_S(d)
                assert w_Tbar(d) == w_Sbar(d)


class TestFamilyMembers:
    def test_lie2_frozen(self):
        assert lie(2) == SymFunc(2, {P(1, 1): frac(1, 2), P(2): frac(-1, 2)})

    def test_conj4_frozen(self):
        assert conj(4) == SymFunc(
            4, {P(1, 1, 1, 1): frac(1, 4), P(2, 2): frac(1, 4), P(4): frac(1, 2)}
        )

    def test_degree_one(self):
        for w in (MOEBIUS, TOTIENT, DivisorWeight.ramanujan(5)):
            assert from_divisor_weight(1, w) == p_of((1,))

    def test_non_integer_degrees_rejected(self):
        # checked before the member cache, where True would find the member of degree 1
        lie(1)
        T = PartSet.of(1, 3)
        members = (lie, conj, lambda n: from_divisor_weight(n, TOTIENT),
                   lambda n: part_family_ext(n, T), lambda n: part_family_via_lie(n, T))
        for n in (2.5, True, 2.0, "3", 0, -2):
            for build in members:
                with pytest.raises(ValueError, match=f"family members are indexed by integers n >= 1, got {n!r}"):
                    build(n)
            with pytest.raises(ValueError, match=f"foulkes_series requires an integer k >= 1, got {n!r}"):
                foulkes_series(n, 3)
            if type(n) is not int:
                with pytest.raises(ValueError, match=f"a family series window must be an integer, got {n!r}"):
                    lie_series(n)
                with pytest.raises(ValueError, match=f"a family series window must be an integer, got {n!r}"):
                    foulkes_series(2, n)

    def test_dimension_identity(self):
        # coefficient of p_{1^n} times n! equals (n-1)! * w(1)
        for w in (MOEBIUS, TOTIENT, DivisorWeight.prime_split(PrimeSet((2,)))):
            for n in range(1, 12):
                c = from_divisor_weight(n, w).coefficient((1,) * n)
                assert c * factorial(n) == factorial(n - 1) * w(1)

    def test_foulkes_frozen(self):
        assert foulkes(4, 2) == SymFunc(
            4, {P(1, 1, 1, 1): frac(1, 4), P(2, 2): frac(1, 4), P(4): frac(-1, 2)}
        )
        assert to_schur(foulkes(4, 2)).terms == {P(3, 1): 1, P(2, 2): 1, P(1, 1, 1, 1): 1}

    def test_foulkes_range_validation(self):
        with pytest.raises(ValueError):
            foulkes(4, 0)
        with pytest.raises(ValueError):
            foulkes(4, 5)

    def test_foulkes_extremes(self):
        for n in range(1, 13):
            assert foulkes(n, n) == conj(n)
            assert foulkes(n, 1) == lie(n)

    def test_lie_primes_small(self):
        assert lie_primes(2, (2,)) == h_of(2)

    def test_lie_primes_empty_set(self):
        for n in range(1, 21):
            assert lie_primes(n, ()) == lie(n)
            assert lie_primes_bar(n, ()) == conj(n)

    def test_lie_primes_interpolation(self):
        for primes in ((2,), (3,), (2, 3), (2, 5)):
            S = PrimeSet(primes)
            for n in range(1, 31):
                if S.is_rough(n):
                    assert lie_primes(n, S) == lie(n)
                if S.is_smooth(n):
                    assert lie_primes(n, S) == conj(n)

    def test_lie_primes_equals_foulkes_at_smooth_part(self):
        for primes in ((), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)):
            S = PrimeSet(primes)
            for n in range(1, 31):
                smooth, _ = S.factor_split(n)
                assert lie_primes(n, S) == foulkes(n, smooth)

    def test_part_family_classics(self):
        for n in range(1, 11):
            assert part_family(n, PartSet.everything()) == conj(n)
            assert part_family(n, PartSet.of(1)) == lie(n)

    def test_part_family_matches_decomposition(self):
        for T in (PartSet.of(1, 3), PartSet.up_to(3), PartSet.divisors_of(6), PartSet.powers_of(2)):
            for n in range(1, 9):
                assert part_family(n, T) == part_family_via_lie(n, T)

    def test_part_family_ext_against_count_loop(self):
        # the 2-power stretches of f^T against g^T_n = sum_j c(j) Lie_{n/j}[p_j] with pairs (m, k), m 2^k = j, counted
        sets = (PartSet.of(1), PartSet.of(2, 3, 8), PartSet.up_to(4), PartSet.divisors_of(12), PartSet.mod_one(3),
                PartSet.powers_of(2), PartSet.powers_of(3), PartSet.everything(), PartSet.smooth_over((2, 3)),
                PartSet.rough_over((2,)), PartSet.rough_over((3, 5)))
        for T in sets:
            for n in range(1, 25):
                assert part_family_ext(n, T) == part_family_ext_by_count(n, T), (T, n)

    def test_foulkes_series_against_per_degree_weights(self):
        # c_e(k) depends only on gcd(e, k), so ramanujan(k) gives foulkes(d, k mod d) at every degree d
        for k in range(1, 31):
            assert foulkes_series(k, 24) == foulkes_series_by_degree(k, 24), k

    def test_part_family_ext_examples(self):
        T1 = PartSet.of(1)
        assert part_family_ext(1, T1) == p_of((1,))
        assert part_family_ext(2, T1) == h_of(2)
        for n in range(1, 13):
            assert part_family_ext(n, T1) == lie_primes(n, (2,))


class TestExponentTables:
    S_LIST = [PrimeSet(c) for c in ((), (2,), (3,), (2, 3))]
    T_LIST = [
        PartSet.of(1),
        PartSet.everything(),
        PartSet.of(1, 3),
        PartSet.up_to(4),
        PartSet.divisors_of(6),
        PartSet.mod_one(2),
        PartSet.mod_one(3),
        PartSet.powers_of(3),
    ]

    def test_prime_split_at_plus_one(self):
        for S in self.S_LIST:
            w = DivisorWeight.prime_split(S)
            for n in range(1, 101):
                assert exponent_eval(n, w, 1) == (1 if S.is_smooth(n) else 0)

    def test_prime_split_bar_at_plus_one(self):
        for S in self.S_LIST:
            w = DivisorWeight.prime_split_bar(S)
            for n in range(1, 101):
                assert exponent_eval(n, w, 1) == (1 if S.is_rough(n) else 0)

    def test_part_set_at_plus_one(self):
        for T in self.T_LIST:
            w = DivisorWeight.part_set(T)
            for n in range(1, 61):
                assert exponent_eval(n, w, 1) == (1 if n in T else 0)

    def test_ramanujan_coprime_case(self):
        # for r | n with gcd(r, n/r) = 1 the value at +1 is the indicator of n = r
        for n in range(1, 61):
            for r in divisors(n):
                if gcd(r, n // r) == 1:
                    w = DivisorWeight.ramanujan(r)
                    assert exponent_eval(n, w, 1) == (1 if n == r else 0)

    def test_ramanujan_divides_table(self):
        for k in (2, 3, 6, 12):
            w = DivisorWeight.ramanujan(k)
            for n in range(1, 61):
                assert exponent_eval(n, w, 1) == (1 if k % n == 0 else 0)

    def test_plus_minus_relations(self):
        weights = [MOEBIUS, TOTIENT, DivisorWeight.ramanujan(4)]
        weights += [DivisorWeight.prime_split(S) for S in self.S_LIST]
        weights += [DivisorWeight.part_set(T) for T in self.T_LIST]
        for w in weights:
            for m in range(1, 31):
                odd = 2 * m - 1
                assert exponent_eval(odd, w, -1) == -exponent_eval(odd, w, 1)
                even = 2 * m
                assert exponent_eval(even, w, -1) == exponent_eval(m, w, 1) - exponent_eval(even, w, 1)

    def test_prime_split_minus_one_tables(self):
        for S in self.S_LIST:
            w = DivisorWeight.prime_split(S)
            two_in = 2 in S.primes
            for n in range(1, 61):
                got = exponent_eval(n, w, -1)
                if two_in:
                    want = -1 if (n % 2 and S.is_smooth(n)) else 0
                else:
                    if S.is_smooth(n):
                        want = -1
                    elif n % 2 == 0 and S.is_smooth(n // 2):
                        want = 1
                    else:
                        want = 0
                assert got == want, (S, n, got, want)

    def test_prime_split_bar_minus_one_tables(self):
        # same case split with the roles of smooth and rough swapped; the
        # branch condition is whether 2 avoids S (i.e. 2 lies in the complement)
        for S in self.S_LIST:
            w = DivisorWeight.prime_split_bar(S)
            two_in_bar = 2 not in S.primes
            for n in range(1, 61):
                got = exponent_eval(n, w, -1)
                if two_in_bar:
                    want = -1 if (n % 2 and S.is_rough(n)) else 0
                else:
                    if S.is_rough(n):
                        want = -1
                    elif n % 2 == 0 and S.is_rough(n // 2):
                        want = 1
                    else:
                        want = 0
                assert got == want, (S, n, got, want)

    def test_totient_minus_one_table(self):
        # the conjugacy-family specialization: -1 at odd n, 0 at even n
        for n in range(1, 61):
            assert exponent_eval(n, TOTIENT, -1) == (-1 if n % 2 else 0)
            assert exponent_eval(n, TOTIENT, 1) == 1
            assert exponent_eval(n, MOEBIUS, 1) == (1 if n == 1 else 0)

    def test_non_integer_degrees_rejected(self):
        # refused before divisors, whose message named the wrong function
        for n in (True, 2.0, 2.5, "2", 0, -1):
            with pytest.raises(ValueError, match=f"exponent_eval requires an integer n >= 1, got {n!r}"):
                exponent_eval(n, MOEBIUS, 1)
            with pytest.raises(ValueError, match=f"exponent_poly requires an integer n >= 1, got {n!r}"):
                exponent_poly(n, MOEBIUS)

    def test_exponent_poly_consistency(self):
        # exponent_eval evaluates exponent_poly; both against the divisor sum (1/n) sum_{d|n} w(d) v^(n/d)
        weights = (MOEBIUS, TOTIENT, DivisorWeight.ramanujan(4), DivisorWeight.prime_split(PrimeSet((2,))),
                   DivisorWeight.part_set(PartSet.of(1, 3)))
        for w in weights:
            for n in range(1, 25):
                poly = exponent_poly(n, w)
                for v in (1, -1, Fraction(1, 2), 2, Fraction(1, 3)):
                    want = Fraction(sum(w(d) * Fraction(v) ** (n // d) for d in divisors(n)), n)
                    got = exponent_eval(n, w, v)
                    assert type(got) is Fraction and sum(c * v**e for e, c in poly.items()) == got == want, (w, n, v)


class TestSchurSide:
    def test_foulkes_positive_integer_coefficients(self):
        for n in range(1, 10):
            for r in range(1, n + 1):
                exp = to_schur(foulkes(n, r))
                assert all(c.denominator == 1 and c >= 0 for c in exp.terms.values())

    def test_foulkes_matches_syt_major_index_counts(self):
        for n in range(1, 9):
            for r in range(1, n + 1):
                exp = to_schur(foulkes(n, r))
                for lam in partitions_of(n):
                    counted = syt_maj_distribution(lam).get(r % n, 0)
                    assert exp.coefficient(lam) == counted

    def test_positivity_witness_example(self):
        ok, neg = is_schur_positive(lie(4) + p_of((4,)))
        assert not ok
        assert neg == {P(1, 1, 1, 1): -1}

    def test_conj6_positive(self):
        ok, neg = is_schur_positive(conj(6))
        assert ok and not neg
