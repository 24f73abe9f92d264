"""Series arithmetic, plethysm, power-series operators, inversion."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from symlie import (
    DivisorWeight,
    MOEBIUS,
    PartSet,
    PrimeSet,
    Series,
    TOTIENT,
    alt_omega,
    conj_series,
    e_of,
    e_series,
    ext_power_layers,
    ext_powers,
    ext_powers_signed,
    exponent_eval,
    exponent_poly,
    family_series,
    graded_product_series,
    h_of,
    h_series,
    higher_module,
    lie,
    lie_primes_series,
    lie_series,
    p1_series,
    p_of,
    part_family_series,
    partitions_of,
    pleth,
    pleth_inverse,
    pleth_p,
    product_series,
    product_slice,
    product_slice_schur,
    sym_power_layers,
    sym_powers,
    sym_powers_signed,
)

from symlie import SymFunc, lifting_check, to_schur
from symlie.plethysm import _exp_inverse, _family_inverse, _family_pleth, series_exp
from symlie.partitions import _interned
from symlie.symfunc import ONE, ZERO, _char

from helpers import (
    P,
    frac,
    fraction_graded_product_series,
    horner_exp,
    random_series,
    random_sparse_symfunc,
    random_symfunc,
    random_unit_series,
    schur_by_characters,
    series_product,
)


def series_pleth(f, g: Series) -> Series:
    """f[g] as sum_c c * prod_i p_{a_i}[g], each product taken by Series.__mul__.

    An oracle for ``pleth`` that shares none of its prefix products.
    """
    n = g.max_degree
    if isinstance(f, SymFunc):
        comps, const = [f], f.coefficient(())
    else:
        comps, const = [c for d, c in f.components.items() if d], f.constant
    powers = {}
    out = Series.one(n).scaled(const)
    for comp in comps:
        for part, c in comp.terms.items():
            prod = Series.one(n)
            for a in part.parts:
                if a not in powers:
                    powers[a] = pleth_p(a, g)
                prod = prod * powers[a]
            out = out + prod.scaled(c)
    return out


def series_pleth_inverse(F: Series) -> Series:
    """The inverse of F = p_1 + T by n rounds of G <- p_1 - T[G] through ``series_pleth``."""
    n = F.max_degree
    tail = F - p1_series(n)
    G = p1_series(n)
    for _ in range(n):
        G = p1_series(n) - series_pleth(tail, G)
    return G


def nonzero_symfunc(rng, degree: int) -> SymFunc:
    while True:
        f = random_symfunc(rng, degree)
        if not f.is_zero:
            return f


H2_STRETCHED = SymFunc(4, {P(2, 2): frac(1, 2), P(4): frac(1, 2)})
LIE2_STRETCHED = SymFunc(4, {P(2, 2): frac(1, 2), P(4): frac(-1, 2)})


class TestSeries:
    def test_component_window(self):
        s = Series(5, {2: h_of(2)})
        assert s.component(2) == h_of(2)
        assert s.component(3).is_zero
        with pytest.raises(ValueError):
            s.component(6)

    def test_component_degree_validation(self):
        with pytest.raises(ValueError):
            Series(5, {3: h_of(2)})
        with pytest.raises(ValueError):
            Series(2, {3: h_of(3)})

    def test_constant_is_the_degree_zero_component(self):
        with_constant = (h_series(6), Series(6, {2: h_of(2)}, constant=frac(-3, 2)), Series.one(0))
        for s in with_constant + (lie_series(6), Series(6, {2: h_of(2)}), Series.zero(3)):
            assert Series(s.max_degree, s.components) == s
            assert s.component(0) == ONE.scaled(s.constant)
            assert s.is_constant_free == (s not in with_constant)
        assert h_series(6).component(0) == ONE
        assert Series(4, {0: ONE.scaled(5)}).constant == 5
        assert Series(4, {0: ONE.scaled(5)}, constant=0).is_constant_free
        with pytest.raises(ValueError):
            lie_series(6).component(-1)
        with pytest.raises(ValueError):
            Series(4, {0: p_of((1,))})

    def test_arithmetic(self):
        a = Series(4, {1: p_of((1,))}, constant=1)
        b = Series(4, {1: p_of((1,))})
        assert (a - b) == Series.one(4)
        assert (a * b).component(2) == p_of((1, 1))

    def test_mul_truncates(self):
        a = Series(3, {2: p_of((2,))})
        assert (a * a).component(3).is_zero
        assert all(d <= 3 for d in (a * a).components)

    @pytest.mark.parametrize("n", (7, 8, 15, 16))
    def test_mul_against_componentwise_products(self, n):
        # Mixed denominators, a constant term, a degree that cancels to zero, and p_1^n at
        # degree n: its multiplicity n is 2^w - 1 for the packed width w = n.bit_length()
        # at n = 7 and 15, and the first multiplicity of a new width at n = 8 and 16.
        rng = random.Random(n)
        dense = Series(n, {d: random_sparse_symfunc(rng, d) for d in range(1, n + 1)}, constant=frac(5, 7))
        sparse = Series(n, {d: random_sparse_symfunc(rng, d) for d in (1, 3, n - 2)})
        x = Series(n, {1: p_of((1,)).scaled(frac(1, 3)), 2: p_of((2,)).scaled(frac(1, 2))}, constant=frac(-2, 9))
        y = Series(n, {1: p_of((1,)).scaled(frac(2, 3)), 2: -p_of((2,))})
        assert 3 not in (x * y).components and (x * y).component(4) == -p_of((2, 2)).scaled(frac(1, 2))
        ones = Series(n, {a: p_of((1,) * a) for a in range(1, n)})
        assert (ones * ones).component(n) == p_of((1,) * n).scaled(n - 1)
        for a in (dense, sparse, x, y, ones, Series.one(n), Series.zero(n)):
            for b in (dense, sparse, x, ones):
                assert a * b == series_product(a, b)

    def test_alt_omega(self):
        s = alt_omega(lie_series(4))
        assert s.component(2) == -h_of(2)
        assert s.component(1) == p_of((1,))
        with pytest.raises(ValueError):
            alt_omega(Series.one(4))


class TestPlethP:
    def test_substitution(self):
        f = p_of((3,)) + p_of((2, 1))
        assert pleth_p(2, f) == p_of((6,)) + p_of((4, 2))

    def test_identity(self):
        rng = random.Random(3)
        f = random_symfunc(rng, 5)
        assert pleth_p(1, f) == f

    def test_on_h2(self):
        assert pleth_p(2, h_of(2)) == H2_STRETCHED

    def test_series_truncation_contract(self):
        s = pleth_p(2, lie_series(5))
        assert set(s.components) <= {2, 4}
        assert s.component(4) == pleth_p(2, lie(2))

    def test_non_integer_k_and_window_rejected(self):
        # a stretch by 2.5 would build parts 2.5 and 5.0; a window of 2.5 would round to 2
        for k in (2.5, True, "2"):
            for g in (lie(2), lie_series(4)):
                with pytest.raises(ValueError, match="pleth_p requires an integer k >= 1"):
                    pleth_p(k, g)
        for n in (2.5, True, "4"):
            with pytest.raises(ValueError, match="max_degree must be an integer >= 0"):
                Series(n)


class TestPleth:
    def test_p1_is_identity(self):
        f = h_of(2)
        out = pleth(f, p1_series(6))
        assert out.component(2) == f
        assert all(d == 2 for d in out.components)

    def test_p2_of_lie_degree_4(self):
        out = pleth(p_of((2,)), lie_series(4))
        assert out.component(4) == LIE2_STRETCHED

    def test_e2_of_p2(self):
        out = pleth(e_of(2), p_of((2,)))
        assert out.component(4) == series_pleth(e_of(2), Series(4, {2: p_of((2,))})).component(4)
        assert out.component(4) == LIE2_STRETCHED

    def test_inner_constant_rejected(self):
        with pytest.raises(ValueError):
            pleth(h_of(2), Series.one(4))

    def test_associativity_samples(self):
        rng = random.Random(17)
        for f in (h_of(2), e_of(2), p_of((3,))):
            for _ in range(3):
                g = random_series(rng, 8)
                k = random_unit_series(rng, 8)
                lhs = pleth(pleth(f, g), k)
                rhs = pleth(f, pleth(g, k))
                assert lhs == rhs

    def test_outer_window_below_inner_refused(self):
        # degrees 4 and 5 of F[p_1] would need components of F above its window 3
        F = Series(3, {1: p_of((1,)), 2: h_of(2)})
        with pytest.raises(ValueError, match="truncated at 3 leaves degree 4 of the window 5 unknown"):
            pleth(F, p1_series(5))
        assert pleth(F, p1_series(3)) == F
        assert pleth(F, p_of((2,))).max_degree == 6
        # an inner series starting at degree 2 reads F only up to degree 3 below degree 8
        G = Series(6, {2: p_of((2,))})
        assert pleth(F, G) == series_pleth(F, G)
        assert pleth(F, G).component(4) == H2_STRETCHED
        with pytest.raises(ValueError, match="truncated at 3 leaves degree 8 of the window 8 unknown"):
            pleth(F, Series(8, {2: p_of((2,))}))

    def test_against_series_products(self):
        rng = random.Random(29)
        for n in (5, 7, 9):
            inners = [
                Series(n, {d: nonzero_symfunc(rng, d) for d in range(1, n + 1)}),
                Series(n, {1: nonzero_symfunc(rng, 1), 3: nonzero_symfunc(rng, 3)}),
                Series(n, {2: nonzero_symfunc(rng, 2), 5: nonzero_symfunc(rng, 5)}),
            ]
            outer = random_series(rng, n).scaled(frac(2, 3)) + Series(
                n, {2: p_of((1, 1)), 4: p_of((2, 2)) - p_of((2, 1, 1)), 5: p_of((2, 2, 1))}, constant=frac(3, 2)
            )
            outers = [outer, random_symfunc(rng, 4) + p_of((2, 2)) + p_of((1, 1, 1, 1)), p_of((3, 1, 1))]
            for g in inners:
                assert len(g.components) == (n if g is inners[0] else 2)
                for f in outers:
                    assert pleth(f, g) == series_pleth(f, g)

    def test_omega_transport_odd_inner(self):
        # w(f[g]) = w(f)[w(g)] when g is homogeneous of odd degree
        rng = random.Random(23)
        for gdeg in (1, 3, 5):
            g = random_symfunc(rng, gdeg)
            for fdeg in (2, 3):
                f = random_symfunc(rng, fdeg)
                assert pleth(f, g).omega_each() == pleth(f.omega(), g.omega())

    def test_symfunc_arguments(self):
        # a SymFunc inner argument is wrapped at f.degree * g.degree, at least 1, for a SymFunc f
        # and at g.degree * M for a Series f truncated at M
        three, p2 = ONE.scaled(3), p_of((2,))
        assert pleth(ZERO, p2) == pleth(h_of(2), ZERO) == Series.zero(1)
        assert pleth(three, p2) == pleth(three, ZERO) == Series(1, constant=3)
        out = pleth(h_of(2), p2)
        assert out.max_degree == 4 and set(out.components) == {4}
        assert out.component(4).to_text() == "1/2*p[4] + 1/2*p[2,2]"
        out = pleth(e_of(2), p_of((2, 1)))
        assert out.max_degree == 6 and set(out.components) == {6}
        assert out.component(6).to_text() == "-1/2*p[4,2] + 1/2*p[2,2,1,1]"
        assert pleth(h_series(4), ZERO) == Series.one(4)
        assert pleth(h_series(4), p2) == Series(8, {2 * d: pleth_p(2, h_of(d)) for d in range(5)})


class TestPackedWidth:
    """The kernel packs its keys with w = N.bit_length() bits per part size, and at degree N a
    multiplicity can reach N itself: the windows below are where that width steps."""

    @pytest.mark.parametrize("n", (7, 8, 15, 16))
    def test_multiplicity_n_at_the_width_boundary(self, n):
        ones = (1,) * n
        g = Series(n, {1: p_of((1,)), 3: p_of((1, 1, 1)).scaled(frac(1, 3)) - p_of((3,))})
        for k in (n, n - 2):
            f = p_of((1,) * k)
            got = pleth(f, g)
            assert got == series_pleth(f, g)
            assert got.component(n).coefficient(ones) == (1 if k == n else frac(k, 3))
        # G = p_1 + G^2 - p_3[G]/2: the coefficient of p_1^t in G_t is a Catalan number
        F = Series(n, {1: p_of((1,)), 2: -p_of((1, 1)), 3: p_of((3,)).scaled(frac(1, 2))})
        G = pleth_inverse(F)
        assert G == series_pleth_inverse(F)
        assert G.component(n).coefficient(ones) == comb(2 * n - 2, n - 1) // n


class TestPowerOperators:
    def test_series_exp_against_horner(self):
        rng = random.Random(37)
        for n in (0, 1, 6, 9):
            dense = Series(n, {d: nonzero_symfunc(rng, d) for d in range(1, n + 1)})
            gaps = Series(n, {d: nonzero_symfunc(rng, d) for d in (1, 4, 5) if d <= n})
            no_linear = Series(n, {d: nonzero_symfunc(rng, d) for d in (2, 3, 7) if d <= n})
            for x in (dense, gaps, no_linear, random_series(rng, n)):
                assert series_exp(x) == horner_exp(x)
        with pytest.raises(ValueError, match="constant-free"):
            series_exp(Series.one(3))

    def test_power_series_against_pleth(self):
        # H[F], E[F] and their signed forms against pleth of h, e, (-1)^r h_r, (-1)^r e_r
        # into F through the plethysm kernel, which shares no step with series_exp.  The
        # random series have gaps, no degree-1 component and mixed denominators, so the
        # integer weights j/k of the power sums p_k[F] land on sparse degrees.
        rng = random.Random(43)
        for n in range(1, 13):
            H, E = h_series(n), e_series(n)
            signed = [Series(n, {d: f.component(d).scaled((-1) ** d) for d in range(1, n + 1)}, constant=1) for f in (H, E)]
            families = [
                lie_series(n),
                conj_series(n),
                lie_primes_series(PrimeSet((2,)), n),
                alt_omega(lie_series(n)),
                part_family_series(PartSet.of(1, 3), n),
                p1_series(n) - Series.from_symfunc(p_of((3,)), n),
                random_series(rng, n, density=0.5),
                Series(n, {d: random_sparse_symfunc(rng, d) for d in (2, 3, 5) if d <= n}),
            ]
            for F in families:
                assert sym_powers(F) == pleth(H, F)
                assert ext_powers(F) == pleth(E, F)
                assert sym_powers_signed(F) == pleth(signed[0], F)
                assert ext_powers_signed(F) == pleth(signed[1], F)

    def test_power_series_require_constant_free(self):
        for op in (sym_powers, ext_powers, sym_powers_signed, ext_powers_signed):
            with pytest.raises(ValueError, match="power series of modules require a constant-free argument"):
                op(Series.one(3))

    def test_layers_match_higher_modules(self):
        for Q in (lie_series(8), conj_series(8)):
            layers = sym_power_layers(Q)
            elayers = ext_power_layers(Q)
            for r in range(5):
                for n in range(1, 9):
                    want_h = ZERO
                    want_e = ZERO
                    for lam in partitions_of(n):
                        if lam.length == r:
                            want_h = want_h + higher_module(Q, lam)
                            want_e = want_e + higher_module(Q, lam, exterior=True)
                    assert layers[r].component(n) == want_h
                    assert elayers[r].component(n) == want_e

    def test_layers_against_pleth_of_h_and_e(self):
        # h_r[F] and e_r[F] against pleth(h_r, F) and pleth(e_r, F) through the plethysm
        # kernel, which shares no step with the Newton recurrence on layers
        rng = random.Random(41)
        for n in (1, 6, 9):
            gaps = Series(n, {d: random_sparse_symfunc(rng, d) for d in (2, 3, 7) if d <= n})
            for F in (lie_series(n), conj_series(n), random_series(rng, n), gaps):
                layers, elayers = sym_power_layers(F), ext_power_layers(F)
                assert len(layers) == len(elayers) == n + 1
                for r in range(n + 1):
                    assert layers[r] == pleth(h_of(r), F), (n, r)
                    assert elayers[r] == pleth(e_of(r), F), (n, r)

    def test_sum_of_layers_matches_exponential_form(self):
        rng = random.Random(29)
        F = random_series(rng, 8)
        layers = sym_power_layers(F)
        total = Series.zero(8)
        for s in layers:
            total = total + s
        assert total == sym_powers(F)
        elayers = ext_power_layers(F)
        etotal = Series.zero(8)
        for s in elayers:
            etotal = etotal + s
        assert etotal == ext_powers(F)

    def test_reciprocity(self):
        rng = random.Random(31)
        for _ in range(3):
            F = random_series(rng, 10)
            assert sym_powers(F) * ext_powers_signed(F) == Series.one(10)
            assert ext_powers(F) * sym_powers_signed(F) == Series.one(10)

    def test_higher_module_examples(self):
        L = lie_series(4)
        assert higher_module(L, P(1, 1)) == h_of(2)
        assert higher_module(L, P(2)) == e_of(2)
        acc = ZERO
        for lam in partitions_of(3):
            acc = acc + higher_module(L, lam)
        assert acc == p_of((1, 1, 1))
        # a part i with q_i = 0 makes the whole product zero
        assert higher_module(Series(4, {1: p_of((1,))}), P(2, 1)).is_zero
        assert higher_module(Series(4, {1: p_of((1,))}), P(1, 1), exterior=True) == e_of(2)

    def test_higher_module_truncation_guard(self):
        with pytest.raises(ValueError):
            higher_module(lie_series(3), P(4))


class TestProductSeries:
    def test_geometric(self):
        s = product_series([(1, -1, -1)], 6)
        for n in range(1, 7):
            assert s.component(n) == p_of((1,) * n)

    def test_odd_parts_degree_4(self):
        s = product_series([(m, -1, -1) for m in (1, 3)], 4)
        assert s.component(4) == p_of((3, 1)) + p_of((1, 1, 1, 1))

    def test_distinct_odd_parts_degree_4(self):
        s = product_series([(m, 1, 1) for m in (1, 3)], 4)
        assert s.component(4) == p_of((3, 1))

    def test_signs(self):
        # (1 + p_1)^{-1} = sum (-1)^j p_1^j
        s = product_series([(1, 1, -1)], 4)
        assert s.component(3) == -p_of((1, 1, 1))
        # (1 - p_2) alone
        s2 = product_series([(2, -1, 1)], 4)
        assert s2.component(2) == -p_of((2,))
        assert s2.component(4).is_zero

    def test_duplicate_factors_rejected(self):
        with pytest.raises(ValueError):
            product_series([(2, -1, -1), (2, 1, 1)], 4)


class TestProductSlice:
    MIXED = (
        [(1, -1, -1), (2, 1, 1), (3, 1, -1), (5, -1, 1)],
        [(1, 1, 1), (2, -1, -1), (4, 1, 1), (6, -1, -1)],
        [(m, (-1) ** m, (-1) ** (m // 2)) for m in range(1, 10)],
        [(3, 1, -1), (7, -1, -1)],
        [],
    )

    def test_part_filter(self):
        # (1-p_1)^{-1}(1-p_3)^{-1}(1-p_5)^{-1}: the partitions of 6 into odd parts
        odd = product_slice([(m, -1, -1) for m in (1, 3, 5)], 6)
        assert [lam.parts for lam in odd.terms] == [(5, 1), (3, 3), (3, 1, 1, 1), (1, 1, 1, 1, 1, 1)]
        assert set(odd.terms.values()) == {1}

    def test_direct_enumeration_against_partition_filter(self):
        # the slice builds only partitions into factor parts; filtering every
        # partition of d must find the same terms, signs and descending order
        for factors in self.MIXED + ([(m, -1, -1) for m in (1, 3, 5)], [(1, -1, -1)], [(2, 1, 1), (1, 1, 1)]):
            sign = {m: s if e == 1 else -s for m, s, e in factors}
            once = {m for m, _, e in factors if e == 1}
            for d in range(15):
                want = []
                for lam in partitions_of(d):
                    mult = lam.multiplicities()
                    if all(a in sign and (k == 1 or a not in once) for a, k in mult.items()):
                        c = 1
                        for a in lam.parts:
                            c *= sign[a]
                        want.append((lam, c))
                assert list(product_slice(factors, d).terms.items()) == want, (factors, d)

    def test_is_the_component_of_product_series(self):
        n = 9
        for factors in self.MIXED:
            s = product_series(factors, n)
            assert s.constant == 1
            for d in range(1, n + 1):
                assert product_slice(factors, d) == s.component(d), (factors, d)

    def test_schur_engine_against_to_schur(self):
        # the rim-hook DP against characters, mixed signs and exponents: the DP adds
        # strips forwards and the characters remove them backwards, so the two routes
        # are independent (test_symfunc checks each walk on its own)
        for factors in self.MIXED:
            for d in range(13):
                assert product_slice_schur(factors, d) == schur_by_characters(product_slice(factors, d)), (factors, d)

    def test_schur_engine_evaluates_no_character_and_interns_nothing(self):
        factors = [(m, -1, -1) for m in range(1, 15)]  # fT-product T=all at n = 14
        slice_14, lie_14 = product_slice(factors, 14), lie(14)
        before = (_char.cache_info(), len(_interned))
        assert product_slice_schur(factors, 14).den == 1
        assert to_schur(slice_14) == product_slice_schur(factors, 14)
        assert not to_schur(lie_14).is_zero
        assert (_char.cache_info(), len(_interned)) == before
        # a lifting check decodes and interns only its negative witnesses
        before = (_char.cache_info(), set(_interned))
        report = lifting_check(3, 14)
        witnesses = {lam.parts for v in report.verdicts for lam in v.witnesses}
        assert report.negatives() == [3, 6, 9, 10] and len(witnesses) == 7
        assert _char.cache_info() == before[0] and set(_interned) - before[1] <= witnesses

    def test_malformed_and_duplicate_factors_rejected(self):
        # a part value that is not an int is malformed, not rounded: 2.5 once read as p_2, "3" as p_3
        malformed = ([(0, -1, -1)], [(2, 0, 1)], [(2, 1, 2)], [(2.5, -1, -1)], [("3", -1, -1)], [(True, -1, -1)])
        for bad in malformed + ([(2, -1, -1), (2, 1, 1)], [(3, 1, 1), (1, 1, 1), (3, -1, -1)]):
            for build in (product_slice, product_series, product_slice_schur):
                with pytest.raises(ValueError):
                    build(bad, 4)
        # the degree is checked first and never rounded
        for d in (2.5, True, 2.0, "3", -1):
            for build in (product_slice, product_series, product_slice_schur):
                with pytest.raises(ValueError, match=f"a product degree must be an integer >= 0, got {d!r}"):
                    build([(1, -1, -1)], d)


class TestGradedProductSeries:
    def test_necklace_polynomials_and_constant_exponents(self):
        # At v = t the exponent polynomial of mu or phi counts necklaces, an
        # integer, so sum_r t^r * layer_r must be an integer power product of
        # (1 - p_m)^{-1} factors, multiplied out as Series.  The part values
        # run over 1..n and over a set with gaps.
        for w in (MOEBIUS, TOTIENT):
            for part_set in (range(1, 9), (2, 3, 5)):
                for n in range(1, 9):
                    ms = [m for m in part_set if m <= n]
                    for t in (2, 3):
                        counts = {m: exponent_eval(m, w, t) for m in ms}
                        assert all(c.denominator == 1 and c >= 0 for c in counts.values()), (w.tag, t)
                        layers = graded_product_series([(m, -1, {e: -c for e, c in exponent_poly(m, w).items()}) for m in ms], n)
                        assert len(layers) == n + 1
                        at_t = Series.zero(n)
                        for r, layer in enumerate(layers):
                            at_t = at_t + layer.scaled(t**r)
                        want = Series.one(n)
                        for m, c in counts.items():
                            for _ in range(int(c)):
                                want = want * product_series([(m, -1, -1)], n)
                        assert at_t == want, (w.tag, list(part_set), n, t)
        # a constant exponent k: (1 + s p_m)^k, all of it in layer 0
        n = 8
        for factors in ([(1, 1, 2), (2, 1, 3), (3, 1, 4)], [(1, 1, 2), (3, 1, 4)], [(1, -1, 3), (3, 1, -2)]):
            layers = graded_product_series([(m, s, {0: Fraction(k)}) for m, s, k in factors], n)
            want = Series.one(n)
            for m, s, k in factors:
                for _ in range(abs(k)):
                    want = want * product_series([(m, s, 1 if k > 0 else -1)], n)
            assert layers[0] == want, factors
            assert all(layer == Series.zero(n) for layer in layers[1:])

    def test_against_fraction_rows(self):
        # the integer rows against the Fraction rows they replaced, on exponent polynomials of
        # three weights and on random ones with mixed denominators, constants and the zero one
        rng = random.Random(43)
        for n in (1, 5, 9):
            for w in (MOEBIUS, TOTIENT, DivisorWeight.part_set(PartSet.of(1, 3))):
                for s in (1, -1):
                    factors = [(m, s if m % 2 else -s, exponent_poly(m, w)) for m in range(1, n + 1)]
                    assert graded_product_series(factors, n) == fraction_graded_product_series(factors, n)
            for _ in range(4):
                polys = [{e: frac(rng.randint(-6, 6), rng.choice((1, 2, 3, 7, 12))) for e in rng.sample(range(n + 2), 2)}]
                polys += [{0: frac(rng.randint(-3, 3))}, {}, {0: frac(1, 2), 1: frac(-1, 3)}]
                ms = rng.sample(range(1, n + 1), min(n, len(polys)))
                factors = [(m, rng.choice((1, -1)), P) for m, P in zip(ms, polys)]
                assert graded_product_series(factors, n) == fraction_graded_product_series(factors, n), factors

    def test_malformed_and_duplicate_factors_rejected(self):
        bad_parts = ([(2.5, -1, {1: 1})], [("3", -1, {1: 1})])
        for bad in ([(0, -1, {1: 1})], [(2, 0, {1: 1})], [(2, -1, {1: 1}), (2, 1, {2: 1})]) + bad_parts:
            with pytest.raises(ValueError):
                graded_product_series(bad, 4)
        for n in (2.5, True, 2.0, "3", -1):
            with pytest.raises(ValueError, match=f"a product degree must be an integer >= 0, got {n!r}"):
                graded_product_series([(1, -1, {1: 1})], n)


class TestPlethInverse:
    def test_p1_minus_p2(self):
        F = Series(8, {1: p_of((1,)), 2: -p_of((2,))})
        inv = pleth_inverse(F)
        assert inv == Series(8, {1: p_of((1,)), 2: p_of((2,)), 4: p_of((4,)), 8: p_of((8,))})

    def test_p1_plus_p3(self):
        F = Series(9, {1: p_of((1,)), 3: p_of((3,))})
        inv = pleth_inverse(F)
        assert inv == Series(9, {1: p_of((1,)), 3: -p_of((3,)), 9: p_of((9,))})

    def test_inverse_of_h_minus_one(self):
        n = 8
        Hm1 = Series(n, {d: h_of(d) for d in range(1, n + 1)})
        assert pleth_inverse(Hm1) == alt_omega(lie_series(n))

    def test_two_sided(self):
        rng = random.Random(41)
        for _ in range(3):
            F = random_unit_series(rng, 7)
            G = pleth_inverse(F)
            assert pleth(F, G) == p1_series(7)
            assert pleth(G, F) == p1_series(7)

    def test_involution(self):
        rng = random.Random(43)
        for F in (lie_series(8), random_unit_series(rng, 7)):
            assert pleth_inverse(pleth_inverse(F)) == F

    def test_against_fixed_point_iteration(self):
        rng = random.Random(47)
        cases = [random_unit_series(rng, n) for n in (4, 6, 8)]
        cases += [lie_series(8), conj_series(8), Series(8, {d: h_of(d) for d in range(1, 9)})]
        for F in cases:
            assert pleth_inverse(F) == series_pleth_inverse(F)

    def test_requires_unit_degree_one(self):
        with pytest.raises(ValueError):
            pleth_inverse(Series(4, {2: p_of((2,))}))
        with pytest.raises(ValueError):
            pleth_inverse(Series(4, {1: 2 * p_of((1,))}))


def H_SIGN(k: int) -> int:
    return 1


def E_SIGN(k: int) -> int:
    return 1 if k % 2 else -1


# every weight the catalog inverts, and Ramanujan and part-set weights with w(1) = 1
ROUTE_WEIGHTS = (
    [MOEBIUS, TOTIENT, DivisorWeight.prime_split((2,)), DivisorWeight.prime_split((3, 5))]
    + [DivisorWeight.ramanujan(k) for k in range(1, 7)]
    + [DivisorWeight.part_set(T) for T in (PartSet.of(1, 3), PartSet.up_to(4), PartSet.powers_of(2))]
)


def alt_series(n: int, base) -> Series:
    """sum_{r>=1} (-1)^{r-1} base(r): the right sides of lie-inv (e_r) and lie2-inv (h_r)."""
    return Series(n, {d: base(d) if d % 2 else -base(d) for d in range(1, n + 1)})


class TestLogRoutes:
    """The log routes of the divisor families and of H - 1 and E - 1 against the plethysm kernel."""

    @pytest.mark.parametrize("w", ROUTE_WEIGHTS, ids=repr)
    def test_family_inverse_against_kernel(self, w):
        for n in range(1, 17):
            assert _family_inverse(w, n) == pleth_inverse(family_series(w, n)), n

    @pytest.mark.parametrize("w", ROUTE_WEIGHTS, ids=repr)
    def test_family_pleth_against_kernel(self, w):
        rng = random.Random(53)
        inners = [alt_series(n, base) for n in range(1, 13) for base in (e_of, h_of)]
        # random_series leaves degree 0 empty, so each inner series is constant-free
        inners += [random_series(rng, n) for n in (3, 6, 9)] + [random_unit_series(rng, 8)]
        for G in inners:
            assert _family_pleth(w, G) == pleth(family_series(w, G.max_degree), G)

    def test_exp_inverse_against_kernel(self):
        for n in range(1, 17):
            assert _exp_inverse(H_SIGN, n) == pleth_inverse(Series(n, {d: h_of(d) for d in range(1, n + 1)})), n
            assert _exp_inverse(E_SIGN, n) == pleth_inverse(Series(n, {d: e_of(d) for d in range(1, n + 1)})), n

    def test_family_inverse_refuses_w1_other_than_one(self):
        w = DivisorWeight.part_set(PartSet.of(2, 3))
        with pytest.raises(ValueError, match=r"needs w\(1\) = 1; the weight parts\[2,3\] has w\(1\) = 0"):
            _family_inverse(w, 4)

    def test_family_pleth_refuses_a_constant_term(self):
        with pytest.raises(ValueError, match="plethysm requires a constant-free inner series"):
            _family_pleth(MOEBIUS, Series(4, {1: p_of((1,))}, constant=1))

    def test_window_zero_is_the_zero_series(self):
        # a window of 0 holds no degree-1 component: the kernel and both inverse routes answer the zero series
        assert pleth_inverse(Series(0)) == Series(0)
        assert _family_inverse(MOEBIUS, 0) == Series(0)
        assert _exp_inverse(H_SIGN, 0) == Series(0)
        assert pleth(lie_series(0), Series(0)) == _family_pleth(MOEBIUS, Series(0)) == Series(0)
