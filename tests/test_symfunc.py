"""Symmetric-function algebra, characters, Schur expansions, SYT oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from symlie import (
    SchurExpansion,
    SymFunc,
    character,
    e_of,
    h_of,
    is_schur_positive,
    p_of,
    partitions_of,
    s_of,
    syt_maj_distribution,
    to_schur,
    z_of,
)
from symlie import symfunc
from symlie.partitions import Partition, divisors, moebius
from symlie.families import lie
from symlie.plethysm import Series, e_series, h_series, pleth, pleth_p, product_series
from symlie.symfunc import (
    ONE, ZERO, _add_ribbons, _beta_key, _beta_parts, _border_strips, _char, _power_schur, _reduced_products, _stretch, _sum_scaled, _unpack,
)

from helpers import (
    P,
    beta_key,
    beta_parts,
    brute_border_strips,
    brute_partitions,
    character_table,
    frac,
    fraction_product,
    fraction_schur,
    fraction_sum,
    fraction_terms,
    from_beta,
    hook_length_dimension,
    quotient_power_schur,
    random_sparse_symfunc,
    random_symfunc,
)


class TestRingOps:
    def test_mul_of_power_sums(self):
        assert p_of((2,)) * p_of((2,)) == p_of((2, 2))
        assert p_of((3, 1)) * p_of((2,)) == p_of((3, 2, 1))

    def test_h1_squared(self):
        assert h_of(1) * h_of(1) == p_of((1, 1))

    def test_add_zero_identity(self):
        f = p_of((2, 1))
        assert f + ZERO == f
        assert ZERO + f == f
        assert ZERO + ZERO == ZERO

    def test_add_degree_mismatch(self):
        with pytest.raises(ValueError):
            p_of((2,)) + p_of((3,))

    def test_scaling_and_cancellation(self):
        f = p_of((2,))
        assert (f - f).is_zero
        assert f.scaled(0).is_zero
        assert (2 * f).coefficient((2,)) == 2

    def test_schur_expansions_add_and_scale_in_their_own_basis(self):
        E = to_schur(h_of(3) - 2 * e_of(3))
        assert E + E == E.scaled(2) == -(E.scaled(-2))
        assert (E - E).is_zero and type(E - E) is SchurExpansion
        assert type(E.scaled(0)) is SchurExpansion and E.scaled(0).is_zero
        assert E + SchurExpansion(3) == E and (E - to_schur(h_of(3))).coefficient((3,)) == 0
        with pytest.raises(ValueError):
            E + to_schur(h_of(2))

    def test_bases_do_not_mix(self):
        f = h_of(3)
        for a, b in ((f, to_schur(f)), (to_schur(f), f)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b

    def test_coefficient_lookup(self):
        f = h_of(2)
        assert f.coefficient((1, 1)) == frac(1, 2)
        assert f.coefficient((2,)) == frac(1, 2)
        assert f.coefficient((3,)) == 0


class TestIntegerNumerators:
    """Integer numerators over one denominator, against p-basis arithmetic on Fractions."""

    def test_against_fraction_reference(self):
        rng = random.Random(13)
        for _ in range(150):
            da, db = rng.randint(0, 6), rng.randint(0, 6)
            f, h = random_sparse_symfunc(rng, da), random_sparse_symfunc(rng, da)
            g, k = random_sparse_symfunc(rng, db), random_sparse_symfunc(rng, db)
            rf, rg, rh = fraction_terms(f), fraction_terms(g), fraction_terms(h)
            c, e = (Fraction(rng.randint(-30, 30), rng.choice((1, 7, 65537, 2**61 - 1))) for _ in "ce")
            assert fraction_terms(f * g) == fraction_product(rf, rg)
            assert fraction_terms(f + h) == fraction_sum(rf, rh)
            assert fraction_terms(f - h) == fraction_sum(rf, rh, Fraction(-1))
            assert fraction_terms(f.scaled(c)) == fraction_sum({}, rf, c)
            assert fraction_terms(to_schur(f)) == fraction_schur(rf, da)
            # sums of several products through the one packed product loop on the SymFuncs' own maps,
            # as the plethysm kernel runs it, and sums of several multiples
            pairs = [(x, y) for x, y in ((f, g), (h, k), (h, g)) if not (x.is_zero or y.is_zero)]
            products = _reduced_products(da + db, [((x._num, x.den), (y._num, y.den)) for x, y in pairs])
            want = {}
            for x, y in pairs:
                want = fraction_sum(want, fraction_product(fraction_terms(x), fraction_terms(y)))
            many = [(a, x) for a, x in ((c, f), (e, h), (3, f)) if a and not x.is_zero]
            want_many = {}
            for a, x in many:
                want_many = fraction_sum(want_many, fraction_terms(x), Fraction(a))
            assert fraction_terms(products) == want
            assert fraction_terms(_sum_scaled(many)) == want_many
            for r in (f, g, f * g, f + h, f - h, f.scaled(c), to_schur(f), products, _sum_scaled(many)):
                assert r.den > 0 and gcd(r.den, *r.num.values()) == 1, r
        # a degree-0 constant, and a sum over every p_mu of degree 6 whose Schur terms all cancel but two
        constant = SymFunc(0, {(): Fraction(-3, 7)})
        cancelling = s_of((3, 2, 1)) - s_of((4, 2)).scaled(Fraction(5, 3))
        for f, want in ((constant, {(): Fraction(-3, 7)}), (cancelling, {(4, 2): Fraction(-5, 3), (3, 2, 1): Fraction(1)})):
            got = to_schur(f)
            assert fraction_terms(got) == fraction_schur(fraction_terms(f), f.degree) == want
            assert got.den > 0 and gcd(got.den, *got.num.values()) == 1

    def test_cancelling_sums_are_zero(self):
        rng = random.Random(17)
        for d in range(1, 7):
            f = random_sparse_symfunc(rng, d)
            minus_f = SymFunc(d, {lam: -c for lam, c in f.terms.items()})
            for z in (f - f, f + minus_f, minus_f + f, f.scaled(0), f * ZERO, f + f.scaled(-1)):
                assert z.is_zero and z.degree is None and z == ZERO and hash(z) == hash(ZERO)
                assert (z.num, z.den) == ({}, 1)
        # (p_11 + p_2)/3 * 3(p_11 - p_2): the two p_211 terms cancel
        x = SymFunc(2, {(1, 1): Fraction(1, 3), (2,): Fraction(1, 3)}) * SymFunc(2, {(1, 1): 3, (2,): -3})
        assert x == SymFunc(4, {(1, 1, 1, 1): 1, (2, 2): -1})

    def test_canonical_form(self):
        rng = random.Random(19)
        for _ in range(60):
            d = rng.randint(0, 6)
            f, g = random_sparse_symfunc(rng, d), random_sparse_symfunc(rng, d)
            for h in (f.scaled(Fraction(2, 3)).scaled(Fraction(3, 2)), f + g - g, f * p_of(()), -(-f)):
                assert h == f and hash(h) == hash(f) and (h.num, h.den) == (f.num, f.den)

    def test_memoized_values_stay_unchanged(self):
        def write(f):
            f.terms[P(*([1] * f.degree))] = 5

        def clear(f):
            f.terms.clear()

        for build, n in ((h_of, 3), (lie, 4)):
            want = SymFunc(n, dict(build(n).terms))
            for change in (write, clear):
                try:
                    change(build(n))
                except (TypeError, AttributeError):
                    pass
                assert build(n) == want, (build.__name__, change.__name__)


    def test_numerators_are_read_only(self):
        want = SymFunc(2, dict(h_of(2).terms))
        with pytest.raises(TypeError):
            h_of(2).num[P(2)] = 5
        assert h_of(2) == want and str(h_of(2)) == "1/2*p[2] + 1/2*p[1,1]"


class TestPowerSumKey:
    """A SymFunc keys p_mu by sum_a m_a(mu) << 8 (a - 1), which caps its degree at 255."""

    def test_keys_descend_with_their_partitions_and_decode_back(self):
        for n in range(19):
            parts = [mu.parts for mu in partitions_of(n)]
            keys = [SymFunc._encode(mu, n) for mu in parts]
            assert keys == sorted(set(keys), reverse=True), n
            assert [_unpack(k) for k in keys] == parts
            assert [p_of(mu).support() for mu in parts] == [(P(*mu),) for mu in parts]
        for f in (h_of(5), s_of(P(3, 1)), lie(6) * e_of(2), pleth_p(3, lie(4)), SymFunc(2, {(1, 1): 1}).omega()):
            assert f._num and all(type(k) is int for k in f._num)

    def test_omega_signs_by_length(self):
        for n in range(15):
            for mu in partitions_of(n):
                assert p_of(mu).omega() == p_of(mu).scaled((-1) ** (n - len(mu.parts))), mu

    def test_ceiling_degree(self):
        # lie(255) is the top degree: (1/255) sum_{d | 255} mu(d) p_d^(255/d), one multiplicity 255
        want = SymFunc(255, {(d,) * (255 // d): Fraction(moebius(d), 255) for d in divisors(255)})
        assert lie(255) == want and len(want.support()) == 8
        assert lie(255).coefficient((1,) * 255) == Fraction(1, 255)

    def test_degree_above_ceiling_refused(self):
        calls = (
            lambda: p_of((1,) * 256),
            lambda: SymFunc(256, {(1,) * 256: 1}),
            lambda: lie(256),
            lambda: p_of((1,) * 128) * p_of((1,) * 128),
            lambda: pleth_p(2, lie(128)),
            lambda: pleth(p_of((1, 1)), Series(256, {1: p_of((1,)), 128: p_of((128,))})),
            lambda: product_series([(1, 1, -1)], 256),
        )
        for call in calls:
            with pytest.raises(ValueError, match="degree 256 exceeds 255"):
                call()
        # a window above 255 is answered while no product reaches degree 256
        g = Series(300, {1: p_of((1,)), 200: p_of((200,))})
        assert pleth(p_of((1, 1)), g) == Series(300, {2: p_of((1, 1)), 201: p_of((200, 1)).scaled(2)})
        assert product_series([(2, 1, 1)], 300) == Series(300, {0: ONE, 2: p_of((2,))})


    def test_basis_elements_above_ceiling_refused_before_building(self, monkeypatch):
        # refused before the Newton recursion and the partition enumeration, which would run for every degree below
        def refuse(*_):
            raise RuntimeError("built past the ceiling")

        monkeypatch.setattr(symfunc, "_h_of", refuse)
        monkeypatch.setattr(symfunc, "partitions_of", refuse)
        for call in (lambda: h_of(256), lambda: e_of(256), lambda: s_of((256,)), lambda: h_series(256), lambda: e_series(256)):
            with pytest.raises(ValueError, match="^degree 256 exceeds 255, the largest degree a power-sum key holds$"):
                call()

    def test_stretch_negation_and_omega_keep_lowest_terms(self):
        # these four images change no numerator's gcd with den, so they take no gcd of their own
        rng = random.Random(31)
        for _ in range(150):
            d = rng.randint(0, 8)
            f = random_symfunc(rng, d, nterms=rng.randint(1, 5))
            rf, sf = fraction_terms(f), to_schur(f)
            images = {
                "stretch": [(_stretch(f, k), {tuple(k * a for a in lam): c for lam, c in rf.items()}) for k in (1, 2, 3)],
                "neg": [(-f, fraction_sum({}, rf, Fraction(-1))), (-sf, fraction_sum({}, fraction_terms(sf), Fraction(-1)))],
                "omega": [
                    (f.omega(), {lam: c * (-1) ** (d - len(lam)) for lam, c in rf.items()}),
                    (sf.omega(), fraction_terms(to_schur(f.omega()))),
                ],
            }
            for name, pairs in images.items():
                for got, want in pairs:
                    assert fraction_terms(got) == want, (name, f)
                    assert got.den > 0 and gcd(got.den, *got.num.values()) == 1, (name, f)
        # the bare constructor keeps the ceiling: p_2[lie(128)] has degree 256
        with pytest.raises(ValueError, match="degree 256 exceeds 255"):
            _stretch(lie(128), 2)


class TestApiEdge:
    """Packed integers key the stored maps; the public views are keyed by interned partitions."""

    def test_views_are_keyed_by_interned_partitions(self):
        f = SymFunc(3, {(2, 1): Fraction(-4, 3), (1, 1, 1): 1})
        E = to_schur(f)
        for keys in (f.terms, f.num, f.support(), E.terms, E.num, E.support(), E.negatives()):
            assert keys and all(type(k) is Partition and k is Partition.of(k.parts) for k in keys)
        assert f.support() == (P(2, 1), P(1, 1, 1)) and list(f.num.items()) == [(P(2, 1), -4), (P(1, 1, 1), 3)]

    def test_coefficient_takes_a_partition_or_a_sequence(self):
        f = h_of(3)
        for shape in ((2, 1), (3,), (1, 1, 1), (4,), ()):
            c = f.coefficient(P(*shape))
            assert f.coefficient(shape) == f.coefficient(list(shape)) == c
        assert f.coefficient([2, 1]) == Fraction(1, 2)

    def test_constructor_validates_keys(self):
        with pytest.raises(ValueError):
            SymFunc(3, {(1, 2): 1})
        with pytest.raises(ValueError):
            SymFunc(3, {(2, 2): 1})
        with pytest.raises(ValueError):
            SchurExpansion(2, {(1, 2): 1})


class TestBases:
    def test_h2_e2(self):
        assert h_of(2) == SymFunc(2, {P(1, 1): frac(1, 2), P(2): frac(1, 2)})
        assert e_of(2) == SymFunc(2, {P(1, 1): frac(1, 2), P(2): frac(-1, 2)})

    def test_non_integer_degrees_rejected(self):
        # checked before the memos, where True would find the entry for 1
        assert h_of(1) == e_of(1) == p_of((1,))
        for n in (True, 2.5, 2.0, "3", -1):
            with pytest.raises(ValueError, match=f"h_of requires an integer n >= 0, got {n!r}"):
                h_of(n)
            with pytest.raises(ValueError, match=f"e_of requires an integer n >= 0, got {n!r}"):
                e_of(n)

    def test_h_matches_z_formula(self):
        # independent oracle: h_n = sum over partitions of p_lam / z_lam
        for n in range(21):
            expected = SymFunc(n, {lam: Fraction(1, z_of(lam)) for lam in partitions_of(n)})
            assert h_of(n) == expected

    def test_e_matches_signed_z_formula(self):
        for n in range(21):
            expected = SymFunc(
                n,
                {lam: Fraction((-1) ** (n - lam.length), z_of(lam)) for lam in partitions_of(n)},
            )
            assert e_of(n) == expected

    def test_s21_frozen(self):
        # chi^{(2,1)} = (2, 0, -1) on classes [1,1,1], [2,1], [3] with z = 6, 2, 3
        assert s_of((2, 1)) == SymFunc(3, {P(1, 1, 1): frac(1, 3), P(3): frac(-1, 3)})

    def test_omega_examples(self):
        assert p_of((2,)).omega() == -p_of((2,))
        for n in range(9):
            assert h_of(n).omega() == e_of(n)

    def test_omega_involution_random(self):
        rng = random.Random(7)
        for deg in range(1, 9):
            f = random_symfunc(rng, deg)
            assert f.omega().omega() == f


class TestCharacters:
    def test_trivial_row(self):
        for n in range(1, 11):
            for mu in partitions_of(n):
                assert character(P(n), mu) == 1

    def test_sign_row(self):
        for n in range(1, 9):
            for mu in partitions_of(n):
                assert character(P(*(1,) * n), mu) == (-1) ** (n - mu.length)

    def test_frozen_values(self):
        assert character((1, 1, 1), (2, 1)) == -1
        assert character((2, 2), (1, 1, 1, 1)) == 2

    def test_dimension_vs_hook_lengths(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                assert character(lam, P(*(1,) * n)) == hook_length_dimension(lam.parts)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            character((2,), (1, 1, 1))

    def test_orthogonality(self):
        for n in range(1, 13):
            table = character_table(n)
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    total = sum(table[(lam, mu)] * table[(lam, nu)] for lam in partitions_of(n))
                    assert total == (z_of(mu) if mu == nu else 0)


class TestSchur:
    def test_p4_expansion(self):
        assert to_schur(p_of((4,))) == SchurExpansion(
            4, {P(4): 1, P(3, 1): -1, P(2, 1, 1): 1, P(1, 1, 1, 1): -1}
        )

    def test_h3_is_s3(self):
        assert to_schur(h_of(3)) == SchurExpansion(3, {P(3): 1})
        assert to_schur(e_of(3)) == SchurExpansion(3, {P(1, 1, 1): 1})

    def test_round_trip_with_s_of(self):
        for n in range(9):
            for lam in partitions_of(n):
                assert to_schur(s_of(lam)) == SchurExpansion(n, {lam: 1})

    def test_omega_conjugates_schur_support(self):
        rng = random.Random(11)
        for deg in range(1, 13):
            f = random_symfunc(rng, deg, nterms=5)
            exp = to_schur(f)
            expw = to_schur(f.omega())
            assert expw == exp.omega() and expw.omega() == exp
            for lam in partitions_of(deg):
                assert exp.coefficient(lam) == expw.coefficient(lam.conjugate())

    def test_schur_omega_conjugates_every_shape(self):
        # omega works on the beta keys; Partition.conjugate reads the parts
        for n in range(15):
            shapes = partitions_of(n)
            E = SchurExpansion(n, {lam: Fraction(i + 1, 3) for i, lam in enumerate(shapes)})
            assert E.omega() == SchurExpansion(n, {lam.conjugate(): Fraction(i + 1, 3) for i, lam in enumerate(shapes)}), n
            assert list(E.omega().terms) == sorted({lam.conjugate() for lam in shapes}, key=lambda lam: lam.parts, reverse=True)
        zero = SchurExpansion(0)
        assert zero.omega().is_zero and zero.omega() == zero

    def test_to_schur_is_linear(self):
        rng = random.Random(5)
        for deg in range(1, 13):
            f, g = random_symfunc(rng, deg, nterms=4), random_symfunc(rng, deg, nterms=4)
            a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert to_schur(a * f + b * g) == to_schur(f).scaled(a) + to_schur(g).scaled(b), deg

    def test_strip_walk_against_cell_sets(self):
        # the backward walk behind to_schur, against strips found by brute force
        for d in range(1, 13):
            shapes = {k: sorted(brute_partitions(k)) for k in range(d)}
            for lam in sorted(brute_partitions(d)):
                for m in range(1, d + 1):
                    expected = sorted(brute_border_strips(lam, shapes[d - m]))
                    assert sorted(_border_strips(lam, m)) == expected, (lam, m)

    def test_strips_are_multiplication_by_p_m(self):
        # p_m * s_mu = sum of (-1)^{height} s_lam over the m-border strips lam/mu
        for m in range(1, 7):
            for d in range(9):
                added = {mu.parts: {} for mu in partitions_of(d)}
                for lam in partitions_of(d + m):
                    for mu, sign in _border_strips(lam.parts, m):
                        added[mu][lam] = sign
                for mu in partitions_of(d):
                    assert SchurExpansion(d + m, added[mu.parts]) == to_schur(p_of((m,)) * s_of(mu)), (m, mu)

    def test_forward_walk_is_the_backward_walk_reversed(self):
        # _add_ribbons adds the m-border strips that _border_strips removes
        for m in range(1, 8):
            for d in range(13):
                added = {mu.parts: {} for mu in partitions_of(d)}
                for lam in partitions_of(d + m):
                    for mu, sign in _border_strips(lam.parts, m):
                        added[mu][lam.parts] = sign
                for mu in partitions_of(d):
                    assert from_beta(_add_ribbons({beta_key(mu.parts, d): 1}, m), d + m) == added[mu.parts], (m, mu)

    def test_forward_walk_is_linear_and_drops_zeros(self):
        rng = random.Random(14)
        for m in (1, 2, 3, 5):
            for d in (4, 7, 9):
                shapes = [beta_key(mu.parts, d) for mu in partitions_of(d)]
                E = {mu: rng.randint(-3, 3) for mu in rng.sample(shapes, 4)}
                want: dict = {}
                for mu, c in E.items():
                    for lam, v in _add_ribbons({mu: 1}, m).items():
                        want[lam] = want.get(lam, 0) + c * v
                assert _add_ribbons(E, m) == {k: v for k, v in want.items() if v}, (m, d, E)
        # p_1 (s_2 - s_11) = s_3 - s_111: the two s_21 cancel
        assert from_beta(_add_ribbons({beta_key((2,), 2): 1, beta_key((1, 1), 2): -1}, 1), 3) == {(3,): 1, (1, 1, 1): -1}

    def test_ribbons_onto_the_empty_shape_and_a_column(self):
        # the walk pads a shape with m empty rows; from the empty shape (key 0)
        # p_m = sum_r (-1)^r s_(m-r, 1^r), the m hooks with sign (-1)^leg
        for m in range(1, 13):
            assert from_beta(_add_ribbons({0: 1}, m), m) == {(m - r,) + (1,) * r: (-1) ** r for r in range(m)}, m
            # onto a column (1^k), whose strips reach into every padded row when lam = (1^(k+m))
            for k in range(1, 5):
                col = (1,) * k
                want = {lam: sign for lam in brute_partitions(k + m) for _, sign in brute_border_strips(lam, [col])}
                assert from_beta(_add_ribbons({beta_key(col, k): 1}, m), k + m) == want, (m, k)

    def test_beta_keys_sort_as_partitions(self):
        for n in range(17):
            shapes = [lam.parts for lam in partitions_of(n)]
            keys = [_beta_key(lam, n) for lam in shapes]
            assert keys == [beta_key(lam, n) for lam in shapes]
            assert all(key.bit_count() == n for key in keys)
            descending = sorted(keys, reverse=True)
            assert [_beta_parts(key) for key in descending] == shapes == [beta_parts(key) for key in descending], n

    def test_power_chains_are_characters(self):
        # p_d^k = sum_lam chi^lam((d^k)) s_lam
        for n in range(1, 17):
            for d in (d for d in range(1, n + 1) if n % d == 0):
                chain = from_beta(_power_schur(d, n // d), n)
                for lam in partitions_of(n):
                    assert chain.get(lam.parts, 0) == _char(lam.parts, (d,) * (n // d)), (n, d, lam)
                assert 0 not in chain.values()

    def test_quotient_oracle_against_characters(self):
        for n in range(1, 17):
            for d in (d for d in range(1, n + 1) if n % d == 0):
                want = {lam.parts: character(lam, (d,) * (n // d)) for lam in partitions_of(n)}
                assert quotient_power_schur(d, n // d) == {k: v for k, v in want.items() if v}, (n, d)

    def test_power_chains_against_quotient_oracle(self):
        # a third route, independent of the strip walk, past the degrees characters reach cheaply
        for n in range(24, 33):
            for d in (d for d in range(2, n + 1) if n % d == 0):
                assert from_beta(_power_schur(d, n // d), n) == quotient_power_schur(d, n // d), (n, d)

    def test_positivity(self):
        ok, neg = is_schur_positive(h_of(5))
        assert ok and not neg
        ok, neg = is_schur_positive(h_of(3) - 2 * e_of(3))
        assert not ok
        assert neg == {P(1, 1, 1): -2}

    def test_schur_expansion_edge(self):
        # the stored keys are internal; every view and the constructor speak Partitions
        E = to_schur(p_of((4, 2)) + e_of(6))
        assert E.negatives() and len(E.support()) > len(E.negatives())
        for terms in (dict(E.terms), {lam.parts: c for lam, c in E.terms.items()}):
            built = SchurExpansion(6, terms)
            assert built == E and hash(built) == hash(E)
        views = [*E.terms, *E.num, *E.support(), *E.negatives()]
        assert all(type(lam) is Partition and lam is Partition.of(lam.parts) for lam in views)
        assert list(E.support()) == sorted(E.terms, key=lambda lam: lam.parts, reverse=True)
        assert all(E.terms[lam] == Fraction(E.num[lam], E.den) == E.coefficient(lam) for lam in E.support())
        assert E.negatives() == {lam: c for lam, c in E.terms.items() if c < 0}
        absent = [lam for lam in partitions_of(6) if lam not in E.terms]
        assert absent and all(E.coefficient(lam) == 0 for lam in absent)
        # other sizes and sequences that are no partition read 0
        for seq in ((5,), (4, 2, 1), (2, 4), (6, 0), (3, 3, 0), (7, -1)):
            assert E.coefficient(seq) == 0, seq
        assert SchurExpansion(6).coefficient((6,)) == 0


class TestSYT:
    def test_shape_31(self):
        assert syt_maj_distribution((3, 1)) == {1: 1, 2: 1, 3: 1}

    def test_single_row(self):
        for n in range(1, 8):
            assert syt_maj_distribution((n,)) == {0: 1}

    def test_single_column(self):
        # maj = 1 + 2 + 3 = 6 for the unique column tableau of size 4
        assert syt_maj_distribution((1, 1, 1, 1)) == {6 % 4: 1}

    def test_totals_match_hook_lengths(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                dist = syt_maj_distribution(lam)
                assert sum(dist.values()) == hook_length_dimension(lam.parts)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            syt_maj_distribution((6, 5), bound=10)
        syt_maj_distribution((6, 5), bound=11)

    def test_empty_shape(self):
        assert syt_maj_distribution(()) == {0: 1}


class TestTextAndJson:
    def test_text_form(self):
        f = SymFunc(4, {P(2, 2): frac(-1, 4), P(1, 1, 1, 1): frac(1, 4)})
        assert f.to_text() == "-1/4*p[2,2] + 1/4*p[1,1,1,1]"
        assert to_schur(f).to_text() == "s[3,1] + s[2,1,1]"
        assert ZERO.to_text() == "0"

    def test_empty_partition_prints_its_coefficient(self):
        # a fresh, not interned empty partition prints like the interned one
        assert SymFunc(0, {Partition(()): 2}).to_text() == "2"
        assert SymFunc(0, {(): -1}).to_text() == "-1"
        assert SchurExpansion(0, {Partition(()): 1}).to_text() == "1"

    def test_json_form(self):
        j = h_of(2).to_json_dict()
        assert j == {
            "degree": 2,
            "basis": "p",
            "terms": [
                {"partition": [2], "num": "1", "den": "2"},
                {"partition": [1, 1], "num": "1", "den": "2"},
            ],
        }
