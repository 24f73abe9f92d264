"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All equality checks are exact (rational arithmetic, tolerance zero).  Run
with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
on passing runs as well.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from symlie import (
    DivisorWeight,
    MOEBIUS,
    PartSet,
    PrimeSet,
    Series,
    TOTIENT,
    exponent_eval,
    ext_powers_signed,
    foulkes,
    h_of,
    is_schur_positive,
    lie_series,
    lifting_check,
    p_of,
    partitions_of,
    pleth,
    pleth_inverse,
    pleth_p,
    s_of,
    scan_positivity,
    sym_powers,
    syt_maj_distribution,
    to_schur,
    verify,
    z_of,
)
from symlie.plethysm import alt_omega
from symlie.symfunc import SchurExpansion

from helpers import P, character_table, random_series, random_symfunc

S_SETS = [PrimeSet(c) for c in ((), (2,), (3,), (2, 3), (2, 5))]
T_SETS = [
    PartSet.of(1),
    PartSet.everything(),
    PartSet.of(1, 3),
    PartSet.up_to(4),
    PartSet.divisors_of(6),
    PartSet.mod_one(2),
    PartSet.mod_one(3),
    PartSet.powers_of(3),
]


def _report(num: int, failures: list[str], elapsed: float, cap: float | None, label: str) -> None:
    if cap is not None and elapsed > cap:
        failures.append(f"runtime {elapsed:.1f}s exceeded the {cap:.0f}s cap")
    verdict = "PASS" if not failures else "FAIL"
    print(f"CRITERION {num:02d}: {verdict} ({elapsed:.1f}s) {label}" + ("" if not failures else f" :: {failures}"))
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_01_thrall_cadogan_solomon():
    t0 = time.perf_counter()
    failures = []
    for id in ("thrall", "cadogan", "solomon"):
        r = verify(id, N=10)
        if not r.passed:
            failures.append(f"{id}: {r.first_mismatch}")
    lhs = sym_powers(alt_omega(lie_series(10)))
    if lhs.constant != 1 or lhs.component(1) != p_of((1,)):
        failures.append("cadogan series does not start 1 + p_1")
    for d in range(2, 11):
        if not lhs.component(d).is_zero:
            failures.append(f"cadogan component at degree {d} is nonzero")
    _report(1, failures, time.perf_counter() - t0, 10, "classical decompositions at N=10")


def test_criterion_02_prime_set_symmetric_powers():
    t0 = time.perf_counter()
    failures = []
    for S in S_SETS:
        for id in ("symLS", "altsymLS"):
            r = verify(id, params={"S": S}, N=10)
            if not r.passed:
                failures.append(f"{id} S={S}: {r.first_mismatch}")
    _report(2, failures, time.perf_counter() - t0, 30, "prime-set symmetric powers at N=10")


def test_criterion_03_prime_set_exterior_powers():
    t0 = time.perf_counter()
    failures = []
    for S in S_SETS:
        for id in ("extLS", "altextLS"):
            r = verify(id, params={"S": S}, N=10)
            if not r.passed:
                failures.append(f"{id} S={S}: {r.first_mismatch}")
        if 2 not in S.primes:
            r = verify("extLS-omega", params={"S": S}, N=10)
            if not r.passed:
                failures.append(f"extLS-omega S={S}: {r.first_mismatch}")
    _report(3, failures, time.perf_counter() - t0, 30, "prime-set exterior powers, both branches, at N=10")


def test_criterion_04_single_prime_two_identities():
    t0 = time.perf_counter()
    failures = []
    for id in ("lie2-reg", "lie2-hpm", "lie2-cadogan"):
        r = verify(id, N=10)
        if not r.passed:
            failures.append(f"{id}: {r.first_mismatch}")
    _report(4, failures, time.perf_counter() - t0, None, "regular/signed/alternating forms for the 2-adic family")


def test_criterion_05_part_set_families():
    t0 = time.perf_counter()
    failures = []
    for T in T_SETS:
        for id in ("fT-sym", "fT-decomp", "fT-ext"):
            r = verify(id, params={"T": T}, N=12)
            if not r.passed:
                failures.append(f"{id} T={T.descriptor()}: {r.first_mismatch}")
    _report(5, failures, time.perf_counter() - t0, 60, "part-set families at N=12 over eight sets")


def test_criterion_06_foulkes_syt_oracle():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 9):
        shapes = partitions_of(n)
        dists = {lam: syt_maj_distribution(lam) for lam in shapes}
        for r in range(1, n + 1):
            exp = to_schur(foulkes(n, r))
            for lam in shapes:
                if exp.coefficient(lam) != dists[lam].get(r % n, 0):
                    failures.append(f"n={n} r={r} shape={lam!r}")
    _report(6, failures, time.perf_counter() - t0, 20, "schur multiplicities equal SYT maj-residue counts, n <= 8")


def test_criterion_07_exponent_value_tables():
    t0 = time.perf_counter()
    failures = []
    for S in [PrimeSet(c) for c in ((), (2,), (3,), (2, 3))]:
        w = DivisorWeight.prime_split(S)
        two_in = 2 in S.primes
        for n in range(1, 61):
            if exponent_eval(n, w, 1) != (1 if S.is_smooth(n) else 0):
                failures.append(f"plus-one table S={S} n={n}")
            got = exponent_eval(n, w, -1)
            if two_in:
                want = -1 if (n % 2 and S.is_smooth(n)) else 0
            elif S.is_smooth(n):
                want = -1
            elif n % 2 == 0 and S.is_smooth(n // 2):
                want = 1
            else:
                want = 0
            if got != want:
                failures.append(f"minus-one table S={S} n={n}: {got} != {want}")
    for S in [PrimeSet(c) for c in ((), (2,), (3,), (2, 3))]:
        w = DivisorWeight.prime_split_bar(S)
        two_in_bar = 2 not in S.primes
        for n in range(1, 61):
            if exponent_eval(n, w, 1) != (1 if S.is_rough(n) else 0):
                failures.append(f"bar plus-one table S={S} n={n}")
            got = exponent_eval(n, w, -1)
            if two_in_bar:
                want = -1 if (n % 2 and S.is_rough(n)) else 0
            elif S.is_rough(n):
                want = -1
            elif n % 2 == 0 and S.is_rough(n // 2):
                want = 1
            else:
                want = 0
            if got != want:
                failures.append(f"bar minus-one table S={S} n={n}: {got} != {want}")
    for T in T_SETS:
        w = DivisorWeight.part_set(T)
        for n in range(1, 61):
            if exponent_eval(n, w, 1) != (1 if n in T else 0):
                failures.append(f"part-set table T={T.descriptor()} n={n}")
    _report(7, failures, time.perf_counter() - t0, None, "plus/minus-one value tables, n <= 60")


def test_criterion_08_powers_of_four_negativity():
    t0 = time.perf_counter()
    failures = []
    fam = scan_positivity("powk", [4, 16], {"k": 4})
    verdicts = {v.n: v for v in fam.verdicts}
    if verdicts[4].positive or verdicts[4].witnesses != {P(1, 1, 1, 1): Fraction(-1)}:
        failures.append(f"family member at 4: {verdicts[4]}")
    if verdicts[16].positive or verdicts[16].witnesses != {P(*(1,) * 16): Fraction(-1)}:
        failures.append(f"family member at 16: {verdicts[16]}")
    # fails by design (see README); the true statement is test_verify.py::TestScans::test_product_powk4_slice_is_positive
    slice_report = scan_positivity("product-powk", [16], {"k": 4})
    if slice_report.all_positive:
        failures.append(
            "degree-16 slice of the powers-of-4 product is schur positive "
            "(exact computation: the sign coefficient is 0 and no coefficient is negative)"
        )
    _report(8, failures, time.perf_counter() - t0, 120, "negativity witnesses for the powers-of-4 family")


def test_criterion_09_lifting_exception_lists():
    t0 = time.perf_counter()
    failures = []
    r3 = lifting_check(3, 18)
    if r3.negatives() != [3, 6, 9, 10, 18]:
        failures.append(f"q=3 negatives {r3.negatives()}")
    r5 = lifting_check(5, 12)
    if r5.negatives() != [5, 6, 10]:
        failures.append(f"q=5 negatives {r5.negatives()}")
    _report(9, failures, time.perf_counter() - t0, 300, "lifting exception lists for q=3 (n<=18) and q=5 (n<=12)")


def test_criterion_10_regular_representation():
    t0 = time.perf_counter()
    failures = []
    r = verify("regdecomp", N=10)
    if not r.passed:
        failures.append(str(r.first_mismatch))
    _report(10, failures, time.perf_counter() - t0, None, "regular-representation decompositions, n <= 10")


def test_criterion_11_plethystic_inverse_catalog():
    t0 = time.perf_counter()
    failures = []
    cases = [
        ("pq", {"q": 2}), ("pq", {"q": 3}),
        ("pq-alt", {"q": 2}), ("pq-alt", {"q": 3}),
        ("Hquot", {"q": 2}), ("Hquot", {"q": 3}),
        ("HE", {}),
        ("HF-EG", {"family": "lie"}), ("HF-EG", {"family": "conj"}),
        ("psibar", {"q": 2, "weight": MOEBIUS, "sign": -1}),
        ("psibar", {"q": 3, "weight": TOTIENT, "sign": 1}),
        ("gmult", {"g": "one"}), ("gmult", {"g": "id"}),
        ("odd-gmult", {"g": "one"}), ("odd-gmult", {"g": "id"}),
        ("lie-inv", {}), ("lie2-inv", {}), ("pp-frac", {}),
        ("cadogan-inverse", {}), ("lie2-cadogan-inverse", {}),
        ("conj-inverse", {}),
        ("lieq-inverse", {"q": 2}), ("lieq-inverse", {"q": 3}),
        ("mod1k-beta", {"k": 2}), ("mod1k-beta", {"k": 4}),
        ("jordan-eta", {}),
    ]
    for id, params in cases:
        r = verify(id, params=params, N=10)
        if not r.passed:
            failures.append(f"{id} {params}: {r.first_mismatch}")
    # the two explicit component-wise reproductions
    n = 10
    Hm1 = Series(n, {d: h_of(d) for d in range(1, n + 1)})
    if pleth_inverse(Hm1) != alt_omega(lie_series(n)):
        failures.append("inverse of H-1 does not reproduce the alternating Lie series")
    from symlie import e_of, lie_primes_series

    Em1 = Series(n, {d: e_of(d) for d in range(1, n + 1)})
    if pleth_inverse(Em1) != alt_omega(lie_primes_series(PrimeSet((2,)), n)):
        failures.append("inverse of E-1 does not reproduce the alternating 2-adic series")
    _report(11, failures, time.perf_counter() - t0, None, "plethystic-inverse catalog at N=10")


def test_criterion_12_length_graded_master_identities():
    t0 = time.perf_counter()
    failures = []
    weights = (MOEBIUS, TOTIENT, DivisorWeight.prime_split(PrimeSet((2,))),
               DivisorWeight.part_set(PartSet.of(1, 3)))
    for w in weights:
        for id in ("meta-sym", "meta-ext", "meta-altext", "meta-altsym", "meta-equiv"):
            r = verify(id, params={"weight": w}, N=8)
            if not r.passed:
                failures.append(f"{id} weight={w.tag}: {r.first_mismatch}")
    _report(12, failures, time.perf_counter() - t0, None, "length-graded generating identities at N=8")


def test_criterion_13_property_floor():
    t0 = time.perf_counter()
    failures = []

    # character orthogonality, n <= 8
    for n in range(1, 9):
        table = character_table(n)
        lams = partitions_of(n)
        for mu in lams:
            for nu in lams:
                total = sum(table[(lam, mu)] * table[(lam, nu)] for lam in lams)
                if total != (z_of(mu) if mu == nu else 0):
                    failures.append(f"orthogonality n={n} mu={mu!r} nu={nu!r}")

    # omega involution
    rng = random.Random(97)
    for deg in range(1, 9):
        f = random_symfunc(rng, deg)
        if f.omega().omega() != f:
            failures.append(f"omega involution at degree {deg}")

    # schur round trip
    for n in range(1, 9):
        for lam in partitions_of(n):
            if to_schur(s_of(lam)) != SchurExpansion(n, {lam: 1}):
                failures.append(f"schur round trip {lam!r}")

    # plethysm associativity samples
    from symlie import e_of

    for f in (h_of(2), e_of(2), p_of((3,))):
        for seed in (5, 6):
            rng = random.Random(seed)
            g = random_series(rng, 8)
            k = random_series(rng, 8)
            if pleth(pleth(f, g), k) != pleth(f, pleth(g, k)):
                failures.append(f"associativity f={f.to_text()} seed={seed}")

    # reciprocity of symmetric and signed exterior powers
    for seed in (8, 9):
        rng = random.Random(seed)
        F = random_series(rng, 10)
        if sym_powers(F) * ext_powers_signed(F) != Series.one(10):
            failures.append(f"reciprocity seed={seed}")

    _report(13, failures, time.perf_counter() - t0, None, "property suites (acceptance floor)")
