"""Identity catalog harness: runners, mismatch localization, scans, budgets."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symlie import (
    BudgetError,
    PartSet,
    PrimeSet,
    UnknownIdentityError,
    hook_content_check,
    lifting_check,
    list_identities,
    scan_families,
    scan_positivity,
    verify,
)
from symlie import plethysm
from symlie.cli import main, parse_weight
from symlie.partitions import _partitions_interned, partitions_of
from symlie.plethysm import Series, graded_product_series, higher_module, product_series
from symlie.symfunc import SymFunc, p_of, to_schur
from symlie.families import MOEBIUS, TOTIENT, DivisorWeight, from_divisor_weight, lie_primes, lie_series, part_family
from symlie.verify import LIFTING_EXCEPTIONS, _SCANS, _series_mismatch, build_clauses

from helpers import P, fraction_terms, quotient_power_schur, schur_by_characters

# The exact bytes `symlie verify --id ID --format json` printed for every
# catalog id at its default window, recorded with the benchmark's answers.
RECORDED_CATALOG = json.loads((Path(__file__).parents[1] / "bench" / "answers.json").read_text())["catalog"]
# The exact stdout of `symlie verify` at one non-default parameter set of every
# parameterized id, each with the (label, kind) list of its clauses, and the
# clause list of every id without a custom runner at its defaults: a label
# reaches the output only when its clause fails.
RECORDED_PARAMS = json.loads((Path(__file__).parent / "golden" / "verify-params.json").read_text())
_FLAGS = {"--S": ("S", PrimeSet.from_text), "--T": ("T", PartSet.parse), "--q": ("q", int), "--k": ("k", int),
          "--n-max": ("n_max", int), "--weight": ("weight", parse_weight), "--g": ("g", str),
          "--fam": ("family", str), "--sign": ("sign", int)}


def _labels(clauses) -> list:
    return [[label, kind] for label, kind, _, _ in clauses]


class TestCatalog:
    def test_listing_is_sorted_and_complete(self):
        cat = list_identities()
        ids = [e["id"] for e in cat]
        assert ids == sorted(ids)
        assert len(ids) >= 30
        assert "solomon" in ids
        assert "lifting" in ids
        lifting = next(e for e in cat if e["id"] == "lifting")
        assert set(lifting["params"]) == {"q", "n_max"}

    def test_listing_stable(self):
        assert list_identities() == list_identities()

    def test_every_identity_passes_at_small_window(self):
        for e in list_identities():
            r = verify(e["id"], N=6 if e["id"] != "lifting" else None, params={"n_max": 8} if e["id"] == "lifting" else None)
            assert r.passed, (e["id"], r.first_mismatch)

    def test_every_identity_passes_at_default_window(self):
        for e in list_identities():
            r = verify(e["id"])
            assert r.passed, (e["id"], r.first_mismatch)
            assert json.dumps(r.to_json_dict(), sort_keys=True) + "\n" == RECORDED_CATALOG[e["id"]]

    def test_recorded_bytes_and_labels_at_other_params(self, capsys):
        parameterized = {e["id"] for e in list_identities() if e["params"]}
        assert {r["argv"][2] for r in RECORDED_PARAMS["runs"]} == parameterized
        for run in RECORDED_PARAMS["runs"]:
            assert main(run["argv"]) == 0, run["argv"]
            assert capsys.readouterr().out == run["stdout"], run["argv"]
            if run["clauses"] is not None:
                flags = run["argv"][3:-2]
                params = {_FLAGS[f][0]: _FLAGS[f][1](v) for f, v in zip(flags[::2], flags[1::2])}
                assert _labels(build_clauses(run["argv"][2], params)) == run["clauses"], run["argv"]
        custom = {"mod1k-beta", "conj-hooks", "lifting"}
        assert set(RECORDED_PARAMS["clauses_at_defaults"]) == {e["id"] for e in list_identities()} - custom
        for id, labels in RECORDED_PARAMS["clauses_at_defaults"].items():
            assert _labels(build_clauses(id)) == labels, id

    def test_catalog_enumerates_no_partition(self):
        # every product side is read off the walk over factor parts, and
        # extLieConj3 multiplies one factor series per part size
        before = _partitions_interned.cache_info()
        for e in list_identities():
            assert verify(e["id"]).passed, e["id"]
        assert _partitions_interned.cache_info() == before

    def test_extLieConj3_product_is_the_sum_over_partitions(self):
        # the first clause's left side against the sum over lam of
        # (-1)^{|lam| - l(lam)} H_lam[Lie], one higher_module per partition
        for n in range(1, 11):
            L = lie_series(n)
            comps = {}
            for d in range(1, n + 1):
                acc = SymFunc.zero()
                for lam in partitions_of(d):
                    t = higher_module(L, lam)
                    acc = acc + (-t if (d - lam.length) % 2 else t)
                comps[d] = acc
            (_, _, lhs, _), _ = build_clauses("extLieConj3", N=n)
            assert lhs == Series(n, comps, constant=1), n

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityError):
            verify("no-such-identity")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            verify("extLS-omega", params={"S": PrimeSet((2,))}, N=6)
        with pytest.raises(ValueError):
            verify("lieq-decomp", params={"q": 4}, N=6)
        with pytest.raises(ValueError):
            verify("HF-EG", params={"family": "nope"}, N=6)
        with pytest.raises(ValueError):
            verify("selfconj-powq", params={"q": 9}, N=6)
        with pytest.raises(ValueError):
            verify("powk-recurrence", params={"k": 1}, N=6)
        with pytest.raises(ValueError):
            verify("psibar", params={"sign": 2}, N=6)
        with pytest.raises(ValueError):
            verify("gmult", params={"g": "x"}, N=6)
        with pytest.raises(ValueError):
            scan_positivity("extLS-sum", [3], {"S": PrimeSet((2,))})
        with pytest.raises(ValueError):
            scan_positivity("powk", [3], {})
        # windows, degrees and integer parameters are ints, never rounded, and never a bool
        for N in (2.5, True, "4"):
            with pytest.raises(ValueError, match="N must be an integer"):
                verify("thrall", N=N)
        with pytest.raises(ValueError, match="scan degrees must be integers, got 2.5"):
            scan_positivity("fT-product", [2.5], {"T": PartSet.everything()})
        with pytest.raises(ValueError, match="mod1k: k must be integer >= 1, got True"):
            verify("mod1k", {"k": True})
        with pytest.raises(ValueError, match="mod1k-product: k must be integer >= 1, got True"):
            scan_positivity("mod1k-product", [3], {"k": True})
        with pytest.raises(ValueError, match="psibar: sign must be"):
            verify("psibar", {"sign": True})

    def test_unknown_params_refused(self):
        with pytest.raises(ValueError, match="thrall: unknown parameter r"):
            verify("thrall", params={"r": 3}, N=6)
        with pytest.raises(ValueError, match="symLS: unknown parameter T"):
            verify("symLS", params={"T": PartSet.of(1, 2)}, N=6)
        with pytest.raises(ValueError, match="powk: unknown parameter S"):
            scan_positivity("powk", [3], {"k": 4, "S": PrimeSet((2,))})

    def test_report_json_roundtrip(self):
        r = verify("thrall", N=6)
        payload = r.to_json_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["status"] == "pass"
        assert decoded["id"] == "thrall"
        assert decoded["first_mismatch"] is None
        assert decoded["elapsed_ms"] is None
        timed = r.to_json_dict(timing=True)
        assert timed["elapsed_ms"] is not None

    def test_reports_are_immutable(self):
        report = verify("thrall", N=6)
        verdict = scan_positivity("powk", [4], {"k": 4}).verdicts[0]
        for record, field in ((report, "status"), (report, "details"), (verdict, "positive"), (verdict, "witnesses")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert report.status == "pass" and verdict.positive is False

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # the records are NamedTuples, so importing the package generates no methods; -S keeps site's imports out
        src = str(Path(__file__).parents[1] / "src")
        code = f"import sys; sys.path.insert(0, {src!r}); import symlie; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_window_above_ceiling_refused_at_first_product_node(self, monkeypatch, capsys):
        # a product side over the odd parts at window 256 is refused at its first node above 255; the walk once
        # enumerated millions of partitions into odd parts before the SymFunc refused degree 256
        walk, seen = plethysm._factor_partitions, []

        def bounded(*args):
            for node in walk(*args):
                seen.append(node)
                assert len(seen) <= 1000, "the product walk went on past degree 255"
                yield node

        monkeypatch.setattr(plethysm, "_factor_partitions", bounded)
        ceiling = "degree 256 exceeds 255, the largest degree a power-sum key holds"
        calls = (
            lambda: product_series([(m, -1, -1) for m in range(1, 257, 2)], 256),
            lambda: graded_product_series([(m, -1, {1: 1}) for m in range(1, 257, 2)], 256),
            lambda: verify("dualityB", N=256),
            lambda: verify("extLieConj2", N=256),
        )
        for call in calls:
            seen.clear()
            with pytest.raises(ValueError, match=f"^{ceiling}$"):
                call()
        for id in ("dualityB", "extLieConj2"):
            seen.clear()
            assert main(["verify", "--id", id, "--max-degree", "256"]) == 2
            assert capsys.readouterr() == ("", f"error: invalid params: {ceiling}\n")
        # a window above 255 is still answered while no product reaches degree 256
        assert verify("pq", {"q": 3}, N=300).passed


class TestFailureLocalization:
    def test_corrupted_side_pinpoints_degree(self):
        label, kind, lhs, rhs = build_clauses("thrall", N=8)[0]
        for d in (3, 5, 8):
            comps = dict(rhs.components)
            comps[d] = comps[d] + p_of((d,))
            bad = Series(8, comps, constant=rhs.constant)
            m = _series_mismatch(lhs, bad)
            assert m is not None
            assert m["degree"] == d
            diffs = {tuple(x["partition"]): (x["lhs"], x["rhs"]) for x in m["diffs"]}
            assert diffs == {(d,): ("0", "1")}
        # only the constant term differs: the report names degree 0 and the empty partition
        bad = Series(8, rhs.components, constant=2)
        assert _series_mismatch(lhs, bad) == {"degree": 0, "diffs": [{"partition": [], "lhs": "1", "rhs": "2"}]}

    def test_failure_reported_through_verify(self):
        r = verify("lieq-decomp", params={"q": 5}, N=6)
        assert r.passed
        # parameters that make clauses false must surface a mismatch, not raise
        r = verify("symLS", params={"S": PrimeSet((2,))}, N=6)
        assert r.passed


class TestParameterSweeps:
    def test_symLS_family_sweep(self):
        for primes in ((), (2,), (3,), (2, 3), (2, 5)):
            for id in ("symLS", "altsymLS", "extLS", "altextLS"):
                r = verify(id, params={"S": PrimeSet(primes)}, N=8)
                assert r.passed, (id, primes, r.first_mismatch)

    def test_fT_sweep(self):
        for T in (PartSet.of(1), PartSet.everything(), PartSet.of(1, 3), PartSet.up_to(4),
                  PartSet.divisors_of(6), PartSet.mod_one(2), PartSet.mod_one(3), PartSet.powers_of(3)):
            for id in ("fT-sym", "fT-decomp", "fT-ext"):
                r = verify(id, params={"T": T}, N=8)
                assert r.passed, (id, T.descriptor(), r.first_mismatch)

    def test_meta_sweep(self):
        from symlie import DivisorWeight, MOEBIUS, TOTIENT

        weights = (MOEBIUS, TOTIENT, DivisorWeight.prime_split(PrimeSet((2,))),
                   DivisorWeight.part_set(PartSet.of(1, 3)))
        for w in weights:
            for id in ("meta-sym", "meta-ext", "meta-altext", "meta-altsym", "meta-equiv"):
                r = verify(id, params={"weight": w}, N=6)
                assert r.passed, (id, w.tag, r.first_mismatch)

    def test_psibar_sweep(self):
        from symlie import MOEBIUS, TOTIENT

        for w in (MOEBIUS, TOTIENT):
            for q in (2, 3):
                for sign in (1, -1):
                    r = verify("psibar", params={"q": q, "weight": w, "sign": sign}, N=8)
                    assert r.passed, (w.tag, q, sign, r.first_mismatch)

    def test_gmult_sweep(self):
        for id in ("gmult", "odd-gmult"):
            for g in ("one", "id"):
                r = verify(id, params={"g": g}, N=8)
                assert r.passed, (id, g, r.first_mismatch)

    def test_conj_via_lieq_nonprime(self):
        for q in (2, 3, 4, 6):
            r = verify("conj-via-lieq", params={"q": q}, N=8)
            assert r.passed, (q, r.first_mismatch)


class TestScans:
    def test_powk4_witnesses(self):
        report = scan_positivity("powk", [4, 5, 16], {"k": 4})
        verdicts = {v.n: v for v in report.verdicts}
        assert not verdicts[4].positive
        assert verdicts[4].witnesses == {P(1, 1, 1, 1): -1}
        assert verdicts[5].positive
        assert not verdicts[16].positive
        assert verdicts[16].witnesses == {P(*(1,) * 16): -1}

    def test_product_powk4_slice_is_positive(self):
        # verified fact: the expanded product itself stays schur positive
        # through degree 16 (the negativity lives in the generating family)
        report = scan_positivity("product-powk", [4, 8, 16], {"k": 4})
        assert report.all_positive

    def test_symLS_sum_positive(self):
        report = scan_positivity("symLS-sum", [9], {"S": PrimeSet((3,))})
        assert report.all_positive

    def test_more_positive_families(self):
        assert scan_positivity("symLSbar-sum", range(1, 9), {"S": PrimeSet((2,))}).all_positive
        assert scan_positivity("symLS-even-sum", range(1, 9), {"S": PrimeSet((2,))}).all_positive
        assert scan_positivity("extLS-sum", range(1, 9), {"S": PrimeSet((3,))}).all_positive
        assert scan_positivity("divk", range(1, 9), {"k": 6}).all_positive
        assert scan_positivity("mod1k-product", range(1, 11), {"k": 3}).all_positive
        assert scan_positivity("lek", range(1, 9), {"k": 3}).all_positive

    def test_onek_even_negativity(self):
        # for T = {1, k} with even k >= 4 the member at n = k loses positivity
        report = scan_positivity("onek", [4], {"k": 4})
        assert not report.all_positive
        assert report.verdicts[0].witnesses == {P(1, 1, 1, 1): -1}

    def test_determinism_and_jobs(self):
        a = scan_positivity("powk", range(1, 13), {"k": 4})
        b = scan_positivity("powk", range(1, 13), {"k": 4}, jobs=4)
        assert [(v.n, v.positive, v.witnesses) for v in a.verdicts] == [
            (v.n, v.positive, v.witnesses) for v in b.verdicts
        ]

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            scan_positivity("powk", [25], {"k": 4})
        scan_positivity("powk", [21], {"k": 4}, budget=21)
        for budget in (21.5, True, "21"):
            with pytest.raises(ValueError, match=f"budget must be an integer, got {budget!r}"):
                scan_positivity("powk", [1], {"k": 4}, budget=budget)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            scan_positivity("bogus", [3], {})

    def test_scan_families_listing(self):
        k2, T, S = {"k": "integer >= 2"}, {"T": "part-set descriptor"}, {"S": "prime set"}
        assert scan_families() == {
            "altsymLS-sum": S,
            "divk": k2,
            "extLS-sum": {"S": "prime set without 2"},
            "fT": T,
            "fT-product": T,
            "lek": k2,
            "mod1k-product": {"k": "integer >= 1"},
            "onek": k2,
            "powk": k2,
            "product-powk": k2,
            "symLS-even-sum": S,
            "symLS-sum": S,
            "symLSbar-sum": S,
        }
        assert list(scan_families()) == sorted(scan_families())

    def test_altsymLS_sum(self):
        # sum of p_lam over distinct S-smooth parts.  S = {3}: at n = 3 the
        # only such partition is (3) and chi^(2,1) on a 3-cycle is -1; at
        # n = 4 it is (3,1) and chi^(2,2)((3,1)) = -1.
        report = scan_positivity("altsymLS-sum", range(1, 11), {"S": PrimeSet((3,))})
        assert report.negatives() == [3, 4, 9, 10]
        verdicts = {v.n: v for v in report.verdicts}
        assert verdicts[3].witnesses == {P(2, 1): -1}
        assert verdicts[4].witnesses == {P(2, 2): -1}
        # S = {2}: already at n = 2 the sum is p_2 = s_2 - s_{1,1}
        report = scan_positivity("altsymLS-sum", range(1, 11), {"S": PrimeSet((2,))})
        assert report.negatives() == list(range(2, 11))
        assert report.verdicts[1].witnesses == {P(1, 1): -1}

    def test_report_json(self):
        report = scan_positivity("powk", [4], {"k": 4})
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["all_positive"] is False
        assert payload["verdicts"][0]["witnesses"] == [
            {"partition": [1, 1, 1, 1], "num": "-1", "den": "1"}
        ]


def _smooth(a: int, S) -> bool:
    for q in S:
        while a % q == 0:
            a //= q
    return a == 1


def _rough(a: int, S) -> bool:
    return all(a % q for q in S)


def _power_of(a: int, k: int) -> bool:
    while a % k == 0:
        a //= k
    return a == 1


def _evens(lam) -> list[int]:
    return [a for a in lam.parts if a % 2 == 0]


# The p_lam-sum scans stated as predicates on lam; each family's member at n is
# the sum of p_lam over the partitions lam of n that pass.
_SCAN_PREDICATES = {
    "product-powk": lambda p: lambda lam: all(_power_of(a, p["k"]) for a in lam.parts),
    "mod1k-product": lambda p: lambda lam: all(a % p["k"] == 1 % p["k"] for a in lam.parts),
    "fT-product": lambda p: lambda lam: all(a in p["T"] for a in lam.parts),
    "symLS-sum": lambda p: lambda lam: all(_smooth(a, p["S"]) for a in lam.parts),
    "symLSbar-sum": lambda p: lambda lam: all(_rough(a, p["S"]) for a in lam.parts),
    "symLS-even-sum": lambda p: lambda lam: all(_smooth(a, p["S"]) for a in lam.parts) and len(_evens(lam)) % 2 == 0,
    "altsymLS-sum": lambda p: lambda lam: all(_smooth(a, p["S"]) for a in lam.parts) and len(set(lam.parts)) == len(lam),
    # odd S-smooth parts, and distinct even parts 2m with m odd and S-smooth
    "extLS-sum": lambda p: lambda lam: len(set(_evens(lam))) == len(_evens(lam))
    and all(_smooth(a, p["S"]) if a % 2 else (a // 2) % 2 == 1 and _smooth(a // 2, p["S"]) for a in lam.parts),
}


class TestScanSlices:
    PRIME_SETS = [PrimeSet(()), PrimeSet((2,)), PrimeSet((3,)), PrimeSet((3, 5))]
    PART_SETS = [PartSet.parse(t) for t in ("1,3", "pow(4)", "div(6)", "rough(2)")]
    PARAMS = {
        "product-powk": [{"k": k} for k in (2, 3, 4)],
        "mod1k-product": [{"k": k} for k in (1, 2, 3, 4)],
        "fT-product": [{"T": T} for T in PART_SETS],
        "symLS-sum": [{"S": S} for S in PRIME_SETS],
        "symLSbar-sum": [{"S": S} for S in PRIME_SETS],
        "symLS-even-sum": [{"S": S} for S in PRIME_SETS],
        "altsymLS-sum": [{"S": S} for S in PRIME_SETS],
        "extLS-sum": [{"S": S} for S in PRIME_SETS if 2 not in S],
    }

    FAMILY_PARAMS = {
        "powk": [{"k": k} for k in (2, 3, 4)],
        "onek": [{"k": k} for k in (2, 3, 5)],
        "lek": [{"k": k} for k in (2, 3, 4)],
        "divk": [{"k": k} for k in (4, 6, 12)],
        "fT": [{"T": T} for T in PART_SETS + [PartSet.everything()]],
    }
    # the part set of each family scan, stated apart from the table
    FAMILY_SETS = {
        "powk": lambda p: PartSet.powers_of(p["k"]),
        "onek": lambda p: PartSet.of(1, p["k"]),
        "lek": lambda p: PartSet.up_to(p["k"]),
        "divk": lambda p: PartSet.divisors_of(p["k"]),
        "fT": lambda p: p["T"],
    }

    @staticmethod
    def _same(got, want) -> bool:
        return (list(got.num.items()), got.den) == (list(want.num.items()), want.den)

    def test_every_p_lam_sum_scan_against_its_predicate(self):
        # each product scan's expansion at n is that of the p_lam sum its predicate keeps; the
        # Schur functions are a basis, so this pins the sum itself
        assert set(self.PARAMS) == set(_SCAN_PREDICATES)
        assert set(_SCANS) == set(self.PARAMS) | set(self.FAMILY_SETS)
        for family, psets in self.PARAMS.items():
            _, expand = _SCANS[family]
            for p in psets:
                keep = _SCAN_PREDICATES[family](p)
                for n in range(1, 11):
                    brute = SymFunc(n, {lam: 1 for lam in partitions_of(n) if keep(lam)})
                    assert expand(n, **p) == to_schur(brute), (family, p, n)

    def test_rim_hook_engine_against_to_schur(self):
        # each product scan's verdicts read the DP, which adds strips forwards; the
        # characters of the brute-force p_lam sum remove them backwards
        for family, psets in self.PARAMS.items():
            _, expand = _SCANS[family]
            for p in psets:
                keep = _SCAN_PREDICATES[family](p)
                for n in range(1, 13):
                    brute = SymFunc(n, {lam: 1 for lam in partitions_of(n) if keep(lam)})
                    assert self._same(expand(n, **p), schur_by_characters(brute)), (family, p, n)

    def test_ribbon_chains_against_to_schur(self):
        # the part-set family scans sum ribbon chains through to_schur; the oracle evaluates
        # characters of the family member, whose part set is stated apart from the table
        assert set(self.FAMILY_PARAMS) == set(self.FAMILY_SETS)
        for family, psets in self.FAMILY_PARAMS.items():
            _, expand = _SCANS[family]
            for p in psets:
                for n in range(1, 13):
                    member = part_family(n, self.FAMILY_SETS[family](p))
                    assert self._same(expand(n, **p), schur_by_characters(member)), (family, p, n)


class TestMemberExpansions:
    WEIGHTS = (MOEBIUS, TOTIENT, DivisorWeight.prime_split((3,)), DivisorWeight.part_set(PartSet.of(1, 3)))

    def test_against_quotient_oracle(self):
        # lie, conj, lie_primes and part_family members, where characters get costly
        for n in (24, 32):
            chains = {d: quotient_power_schur(d, n // d) for d in range(1, n + 1) if n % d == 0}
            for w in self.WEIGHTS:
                want: dict = {}
                for d, chain in chains.items():
                    for lam, v in chain.items():
                        want[lam] = want.get(lam, 0) + w(d) * v
                got = {k: n * v for k, v in fraction_terms(to_schur(from_divisor_weight(n, w))).items()}
                assert got == {k: v for k, v in want.items() if v}, (n, w)

    def test_no_character_is_evaluated(self):
        code = (
            "from symlie import PartSet, hook_content_check, lie, lifting_check, product_slice, scan_positivity, to_schur\n"
            "from symlie.symfunc import _char\n"
            "to_schur(product_slice([(m, -1, -1) for m in range(1, 15)], 14))\n"
            "to_schur(lie(24))\n"
            "lifting_check(3, 28)\n"
            "lifting_check(5, 20)\n"
            "hook_content_check(16)\n"
            "for family, p in (('powk', {'k': 2}), ('onek', {'k': 3}), ('lek', {'k': 3}), ('divk', {'k': 6}), ('fT', {'T': PartSet.everything()})):\n"
            "    scan_positivity(family, range(1, 17), p)\n"
            "info = _char.cache_info()\n"
            "print(info.hits, info.misses)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\n", "")

    def test_only_reported_witnesses_are_interned(self):
        # the engines key shapes by parts tuples and beta keys; a Partition is
        # interned only for a witness handed out through negatives()
        code = (
            "import symlie\n"
            "from symlie import PartSet, PrimeSet, lifting_check, scan_positivity\n"
            "from symlie.partitions import _interned\n"
            "from symlie.families import lie_primes\n"
            "from symlie.symfunc import p_of, to_schur\n"
            "start = len(_interned)\n"
            "for n in range(2, 25):\n"
            "    to_schur(p_of((1,)) * lie_primes(n - 1, (3,)) - lie_primes(n, (3,)))\n"
            "print(len(_interned) - start)\n"
            "reports = [lifting_check(3, 24)]\n"
            "for family, p in (('powk', {'k': 2}), ('onek', {'k': 3}), ('lek', {'k': 3}), ('divk', {'k': 6}), ('fT', {'T': PartSet.everything()}),\n"
            "                  ('symLS-even-sum', {'S': PrimeSet((2, 3))})):\n"
            "    reports.append(scan_positivity(family, range(1, 17), p))\n"
            "witnesses = {k for r in reports for v in r.verdicts for k in v.witnesses}\n"
            "print(len(_interned) - start - len(witnesses), len(witnesses) > 0)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n0 True\n", "")


class TestLifting:
    def test_expansions_against_to_schur(self):
        for q in (2, 3, 5, 7):
            for n in range(2, 21):
                diff = p_of((1,)) * lie_primes(n - 1, (q,)) - lie_primes(n, (q,))
                got, want = to_schur(diff), schur_by_characters(diff)
                assert (list(got.num.items()), got.den) == (list(want.num.items()), want.den), (q, n)

    def test_q3_small_range(self):
        report = lifting_check(3, 12)
        assert report.negatives() == [3, 6, 9, 10]

    def test_q5_small_range(self):
        report = lifting_check(5, 12)
        assert report.negatives() == [5, 6, 10]

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            lifting_check(4, 10)

    def test_budget(self):
        with pytest.raises(BudgetError):
            lifting_check(3, 33)
        for budget in (10.5, True, "10"):
            with pytest.raises(ValueError, match=f"budget must be an integer, got {budget!r}"):
                lifting_check(3, 10, budget=budget)

    def test_catalog_entry(self):
        r = verify("lifting", params={"q": 3, "n_max": 12})
        assert r.passed

    def test_wrong_exception_list_fails_at_first_difference(self, monkeypatch):
        # the computed negatives up to 12 are [3, 6, 9, 10]
        for recorded, degree in (((3, 6, 10, 18), 9), ((3, 4, 6, 9, 10), 4), ((3, 6, 9, 10, 11), 11)):
            monkeypatch.setitem(LIFTING_EXCEPTIONS, 3, recorded)
            r = verify("lifting", params={"q": 3, "n_max": 12})
            assert r.status == "fail"
            assert r.first_mismatch["degree"] == degree, recorded
            expected = str([m for m in recorded if m <= 12])
            assert r.first_mismatch["diffs"] == [{"partition": [], "lhs": "[3, 6, 9, 10]", "rhs": expected}]

    def test_catalog_window_is_the_scan_ceiling(self):
        assert verify("lifting").N == 18
        assert verify("lifting", params={"n_max": 9}, N=9).N == 9
        with pytest.raises(ValueError, match="N must equal n_max"):
            verify("lifting", N=8)

    def test_ceiling_below_two_rejected(self):
        for n_max in (1, 0, -5):
            with pytest.raises(ValueError, match="n_max must be integer >= 2"):
                lifting_check(3, n_max)
            with pytest.raises(ValueError, match="n_max must be integer >= 2"):
                verify("lifting", params={"n_max": n_max}, N=n_max)
        assert lifting_check(3, 2).negatives() == []


class TestHooks:
    def test_n5_exceptions(self):
        rep = hook_content_check(5)
        assert rep["status"] == "pass"
        assert rep["exceptions"] == [[2, 1, 1, 1], [4, 1]]

    def test_n6_exceptions(self):
        rep = hook_content_check(6)
        assert rep["status"] == "pass"
        assert rep["exceptions"] == [[1, 1, 1, 1, 1, 1], [5, 1]]

    def test_n2_computed(self):
        rep = hook_content_check(2)
        assert rep["status"] == "pass"

    def test_range(self):
        for n in range(2, 11):
            assert hook_content_check(n)["status"] == "pass"
        with pytest.raises(ValueError):
            hook_content_check(1)
        for n in (2.5, True, 4.0, "4"):
            with pytest.raises(ValueError, match=f"hook_content_check requires an integer n >= 2, got {n!r}"):
                hook_content_check(n)
