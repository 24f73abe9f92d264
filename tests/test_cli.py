"""Command-line interface: output forms, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from symlie import cli, symfunc
from symlie.cli import main

from helpers import P

# The exact stdout of `symlie list` and `symlie list --format json`, and of
# `symlie scan --format json` over n = 1..14 for one parameter set of each
# product scan (GOLDEN_SCANS).
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SCANS = {
    "product-powk": ("--k", "2"),
    "mod1k-product": ("--k", "3"),
    "fT-product": ("--T", "1,2,6"),
    "symLS-sum": ("--S", "2,3"),
    "symLSbar-sum": ("--S", "3"),
    "symLS-even-sum": ("--S", "2,3"),
    "altsymLS-sum": ("--S", "3"),
    "extLS-sum": ("--S", "3,5"),
}
# The exact stdout of the commands whose answers expand divisor-family
# members in the Schur basis: the lifting checks, the five part-set family
# scans over n = 1..14, and the two catalog ids built on them.
GOLDEN_MEMBERS = {
    "lift-q3-28.json": ("lift", "--q", "3", "--n-max", "28", "--format", "json"),
    "lift-q5-26.txt": ("lift", "--q", "5", "--n-max", "26"),
    "scan-fT.json": ("scan", "--family", "fT", "--T", "all"),
    "scan-lek.json": ("scan", "--family", "lek", "--k", "3"),
    "scan-divk.json": ("scan", "--family", "divk", "--k", "6"),
    "scan-powk.json": ("scan", "--family", "powk", "--k", "2"),
    "scan-onek.json": ("scan", "--family", "onek", "--k", "3"),
    "verify-conj-hooks.json": ("verify", "--id", "conj-hooks", "--format", "json"),
    "verify-lifting.json": ("verify", "--id", "lifting", "--format", "json"),
}
GOLDEN_PLETHS = (
    ("p:2", "lie", 8),
    ("h:3", "conj", 9),
    ("e", "lie", 7),
    ("s:2,1", "lie", 9),
    ("conj", "lie", 8),
    ("h", "lie", 8),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_lie4_schur_text(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "lie", "--n", "4", "--basis", "schur")
        assert code == 0
        assert out.strip() == "s[3,1] + s[2,1,1]"

    def test_lie4_p_json(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "lie", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"] == "p"
        assert payload["terms"] == [
            {"partition": [2, 2], "num": "-1", "den": "4"},
            {"partition": [1, 1, 1, 1], "num": "1", "den": "4"},
        ]

    def test_family_descriptors(self, capsys):
        for fam in ("conj", "foulkes:2", "lieS:2,3", "lieSbar:2", "lieS", "lieS:", "lieSbar", "fT:1,5",
                    "fT:div(12)", "fT:mod1(4)", "fT:pow(3)", "fT:le(5)", "gT:1"):
            code, out, _ = run(capsys, "expand", "--family", fam, "--n", "4")
            assert code == 0 and out.strip()

    def test_unknown_family_usage_error(self, capsys):
        # lieS/lieSbar stand alone or take ":<primes>"; a longer name is not a prefix match
        for fam in ("nope", "lieSxyz", "lieSbarQQ", "lieS2", "lieSbar,3"):
            code, out, err = run(capsys, "expand", "--family", fam, "--n", "3")
            assert (code, out) == (2, ""), fam
            assert err == f"error: unknown family {fam!r}\n"

    def test_malformed_set_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "--family", "fT:le(x)", "--n", "3")
        assert code == 2
        assert "malformed" in err

    def test_degree_ceiling_usage_error(self, capsys):
        # a SymFunc holds degrees up to 255; lie(256) is refused, not expanded
        code, out, err = run(capsys, "expand", "--family", "lie", "--n", "256")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "255" in err


    def test_only_an_unparsed_descriptor_is_bad(self, capsys):
        # a refused degree prints as the constructor's own error; only the parsing of the text is a bad descriptor
        ceiling = "error: degree 256 exceeds 255, the largest degree a power-sum key holds\n"
        cases = {
            ("expand", "--family", "lie", "--n", "256"): ceiling,
            ("pleth", "--outer", "p:2", "--inner", "lie", "--max-degree", "256"): ceiling,
            ("expand", "--family", "lieS:x", "--n", "3"): "error: bad family descriptor 'lieS:x': malformed prime set 'x'\n",
            ("expand", "--family", "foulkes:x", "--n", "3"):
                "error: bad family descriptor 'foulkes:x': invalid literal for int() with base 10: 'x'\n",
            ("expand", "--family", "fT:le(x)", "--n", "3"): "error: malformed set descriptor: malformed part-set descriptor 'le(x)'\n",
            ("expand", "--family", "foulkes:0", "--n", "3"): "error: foulkes_series requires an integer k >= 1, got 0\n",
            ("pleth", "--outer", "h:-1", "--inner", "lie", "--max-degree", "3"): "error: h_of requires an integer n >= 0, got -1\n",
            ("pleth", "--outer", "p:0", "--inner", "lie", "--max-degree", "3"): "error: parts must be positive integers: (0,)\n",
            ("pleth", "--outer", "h:x", "--inner", "lie", "--max-degree", "3"):
                "error: bad basis descriptor 'h:x': invalid literal for int() with base 10: 'x'\n",
        }
        for argv, want in cases.items():
            assert run(capsys, *argv) == (2, "", want), argv

class TestSchurCommand:
    def test_positive_family(self, capsys):
        code, out, _ = run(capsys, "schur", "--family", "conj", "--n", "6")
        assert code == 0
        assert "schur-positive: yes" in out

    def test_negative_witness_and_exit(self, capsys):
        code, out, _ = run(capsys, "schur", "--family", "fT:pow(4)", "--n", "4",
                           "--expect-positive")
        assert code == 1
        assert "negative at [1,1,1,1]: -1" in out


class TestPleth:
    def test_p2_of_lie(self, capsys):
        code, out, _ = run(capsys, "pleth", "--outer", "p:2", "--inner", "lie",
                           "--max-degree", "4", "--degree", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["components"][0]["terms"] == [
            {"partition": [4], "num": "-1", "den": "2"},
            {"partition": [2, 2], "num": "1", "den": "2"},
        ]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "pleth", "--outer", "h:2", "--inner", "p1", "--max-degree", "3")
        assert code == 0
        assert "deg 2:" in out
        code, out, _ = run(capsys, "pleth", "--outer", "lie", "--inner", "p1", "--max-degree", "3", "--degree", "1")
        assert code == 0
        assert out == "deg 1: p[1]\n"

    def test_exact_bytes(self, capsys):
        for outer, inner, n in GOLDEN_PLETHS:
            name = f"pleth-{outer}-{inner}-{n}".replace(":", "").replace(",", "")
            code, out, err = run(capsys, "pleth", "--outer", outer, "--inner", inner,
                                 "--max-degree", str(n), "--format", "json")
            assert (code, err) == (0, "")
            assert out == (GOLDEN / f"{name}.json").read_text(), name


class TestPlethErrors:
    def test_constant_inner_is_usage_error(self, capsys):
        for inner in ("e", "h:0"):
            code, out, err = run(capsys, "pleth", "--outer", "lie", "--inner", inner, "--max-degree", "4")
            assert code == 2
            assert out == ""
            assert err == "error: plethysm requires a constant-free inner series\n"

    def test_degree_outside_window_is_usage_error(self, capsys, monkeypatch):
        # 0 is not "no --degree": every degree outside 1..--max-degree is
        # refused, before any plethysm is computed
        monkeypatch.setattr(cli, "pleth", None)
        for degree in ("9", "5", "0", "-1"):
            code, out, err = run(capsys, "pleth", "--outer", "lie", "--inner", "p1", "--max-degree", "4", "--degree", degree)
            assert code == 2
            assert out == ""
            assert err == f"error: --degree must be in 1..4, got {degree}\n"

    def test_basis_element_above_the_window_is_not_built(self, capsys, monkeypatch):
        # above --max-degree an element is the zero series: the bytes of h:5 at --max-degree 3
        def refuse(*_):
            raise RuntimeError("a basis element above the window was built")

        monkeypatch.setattr(cli, "h_of", refuse)
        monkeypatch.setattr(cli, "s_of", refuse)
        for outer in ("h:300", "h:5", "s:300", "s:2,2"):
            got = run(capsys, "pleth", "--outer", outer, "--inner", "lie", "--max-degree", "3")
            assert got == (0, "deg 1: 0\ndeg 2: 0\ndeg 3: 0\n", ""), outer

    def test_basis_element_above_the_ceiling_is_refused_at_once(self, capsys, monkeypatch):
        # h_of refuses 300 before its Newton recursion, which builds every h_d below 300 first,
        # and the series H and E at a window above 255 before they build h_0 .. h_255
        def refuse(*_):
            raise RuntimeError("the recursion of h_of ran")

        monkeypatch.setattr(symfunc, "_h_of", refuse)
        for argv in (
            ("pleth", "--outer", "h:300", "--inner", "p1", "--max-degree", "300"),
            ("expand", "--family", "h", "--n", "300"),
            ("expand", "--family", "e", "--n", "300"),
            ("pleth", "--outer", "h", "--inner", "lie", "--max-degree", "300"),
        ):
            got = run(capsys, *argv)
            assert got == (2, "", "error: degree 300 exceeds 255, the largest degree a power-sum key holds\n"), argv


class TestVerifyCommand:
    def test_thrall_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "thrall", "--max-degree", "8",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["N"] == 8
        assert payload["elapsed_ms"] is None

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "zzz")
        assert code == 2
        assert "unknown identity" in err

    def test_invalid_params(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "extLS-omega", "--S", "2", "--max-degree", "6")
        assert code == 2
        assert "invalid params" in err

    def test_malformed_prime_set_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--id", "symLS", "--S", "x")
        assert code == 2
        assert out == ""
        assert err == "error: invalid params: malformed prime set 'x'\n"

    def test_malformed_descriptor_is_usage_error(self, capsys):
        for argv, msg in (
            (("--id", "fT-sym", "--T", "le(x)"), "malformed set descriptor: malformed part-set descriptor 'le(x)'"),
            (("--id", "fT-sym", "--T", "mod1(x)"), "malformed set descriptor: malformed part-set descriptor 'mod1(x)'"),
            (("--id", "meta-sym", "--weight", "ramanujan:x"), "malformed weight descriptor 'ramanujan:x'"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: invalid params: {msg}\n"

    def test_param_passing(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "symLS", "--S", "2,5", "--max-degree", "6",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["params"] == {"S": "{2,5}"}

    def test_part_set_weight_bytes(self, capsys):
        # the weight tag parts[1,3] is the part set's descriptor
        code, out, err = run(capsys, "verify", "--id", "meta-sym", "--weight", "parts:1,3", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (
            '{"N": 8, "details": [], "elapsed_ms": null, "first_mismatch": null, "id": "meta-sym", '
            '"params": {"weight": "parts[1,3]"}, "status": "pass", "witnesses": []}\n'
        )

    def test_unknown_parameter_is_usage_error(self, capsys):
        # no catalog identity takes r; thrall takes no parameter at all
        code, out, err = run(capsys, "verify", "--id", "thrall", "--r", "3", "--max-degree", "6")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --r 3" in err
        code, out, err = run(capsys, "verify", "--id", "thrall", "--q", "3", "--max-degree", "6")
        assert code == 2
        assert out == ""
        assert err == "error: invalid params: thrall: unknown parameter q (takes none)\n"

    def test_lifting_window_is_its_scan_ceiling(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "lifting", "--q", "2", "--n-max", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 8
        assert payload["details"][0] == "negatives: [4, 8]"
        code, out, err = run(capsys, "verify", "--id", "lifting", "--max-degree", "8")
        assert code == 2
        assert out == ""
        assert err == "error: invalid params: lifting: N must equal n_max (18), got 8\n"
        code, out, _ = run(capsys, "verify", "--id", "lifting", "--n-max", "8", "--max-degree", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["N"] == 8


class TestScanCommand:
    def test_single_degree_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "powk", "--k", "4", "--n", "4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_positive"] is False
        assert payload["verdicts"][0]["witnesses"] == [
            {"partition": [1, 1, 1, 1], "num": "-1", "den": "1"}
        ]
        assert out == (
            '{"all_positive": false, "family": "powk", "params": {"k": "4"}, "verdicts": ['
            '{"elapsed_ms": null, "n": 4, "positive": false, '
            '"witnesses": [{"den": "1", "num": "-1", "partition": [1, 1, 1, 1]}]}]}\n'
        )

    def test_expect_positive_exit(self, capsys):
        code, _, _ = run(capsys, "scan", "--family", "powk", "--k", "4", "--n", "4",
                         "--expect-positive")
        assert code == 1

    def test_range(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "symLS-sum", "--S", "3",
                           "--n-from", "1", "--n-to", "9")
        assert code == 0
        assert out.count("positive") == 9

    def test_jobs_flag_is_refused(self, capsys):
        for argv in (("scan", "--family", "powk", "--k", "4", "--n", "4"), ("lift", "--q", "3", "--n-max", "6")):
            code, out, err = run(capsys, *argv, "--jobs", "2")
            assert (code, out) == (2, "") and "--jobs" in err, argv

    def test_budget_error(self, capsys):
        code, _, err = run(capsys, "scan", "--family", "powk", "--k", "4", "--n", "30")
        assert code == 2
        assert "budget" in err

    def test_missing_range(self, capsys):
        code, _, err = run(capsys, "scan", "--family", "powk", "--k", "4")
        assert code == 2
        assert "--n" in err

    def test_empty_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--family", "powk", "--k", "4", "--n-from", "5", "--n-to", "3")
        assert code == 2
        assert out == ""
        assert err == "error: the scan degree range is empty\n"
        code, _, err = run(capsys, "scan", "--family", "powk", "--k", "4", "--n-from", "0", "--n-to", "3")
        assert code == 2
        assert err == "error: scan degrees must be positive\n"

    def test_missing_parameter_is_usage_error(self, capsys):
        for argv in (("--family", "powk"), ("--family", "symLS-sum")):
            code, out, err = run(capsys, "scan", *argv, "--n", "4")
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "missing" in err

    def test_out_of_range_parameter_is_usage_error(self, capsys):
        for family in ("powk", "product-powk", "onek", "lek", "divk"):
            code, out, err = run(capsys, "scan", "--family", family, "--k", "1", "--n", "4")
            assert code == 2
            assert out == ""
            assert err == f"error: {family}: k must be integer >= 2, got 1\n"

    def test_malformed_prime_set_is_usage_error(self, capsys):
        for S, msg in (("4", "4 is not prime"), ("x", "malformed prime set 'x'")):
            code, out, err = run(capsys, "scan", "--family", "symLS-sum", "--S", S, "--n", "3")
            assert code == 2
            assert out == ""
            assert err == f"error: {msg}\n"

    def test_product_scans_exact_bytes(self, capsys):
        # witnesses included: fT-product, mod1k-product and altsymLS-sum go negative
        for family, (flag, value) in GOLDEN_SCANS.items():
            code, out, err = run(capsys, "scan", "--family", family, flag, value,
                                 "--n-from", "1", "--n-to", "14", "--format", "json")
            assert (code, err) == (0, "")
            assert out == (GOLDEN / f"scan-{family}.json").read_text(), family


class TestDivisorFamilyBytes:
    def test_exact_bytes(self, capsys):
        for name, argv in GOLDEN_MEMBERS.items():
            if argv[0] == "scan":
                argv += ("--n-from", "1", "--n-to", "14", "--format", "json")
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), name
            assert out == (GOLDEN / name).read_text(), name


class TestLiftCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "lift", "--q", "3", "--n-max", "10")
        assert code == 0
        assert "negatives at [3, 6, 9, 10]" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "lift", "--q", "5", "--n-max", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        negs = [v["n"] for v in payload["verdicts"] if not v["positive"]]
        assert negs == [5, 6]

    def test_empty_or_negative_ceiling_is_usage_error(self, capsys):
        for n_max, fmt in (("0", "text"), ("-5", "json"), ("1", "text")):
            code, out, err = run(capsys, "lift", "--q", "3", "--n-max", n_max, "--format", fmt)
            assert code == 2
            assert out == ""
            assert err == f"error: lifting: n_max must be integer >= 2, got {n_max}\n"
        code, out, err = run(capsys, "verify", "--id", "lifting", "--n-max", "1")
        assert (code, out) == (2, "")
        assert err == "error: invalid params: lifting: n_max must be integer >= 2, got 1\n"


class TestListCommand:
    def test_text_contains_ids(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "solomon" in out and "lifting" in out and "scan families:" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["identities"]) >= 30
        assert "powk" in payload["scan_families"]

    def test_exact_bytes(self, capsys):
        # pins every statement and schema text of the catalog and the scan table
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert out == (GOLDEN / "list.txt").read_text()
        code, out, _ = run(capsys, "list", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "list.json").read_text()


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argvs = [
            ("expand", "--family", "lie", "--n", "6", "--basis", "schur", "--format", "json"),
            ("verify", "--id", "cadogan", "--max-degree", "6", "--format", "json"),
            ("scan", "--family", "powk", "--k", "4", "--n-from", "1", "--n-to", "6",
             "--format", "json"),
            ("list", "--format", "json"),
        ]
        for argv in argvs:
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second

    def test_reused_parser_matches_fresh_interpreter(self, capsys):
        # main parses with one parser per process; an error exit must leave it
        # as a fresh interpreter's
        def fresh(*argv):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
            proc = subprocess.run([sys.executable, "-m", "symlie.cli", *argv], capture_output=True, text=True, env=env)
            return proc.returncode, proc.stdout, proc.stderr

        usage = run(capsys, "verify")
        assert usage[0] == 2
        assert usage == fresh("verify")
        argv = ("verify", "--id", "HE", "--format", "json")
        want = fresh(*argv)
        assert want[0] == 0
        assert run(capsys, *argv) == want
        assert run(capsys, *argv) == want
        assert cli.build_parser() is cli.build_parser()


class TestWriterBytes:
    """Exact stdout of the term writers in both bases and of a witness list.

    The scan witness list is pinned in TestScanCommand.test_single_degree_json.
    """

    def test_lie6_schur_text_and_json(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "lie", "--n", "6", "--basis", "schur")
        assert code == 0
        assert out == (
            "s[5,1] + s[4,2] + 2*s[4,1,1] + s[3,3] + 3*s[3,2,1] + s[3,1,1,1] + 2*s[2,2,1,1] + s[2,1,1,1,1]\n"
        )
        code, out, _ = run(capsys, "expand", "--family", "lie", "--n", "6", "--basis", "schur", "--format", "json")
        assert code == 0
        assert out == (
            '{"basis": "schur", "degree": 6, "terms": ['
            '{"den": "1", "num": "1", "partition": [5, 1]}, '
            '{"den": "1", "num": "1", "partition": [4, 2]}, '
            '{"den": "1", "num": "2", "partition": [4, 1, 1]}, '
            '{"den": "1", "num": "1", "partition": [3, 3]}, '
            '{"den": "1", "num": "3", "partition": [3, 2, 1]}, '
            '{"den": "1", "num": "1", "partition": [3, 1, 1, 1]}, '
            '{"den": "1", "num": "2", "partition": [2, 2, 1, 1]}, '
            '{"den": "1", "num": "1", "partition": [2, 1, 1, 1, 1]}]}\n'
        )

    def test_pow4_p_json(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "fT:pow(4)", "--n", "4", "--format", "json")
        assert code == 0
        assert out == (
            '{"basis": "p", "degree": 4, "terms": ['
            '{"den": "1", "num": "1", "partition": [4]}, '
            '{"den": "4", "num": "-1", "partition": [2, 2]}, '
            '{"den": "4", "num": "1", "partition": [1, 1, 1, 1]}]}\n'
        )

    def test_pow4_schur_with_witness(self, capsys):
        code, out, _ = run(capsys, "schur", "--family", "fT:pow(4)", "--n", "4")
        assert code == 0
        assert out == "s[4] + 2*s[2,1,1] - s[1,1,1,1]\nschur-positive: no\n  negative at [1,1,1,1]: -1\n"
        code, out, _ = run(capsys, "schur", "--family", "fT:pow(4)", "--n", "4", "--format", "json")
        assert code == 0
        assert out == (
            '{"basis": "schur", "degree": 4, "schur_positive": false, "terms": ['
            '{"den": "1", "num": "1", "partition": [4]}, '
            '{"den": "1", "num": "2", "partition": [2, 1, 1]}, '
            '{"den": "1", "num": "-1", "partition": [1, 1, 1, 1]}], '
            '"witnesses": [{"den": "1", "num": "-1", "partition": [1, 1, 1, 1]}]}\n'
        )
