"""Command-line front end.

Subcommands: expand, schur, pleth, verify, scan, lift, list.  All state
lives in flags (no config files), so identical argv gives byte-identical
output; timing fields are only emitted under --timing.

Exit codes: 0 success / identity passed / scan positive; 1 verification
failure or negative scan verdict under --expect-positive; 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .families import (
    DivisorWeight,
    MOEBIUS,
    PartSet,
    TOTIENT,
    conj_series,
    family_series,
    foulkes_series,
    lie_primes_bar_series,
    lie_primes_series,
    lie_series,
    part_family_ext_series,
    part_family_series,
)
from .partitions import Partition, PrimeSet
from .plethysm import Series, e_series, h_series, p1_series, pleth
from .symfunc import SymFunc, e_of, h_of, p_of, s_of, terms_json, to_schur
from .verify import (
    BudgetError,
    DEFAULT_LIFT_BUDGET,
    DEFAULT_SCAN_BUDGET,
    UnknownIdentityError,
    lifting_check,
    list_identities,
    scan_families,
    scan_positivity,
    verify,
)


class UsageError(ValueError):
    pass


def parse_part_set(text: str) -> PartSet:
    try:
        return PartSet.parse(text)
    except ValueError as exc:
        raise UsageError(f"malformed set descriptor: {exc}") from None


def parse_weight(text: str) -> DivisorWeight:
    t = text.strip()
    if t == "mu":
        return MOEBIUS
    if t == "phi":
        return TOTIENT
    if t.startswith("primesbar:"):
        return DivisorWeight.prime_split_bar(PrimeSet.from_text(t.split(":", 1)[1]))
    if t.startswith("primes:"):
        return DivisorWeight.prime_split(PrimeSet.from_text(t.split(":", 1)[1]))
    if t.startswith("parts:"):
        return DivisorWeight.part_set(parse_part_set(t.split(":", 1)[1]))
    if t.startswith("ramanujan:"):
        try:
            r = int(t.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"malformed weight descriptor {text!r}") from None
        return DivisorWeight.ramanujan(r)
    raise UsageError(f"unknown weight descriptor {text!r}")


def _p_sum_series(n: int) -> Series:
    return Series(n, {d: p_of((d,)) for d in range(1, n + 1)})


_FAMILIES = {"lie": lie_series, "conj": conj_series, "h": h_series, "e": e_series, "p1": p1_series, "p": _p_sum_series}
# name -> (parser of the text after the colon, constructor taking the parsed argument and n)
_ARG_FAMILIES = {
    "foulkes": (int, foulkes_series),
    "lieSbar": (PrimeSet.from_text, lie_primes_bar_series),
    "lieS": (PrimeSet.from_text, lie_primes_series),
    "fT": (parse_part_set, part_family_series),
    "gT": (parse_part_set, part_family_ext_series),
    "weight": (parse_weight, family_series),
}


def family_to_series(desc: str, n: int) -> Series:
    """Resolve a family descriptor to a series truncated at n.

    Descriptors: lie | conj | foulkes:r | lieS | lieS:<primes> | lieSbar |
    lieSbar:<primes> | fT:<set> | gT:<set> | h | e | p | p1 | weight:<weight>.
    Only a descriptor that does not parse is a bad descriptor; a refusal of
    the constructor, such as a degree above 255, prints as it is.
    """
    t = desc.strip()
    head, colon, rest = t.partition(":")
    if t in _FAMILIES:
        build = _FAMILIES[t]
    elif head in _ARG_FAMILIES and (colon or head in ("lieS", "lieSbar")):
        parse, make = _ARG_FAMILIES[head]
        try:
            arg = parse(rest)
        except UsageError:
            raise
        except (ValueError, KeyError) as exc:
            raise UsageError(f"bad family descriptor {desc!r}: {exc}") from None
        build = functools.partial(make, arg)
    else:
        raise UsageError(f"unknown family {desc!r}")
    try:
        return build(n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def basis_or_family(desc: str, n: int) -> Series:
    """Like family_to_series but also accepts basis elements h:r, e:r, p:r, s:3,1.

    A basis element above degree n is the zero series and is not built.  As
    in family_to_series, only an argument that does not parse is a bad
    descriptor; a refusal of the constructor prints as it is.
    """
    t = desc.strip()
    head, colon, rest = t.partition(":")
    if not colon or head not in ("h", "e", "p", "s"):
        return family_to_series(t, n)
    single = head in ("h", "e")
    try:
        arg = int(rest) if single else tuple(sorted((int(x) for x in rest.split(",")), reverse=True))
    except ValueError as exc:
        raise UsageError(f"bad basis descriptor {desc!r}: {exc}") from None
    try:
        if (arg if single else Partition(arg).size) > n:
            return Series(n)
        return Series.from_symfunc({"h": h_of, "e": e_of, "p": p_of, "s": s_of}[head](arg), n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _member(args) -> SymFunc:
    """The degree-n member of --family, n = --n."""
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    return family_to_series(args.family, args.n).component(args.n)


def cmd_expand(args) -> int:
    f = _member(args)
    if args.basis == "schur":
        f = to_schur(f)
    print(json.dumps(f.to_json_dict(), sort_keys=True) if args.format == "json" else f.to_text())
    return 0


def cmd_schur(args) -> int:
    exp = to_schur(_member(args))
    neg = exp.negatives()
    positive = not neg
    if args.format == "json":
        payload = exp.to_json_dict()
        payload["schur_positive"] = positive
        payload["witnesses"] = terms_json(neg)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(exp.to_text())
        print(f"schur-positive: {'yes' if positive else 'no'}")
        for k, v in sorted(neg.items(), key=lambda kv: kv[0].parts, reverse=True):
            print(f"  negative at {k!r}: {v}")
    return 0 if positive or not args.expect_positive else 1


def cmd_pleth(args) -> int:
    n = args.max_degree
    if n < 1:
        raise UsageError("--max-degree must be >= 1")
    if args.degree is not None and not 1 <= args.degree <= n:
        raise UsageError(f"--degree must be in 1..{n}, got {args.degree}")
    outer = basis_or_family(args.outer, n)
    inner = basis_or_family(args.inner, n)
    try:
        result = pleth(outer, inner)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    degrees = range(1, n + 1) if args.degree is None else [args.degree]
    if args.format == "json":
        payload = {
            "outer": args.outer,
            "inner": args.inner,
            "max_degree": n,
            "components": [result.component(d).to_json_dict() for d in degrees],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for d in degrees:
            print(f"deg {d}: {result.component(d).to_text()}")
    return 0


_PARSE = {"S": PrimeSet.from_text, "T": parse_part_set, "weight": parse_weight}


def _params(args, keys) -> dict:
    """The flags among ``keys`` that were given, in that order, with --S, --T and --weight parsed."""
    return {k: _PARSE[k](v) if k in _PARSE else v for k in keys if (v := getattr(args, k)) is not None}


def cmd_verify(args) -> int:
    try:
        params = _params(args, ("S", "T", "q", "k", "n_max", "weight", "g", "family", "sign"))
        report = verify(args.id, params, args.max_degree)
    except UnknownIdentityError as exc:
        raise UsageError(exc.args[0]) from None
    except ValueError as exc:
        raise UsageError(f"invalid params: {exc}") from None
    if args.format == "json":
        print(json.dumps(report.to_json_dict(timing=args.timing), sort_keys=True))
    else:
        print(f"{report.id}: {report.status} (N={report.N}, params={report.params})")
        if report.first_mismatch:
            print(f"  first mismatch: {report.first_mismatch}")
        for line in report.details:
            print(f"  {line}")
    return 0 if report.passed else 1


def cmd_scan(args) -> int:
    if args.n is not None:
        ns = [args.n]
    elif args.n_from is not None and args.n_to is not None:
        ns = range(args.n_from, args.n_to + 1)
    else:
        raise UsageError("scan needs --n or both --n-from and --n-to")
    try:
        report = scan_positivity(args.family, ns, _params(args, ("k", "T", "S")), budget=args.budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        print(json.dumps(report.to_json_dict(timing=args.timing), sort_keys=True))
    else:
        for v in report.verdicts:
            line = f"n={v.n}: {'positive' if v.positive else 'NEGATIVE'}"
            if not v.positive:
                wit = ", ".join(f"{k!r}:{c}" for k, c in sorted(v.witnesses.items(), key=lambda kv: kv[0].parts, reverse=True))
                line += f"  witnesses: {wit}"
            print(line)
    return 0 if (report.all_positive or not args.expect_positive) else 1


def cmd_lift(args) -> int:
    try:
        report = lifting_check(args.q, args.n_max, budget=args.budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        print(json.dumps(report.to_json_dict(timing=args.timing), sort_keys=True))
    else:
        negs = report.negatives()
        print(f"q={args.q}, n up to {args.n_max}: negatives at {negs}")
    return 0


def cmd_list(args) -> int:
    catalog = list_identities()
    if args.format == "json":
        print(json.dumps({"identities": catalog, "scan_families": scan_families()}, sort_keys=True))
    else:
        for e in catalog:
            params = " ".join(f"{k}" for k in e["params"]) or "-"
            print(f"{e['id']:<22} N={e['default_N']:<3} params: {params:<24} {e['statement']}")
        print()
        print("scan families: " + ", ".join(scan_families()))
    return 0


@functools.cache  # parsing keeps no state in the parser, so every main call shares one
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="symlie", description="Exact symmetric-function families, plethysm identities, and Schur-positivity scans.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--timing", action="store_true", help="include elapsed_ms in JSON output")

    p = sub.add_parser("expand", help="expand a family member in the p or schur basis")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", choices=("p", "schur"), default="p")
    add_common(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("schur", help="schur expansion plus positivity verdict")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--expect-positive", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("pleth", help="plethysm outer[inner] of two series")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--degree", type=int)
    add_common(p)
    p.set_defaults(fn=cmd_pleth)

    p = sub.add_parser("verify", help="check one catalog identity exactly")
    p.add_argument("--id", required=True)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--S")
    p.add_argument("--T")
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--weight")
    p.add_argument("--g")
    p.add_argument("--fam", dest="family", metavar="FAM", help="series family for identities parameterized by one (e.g. HF-EG)")
    p.add_argument("--sign", type=int, choices=(1, -1))
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="schur-positivity scan of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--n-from", dest="n_from", type=int)
    p.add_argument("--n-to", dest="n_to", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--T")
    p.add_argument("--S")
    p.add_argument("--expect-positive", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_SCAN_BUDGET)
    add_common(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("lift", help="positivity of p_1 L_{n-1} - L_n for a single-prime family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_LIFT_BUDGET)
    add_common(p)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("list", help="dump the identity catalog")
    add_common(p)
    p.set_defaults(fn=cmd_list)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (UsageError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
