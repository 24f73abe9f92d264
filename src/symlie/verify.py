"""The identity catalog and Schur-positivity scanning harness.

Each catalog entry is a named, parameterized identity between truncated
symmetric-function series, checked by exact equality per graded slice.
An identity is declared once, by the ``_identity`` decorator on its
builder: its id, statement, default window and each parameter as a
(Param, default) pair.  The builder receives the degree bound and every
parameter by name, checked and with the defaults filled in, and returns
its (label, kind, lhs, rhs) clauses; the three custom runners are
declared the same way and return their verdict themselves.

Every product side is read off one walk over the partitions into factor
parts, never re-derived through the plethysm path that produced the left
side, so the two routes stay independent: products of factors
(1 + s p_m)^{+/-1} through ``product_series``, and the length-graded
products (1 + s p_m)^{P_m(v)} of the ``meta-*`` ids, layer by layer in v,
through ``graded_product_series``.  No id enumerates a partition.

A positivity scan is one row of the table ``_SCANS``: its parameter schema
and ``expand(n, **params)``, the Schur expansion whose positivity is the
verdict at n.  The eight p_lam-sum scans take the same factor lists as the
products but expand them directly in the Schur basis
(``symfunc.product_slice_schur``), adding m-border strips forwards; the
even sum applies omega there, on the beta keys.  The five part-set family
scans, the lifting check and the hook-content check expand their
divisor-family members with ``to_schur``, which reads each power
p_d^{n/d} off its ribbon chain.  Neither route evaluates a character or
decodes a shape before its witnesses; the tests compare both with
characters, which remove the strips backwards.

Every record here is a ``typing.NamedTuple``: a parameter's ``Param``, a
catalog ``IdentityEntry`` and the reports ``VerifyReport``,
``ScanVerdict`` and ``PositivityReport``, so no field is reassigned after
construction.  A report's ``to_json_dict`` starts from ``_asdict()`` and
overrides only what JSON prints differently.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .partitions import Partition, PrimeSet, divisors, is_prime, moebius
from .plethysm import (
    Series,
    _basis_series,
    _exp_inverse,
    _family_inverse,
    _family_pleth,
    alt_omega,
    e_series,
    ext_power_layers,
    ext_powers,
    ext_powers_signed,
    graded_product_series,
    h_series,
    p1_series,
    pleth,
    pleth_inverse,
    pleth_p,
    product_series,
    sym_power_layers,
    sym_powers,
    sym_powers_signed,
)
from .symfunc import (
    SchurExpansion,
    SymFunc,
    e_of,
    h_of,
    is_schur_positive,
    p_of,
    product_slice_schur,
    terms_json,
    to_schur,
)
from .families import (
    DivisorWeight,
    MOEBIUS,
    PartSet,
    TOTIENT,
    conj,
    conj_series,
    exponent_poly,
    family_series,
    foulkes,
    foulkes_series,
    lie,
    lie_primes,
    lie_primes_bar_series,
    lie_primes_series,
    lie_series,
    part_family,
    part_family_ext_series,
    part_family_series,
    part_family_via_lie,
)

__all__ = [
    "BudgetError",
    "PositivityReport",
    "ScanVerdict",
    "UnknownIdentityError",
    "VerifyReport",
    "build_clauses",
    "hook_content_check",
    "identity_info",
    "lifting_check",
    "list_identities",
    "scan_families",
    "scan_positivity",
    "verify",
]

DEFAULT_SCAN_BUDGET = 20
DEFAULT_LIFT_BUDGET = 32

# Schur-negativity exception lists for p_1 * L_{n-1} - L_n over the
# single-prime families, recorded up to n = 32.
LIFTING_EXCEPTIONS = {3: (3, 6, 9, 10, 18, 27), 5: (5, 6, 10, 25, 26)}


class UnknownIdentityError(KeyError):
    pass


class BudgetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _ms(elapsed_ms: float | None, timing: bool) -> float | None:
    """A report's elapsed time as JSON prints it: rounded under ``timing``, else None."""
    return round(elapsed_ms, 3) if timing and elapsed_ms is not None else None


class VerifyReport(NamedTuple):
    id: str
    params: dict
    N: int
    status: str  # "pass" | "fail"
    first_mismatch: dict | None = None
    elapsed_ms: float | None = None
    details: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self, timing: bool = False) -> dict:
        return {**self._asdict(), "witnesses": [], "elapsed_ms": _ms(self.elapsed_ms, timing)}


class ScanVerdict(NamedTuple):
    n: int
    positive: bool
    witnesses: dict
    elapsed_ms: float

    def to_json_dict(self, timing: bool = False) -> dict:
        return {**self._asdict(), "witnesses": terms_json(self.witnesses), "elapsed_ms": _ms(self.elapsed_ms, timing)}


class PositivityReport(NamedTuple):
    family: str
    params: dict
    verdicts: list[ScanVerdict]

    @property
    def all_positive(self) -> bool:
        return all(v.positive for v in self.verdicts)

    def negatives(self) -> list[int]:
        return [v.n for v in self.verdicts if not v.positive]

    def to_json_dict(self, timing: bool = False) -> dict:
        return {**self._asdict(), "all_positive": self.all_positive, "verdicts": [v.to_json_dict(timing) for v in self.verdicts]}


# ---------------------------------------------------------------------------
# Comparison of graded slices
# ---------------------------------------------------------------------------


def _diff_symfunc(a: SymFunc, b: SymFunc) -> list[dict]:
    keys = set(a.terms) | set(b.terms)
    out = []
    for k in sorted(keys, key=lambda q: q.parts, reverse=True):
        ca, cb = a.coefficient(k), b.coefficient(k)
        if ca != cb:
            out.append({"partition": list(k.parts), "lhs": str(ca), "rhs": str(cb)})
    return out


def _series_mismatch(lhs: Series, rhs: Series) -> dict | None:
    for d in range(min(lhs.max_degree, rhs.max_degree) + 1):
        fa, fb = lhs.component(d), rhs.component(d)
        if fa != fb:
            return {"degree": d, "diffs": _diff_symfunc(fa, fb)}
    return None


def _vgraded_mismatch(lhs: list[Series], rhs: list[Series]) -> dict | None:
    for r, (a, b) in enumerate(zip(lhs, rhs)):
        m = _series_mismatch(a, b)
        if m is not None:
            m["length"] = r
            return m
    return None


def _run_clauses(clauses) -> tuple[str, dict | None]:
    """("pass", None), or ("fail", the first mismatch, tagged with its clause label)."""
    for label, kind, lhs, rhs in clauses:
        m = _series_mismatch(lhs, rhs) if kind == "series" else _vgraded_mismatch(lhs, rhs)
        if m is not None:
            m["clause"] = label
            return "fail", m
    return "pass", None


def _signed_layers(layers: list[Series]) -> list[Series]:
    # [L_0, L_1, L_2, ...] -> [L_0, -L_1, L_2, ...]: the layers of the signed powers
    return [-s if r % 2 else s for r, s in enumerate(layers)]


# ---------------------------------------------------------------------------
# Shared builder helpers
# ---------------------------------------------------------------------------


def _geom(members, n: int) -> Series:
    return product_series([(m, -1, -1) for m in members], n)


def _smooth_members(S: PrimeSet, n: int) -> tuple[int, ...]:
    return PartSet.smooth_over(S).members_up_to(n)


def _half_smooth_evens(S: PrimeSet, n: int) -> list[int]:
    """The even m <= n with m/2 S-smooth."""
    return [2 * m for m in _smooth_members(S, n // 2)]


def _ext_omega_factors(S: PrimeSet, n: int) -> list:
    """prod smooth (1-p_m)^{-1} * prod half-smooth even (1+p_m), the product side of extLS-omega."""
    return [(m, -1, -1) for m in _smooth_members(S, n)] + [(m, 1, 1) for m in _half_smooth_evens(S, n)]


def _alternating(d: int) -> int:
    """The sign of x_d in sum_{r>=1} (-1)^{r-1} x_r, for ``_basis_series``."""
    return (-1) ** (d - 1) if d else 0


def _lieq_weight(q: int) -> DivisorWeight:
    return DivisorWeight.prime_split(PrimeSet((q,)))


def _lieq_series(q: int, n: int) -> Series:
    return family_series(_lieq_weight(q), n)


def _via_lie(T: PartSet, n: int) -> Series:
    """The family of T assembled from Lie members, ``part_family_via_lie`` at each degree."""
    return Series(n, {d: part_family_via_lie(d, T) for d in range(1, n + 1)})


def _p1_pq(q: int, sign: int, n: int) -> Series:
    """p_1 + sign * p_q."""
    comps = {1: p_of((1,))}
    if q <= n:
        comps[q] = p_of((q,)).scaled(sign)
    return Series(n, comps)


def _pm_sum(ms, X: Series) -> Series:
    """sum over m in ms of p_m[X]."""
    return sum((pleth_p(m, X) for m in ms), Series.zero(X.max_degree))


def _inverse_pair(A: Series, B: Series, a: str, b: str, n: int) -> list:
    """Clauses A[B] = p_1 and B[A] = p_1; ``a`` and ``b`` name A and B in the labels."""
    return [
        _clause(f"({a})[{b}] = p_1", pleth(A, B), p1_series(n)),
        _clause(f"({b})[{a}] = p_1", pleth(B, A), p1_series(n)),
    ]


def _inverse_of(w: DivisorWeight, B: Series, inverse_label: str, compose_label: str, n: int) -> list:
    """Clauses F^{<-1>} = B and F[B] = p_1 for the divisor family F of the weight w, on the log routes of ``plethysm``."""
    return [
        _clause(inverse_label, _family_inverse(w, n), B),
        _clause(compose_label, _family_pleth(w, B), p1_series(n)),
    ]


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class Param(NamedTuple):
    """One parameter of a schema: the text ``symlie list`` prints and the check it states."""

    text: str
    ok: Callable[[object], bool]


def _int_at_least(m: int) -> Param:
    return Param(f"integer >= {m}", lambda v: type(v) is int and v >= m)


def _one_of(*values) -> Param:
    return Param(" or ".join(repr(v) for v in values), lambda v: v in values)


def _is_prime(v) -> bool:
    return type(v) is int and is_prime(v)


_S = Param("comma-separated primes (empty for the empty set)", lambda v: isinstance(v, PrimeSet))
_S_NO2 = Param("comma-separated primes, without 2", lambda v: isinstance(v, PrimeSet) and 2 not in v)
_T = Param("part set: explicit list, le(k), div(k), mod1(k), pow(k), all, smooth(..), rough(..)", lambda v: isinstance(v, PartSet))
_W = Param("divisor weight: mu, phi, primes:2,3, primesbar:2,3, parts:<set>, ramanujan:r", lambda v: isinstance(v, DivisorWeight))
_PRIME = Param("prime", _is_prime)
_G = _one_of("one", "id")


def _check_params(id: str, schema: dict[str, Param], p: dict) -> None:
    """Raise ValueError unless ``p`` holds exactly the schema keys of ``id``, each in range."""
    for key in p:
        if key not in schema:
            raise ValueError(f"{id}: unknown parameter {key} (takes {', '.join(schema) or 'none'})")
    for key, param in schema.items():
        if key not in p:
            raise ValueError(f"{id}: missing {key} ({param.text})")
        if not param.ok(p[key]):
            raise ValueError(f"{id}: {key} must be {param.text}, got {p[key]}")


class IdentityEntry(NamedTuple):
    id: str
    statement: str
    param_schema: dict[str, Param]
    defaults: dict
    default_N: int
    builder: object  # callable(n, **params) -> list of (label, kind, lhs, rhs)
    custom: object = None  # callable(n, **params) -> (status, first mismatch, details)


_REGISTRY: dict[str, IdentityEntry] = {}


def _identity(id: str, statement: str, N: int = 10, runner: bool = False, **params: tuple[Param, object]):
    """Register the decorated function as the builder of ``id``, or with ``runner`` as its custom runner.

    ``N`` is the default window.  Each further keyword is one parameter, a
    (Param, default) pair, in the order the reports print them.  The
    function is called with the degree bound and every parameter by name.
    """

    def register(fn):
        schema = {key: param for key, (param, _) in params.items()}
        defaults = {key: default for key, (_, default) in params.items()}
        _REGISTRY[id] = IdentityEntry(id, statement, schema, defaults, N, None if runner else fn, fn if runner else None)
        return fn

    return register


def _clause(label, lhs, rhs):
    return (label, "series", lhs, rhs)


def _vclause(label, lhs, rhs):
    return (label, "vgraded", lhs, rhs)


# -- classical decompositions ------------------------------------------------


@_identity("thrall", "H[Lie](t) = (1 - t p_1)^{-1}  (Thrall)")
def _b_thrall(n):
    return [_clause("H[Lie] = (1-p_1)^{-1}", sym_powers(lie_series(n)), _geom([1], n))]


@_identity("cadogan", "H[sum (-1)^{d-1} w(Lie_d)](t) = 1 + t p_1  (Cadogan)")
def _b_cadogan(n):
    rhs = Series(n, {1: p_of((1,))}, constant=1)
    return [_clause("H[sum (-1)^{d-1} w(Lie_d)] = 1 + p_1", sym_powers(alt_omega(lie_series(n))), rhs)]


@_identity("solomon", "H[sum Conj_d](t) = prod (1 - t^m p_m)^{-1}  (Solomon)")
def _b_solomon(n):
    return [_clause("H[Conj] = prod (1-p_m)^{-1}", sym_powers(conj_series(n)), _geom(range(1, n + 1), n))]


@_identity("symLS", "H[L] = prod over smooth m of (1 - p_m)^{-1}", S=(_S, PrimeSet((2,))))
def _b_symLS(n, S):
    lhs = sym_powers(lie_primes_series(S, n))
    return [_clause("H[L] = prod over smooth m of (1-p_m)^{-1}", lhs, _geom(_smooth_members(S, n), n))]


@_identity("altsymLS", "H[alt-w(L)] = prod over smooth m of (1 + p_m)", S=(_S, PrimeSet((2,))))
def _b_altsymLS(n, S):
    lhs = sym_powers(alt_omega(lie_primes_series(S, n)))
    rhs = product_series([(m, 1, 1) for m in _smooth_members(S, n)], n)
    return [_clause("H[alt-w(L)] = prod over smooth m of (1+p_m)", lhs, rhs)]


@_identity("extLS", "E[L]: smooth product with the 2-in-S / 2-not-in-S branches", S=(_S, PrimeSet((2,))))
def _b_extLS(n, S):
    lhs = ext_powers(lie_primes_series(S, n))
    sm = _smooth_members(S, n)
    if 2 in S:
        rhs = _geom([m for m in sm if m % 2], n)
        label = "E[L] = prod over odd smooth m of (1-p_m)^{-1}  (2 in S)"
    else:
        rhs = product_series([(m, -1, -1) for m in sm] + [(m, -1, 1) for m in _half_smooth_evens(S, n)], n)
        label = "E[L] = prod smooth (1-p_m)^{-1} * prod half-smooth even (1-p_m)  (2 not in S)"
    return [_clause(label, lhs, rhs)]


@_identity("extLS-omega", "w(E[L]) product form (needs 2 not in S)", S=(_S_NO2, PrimeSet((3,))))
def _b_extLS_omega(n, S):
    lhs = ext_powers(lie_primes_series(S, n)).omega_each()
    rhs = product_series(_ext_omega_factors(S, n), n)
    return [_clause("w(E[L]) = prod smooth (1-p_m)^{-1} * prod half-smooth even (1+p_m)", lhs, rhs)]


@_identity("altextLS", "E[alt-w(L)]: signed product with both branches", S=(_S, PrimeSet((2,))))
def _b_altextLS(n, S):
    lhs = ext_powers(alt_omega(lie_primes_series(S, n)))
    sm = _smooth_members(S, n)
    if 2 in S:
        rhs = product_series([(m, 1, 1) for m in sm if m % 2], n)
        label = "E[alt-w(L)] = prod over odd smooth m of (1+p_m)  (2 in S)"
    else:
        rhs = product_series([(m, 1, 1) for m in sm] + [(m, 1, -1) for m in _half_smooth_evens(S, n)], n)
        label = "E[alt-w(L)] = prod smooth (1+p_m) * prod half-smooth even (1+p_m)^{-1}  (2 not in S)"
    return [_clause(label, lhs, rhs)]


@_identity("extLieConj1", "w(E[Lie]) = (1+p_2)(1-p_1)^{-1}")
def _b_extLieConj1(n):
    lhs = ext_powers(lie_series(n)).omega_each()
    return [_clause("w(E[Lie]) = (1+p_2)(1-p_1)^{-1}", lhs, product_series([(2, 1, 1), (1, -1, -1)], n))]


@_identity("extLieConj2", "E[Conj] = prod over odd m of (1-p_m)^{-1}")
def _b_extLieConj2(n):
    rhs = _geom(range(1, n + 1, 2), n)
    return [_clause("E[Conj] = prod over odd m of (1-p_m)^{-1}", ext_powers(conj_series(n)), rhs)]


@_identity("extLieConj3", "sum (-1)^{|lam|-l} H_lam[Lie] = (1+p_1)(1-p_2)^{-1}", N=8)
def _b_extLieConj3(n):
    # |lam| - l(lam) = sum_i m_i (i - 1), so the sum over lam of (-1)^{|lam|-l} prod_i h_{m_i}[Lie_i]
    # is prod_i H[Lie_i] over odd i times prod_i H^pm[Lie_i] over even i, H^pm = sum_m (-1)^m h_m:
    # the factor of i is sum_m (-1)^{m (i - 1)} h_m[Lie_i]
    L = lie_series(n)
    direct = Series.one(n)
    for i in range(1, n + 1):
        H = _basis_series(h_of, n // i, lambda m: (-1) ** (m * (i - 1)))
        direct = direct * pleth(H, Series.from_symfunc(L.component(i), n))
    lhs2 = ext_powers(alt_omega(L)).omega_each()
    rhs = product_series([(1, 1, 1), (2, -1, -1)], n)
    return [
        _clause("sum (-1)^{|lam|-l} H_lam[Lie] = w(E[alt-w(Lie)])", direct, lhs2),
        _clause("w(E[alt-w(Lie)]) = (1+p_1)(1-p_2)^{-1}", lhs2, rhs),
    ]


@_identity("extLieConj4", "E[sum (-1)^{d-1} w(Conj_d)] = prod over odd m of (1+p_m)")
def _b_extLieConj4(n):
    lhs = ext_powers(alt_omega(conj_series(n)))
    rhs = product_series([(m, 1, 1) for m in range(1, n + 1, 2)], n)
    return [_clause("E[alt-w(Conj)] = prod over odd m of (1+p_m)", lhs, rhs)]


@_identity("dualityA", "(1-p_1)^{-1} = H[Lie] = E[L^(2)]")
def _b_dualityA(n):
    return _b_thrall(n) + _b_lie2_reg(n)


@_identity("dualityB", "prod odd (1-p_m)^{-1} = H[Lbar^(2)] = E[Conj]")
def _b_dualityB(n):
    rhs = _geom(range(1, n + 1, 2), n)
    return [
        _clause("H[Lbar^(2)] = prod odd (1-p_m)^{-1}", sym_powers(lie_primes_bar_series(PrimeSet((2,)), n)), rhs),
        _clause("E[Conj] = prod odd (1-p_m)^{-1}", ext_powers(conj_series(n)), rhs),
    ]


@_identity("lie2-reg", "E[L^(2)](t) = (1 - t p_1)^{-1}")
def _b_lie2_reg(n):
    return [_clause("E[L^(2)] = (1-p_1)^{-1}", ext_powers(_lieq_series(2, n)), _geom([1], n))]


@_identity("lie2-hpm", "Hpm[L^(2)](t) = 1 - t p_1")
def _b_lie2_hpm(n):
    rhs = Series(n, {1: -p_of((1,))}, constant=1)
    return [_clause("Hpm[L^(2)] = 1 - p_1", sym_powers_signed(_lieq_series(2, n)), rhs)]


@_identity("lie2-cadogan", "E[sum (-1)^{d-1} w(L^(2)_d)](t) = 1 + t p_1")
def _b_lie2_cadogan(n):
    rhs = Series(n, {1: p_of((1,))}, constant=1)
    return [_clause("E[sum (-1)^{d-1} w(L^(2)_d)] = 1 + p_1", ext_powers(alt_omega(_lieq_series(2, n))), rhs)]


# -- part-set families --------------------------------------------------------


@_identity("fT-sym", "H[F] = prod over the part set of (1-p_m)^{-1}", N=12, T=(_T, PartSet.of(1, 3)))
def _b_fT_sym(n, T):
    lhs = sym_powers(part_family_series(T, n))
    return [_clause("H[F] = prod over the part set of (1-p_m)^{-1}", lhs, _geom(T.members_up_to(n), n))]


@_identity("fT-decomp", "F = (sum over the part set of p_m)[Lie]", N=12, T=(_T, PartSet.of(1, 3)))
def _b_fT_decomp(n, T):
    lhs = part_family_series(T, n)
    return [_clause("f_d = sum over set members m | d of Lie_{d/m}[p_m]", lhs, _via_lie(T, n))]


@_identity("fT-ext", "E[G] = prod over the part set of (1-p_m)^{-1} = H[F]", N=12, T=(_T, PartSet.of(1, 3)))
def _b_fT_ext(n, T):
    lhs = ext_powers(part_family_ext_series(T, n))
    return [_clause("E[G] = prod over the part set of (1-p_m)^{-1}", lhs, _geom(T.members_up_to(n), n))]


@_identity("conj-decomp", "sum_m p_m[Lie] = sum Conj_d")
def _b_conj_decomp(n):
    return [_clause("sum_m p_m[Lie] = sum Conj_d", _pm_sum(range(1, n + 1), lie_series(n)), conj_series(n))]


@_identity("conj-psums", "Conj[sum (-1)^{r-1} e_r] = sum_m p_m")
def _b_conj_psums(n):
    lhs = _family_pleth(TOTIENT, _basis_series(e_of, n, _alternating))
    rhs = Series(n, {d: p_of((d,)) for d in range(1, n + 1)})
    return [_clause("Conj[sum (-1)^{r-1} e_r] = sum_m p_m", lhs, rhs)]


@_identity("conj-inverse", "Conj^{<-1>} = sum (-1)^{r-1} e_r[sum mu(m) p_m]")
def _b_conj_inverse(n):
    M = Series(n, {d: p_of((d,)).scaled(moebius(d)) for d in range(1, n + 1) if moebius(d)})
    rhs = Series.one(n) - ext_powers_signed(M)
    return _inverse_of(TOTIENT, rhs, "Conj^{<-1>} = sum (-1)^{r-1} e_r[sum mu(m) p_m]", "Conj[candidate inverse] = p_1", n)


@_identity("lieq-decomp", "L^(q)_d = sum_r Lie_{d/q^r}[p_{q^r}]", q=(_PRIME, 3))
def _b_lieq_decomp(n, q):
    rhs = _via_lie(PartSet.powers_of(q), n)
    return [_clause("L^(q)_d = sum over q-power divisors q^r of Lie_{d/q^r}[p_{q^r}]", _lieq_series(q, n), rhs)]


@_identity("lieq-transport", "Lie = (p_1 - p_q)[L^(q)] = L^(q) - L^(q)[p_q]", q=(_PRIME, 3))
def _b_lieq_transport(n, q):
    # (p_1 - p_q) composed outermost: L^(q) - p_q[L^(q)]
    Lq = _lieq_series(q, n)
    lhs = Lq - pleth_p(q, Lq)
    return [_clause("(p_1 - p_q)[L^(q)] = L^(q) - L^(q)[p_q] = Lie", lhs, lie_series(n))]


@_identity("lieq-inverse", "(L^(q))^{<-1>} = (sum (-1)^{r-1} e_r)[p_1 - p_q]", q=(_PRIME, 3))
def _b_lieq_inverse(n, q):
    B = Series.one(n) - ext_powers_signed(_p1_pq(q, -1, n))
    return _inverse_of(_lieq_weight(q), B, "(L^(q))^{<-1>} = (sum (-1)^{r-1} e_r)[p_1 - p_q]", "L^(q)[candidate inverse] = p_1", n)


def _lie_plus_pk(X: Series, k: int) -> Series:
    """Lie + X[p_k]: Lie_d, plus X_{d/k}[p_k] when k | d."""
    return lie_series(X.max_degree) + pleth_p(k, X)


@_identity("powk-recurrence", "powers-of-k family: f_d = Lie_d + f_{d/k}[p_k] when k | d", k=(_int_at_least(2), 4))
def _b_powk_recurrence(n, k):
    F = part_family_series(PartSet.powers_of(k), n)
    return [_clause("f_d = Lie_d (+ f_{d/k}[p_k] when k | d)", F, _lie_plus_pk(F, k))]


@_identity("onek", "T={1,k}: f_d = Lie_d (+ Lie_{d/k}[p_k]); prime k gives the induced character", k=(_int_at_least(2), 3))
def _b_onek(n, k):
    T = PartSet.of(1, k)
    clauses = [_clause("f_d = Lie_d (+ Lie_{d/k}[p_k] when k | d)", part_family_series(T, n), _lie_plus_pk(lie_series(n), k))]
    if is_prime(k):
        clauses.append(
            _clause("for prime k the family is the eigenvalue-k induced character", part_family_series(T, n), foulkes_series(k, n))
        )
    return clauses


@_identity("onek-ext", "w(E[F^{1,k}]) = (1-p_1)^{-1}(1-(-1)^{k-1}p_k)^{-1}(1+p_2)(1+p_{2k})", k=(_int_at_least(2), 3))
def _b_onek_ext(n, k):
    T = PartSet.of(1, k)
    lhs = ext_powers(part_family_series(T, n)).omega_each()
    # at k = 2 the factors (1 + p_2)^{-1} and (1 + p_2) cancel
    factors = [(1, -1, -1), (4, 1, 1)] if k == 2 else [(1, -1, -1), (k, -1 if k % 2 else 1, -1), (2, 1, 1), (2 * k, 1, 1)]
    rhs = product_series(factors, n)
    return [_clause("w(E[F]) = (1-p_1)^{-1}(1-(-1)^{k-1}p_k)^{-1}(1+p_2)(1+p_{2k})", lhs, rhs)]


def _fT_forms(T: PartSet, n: int) -> list:
    """[the product form, the Lie decomposition] of the family of T: the clauses of fT-sym and fT-decomp."""
    return _b_fT_sym(n, T) + _b_fT_decomp(n, T)


@_identity("lek", "T={m <= k}: product and Lie-decomposition forms", k=(_int_at_least(2), 3))
def _b_lek(n, k):
    return _fT_forms(PartSet.up_to(k), n)


@_identity("divk", "T={m | k}: the family is the eigenvalue-k induced character", k=(_int_at_least(2), 6))
def _b_divk(n, k):
    T = PartSet.divisors_of(k)
    product, decomp = _fT_forms(T, n)
    return [_clause("f_d equals the eigenvalue-k induced character", part_family_series(T, n), foulkes_series(k, n)), decomp, product]


@_identity("regdecomp", "p_1^d = sum_{e|d} e Lie_e[p_{d/e}] = sum_r (eigenvalue-r characters)")
def _b_regdecomp(n):
    comps1, comps2, ones = {}, {}, {}
    for d in range(1, n + 1):
        acc = SymFunc.zero()
        for e in divisors(d):
            acc = acc + pleth_p(d // e, lie(e)).scaled(e)
        comps1[d] = acc
        acc2 = SymFunc.zero()
        for r in range(1, d + 1):
            acc2 = acc2 + foulkes(d, r)
        comps2[d] = acc2
        ones[d] = p_of((1,) * d)
    target = Series(n, ones)
    return [
        _clause("sum_{e | d} e * Lie_e[p_{d/e}] = p_1^d", Series(n, comps1), target),
        _clause("sum over eigenvalues r of the induced characters = p_1^d", Series(n, comps2), target),
    ]


@_identity("mod1k", "T={m = 1 mod k}: product and Lie-decomposition forms", k=(_int_at_least(1), 3))
def _b_mod1k(n, k):
    return _fT_forms(PartSet.mod_one(k), n)


@_identity("oddlie", "sum over odd m | d of Lie_{d/m}[p_m] = Lbar^(2)_d")
def _b_oddlie(n):
    lhs = _via_lie(PartSet.mod_one(2), n)
    return [_clause("sum over odd m | d of Lie_{d/m}[p_m] = Lbar^(2)_d", lhs, lie_primes_bar_series(PrimeSet((2,)), n))]


@_identity("conj-via-lieq", "sum Conj = sum over positions m not divisible by q of p_m[L^(q)]", q=(_int_at_least(2), 3))
def _b_conj_via_lieq(n, q):
    B = _pm_sum(PartSet.powers_of(q).members_up_to(n), lie_series(n))
    C, positions = conj_series(n), [m for m in range(1, n + 1) if m % q]
    clauses = [_clause("sum over m coprime-position of p_m[sum_k Lie[p_{q^k}]] = sum Conj", _pm_sum(positions, B), C)]
    if is_prime(q):
        clauses.append(_clause("for prime q: sum_{q not | m} p_m[L^(q)] = sum Conj", _pm_sum(positions, _lieq_series(q, n)), C))
    return clauses


# -- plethystic-inverse catalog ------------------------------------------------


@_identity("pq", "p_1 - p_q and sum p_{q^k} are plethystic inverses", q=(_int_at_least(2), 2))
def _b_pq(n, q):
    A = _p1_pq(q, -1, n)
    comps = {qk: p_of((qk,)) for qk in PartSet.powers_of(q).members_up_to(n)}
    return _inverse_pair(A, Series(n, comps), "p_1 - p_q", "sum p_{q^k}", n)


@_identity("pq-alt", "p_1 + p_q and sum (-1)^k p_{q^k} are plethystic inverses", q=(_int_at_least(2), 3))
def _b_pq_alt(n, q):
    A = _p1_pq(q, 1, n)
    comps = {qk: p_of((qk,)).scaled((-1) ** k) for k, qk in enumerate(PartSet.powers_of(q).members_up_to(n))}
    return _inverse_pair(A, Series(n, comps), "p_1 + p_q", "sum (-1)^k p_{q^k}", n)


@_identity("Hquot", "H[p_1 - p_q] = H / H[p_q]", q=(_int_at_least(2), 3))
def _b_Hquot(n, q):
    H = h_series(n)
    lhs = sym_powers(_p1_pq(q, -1, n)) * pleth_p(q, H)
    return [_clause("H[p_1 - p_q] * H[p_q] = H  (quotient form cross-multiplied)", lhs, H)]


@_identity("HE", "H[p_1 - p_2] = E")
def _b_HE(n):
    return [_clause("H[p_1 - p_2] = E", sym_powers(_p1_pq(2, -1, n)), e_series(n))]


@_identity("HF-EG", "H[F] = E[G] with G = sum_k F[p_{2^k}], and F = G - G[p_2]", family=(_one_of("lie", "conj"), "lie"))
def _b_HFEG(n, family):
    F = lie_series(n) if family == "lie" else conj_series(n)
    G = _pm_sum(PartSet.powers_of(2).members_up_to(n), F)
    return [
        _clause("H[F] = E[sum_k F[p_{2^k}]]", sym_powers(F), ext_powers(G)),
        _clause("F = G - G[p_2]", F, G - pleth_p(2, G)),
    ]


@_identity(
    "psibar",
    "(p_1 +/- p_q)[G] shifts the divisor weight by w(d) +/- q w(d/q) at multiples of q",
    q=(_int_at_least(2), 2),
    weight=(_W, MOEBIUS),
    sign=(Param("+1 or -1", lambda v: type(v) is int and v in (1, -1)), -1),
)
def _b_psibar(n, q, weight, sign):
    G = family_series(weight, n)
    lhs = G + pleth_p(q, G).scaled(sign)

    def barred(d: int) -> int:
        return weight(d) + sign * q * weight(d // q) if d % q == 0 else weight(d)

    wb = DivisorWeight(f"pbar[{weight.tag},{q},{sign:+d}]", barred)
    return [_clause("(p_1 +/- p_q)[G] has the shifted divisor weight", lhs, family_series(wb, n))]


def _gmult_pair(g: str, ms: range, n: int) -> list:
    """The inverse pair sum g(m) p_m and sum g(m) mu(m) p_m over m in ``ms``, g = 1 or g = id."""
    gm = (lambda m: 1) if g == "one" else (lambda m: m)
    A = Series(n, {m: p_of((m,)).scaled(gm(m)) for m in ms})
    B = Series(n, {m: p_of((m,)).scaled(gm(m) * moebius(m)) for m in ms if moebius(m)})
    return _inverse_pair(A, B, "sum g(m) p_m", "sum g(m) mu(m) p_m", n)


@_identity("gmult", "sum g(m) p_m and sum g(m) mu(m) p_m are plethystic inverses (multiplicative g)", g=(_G, "one"))
def _b_gmult(n, g):
    return _gmult_pair(g, range(1, n + 1), n)


@_identity("odd-gmult", "odd-indexed restriction of the multiplicative inverse pair", g=(_G, "one"))
def _b_odd_gmult(n, g):
    return _gmult_pair(g, range(1, n + 1, 2), n)


@_identity("lie-inv", "Lie and (H-1)/H = sum (-1)^{r-1} e_r are plethystic inverses")
def _b_lie_inv(n):
    return _inverse_of(MOEBIUS, _basis_series(e_of, n, _alternating), "Lie^{<-1>} = sum (-1)^{r-1} e_r", "Lie[sum (-1)^{r-1} e_r] = p_1", n)


@_identity("lie2-inv", "L^(2) and (E-1)/E = sum (-1)^{r-1} h_r are plethystic inverses")
def _b_lie2_inv(n):
    B = _basis_series(h_of, n, _alternating)
    return _inverse_of(_lieq_weight(2), B, "(L^(2))^{<-1>} = sum (-1)^{r-1} h_r", "L^(2)[sum (-1)^{r-1} h_r] = p_1", n)


@_identity("pp-frac", "p_1/(1+p_1) and p_1/(1-p_1) are plethystic inverses")
def _b_pp_frac(n):
    A = Series(n, {d: p_of((1,) * d).scaled(1 if d % 2 else -1) for d in range(1, n + 1)})
    B = Series(n, {d: p_of((1,) * d) for d in range(1, n + 1)})
    return _inverse_pair(A, B, "p_1/(1+p_1)", "p_1/(1-p_1)", n)


@_identity("cadogan-inverse", "(H-1)^{<-1>} = sum (-1)^{d-1} w(Lie_d)")
def _b_cadogan_inverse(n):
    return [_clause("(H-1)^{<-1>} = sum (-1)^{d-1} w(Lie_d)", _exp_inverse(lambda k: 1, n), alt_omega(lie_series(n)))]


@_identity("lie2-cadogan-inverse", "(E-1)^{<-1>} = sum (-1)^{d-1} w(L^(2)_d)")
def _b_lie2_cadogan_inverse(n):
    lhs = _exp_inverse(lambda k: 1 if k % 2 else -1, n)
    return [_clause("(E-1)^{<-1>} = sum (-1)^{d-1} w(L^(2)_d)", lhs, alt_omega(_lieq_series(2, n)))]


@_identity(
    "mod1k-beta",
    "inversion of sum_{d=1 mod k} h_d: support, composition, and even-k omega transport",
    runner=True,
    k=(_int_at_least(2), 2),
)
def _c_mod1k_beta(n, k):
    A = _basis_series(h_of, n, lambda d: d % k == 1 % k)
    B = pleth_inverse(A)
    filtered = Series(n, {d: f for d, f in B.components.items() if d % k == 1 % k})
    clauses = [
        _clause("(sum_{d=1 mod k} h_d)[candidate inverse] is inverted back to p_1", pleth(B, A), p1_series(n)),
        _clause("the inverse is supported in degrees = 1 mod k", B, filtered),
    ]
    if k % 2 == 0:
        Ae = _basis_series(e_of, n, lambda d: d % k == 1 % k)
        clauses.append(
            _clause("omega transport: (sum_{d=1 mod k} e_d)[w-transported inverse] = p_1", pleth(Ae, B.omega_each()), p1_series(n))
        )
    status, mismatch = _run_clauses(clauses)
    details = []
    if status == "pass":
        for d in sorted(B.components):
            f = B.component(d) if ((d - 1) // k) % 2 == 0 else -B.component(d)
            details.append(f"homology candidate at degree {d}: schur-positive={is_schur_positive(f)[0]} (informational)")
    return status, mismatch, details


@_identity("jordan-eta", "inversion of an odd-degree alternating derivative series: odd support and omega transport")
def _b_jordan_eta(n):
    # Stand-in derivative family: d/dp_1 of e_{2m} is e_{2m-1}; the genuine
    # even-block homology modules are out of scope, so the transport
    # mechanics are exercised on this exterior stand-in.
    D = _basis_series(e_of, n, lambda d: d % 2 and (-1) ** (d // 2))
    eta = pleth_inverse(D)
    odd_part = Series(n, {d: f for d, f in eta.components.items() if d % 2})
    return [
        _clause("odd-degree alternating e-derivative series inverts back to p_1", pleth(eta, D), p1_series(n)),
        _clause("the inverse is supported in odd degrees", eta, odd_part),
        _clause("omega transport commutes with inversion on odd-supported series", pleth_inverse(D.omega_each()), eta.omega_each()),
    ]


# -- length-graded master identities -------------------------------------------


def _graded_product(weight: DivisorWeight, n: int, s: int, sign: int, v_sign: int) -> list[Series]:
    """prod over m <= n of (1 + s p_m)^{sign * poly_m(v_sign * v)}, poly_m the exponent polynomial of ``weight``."""
    factors = [(m, s, {e: sign * v_sign**e * c for e, c in exponent_poly(m, weight).items()}) for m in range(1, n + 1)]
    return graded_product_series(factors, n)


@_identity("meta-sym", "H(v)[F] = prod (1-p_m)^{-poly_m(v)} (length-graded)", N=8, weight=(_W, MOEBIUS))
def _b_meta_sym(n, weight):
    lhs = sym_power_layers(family_series(weight, n))
    return [_vclause("H(v)[F] = prod (1-p_m)^{-poly_m(v)}", lhs, _graded_product(weight, n, -1, -1, 1))]


@_identity("meta-ext", "E(v)[F] = prod (1-p_m)^{poly_m(-v)} (length-graded)", N=8, weight=(_W, MOEBIUS))
def _b_meta_ext(n, weight):
    lhs = ext_power_layers(family_series(weight, n))
    return [_vclause("E(v)[F] = prod (1-p_m)^{poly_m(-v)}", lhs, _graded_product(weight, n, -1, 1, -1))]


@_identity("meta-altext", "H(v)[alt-w(F)] = prod (1+p_m)^{poly_m(v)} (length-graded)", N=8, weight=(_W, MOEBIUS))
def _b_meta_altext(n, weight):
    lhs = sym_power_layers(alt_omega(family_series(weight, n)))
    return [_vclause("H(v)[alt-w(F)] = prod (1+p_m)^{poly_m(v)}", lhs, _graded_product(weight, n, 1, 1, 1))]


@_identity("meta-altsym", "E(v)[alt-w(F)] = prod (1+p_m)^{-poly_m(-v)} (length-graded)", N=8, weight=(_W, MOEBIUS))
def _b_meta_altsym(n, weight):
    lhs = ext_power_layers(alt_omega(family_series(weight, n)))
    return [_vclause("E(v)[alt-w(F)] = prod (1+p_m)^{-poly_m(-v)}", lhs, _graded_product(weight, n, 1, -1, -1))]


@_identity("meta-equiv", "Epm(v)[F] and Hpm(v)[F] product forms (length-graded)", N=8, weight=(_W, MOEBIUS))
def _b_meta_equiv(n, weight):
    F = family_series(weight, n)
    lhs1, lhs2 = _signed_layers(ext_power_layers(F)), _signed_layers(sym_power_layers(F))
    return [
        _vclause("Epm(v)[F] = prod (1-p_m)^{poly_m(v)}", lhs1, _graded_product(weight, n, -1, 1, 1)),
        _vclause("Hpm(v)[F] = prod (1-p_m)^{-poly_m(-v)}", lhs2, _graded_product(weight, n, -1, -1, -1)),
    ]


@_identity(
    "selfconj-powq",
    "sum of p_lam over q-power parts is w-invariant (odd prime q)",
    q=(Param("odd prime", lambda v: v != 2 and _is_prime(v)), 3),
)
def _b_selfconj_powq(n, q):
    prod = _geom(PartSet.powers_of(q).members_up_to(n), n)
    return [_clause("the power-sum sum over q-power parts is w-invariant", prod.omega_each(), prod)]


@_identity("conj-hooks", "hook multiplicities of Conj_n follow the three-exception pattern", runner=True)
def _c_conj_hooks(n):
    details, mismatch = [], None
    for d in range(2, n + 1):
        rep = hook_content_check(d)
        details.append(f"n={d}: {rep['status']}")
        if rep["status"] != "pass" and mismatch is None:
            mismatch = {"degree": d, "diffs": rep["failures"]}
    status = "pass" if mismatch is None else "fail"
    return status, mismatch, details


@_identity(
    "lifting",
    "p_1 L^(q)_{n-1} - L^(q)_n schur-negative exactly on the recorded exception lists (q=3,5)",
    N=18,
    runner=True,
    q=(_PRIME, 3),
    n_max=(_int_at_least(2), 18),
)
def _c_lifting(n, q, n_max):
    report = lifting_check(q, n_max)
    negs = report.negatives()
    details = [f"negatives: {negs}"]
    if q in LIFTING_EXCEPTIONS and n_max <= 32:
        expected = [m for m in LIFTING_EXCEPTIONS[q] if m <= n_max]
        if negs == expected:
            return "pass", None, details
        diffs = [{"partition": [], "lhs": str(negs), "rhs": str(expected)}]
        return "fail", {"degree": min(set(negs) ^ set(expected)), "diffs": diffs}, details
    details.append("no recorded exception list for this q: informational run")
    return "pass", None, details


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def identity_info(id: str) -> IdentityEntry:
    try:
        return _REGISTRY[id]
    except KeyError:
        raise UnknownIdentityError(f"unknown identity id {id!r}") from None


def list_identities() -> list[dict]:
    """Stable, sorted catalog dump: id, statement, parameter schema, defaults."""
    out = []
    for id in sorted(_REGISTRY):
        e = _REGISTRY[id]
        out.append(
            {
                "id": e.id,
                "statement": e.statement,
                "params": {k: v.text for k, v in e.param_schema.items()},
                "defaults": {k: str(v) for k, v in e.defaults.items()},
                "default_N": e.default_N,
            }
        )
    return out


def _resolve(id: str, params: dict | None, N: int | None) -> tuple[IdentityEntry, dict, int]:
    """The entry, its parameters with defaults filled in and checked, and the degree bound.

    An identity with a scan ceiling ``n_max`` takes it as its degree bound.
    """
    entry = identity_info(id)
    p = dict(entry.defaults)
    p.update(params or {})
    _check_params(id, entry.param_schema, p)
    if N is not None and type(N) is not int:
        raise ValueError(f"N must be an integer, got {N!r}")
    n = entry.default_N if N is None else N
    if "n_max" in p:
        if N is not None and n != p["n_max"]:
            raise ValueError(f"{id}: N must equal n_max ({p['n_max']}), got {n}")
        n = p["n_max"]
    if n < 1:
        raise ValueError("N must be >= 1")
    return entry, p, n


def build_clauses(id: str, params: dict | None = None, N: int | None = None):
    """Resolve an identity to its list of (label, kind, lhs, rhs) clauses."""
    entry, p, n = _resolve(id, params, N)
    if entry.builder is None:
        raise ValueError(f"identity {id!r} uses a custom runner and has no series clauses")
    return entry.builder(n, **p)


def verify(id: str, params: dict | None = None, N: int | None = None) -> VerifyReport:
    """Check one catalog identity exactly; failure pinpoints the first bad slice."""
    entry, p, n = _resolve(id, params, N)
    printable = {k: str(v) for k, v in p.items()}
    t0 = time.perf_counter()
    if entry.custom is not None:
        status, mismatch, details = entry.custom(n, **p)
    else:
        status, mismatch = _run_clauses(entry.builder(n, **p))
        details = ()
    return VerifyReport(id, printable, n, status, mismatch, (time.perf_counter() - t0) * 1000, tuple(details))


# ---------------------------------------------------------------------------
# Positivity scans
# ---------------------------------------------------------------------------


def _omega_even(A):
    """(A + w(A)) / 2, its p_lam with an even number of even parts; omega conjugates the shapes on their beta keys."""
    return (A + A.omega()).scaled(Fraction(1, 2))


def _family_schur(T: PartSet, n: int) -> SchurExpansion:
    """The degree-n member of the family of the part set T, expanded by ``to_schur``."""
    return to_schur(part_family(n, T))


def _geom_schur(T: PartSet, n: int) -> SchurExpansion:
    """The sum of p_lam over the partitions of n into parts from T, expanded by the rim-hook DP.

    It is the degree-n slice of the product over the members m <= n of T of (1 - p_m)^{-1}.
    """
    return product_slice_schur([(m, -1, -1) for m in T.members_up_to(n)], n)


_SCAN_K = {"k": _int_at_least(2)}
_SCAN_T = {"T": Param("part-set descriptor", _T.ok)}
_SCAN_S = {"S": Param("prime set", _S.ok)}

# name -> (schema, expand): expand(n, **params) is the Schur expansion whose
# positivity is the verdict at n.  Five scans take the degree-n member of a
# part-set family; the other eight take the degree-n slice of a product of
# factors (1 + s p_m)^{+/-1}.
_SCANS = {
    "powk": (_SCAN_K, lambda n, k: _family_schur(PartSet.powers_of(k), n)),
    "product-powk": (_SCAN_K, lambda n, k: _geom_schur(PartSet.powers_of(k), n)),
    "onek": (_SCAN_K, lambda n, k: _family_schur(PartSet.of(1, k), n)),
    "lek": (_SCAN_K, lambda n, k: _family_schur(PartSet.up_to(k), n)),
    "divk": (_SCAN_K, lambda n, k: _family_schur(PartSet.divisors_of(k), n)),
    "mod1k-product": ({"k": _int_at_least(1)}, lambda n, k: _geom_schur(PartSet.mod_one(k), n)),
    "fT": (_SCAN_T, lambda n, T: _family_schur(T, n)),
    "fT-product": (_SCAN_T, lambda n, T: _geom_schur(T, n)),
    "symLS-sum": (_SCAN_S, lambda n, S: _geom_schur(PartSet.smooth_over(S), n)),
    "symLSbar-sum": (_SCAN_S, lambda n, S: _geom_schur(PartSet.rough_over(S), n)),
    "symLS-even-sum": (_SCAN_S, lambda n, S: _omega_even(_geom_schur(PartSet.smooth_over(S), n))),
    "altsymLS-sum": (_SCAN_S, lambda n, S: product_slice_schur([(m, 1, 1) for m in _smooth_members(S, n)], n)),
    "extLS-sum": ({"S": Param("prime set without 2", _S_NO2.ok)}, lambda n, S: product_slice_schur(_ext_omega_factors(S, n), n)),
}


def scan_families() -> dict[str, dict]:
    return {name: {k: v.text for k, v in schema.items()} for name, (schema, _) in sorted(_SCANS.items())}


def _check_budget(budget) -> None:
    if type(budget) is not int:
        raise ValueError(f"budget must be an integer, got {budget!r}")


def _verdicts(ns, expansion) -> list[ScanVerdict]:
    """Time and check each degree n in ``ns`` in turn: is the Schur expansion ``expansion(n)`` positive?"""
    verdicts = []
    for n in ns:
        t0 = time.perf_counter()
        neg = expansion(n).negatives()
        verdicts.append(ScanVerdict(n, not neg, neg, (time.perf_counter() - t0) * 1000))
    return verdicts


def scan_positivity(family: str, ns, params: dict | None = None, budget: int = DEFAULT_SCAN_BUDGET, jobs: int = 1) -> PositivityReport:
    """Schur-positivity verdicts for one family over the given degrees.

    Degrees beyond ``budget`` are refused explicitly (raise, never silently
    truncate).  ``jobs`` has no effect: degrees are checked one after another.
    The keyword stays only because ``bench/workloads.py`` passes it; it goes
    with the next revision of the benchmark.
    """
    if family not in _SCANS:
        raise ValueError(f"unknown scan family {family!r}")
    _check_budget(budget)
    schema, expand = _SCANS[family]
    p = dict(params or {})
    _check_params(family, schema, p)
    ns = list(ns)
    for x in ns:
        if type(x) is not int:
            raise ValueError(f"scan degrees must be integers, got {x!r}")
    ns = sorted(set(ns))
    if not ns:
        raise ValueError("the scan degree range is empty")
    if ns[0] < 1:
        raise ValueError("scan degrees must be positive")
    if ns[-1] > budget:
        raise BudgetError(f"degree {ns[-1]} exceeds the scan budget {budget}; raise the budget explicitly")
    verdicts = _verdicts(ns, lambda n: expand(n, **p))
    printable = {k: str(v) for k, v in p.items()}
    return PositivityReport(family, printable, verdicts)


def lifting_check(q: int, n_max: int, budget: int = DEFAULT_LIFT_BUDGET, jobs: int = 1) -> PositivityReport:
    """Per-n Schur positivity of p_1 * L^(q)_{n-1} - L^(q)_n for n in 2..n_max.

    ``to_schur`` groups each difference by smallest part: the p_1 p_d^k
    terms of p_1 * L_{n-1} take one Pieri step on their summed ribbon
    chains, and p_1^n is read off its chain.

    ``jobs`` has no effect: degrees are checked one after another.  The
    keyword stays only because ``bench/workloads.py`` passes it; it goes with
    the next revision of the benchmark.
    """
    _check_params("lifting", _REGISTRY["lifting"].param_schema, {"q": q, "n_max": n_max})
    _check_budget(budget)
    if n_max > budget:
        raise BudgetError(f"n_max {n_max} exceeds the lifting budget {budget}; raise the budget explicitly")
    verdicts = _verdicts(range(2, n_max + 1), lambda n: to_schur(p_of((1,)) * lie_primes(n - 1, (q,)) - lie_primes(n, (q,))))
    return PositivityReport("lifting", {"q": str(q), "n_max": str(n_max)}, verdicts)


def hook_content_check(n: int) -> dict:
    """Check the hook multiplicities of the conjugacy character at degree n.

    Hooks (n-r, 1^r) must appear with coefficient >= 1 except the recorded
    exceptions, which must vanish: (n-1, 1) for all n >= 2, (2, 1^{n-2}) for
    odd n >= 3, and (1^n) for even n.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"hook_content_check requires an integer n >= 2, got {n!r}")
    exp = to_schur(conj(n))
    exceptions = {Partition.of((n - 1, 1))}
    if n % 2 and n >= 3:
        exceptions.add(Partition.of((2,) + (1,) * (n - 2)))
    if n % 2 == 0:
        exceptions.add(Partition.of((1,) * n))
    failures = []
    for r in range(n):
        shape = Partition.of((n - r,) + (1,) * r)
        c = exp.coefficient(shape)
        if shape in exceptions:
            if c != 0:
                failures.append({"partition": list(shape.parts), "lhs": str(c), "rhs": "0"})
        elif c < 1:
            failures.append({"partition": list(shape.parts), "lhs": str(c), "rhs": ">=1"})
    return {
        "n": n,
        "status": "pass" if not failures else "fail",
        "exceptions": sorted([list(s.parts) for s in exceptions]),
        "failures": failures,
    }
