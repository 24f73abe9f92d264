"""Sparse exact symmetric functions in the power-sum basis.

A SymFunc is homogeneous: a degree n together with a map from partitions of
n to nonzero rationals, read as f = sum_mu c_mu * p_mu.  The zero function
carries no degree and absorbs additions.  Schur expansions go through
symmetric-group characters computed by the Murnaghan-Nakayama rule,
memoized across all calls.  The rule is one walk over the m-border strips
of a shape on its beta-set (``_border_strips``): characters recurse over
it, and read as multiplication by p_m it drives the Schur-basis product
engine in plethysm through its memo ``_strips``.  Since ``to_schur`` and
that engine share the walk, the tests check the walk itself against strips
enumerated from cell sets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import EMPTY, Partition, partitions_of, z_of

__all__ = [
    "SchurExpansion",
    "SymFunc",
    "character",
    "e_of",
    "h_of",
    "is_schur_positive",
    "p_of",
    "s_of",
    "syt_maj_distribution",
    "terms_json",
    "to_schur",
]


def _merge_parts(a: Partition, b: Partition) -> Partition:
    return Partition.of(tuple(sorted(a.parts + b.parts, reverse=True)))


def terms_json(terms: dict[Partition, Fraction]) -> list[dict]:
    """The JSON rows of a partition -> coefficient map, largest partition first."""
    return [
        {"partition": list(part.parts), "num": str(c.numerator), "den": str(c.denominator)}
        for part, c in sorted(terms.items(), key=lambda kv: kv[0].parts, reverse=True)
    ]


class _TermMap:
    """A homogeneous map from partitions of one degree to nonzero rationals.

    ``symbol`` names the basis element in text and ``basis`` names the basis
    in JSON; the empty partition prints as its bare coefficient.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        clean: dict[Partition, Fraction] = {}
        for key, c in dict(terms or {}).items():
            part = key if isinstance(key, Partition) else Partition.of(key)
            c = Fraction(c)
            if not c:
                continue
            if part.size != degree:
                raise ValueError(f"term {part} has size {part.size}, expected degree {degree}")
            clean[part] = c
        self.terms = clean
        self.degree = degree if clean else None

    @classmethod
    def _make(cls, degree, terms: dict[Partition, Fraction]):
        # internal fast path: terms already clean (Partition keys, no zeros)
        obj = cls.__new__(cls)
        obj.terms = terms
        obj.degree = degree if terms else None
        return obj

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, part) -> Fraction:
        key = part if isinstance(part, Partition) else Partition.of(part)
        return self.terms.get(key, Fraction(0))

    def support(self) -> tuple[Partition, ...]:
        return tuple(sorted(self.terms, key=lambda q: q.parts, reverse=True))

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for part in self.support():
            c = self.terms[part]
            if not part.parts:
                body = str(abs(c))
            elif abs(c) == 1:
                body = f"{self.symbol}{part!r}"
            else:
                body = f"{abs(c)}*{self.symbol}{part!r}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def to_json_dict(self) -> dict:
        return {"degree": 0 if self.degree is None else self.degree, "basis": self.basis, "terms": terms_json(self.terms)}

    def __repr__(self):
        return self.to_text()


class SymFunc(_TermMap):
    """A homogeneous symmetric function, stored in the power-sum basis."""

    __slots__ = ()
    symbol = basis = "p"

    @classmethod
    def zero(cls) -> "SymFunc":
        return ZERO

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch in add: {self.degree} vs {other.degree}")
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                del out[k]
        return SymFunc._make(self.degree, out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def __neg__(self) -> "SymFunc":
        return SymFunc._make(self.degree, {k: -c for k, c in self.terms.items()})

    def scaled(self, c) -> "SymFunc":
        c = Fraction(c)
        if not c or self.is_zero:
            return ZERO
        return SymFunc._make(self.degree, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            if self.is_zero or other.is_zero:
                return ZERO
            out: dict[Partition, Fraction] = {}
            for pa, ca in self.terms.items():
                for pb, cb in other.terms.items():
                    key = _merge_parts(pa, pb)
                    s = out.get(key)
                    out[key] = ca * cb if s is None else s + ca * cb
            return SymFunc._make(self.degree + other.degree, {k: v for k, v in out.items() if v})
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def omega(self) -> "SymFunc":
        """The involution p_mu -> (-1)^{|mu| - l(mu)} p_mu (h_n <-> e_n)."""
        if self.is_zero:
            return ZERO
        out = {}
        for k, c in self.terms.items():
            out[k] = c if (k.size - k.length) % 2 == 0 else -c
        return SymFunc._make(self.degree, out)


ZERO = SymFunc._make(0, {})
ONE = SymFunc._make(0, {EMPTY: Fraction(1)})


def p_of(parts) -> SymFunc:
    """The power-sum basis element p_lambda."""
    part = parts if isinstance(parts, Partition) else Partition.of(parts)
    return SymFunc._make(part.size, {part: Fraction(1)})


def _p1(k: int) -> SymFunc:
    return p_of((k,)) if k else ONE


@lru_cache(maxsize=None)
def h_of(n: int) -> SymFunc:
    """Complete homogeneous h_n via the Newton recurrence n*h_n = sum p_k h_{n-k}."""
    if n < 0:
        raise ValueError("h_of requires n >= 0")
    if n == 0:
        return ONE
    acc = ZERO
    for k in range(1, n + 1):
        acc = acc + _p1(k) * h_of(n - k)
    return acc.scaled(Fraction(1, n))


@lru_cache(maxsize=None)
def e_of(n: int) -> SymFunc:
    """Elementary e_n = omega(h_n)."""
    if n < 0:
        raise ValueError("e_of requires n >= 0")
    return h_of(n).omega()


# ---------------------------------------------------------------------------
# Characters of the symmetric group (Murnaghan-Nakayama on beta-sets)
# ---------------------------------------------------------------------------


def _border_strips(lam: tuple[int, ...], m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The m-border strips lam/mu of lam, as (mu, (-1)^{height}) pairs.

    This is the one Murnaghan-Nakayama walk of the package.  Read forwards it
    is the recursion chi^lam(m, rest) = sum (-1)^{height} chi^mu(rest) of
    ``_char``; read backwards it is multiplication by p_m,
    p_m * s_mu = sum (-1)^{height} s_lam over the lam with lam/mu such a strip,
    which drives the Schur-basis DP through its memo ``_strips``.
    On the beta-set (strictly decreasing) a strip moves the bead of row i
    from b to the free position b - m; it spans rows i..j, where j is the
    last row whose bead lies above b - m, and its height is j - i.
    """
    L = len(lam)
    beta = [a + L - 1 - i for i, a in enumerate(lam)]
    out = []
    for i, b in enumerate(beta):
        nb = b - m
        if nb < 0:
            break
        j = i
        while j + 1 < L and beta[j + 1] > nb:
            j += 1
        if j + 1 < L and beta[j + 1] == nb:
            continue
        # rows i+1..j lose one box and row i keeps what is left of its part;
        # rows of length 1 (and a row emptied at the bottom) drop out
        r = lam[i] - m + j - i
        mu = lam[:i] + tuple([a - 1 for a in lam[i + 1 : j + 1] if a > 1]) + ((r,) if r else ()) + lam[j + 1 :]
        out.append((mu, -1 if (j - i) % 2 else 1))
    return tuple(out)


# The DP reads the strips of each (lam, m) again at every scan degree, so it
# walks through a memo.  Characters memoize chi^lam(mu) and walk without one:
# a strip memo over every shape they visit more than doubles the peak memory
# of a lifting check.
_strips = lru_cache(maxsize=None)(_border_strips)


@lru_cache(maxsize=None)
def _char(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1 if not lam else 0
    rest = mu[1:]
    total = 0
    for nu, sign in _border_strips(lam, mu[0]):
        total += sign * _char(nu, rest)
    return total


def character(lam, mu) -> int:
    """Irreducible character chi^lam evaluated on the class of cycle type mu."""
    lam = lam if isinstance(lam, Partition) else Partition.of(lam)
    mu = mu if isinstance(mu, Partition) else Partition.of(mu)
    if lam.size != mu.size:
        raise ValueError(f"character requires |lam| == |mu|, got {lam.size} vs {mu.size}")
    return _char(lam.parts, mu.parts)


# ---------------------------------------------------------------------------
# Schur expansions
# ---------------------------------------------------------------------------


class SchurExpansion(_TermMap):
    """A homogeneous symmetric function expressed in the Schur basis."""

    __slots__ = ()
    symbol = "s"
    basis = "schur"

    def negatives(self) -> dict[Partition, Fraction]:
        return {k: c for k, c in self.terms.items() if c < 0}


def s_of(lam) -> SymFunc:
    """Schur function s_lam in the power-sum basis: sum_mu chi^lam(mu)/z_mu p_mu."""
    lam = lam if isinstance(lam, Partition) else Partition.of(lam)
    out: dict[Partition, Fraction] = {}
    for mu in partitions_of(lam.size):
        chi = _char(lam.parts, mu.parts)
        if chi:
            out[mu] = Fraction(chi, z_of(mu))
    return SymFunc._make(lam.size, out)


def to_schur(f: SymFunc) -> SchurExpansion:
    """Expand f in the Schur basis: coefficient of s_lam is sum_mu c_mu chi^lam(mu)."""
    if f.is_zero:
        return SchurExpansion(0, {})
    items = list(f.terms.items())
    out: dict[Partition, Fraction] = {}
    for lam in partitions_of(f.degree):
        c = Fraction(0)
        for mu, coef in items:
            chi = _char(lam.parts, mu.parts)
            if chi:
                c += coef * chi
        if c:
            out[lam] = c
    return SchurExpansion(f.degree, out)


def is_schur_positive(f: SymFunc) -> tuple[bool, dict[Partition, Fraction]]:
    """Whether every Schur coefficient of f is >= 0, plus all negative witnesses."""
    neg = to_schur(f).negatives()
    return (not neg, neg)


# ---------------------------------------------------------------------------
# Standard Young tableaux major-index oracle
# ---------------------------------------------------------------------------


def syt_maj_distribution(shape, bound: int = 10) -> dict[int, int]:
    """Counts of standard Young tableaux of the given shape by maj mod n.

    Independent enumeration oracle: tableaux are generated directly and the
    major index (sum of descent positions i where i+1 sits in a lower row)
    is accumulated by residue class.  Sizes above ``bound`` are refused.
    """
    shape = shape if isinstance(shape, Partition) else Partition.of(shape)
    n = shape.size
    if n > bound:
        raise ValueError(f"shape size {n} exceeds the oracle bound {bound}")
    if n == 0:
        return {0: 1}
    rows = shape.parts
    k = len(rows)
    filled = [0] * k
    row_of = [0] * (n + 1)
    counts: dict[int, int] = {}

    def place(v: int, maj: int) -> None:
        if v > n:
            counts[maj % n] = counts.get(maj % n, 0) + 1
            return
        for r in range(k):
            if filled[r] < rows[r] and (r == 0 or filled[r - 1] > filled[r]):
                filled[r] += 1
                row_of[v] = r
                place(v + 1, maj + (v - 1 if v > 1 and r > row_of[v - 1] else 0))
                filled[r] -= 1

    place(1, 0)
    return counts
