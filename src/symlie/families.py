"""Representation families built from weight functions on divisors.

Every family here goes through one template: given an integer-valued weight
w on positive integers, the degree-n member is

    (1/n) * sum_{d | n} w(d) * p_d^(n/d),

the Frobenius characteristic of a (possibly virtual) character induced from
the cyclic group generated by an n-cycle.  The classical cases are w = mu
(the free Lie module) and w = phi (the conjugacy action on n-cycles).
Every series family is read off the template with one weight for all
degrees, ``foulkes_series`` too: the Ramanujan sum c_e(k) depends only on
gcd(e, k), so ``ramanujan(k)`` gives the eigenvalue-k character of C_d at
every d, also at d < k.  The exterior companion g^T of a part set T sums
the 2-power stretches f^T_{n/2^k}[p_{2^k}] of the memoized members f^T:
the template with weight sum_{2^k | d} 2^k w_T(d / 2^k).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .partitions import PrimeSet, _require_positive_int, divisors, moebius, totient
from .plethysm import Series, pleth_p
from .symfunc import SymFunc

__all__ = [
    "DivisorWeight",
    "MOEBIUS",
    "PartSet",
    "TOTIENT",
    "conj",
    "conj_series",
    "exponent_eval",
    "exponent_poly",
    "family_series",
    "foulkes",
    "foulkes_series",
    "from_divisor_weight",
    "lie",
    "lie_primes",
    "lie_primes_bar",
    "lie_primes_bar_series",
    "lie_primes_series",
    "lie_series",
    "part_family",
    "part_family_ext",
    "part_family_ext_series",
    "part_family_series",
    "part_family_via_lie",
]


def _param(head: str, k) -> int:
    if type(k) is not int:
        raise ValueError(f"{head} parameter must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"{head} parameter must be >= 1")
    return k


class PartSet:
    """A set of allowed positive integers with a finite symbolic description.

    Each constructor builds the canonical descriptor and the membership test
    together: an explicit list ``1,3``, ``le(k)`` (n <= k), ``div(k)``
    (n | k), ``mod1(k)`` (n = 1 mod k), ``pow(k)`` (powers of k, including
    1), ``all``, and prime-set membership (``smooth(2,3)``: all prime
    factors inside the set; ``rough(2,3)``: none).  Equal descriptors are
    equal sets.  Membership of 1 is computed, never assumed.
    """

    __slots__ = ("_text", "_test")

    def __init__(self, text: str, test):
        self._text = text
        self._test = test

    @classmethod
    def of(cls, *values) -> "PartSet":
        if not values or any(type(x) is not int or x < 1 for x in values):
            raise ValueError("explicit part set must be nonempty positive integers")
        parts = tuple(sorted(set(values)))
        return cls(",".join(map(str, parts)), frozenset(parts).__contains__)

    @classmethod
    def up_to(cls, k: int) -> "PartSet":
        k = _param("le", k)
        return cls(f"le({k})", lambda n: n <= k)

    @classmethod
    def divisors_of(cls, k: int) -> "PartSet":
        k = _param("div", k)
        return cls(f"div({k})", lambda n: k % n == 0)

    @classmethod
    def mod_one(cls, k: int) -> "PartSet":
        k = _param("mod1", k)
        return cls(f"mod1({k})", lambda n: n % k == 1 % k)

    @classmethod
    def powers_of(cls, k: int) -> "PartSet":
        k = _param("pow", k)

        def test(n: int) -> bool:
            while k > 1 and n % k == 0:
                n //= k
            return n == 1

        return cls(f"pow({k})", test)

    @classmethod
    def everything(cls) -> "PartSet":
        return cls("all", lambda n: True)

    @classmethod
    def smooth_over(cls, primes) -> "PartSet":
        primes = primes if isinstance(primes, PrimeSet) else PrimeSet(primes)
        return cls(f"smooth({','.join(map(str, primes))})", primes.is_smooth)

    @classmethod
    def rough_over(cls, primes) -> "PartSet":
        primes = primes if isinstance(primes, PrimeSet) else PrimeSet(primes)
        return cls(f"rough({','.join(map(str, primes))})", primes.is_rough)

    def __contains__(self, n: int) -> bool:
        return n >= 1 and self._test(n)

    def members_up_to(self, n: int) -> tuple[int, ...]:
        return tuple(m for m in range(1, n + 1) if m in self)

    def descriptor(self) -> str:
        return self._text

    @classmethod
    def parse(cls, text: str) -> "PartSet":
        t = text.strip()
        if not t:
            raise ValueError("empty part-set descriptor")
        if t == "all":
            return cls.everything()
        malformed = f"malformed part-set descriptor {text!r}"
        head, paren, arg = t.partition("(")
        make = {"le": cls.up_to, "div": cls.divisors_of, "mod1": cls.mod_one, "pow": cls.powers_of,
                "smooth": cls.smooth_over, "rough": cls.rough_over}.get(head)
        if make is not None and paren and arg.endswith(")"):
            if head in ("smooth", "rough"):
                return make(PrimeSet.from_text(arg[:-1]))
            try:
                k = int(arg[:-1])
            except ValueError:
                raise ValueError(malformed) from None
            return make(k)
        try:
            return cls.of(*(int(x) for x in t.split(",")))
        except ValueError:
            raise ValueError(malformed) from None

    def __eq__(self, other):
        return isinstance(other, PartSet) and self._text == other._text

    def __hash__(self):
        return hash(("PartSet", self._text))

    def __repr__(self):
        return self._text


class DivisorWeight:
    """An integer-valued function on positive integers with a symbolic tag.

    The tag doubles as the memoization key for every family built from the
    weight, so weights constructed twice with equal parameters share caches.
    """

    __slots__ = ("tag", "_fn")

    def __init__(self, tag: str, fn):
        self.tag = tag
        self._fn = fn

    def __call__(self, d: int) -> int:
        if d < 1:
            raise ValueError("weights are defined on positive integers only")
        return self._fn(d)

    @classmethod
    def moebius_weight(cls) -> "DivisorWeight":
        return cls("mu", moebius)

    @classmethod
    def totient_weight(cls) -> "DivisorWeight":
        return cls("phi", totient)

    @classmethod
    def prime_split(cls, primes) -> "DivisorWeight":
        """w(d) = phi(smooth) * mu(rough) for the split d = smooth * rough."""
        sset = primes if isinstance(primes, PrimeSet) else PrimeSet(primes)

        def fn(d: int) -> int:
            smooth, rough = sset.factor_split(d)
            return totient(smooth) * moebius(rough)

        return cls(f"primes[{sset!r}]", fn)

    @classmethod
    def prime_split_bar(cls, primes) -> "DivisorWeight":
        """w(d) = phi(rough) * mu(smooth), the complementary interpretation."""
        sset = primes if isinstance(primes, PrimeSet) else PrimeSet(primes)

        def fn(d: int) -> int:
            smooth, rough = sset.factor_split(d)
            return totient(rough) * moebius(smooth)

        return cls(f"primesbar[{sset!r}]", fn)

    @classmethod
    def part_set(cls, parts: PartSet) -> "DivisorWeight":
        """w(d) = sum over m | d with m in the set of m * mu(d/m)."""

        def fn(d: int) -> int:
            return sum(m * moebius(d // m) for m in divisors(d) if m in parts)

        return cls(f"parts[{parts.descriptor()}]", fn)

    @classmethod
    def ramanujan(cls, r: int) -> "DivisorWeight":
        """w(d) = phi(d) * mu(d/(d,r)) / phi(d/(d,r)); always an integer.

        This is the sum of the r-th powers of the primitive d-th roots of
        unity, the value driving the eigenvalue-r induced character.
        """
        if type(r) is not int or r < 1:
            raise ValueError(f"ramanujan weight requires an integer r >= 1, got {r!r}")

        def fn(d: int) -> int:
            co = d // gcd(d, r)
            num = totient(d) * moebius(co)
            den = totient(co)
            if num % den:
                raise ArithmeticError(f"non-integer ramanujan weight at d={d}, r={r}")
            return num // den

        return cls(f"ramanujan[{r}]", fn)

    def __eq__(self, other):
        return isinstance(other, DivisorWeight) and self.tag == other.tag

    def __hash__(self):
        return hash(("DivisorWeight", self.tag))

    def __repr__(self):
        return self.tag


MOEBIUS = DivisorWeight.moebius_weight()
TOTIENT = DivisorWeight.totient_weight()

_family_cache: dict[tuple[str, int], SymFunc] = {}


def _require_degree(n) -> None:
    # before the member cache and any divisor loop, where True would find the member of degree 1
    if type(n) is not int or n < 1:
        raise ValueError(f"family members are indexed by integers n >= 1, got {n!r}")


def from_divisor_weight(n: int, w: DivisorWeight) -> SymFunc:
    """The degree-n member (1/n) sum_{d|n} w(d) p_d^(n/d).

    The coefficient of p_{1^n} is w(1)/n, so the dimension of the underlying
    virtual character is (n-1)! * w(1).
    """
    _require_degree(n)
    key = (w.tag, n)
    hit = _family_cache.get(key)
    if hit is None:
        hit = SymFunc._make(n, {SymFunc._encode((d,) * (n // d), n): c for d in divisors(n) if (c := w(d))}, n)
        _family_cache[key] = hit
    return hit


def exponent_eval(n: int, w: DivisorWeight, v) -> Fraction:
    """Value at v of the one-variable polynomial (1/n) sum_{d|n} w(d) v^(n/d), ``exponent_poly``.

    At v = +1/-1 these are the exponents appearing in the power-sum product
    formulas for the symmetric and exterior powers of the family.
    """
    _require_positive_int("exponent_eval", n)
    v = Fraction(v)
    return sum((c * v**e for e, c in exponent_poly(n, w).items()), Fraction(0))


def exponent_poly(n: int, w: DivisorWeight) -> dict[int, Fraction]:
    """The same polynomial as a map exponent -> coefficient (in v)."""
    _require_positive_int("exponent_poly", n)
    return {n // d: Fraction(c, n) for d in divisors(n) if (c := w(d))}


def family_series(w: DivisorWeight, n: int) -> Series:
    if type(n) is not int:
        raise ValueError(f"a family series window must be an integer, got {n!r}")
    return Series(n, {d: from_divisor_weight(d, w) for d in range(1, n + 1)})


def lie(n: int) -> SymFunc:
    """Frobenius characteristic of the free Lie module: weight mu."""
    return from_divisor_weight(n, MOEBIUS)


def conj(n: int) -> SymFunc:
    """Frobenius characteristic of the conjugacy action on n-cycles: weight phi."""
    return from_divisor_weight(n, TOTIENT)


def foulkes(n: int, r: int) -> SymFunc:
    """The eigenvalue-r character induced from the cyclic group C_n.

    Schur multiplicities count standard Young tableaux by major index
    congruent to r mod n; requires 1 <= r <= n.
    """
    if not 1 <= r <= n:
        raise ValueError(f"foulkes requires 1 <= r <= n, got r={r}, n={n}")
    return from_divisor_weight(n, DivisorWeight.ramanujan(r))


def lie_primes(n: int, primes) -> SymFunc:
    """The Lie-module variant attached to a prime set (weight phi*mu on the split)."""
    return from_divisor_weight(n, DivisorWeight.prime_split(primes))


def lie_primes_bar(n: int, primes) -> SymFunc:
    return from_divisor_weight(n, DivisorWeight.prime_split_bar(primes))


def part_family(n: int, parts: PartSet) -> SymFunc:
    """The family whose symmetrized powers expand prod_{m in set} (1 - p_m)^{-1}."""
    return from_divisor_weight(n, DivisorWeight.part_set(parts))


def part_family_via_lie(n: int, parts: PartSet) -> SymFunc:
    """Same member assembled the other way: sum over m in the set, m | n, of Lie_{n/m}[p_m]."""
    _require_degree(n)
    return sum((pleth_p(m, lie(n // m)) for m in divisors(n) if m in parts), SymFunc.zero())


def part_family_ext(n: int, parts: PartSet) -> SymFunc:
    """g^T_n = sum over 2^k | n of f^T_{n/2^k}[p_{2^k}], the degree-n piece of G = sum_k F[p_{2^k}].

    This G has E[G] = H[F] = prod_{m in set} (1 - p_m)^{-1} (``HF-EG``), and
    it is the template with weight sum_{2^k | d} 2^k w_T(d / 2^k); each
    term is a stretch of a memoized ``part_family`` member.
    """
    _require_degree(n)
    out = SymFunc.zero()
    q = 1
    while n % q == 0:
        out = out + pleth_p(q, part_family(n // q, parts))
        q *= 2
    return out


def lie_series(n: int) -> Series:
    return family_series(MOEBIUS, n)


def conj_series(n: int) -> Series:
    return family_series(TOTIENT, n)


def lie_primes_series(primes, n: int) -> Series:
    return family_series(DivisorWeight.prime_split(primes), n)


def lie_primes_bar_series(primes, n: int) -> Series:
    return family_series(DivisorWeight.prime_split_bar(primes), n)


def part_family_series(parts: PartSet, n: int) -> Series:
    return family_series(DivisorWeight.part_set(parts), n)


def part_family_ext_series(parts: PartSet, n: int) -> Series:
    return Series(n, {d: part_family_ext(d, parts) for d in range(1, n + 1)})


def foulkes_series(k: int, n: int) -> Series:
    """Series whose degree-d component is the eigenvalue-k character of C_d.

    The Ramanujan sum c_e(k) depends only on gcd(e, k), so the one weight
    ``ramanujan(k)`` gives ``foulkes(d, r)`` at every degree d, with r the
    residue of k mod d read in 1..d.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"foulkes_series requires an integer k >= 1, got {k!r}")
    return family_series(DivisorWeight.ramanujan(k), n)
