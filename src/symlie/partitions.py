"""Integer partitions and divisor-lattice arithmetic.

Partitions are weakly decreasing tuples of positive integers, interned so
equal partitions share one instance (cheap hashing for the memo tables).
Enumeration is always in descending lexicographic order, which fixes one
deterministic layout for every table in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import factorial

__all__ = [
    "EMPTY",
    "Partition",
    "PrimeSet",
    "divisors",
    "factorize",
    "is_prime",
    "moebius",
    "partitions_of",
    "totient",
    "z_of",
]

_interned: dict[tuple[int, ...], "Partition"] = {}


class Partition:
    """A weakly decreasing sequence of positive integers.

    The empty partition (of zero) is admitted and unique.  Text form is
    comma-separated parts in square brackets, e.g. ``[3,1,1]``.
    """

    __slots__ = ("parts", "size", "_hash")

    def __init__(self, parts=()):
        pt = tuple(parts)
        prev = None
        for a in pt:
            if type(a) is not int or a < 1:
                raise ValueError(f"parts must be positive integers: {pt!r}")
            if prev is not None and a > prev:
                raise ValueError(f"parts must be weakly decreasing: {pt!r}")
            prev = a
        self.parts = pt
        self.size = sum(pt)
        self._hash = hash(pt)

    @classmethod
    def of(cls, parts) -> "Partition":
        """Interning constructor: equal partitions share one instance.

        The parts must be ints before the lookup, since a float or bool part
        compares equal to an int one and would find its interned partition.
        """
        key = parts if isinstance(parts, tuple) else tuple(parts)
        if not all(type(a) is int for a in key):
            raise ValueError(f"parts must be positive integers: {key!r}")
        hit = _interned.get(key)
        if hit is None:
            hit = cls(key)
            _interned[hit.parts] = hit
        return hit

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a in self.parts:
            out[a] = out.get(a, 0) + 1
        return out

    def conjugate(self) -> "Partition":
        if not self.parts:
            return EMPTY
        cols = [0] * self.parts[0]
        for a in self.parts:
            for j in range(a):
                cols[j] += 1
        return Partition.of(tuple(cols))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return self._hash

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return "[" + ",".join(str(a) for a in self.parts) + "]"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        t = text.strip()
        if not (t.startswith("[") and t.endswith("]")):
            raise ValueError(f"malformed partition text: {text!r}")
        inner = t[1:-1].strip()
        if not inner:
            return EMPTY
        try:
            parts = tuple(int(x) for x in inner.split(","))
        except ValueError:
            raise ValueError(f"malformed partition text: {text!r}") from None
        return cls.of(parts)


EMPTY = Partition.of(())


@lru_cache(maxsize=None)
def _partitions_interned(n: int) -> tuple[Partition, ...]:
    """The partitions of n, descending: each first part, then a suffix of the partitions of n - first.

    In descending order the partitions of n - first whose parts are all at
    most ``first`` are a suffix, found by bisection on the first part.
    """
    if n == 0:
        return (EMPTY,)
    out = []
    for first in range(n, 0, -1):
        rest = _partitions_interned(n - first)
        start = bisect_left(rest, -first, key=lambda p: -p.parts[0] if p.parts else 0)
        out.extend(Partition.of((first,) + p.parts) for p in rest[start:])
    return tuple(out)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    if type(n) is not int:
        raise ValueError(f"partitions_of requires an integer n, got {n!r}")
    if n < 0:
        raise ValueError("partitions of negative integers are not defined")
    return _partitions_interned(n)


def _require_positive_int(name: str, n) -> None:
    # before any cache lookup: a float or bool equal to an int would find its entry
    if type(n) is not int or n < 1:
        raise ValueError(f"{name} requires an integer n >= 1, got {n!r}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) by trial division."""
    _require_positive_int("factorize", n)
    return _factorize(n)


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def divisors(n: int) -> tuple[int, ...]:
    """Ascending divisors of n >= 1."""
    _require_positive_int("divisors", n)
    return _divisors(n)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    out = [1]
    for p, e in _factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def moebius(n: int) -> int:
    _require_positive_int("moebius", n)
    fac = _factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    _require_positive_int("totient", n)
    out = 1
    for p, e in _factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def is_prime(n: int) -> bool:
    """Whether n is prime, read off its factorization."""
    if type(n) is not int:
        raise ValueError(f"is_prime requires an integer n, got {n!r}")
    return n >= 2 and _factorize(n) == ((n, 1),)


def z_of(p: Partition) -> int:
    """Centralizer order prod_i i^{m_i} * m_i! of a permutation of cycle type p."""
    out = 1
    for i, m in p.multiplicities().items():
        out *= i**m * factorial(m)
    return out


class PrimeSet:
    """A finite set of distinct primes with smooth/rough membership tests.

    ``is_smooth(n)`` holds when every prime factor of n lies in the set;
    ``is_rough(n)`` holds when none does.  Both hold exactly for n = 1.
    """

    __slots__ = ("primes",)

    def __init__(self, primes=()):
        primes = tuple(primes)
        if any(type(q) is not int for q in primes):
            raise ValueError(f"primes must be integers: {primes!r}")
        ps = tuple(sorted(set(primes)))
        for q in ps:
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
        self.primes = ps

    def factor_split(self, n: int) -> tuple[int, int]:
        """Split n = smooth * rough with smooth the maximal in-set prime-power part.

        The empty set gives (1, n).  The two factors are coprime.
        """
        _require_positive_int("factor_split", n)
        smooth = 1
        rest = n
        for q in self.primes:
            while rest % q == 0:
                rest //= q
                smooth *= q
        return smooth, rest

    def is_smooth(self, n: int) -> bool:
        return self.factor_split(n)[1] == 1

    def is_rough(self, n: int) -> bool:
        return self.factor_split(n)[0] == 1

    def __contains__(self, q: int) -> bool:
        return q in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)

    def __eq__(self, other):
        return isinstance(other, PrimeSet) and self.primes == other.primes

    def __hash__(self):
        return hash(("PrimeSet", self.primes))

    def __repr__(self):
        return "{" + ",".join(str(q) for q in self.primes) + "}"

    @classmethod
    def from_text(cls, text: str) -> "PrimeSet":
        t = text.strip().strip("{}")
        if t in ("", "-", "none"):
            return cls(())
        try:
            primes = [int(x) for x in t.split(",")]
        except ValueError:
            raise ValueError(f"malformed prime set {text!r}") from None
        return cls(primes)
