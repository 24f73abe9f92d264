"""Sparse exact symmetric functions in the power-sum basis.

A SymFunc is homogeneous: a degree n together with a map from partitions of
n to nonzero rationals, read as f = sum_mu c_mu * p_mu and stored as integer
numerators over one denominator.  It keys p_mu by mu's multiplicity vector
packed into one integer, sum_a m_a(mu) << 8 (a - 1), so the key of a
product of p-monomials is the sum of their keys, and one key serves every
product: ``_packed_products`` is the one product loop, run on the stored
maps as they are, and ``_reduced_products`` the one way its sum becomes a
SymFunc, for SymFunc and Series products, both Newton recurrences (h_n,
and ``plethysm._newton`` on series), the plethysm kernel's degree-t sums
and ``plethysm._family_pleth``'s log.  The fields hold multiplicities
below 2^8, so a SymFunc has degree at most 255.  The memoized ``_unpack``
decodes a key to its parts in three places: at the API edge
(``SymFunc._decode``), for the plethysm kernel's trie of parts
(``plethysm._monomials``), and in ``_stretched``, the key map of p_k[f];
stretching, negation and omega keep a map in lowest terms, so they build
their results through ``_TermMap._bare`` without a gcd.  A SchurExpansion
keys its shapes by beta key instead: the shape lam of degree n is the
integer sum 2^(lam_i + n - i) over its n rows padded with zeros.  In both
classes the keys of one degree sort as their partitions do, and both add,
subtract and scale on the integers (``_sum_scaled``) and have omega, which
signs p_mu by the parity of its length and conjugates a beta key.  The
zero function carries no degree and absorbs additions.  The
Murnaghan-Nakayama rule runs on beta-sets in two directions.
Backwards, ``_border_strips`` removes the m-border strips of a parts tuple,
and characters recurse over it (memoized across all calls in ``_char``) for
``character`` and ``s_of``.  Forwards, ``_add_ribbons`` adds the strips on
beta keys, moving beads by bit operations, and adds p_m times a whole Schur
expansion into a map in place (Pieri for m = 1).  Chained in the memo
``_power_schur`` it gives p_d^k in the Schur basis.  ``to_schur`` expands
any SymFunc over the forward walk by Horner's rule on the smallest part
(``_expand``), and ``product_slice_schur`` expands a product of factors
(1 + s p_m)^{+/-1} by a DP over the same walk.  Neither evaluates a
character or decodes a shape, and no other module reads a beta key.  The
tests check each walk against the other, the backward one against strips
enumerated from cell sets, p_d^k against a d-quotient formula, and
``to_schur`` and the DP against characters.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
from types import MappingProxyType

from .partitions import Partition, partitions_of, z_of

__all__ = [
    "SchurExpansion",
    "SymFunc",
    "character",
    "e_of",
    "h_of",
    "is_schur_positive",
    "p_of",
    "product_slice_schur",
    "s_of",
    "syt_maj_distribution",
    "terms_json",
    "to_schur",
]


# the largest degree of a SymFunc: its key gives each part size 8 bits, so every multiplicity stays below 2^8
_TOP = 255
_TOO_DEEP = "degree {} exceeds 255, the largest degree a power-sum key holds"
# the low bit of the field of every part size 1..255: a key's popcount against it has the parity of the length
_LOWS = int.from_bytes(b"\1" * _TOP, "little")


def terms_json(terms: Mapping[Partition, Fraction]) -> list[dict]:
    """The JSON rows of a partition -> coefficient map, largest partition first."""
    return [
        {"partition": list(part.parts), "num": str(c.numerator), "den": str(c.denominator)}
        for part, c in sorted(terms.items(), key=lambda kv: kv[0].parts, reverse=True)
    ]


class _TermMap:
    """A homogeneous map from partitions of one degree to nonzero rationals.

    The coefficients are stored as integer numerators over one denominator
    ``den > 0`` with gcd(den, *numerators) == 1, so equal maps store equal
    (numerators, den) and a result is reduced by one gcd, not one per term.
    Each class keys the stored map ``_num`` by one shape key, and its codec
    converts at the edge: ``_encode(parts, degree)`` gives the key of a
    parts tuple and ``_decode(key)`` its parts.  A SymFunc keys by packed
    multiplicity vectors, a SchurExpansion by beta-set integers.  Keys of
    one degree sort in the order of their partitions.  Sums, negation and
    ``scaled`` keep the class, and the two classes do not mix: their sum
    raises TypeError.
    ``Partition`` and ``Fraction`` appear only at the edge: the constructor
    validates every key through ``Partition.of``, and ``num``, ``terms``,
    ``support``, ``negatives`` and the text and JSON forms hand out fresh
    read-only maps and tuples keyed by interned partitions, so a memoized
    value cannot be changed through them.  ``symbol`` names the basis
    element in text and ``basis`` names the basis in JSON; the empty
    partition prints as its bare coefficient.
    """

    __slots__ = ("degree", "_num", "den")
    _top = inf  # the largest degree the class's keys hold

    def __init__(self, degree, terms=None):
        clean: dict = {}
        for key, c in dict(terms or {}).items():
            part = key if isinstance(key, Partition) else Partition.of(key)
            c = Fraction(c)
            if not c:
                continue
            if part.size != degree:
                raise ValueError(f"term {part} has size {part.size}, expected degree {degree}")
            clean[self._encode(part.parts, degree)] = c
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
        self.den = den
        self.degree = degree if clean else None

    @classmethod
    def _make(cls, degree, num: dict, den: int = 1):
        # internal fast path: the class's keys of shapes of size degree, no zero numerator, den > 0
        if den != 1 and num:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        return cls._bare(degree, num, den)

    @classmethod
    def _bare(cls, degree, num: dict, den: int = 1):
        # ``_make`` for a map already in lowest terms: no gcd is taken
        if degree is not None and degree > cls._top:
            raise ValueError(_TOO_DEEP.format(degree))
        obj = cls.__new__(cls)
        obj._num = num
        obj.den = den if num else 1
        obj.degree = degree if num else None
        return obj

    def _partition(self, key) -> Partition:
        return Partition.of(self._decode(key))

    @property
    def num(self) -> Mapping[Partition, int]:
        """The integer numerators as a fresh, read-only partition -> int map."""
        return MappingProxyType({self._partition(k): v for k, v in self._num.items()})

    @property
    def terms(self) -> Mapping[Partition, Fraction]:
        """The coefficients as a fresh, read-only partition -> Fraction map."""
        return MappingProxyType({self._partition(k): Fraction(v, self.den) for k, v in self._num.items()})

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, part) -> Fraction:
        """The coefficient of ``part``, a Partition or a sequence of parts; 0 for a sequence that is no partition of the degree."""
        if not isinstance(part, Partition):
            try:
                part = Partition(part)
            except ValueError:
                return Fraction(0)
        if part.size != self.degree:
            return Fraction(0)
        return Fraction(self._num.get(self._encode(part.parts, part.size), 0), self.den)

    def support(self) -> tuple[Partition, ...]:
        return tuple(map(self._partition, sorted(self._num, reverse=True)))

    def __eq__(self, other):
        return type(other) is type(self) and self.den == other.den and self._num == other._num

    def __hash__(self):
        return hash((self.degree, self.den, frozenset(self._num.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch in add: {self.degree} vs {other.degree}")
        return _sum_scaled(((1, self), (1, other)))

    def __sub__(self, other):
        return self + (-other) if type(other) is type(self) else NotImplemented

    def __neg__(self):
        return self._bare(self.degree, {k: -c for k, c in self._num.items()}, self.den)

    def scaled(self, c):
        c = Fraction(c)
        if not c or self.is_zero:
            return self._make(None, {})
        return _sum_scaled(((c, self),))

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for key in sorted(self._num, reverse=True):
            part, c = self._partition(key), Fraction(self._num[key], self.den)
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


@lru_cache(maxsize=None)
def _unpack(key: int) -> tuple[int, ...]:
    """The parts, largest first, of the partition with power-sum key ``key``.

    The one decoder of the key, memoized, so the tuple of a shape is shared.
    """
    parts, a = [], 1
    while key:
        parts += [a] * (key & 255)
        key >>= 8
        a += 1
    return tuple(reversed(parts))


class SymFunc(_TermMap):
    """A homogeneous symmetric function, stored in the power-sum basis.

    p_lam is keyed by sum_a m_a(lam) << 8 (a - 1).  ``_make`` and ``_encode``,
    one of which makes every SymFunc, refuse a degree above 255.
    """

    __slots__ = ()
    symbol = basis = "p"
    _top = _TOP
    _decode = staticmethod(_unpack)

    @staticmethod
    def _encode(parts, degree: int) -> int:
        if degree > _TOP:
            raise ValueError(_TOO_DEEP.format(degree))
        return sum([1 << 8 * a - 8 for a in parts])

    @classmethod
    def zero(cls) -> "SymFunc":
        return ZERO

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            if self.is_zero or other.is_zero:
                return ZERO
            return _reduced_products(self.degree + other.degree, (((self._num, self.den), (other._num, other.den)),))
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def omega(self) -> "SymFunc":
        """The involution p_mu -> (-1)^{|mu| - l(mu)} p_mu (h_n <-> e_n), l(mu) read off the low bit of each field of the key."""
        n = self.degree
        return SymFunc._bare(n, {k: -c if ((k & _LOWS).bit_count() ^ n) & 1 else c for k, c in self._num.items()}, self.den)


def _stretch(f: SymFunc, k: int) -> SymFunc:
    """p_k[f]: every part a of every p-monomial of f is read as k * a."""
    if f.is_zero or k == 1:
        return f
    return SymFunc._bare(f.degree * k, {_stretched(key, k): c for key, c in f._num.items()}, f.den)


@lru_cache(maxsize=None)
def _stretched(key: int, k: int) -> int:
    # the key of p_k[p_mu] from the key of p_mu; the fields keep their multiplicities, so none outgrows 2^8
    return sum([1 << 8 * k * a - 8 for a in _unpack(key)])


def _packed_products(pairs) -> tuple[dict[int, int], int]:
    """sum x * y over (x, y) pairs of packed maps, as one packed map (numerators, den).

    A packed map is a SymFunc's ``_num`` over its ``den``, so the key of a
    product of p-monomials is the sum of their keys.  Every pair is brought
    to the lcm of the pairs' den_x * den_y once; the sum is not reduced and
    keeps the zeros that cancellation leaves.  ``_reduced_products`` makes
    every SymFunc out of its sums, for ``SymFunc.__mul__``,
    ``Series.__mul__``, ``_h_of``, ``plethysm._newton``, the plethysm
    kernel's degree-t sums and ``plethysm._family_pleth``; only the kernel's
    node products and ``plethysm._exp``'s one-component Q_j read a sum
    unreduced.
    """
    den = lcm(*(dx * dy for (_, dx), (_, dy) in pairs))
    out: dict[int, int] = {}
    get = out.get
    for (xs, dx), (ys, dy) in pairs:
        scale = den // (dx * dy)
        ys = list(ys.items())
        for ka, ca in xs.items():
            ca *= scale
            for kb, cb in ys:
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
    return out, den


def _reduced_products(d: int, pairs, r: int = 1) -> SymFunc:
    """(1/r) sum x * y over (x, y) pairs of packed maps, as a SymFunc of degree d: its zeros dropped, r in its den.

    ``SymFunc._make`` reduces it by one gcd and refuses a degree above 255,
    so no key whose fields overflowed is read; no pairs make no key, so
    their sum is zero even above that ceiling.
    """
    if not pairs:
        return ZERO
    num, den = _packed_products(pairs)
    return SymFunc._make(d, {k: v for k, v in num.items() if v}, den * r)


def _sum_scaled(pairs) -> _TermMap:
    """sum c * f over (c, f) pairs, c a nonzero int or Fraction and f a nonzero term map of their one class and degree.

    One lcm of the pairs' denominators, integer sums, one gcd at the end.
    """
    den = lcm(*(c.denominator * f.den for c, f in pairs))
    out: dict = {}
    get = out.get
    for c, f in pairs:
        scale = den // (c.denominator * f.den) * c.numerator
        for k, v in f._num.items():
            out[k] = get(k, 0) + v * scale
    f = pairs[0][1]
    return f._make(f.degree, {k: v for k, v in out.items() if v}, den)


ZERO = SymFunc._make(0, {})
ONE = SymFunc._make(0, {0: 1})


def p_of(parts) -> SymFunc:
    """The power-sum basis element p_lambda."""
    part = parts if isinstance(parts, Partition) else Partition(parts)
    return SymFunc._make(part.size, {SymFunc._encode(part.parts, part.size): 1})


def _require_degree(name: str, n) -> None:
    # before the memo, where True would find the entry for 1, and before the recursion, which builds every h_d below n
    if type(n) is not int or n < 0:
        raise ValueError(f"{name} requires an integer n >= 0, got {n!r}")
    if n > _TOP:
        raise ValueError(_TOO_DEEP.format(n))


def h_of(n: int) -> SymFunc:
    """Complete homogeneous h_n via the Newton recurrence n*h_n = sum p_k h_{n-k}."""
    _require_degree("h_of", n)
    return _h_of(n)


def e_of(n: int) -> SymFunc:
    """Elementary e_n = omega(h_n)."""
    _require_degree("e_of", n)
    return _h_of(n).omega()


@lru_cache(maxsize=None)
def _h_of(n: int) -> SymFunc:
    # one reducer call over the pairs (p_k, h_{n-k}), 1/n folded into the denominator
    if n == 0:
        return ONE
    pairs = []
    for k in range(1, n + 1):
        h = _h_of(n - k)
        pairs.append((({SymFunc._encode((k,), k): 1}, 1), (h._num, h.den)))
    return _reduced_products(n, pairs, n)


# ---------------------------------------------------------------------------
# Characters of the symmetric group (Murnaghan-Nakayama on beta-sets)
# ---------------------------------------------------------------------------


def _border_strips(lam: tuple[int, ...], m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The m-border strips lam/mu of lam, as (mu, (-1)^{height}) pairs.

    The backward Murnaghan-Nakayama walk, over which ``_char`` runs the
    recursion chi^lam(m, rest) = sum (-1)^{height} chi^mu(rest).  Read from
    mu to lam it is multiplication by p_m, p_m * s_mu = sum (-1)^{height}
    s_lam over the lam with lam/mu such a strip, which ``_add_ribbons``
    walks forwards.
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


def _beta_key(parts: tuple[int, ...], n: int) -> int:
    """The beta key of the shape ``parts`` of degree n: sum 2^(parts_i + n - i) over i = 1..n.

    The shape is padded with zero parts to n rows, so the key holds n beads,
    and the empty shape of degree 0 has key 0.  Keys of one degree compare
    as their shapes do in lexicographic order.
    """
    key = (1 << (n - len(parts))) - 1
    for i, a in enumerate(parts, 1):
        key |= 1 << (a + n - i)
    return key


def _beta_parts(key: int) -> tuple[int, ...]:
    """The parts of the shape with beta key ``key``: each bead's part is the number of free positions below it.

    The beads of the empty rows sit below every free position and are
    dropped, so the degree is not needed.
    """
    parts, free = [], 0
    while True:
        beads = (key ^ (key + 1)).bit_length() - 1  # the run of beads at the bottom
        key >>= beads
        if free:
            parts += [free] * beads
        if not key:
            return tuple(reversed(parts))
        gap = (key & -key).bit_length() - 1  # the run of free positions above it
        key >>= gap
        free += gap


def _add_ribbons(E: Mapping[int, int], m: int, w: int = 1, out: dict | None = None) -> dict[int, int]:
    """Add w * p_m * sum_mu E[mu] s_mu into the beta key -> integer map ``out`` and return it.

    The forward Murnaghan-Nakayama walk, the reverse of ``_border_strips``:
    p_m * s_mu = sum (-1)^{height} s_lam over the lam with lam/mu an m-border
    strip (Macdonald I.3, ex. 11).  The degree grows by m, so the key K of
    mu gains m empty rows, K' = (K << m) | (2^m - 1).  A strip moves a bead
    from b to the free position b + m, so the movable beads are the bits of
    K' & ~(K' >> m), each gives lam = K' ^ 2^b ^ 2^(b+m), and the height is
    the number of beads strictly between b and b + m.  With m = 1 the strips
    are the addable corners (Pieri) and every height is 0.  Zero entries of
    E are skipped.  Without ``out`` the sum goes into a new map, returned
    with its zeros dropped; a given ``out`` keeps the zeros that
    cancellation leaves.
    """
    if out is None:
        return {lam: c for lam, c in _add_ribbons(E, m, w, {}).items() if c}
    get = out.get
    hop = (1 << m) | 1  # low * hop flips the bead at low and the free position m above it
    if m == 1:
        for K, c in E.items():
            if not c:
                continue
            c *= w
            K = K << 1 | 1
            free = K & ~(K >> 1)
            while free:
                low = free & -free
                free ^= low
                lam = K ^ low * hop
                out[lam] = get(lam, 0) + c
    else:
        fill = (1 << m) - 1
        span = fill ^ 1  # low * span: the m - 1 positions strictly between low and low << m
        for K, c in E.items():
            if not c:
                continue
            c *= w
            K = K << m | fill
            free = K & ~(K >> m)
            while free:
                low = free & -free
                free ^= low
                lam = K ^ low * hop
                out[lam] = get(lam, 0) + (-c if (K & low * span).bit_count() & 1 else c)
    return out


@lru_cache(maxsize=None)
def _power_schur(d: int, k: int) -> Mapping[int, int]:
    """p_d^k in the Schur basis, read-only: the nonzero chi^lam((d^k)) by the beta key of lam.

    Built as p_d times p_d^{k-1}, so the memo holds the whole chain
    k = 0, 1, ... for each d, one integer key per shape, and no character
    is evaluated.
    """
    if k == 0:
        return MappingProxyType({0: 1})
    return MappingProxyType(_add_ribbons(_power_schur(d, k - 1), d))


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
    """A homogeneous symmetric function expressed in the Schur basis, keyed by the beta keys of its shapes."""

    __slots__ = ()
    symbol = "s"
    basis = "schur"
    _encode = staticmethod(_beta_key)
    _decode = staticmethod(_beta_parts)

    def negatives(self) -> dict[Partition, Fraction]:
        return {self._partition(k): Fraction(c, self.den) for k, c in self._num.items() if c < 0}

    def omega(self) -> "SchurExpansion":
        """The involution s_lam -> s_lam' on the beta keys, no shape decoded.

        The n beads of the key of lam lie in [0, 2n), and the free positions
        there are n - 1 + j - lam'_j for j = 1..n (Macdonald I.1.7), so the
        key of lam' is the complement of lam's in [0, 2n) read in reverse.
        """
        if self.is_zero:
            return self
        n = self.degree
        mask = (1 << 2 * n) - 1
        num = {int(f"{K ^ mask:0{2 * n}b}"[::-1], 2): c for K, c in self._num.items()}
        return SchurExpansion._bare(n, {K: num[K] for K in sorted(num, reverse=True)}, self.den)


def _schur_of(n: int, num: Mapping[int, int], den: int = 1) -> SchurExpansion:
    """The Schur expansion of degree n with numerators ``num`` (by beta key) over ``den``.

    The keys are sorted in descending order, which is the order of their
    shapes in ``partitions_of(n)``; no shape is decoded or interned, and
    zero numerators are dropped.
    """
    return SchurExpansion._make(n, {lam: c for lam in sorted(num, reverse=True) if (c := num[lam])}, den)


def s_of(lam) -> SymFunc:
    """Schur function s_lam in the power-sum basis: sum_mu chi^lam(mu)/z_mu p_mu."""
    lam = lam if isinstance(lam, Partition) else Partition.of(lam)
    if lam.size > _TOP:  # before enumerating the partitions of its size
        raise ValueError(_TOO_DEEP.format(lam.size))
    terms = {mu: Fraction(_char(lam.parts, mu.parts), z_of(mu)) for mu in partitions_of(lam.size)}
    return SymFunc(lam.size, terms)


def _expand(num: Mapping[int, int]) -> dict[int, int]:
    """sum_mu num[mu] p_mu (by power-sum key) in the Schur basis, as a beta key -> integer map that may keep zeros.

    Horner's rule on the smallest part.  A monomial p_a^j with one part
    value is the ribbon chain ``_power_schur(a, j)``, and the constant is
    the chain's first link, j = 0.  Every other p_mu is
    p_a times p_mu' with a its smallest part, so the monomials are grouped
    by a, each group's sum over mu' is expanded in turn, and that expansion
    is pushed through one ``_add_ribbons`` call for a.  The smallest part
    is the lowest nonzero field of mu's key, found from its lowest set bit,
    and mu' is the key less one unit of that field.  Every key of a group's
    expansion has the degree of the group's mu', and the walk pads it by a,
    so all keys of the result are of the degree of num.
    """
    out: dict[int, int] = {}
    get = out.get
    groups: dict[int, dict[int, int]] = {}
    for mu, c in num.items():
        s = max((mu & -mu).bit_length() - 1, 0) & -8  # 8 (a - 1) for the smallest part a (a = 1 for p_())
        if mu >> s + 8:
            groups.setdefault(s // 8 + 1, {})[mu - (1 << s)] = c
        else:
            for lam, v in _power_schur(s // 8 + 1, mu >> s).items():
                out[lam] = get(lam, 0) + c * v
    for a, rest in groups.items():
        _add_ribbons(_expand(rest), a, 1, out)
    return out


def to_schur(f: SymFunc) -> SchurExpansion:
    """Expand f in the Schur basis by the forward ribbon walk (``_expand``); no character is evaluated.

    The walk runs on f's integer numerators and keys every shape by its beta
    key; the common denominator is divided out once per expansion, and no
    shape is decoded until the result is read at its edge.
    """
    return _schur_of(f.degree, _expand(f._num), f.den)


def _factor_weights(factors, n) -> tuple[dict[int, int], set[int]]:
    """Check the degree n, an int >= 0, then (m, sign, exponent) factors, m an int >= 1 (never rounded), for the DP and ``plethysm``'s products: the sign each part m contributes, and the m allowed once."""
    if type(n) is not int or n < 0:
        raise ValueError(f"a product degree must be an integer >= 0, got {n!r}")
    weights: dict[int, int] = {}
    once = set()
    for m, s, e in factors:
        if type(m) is not int or m < 1 or s not in (1, -1) or e not in (1, -1):
            raise ValueError(f"malformed factor {(m, s, e)}")
        if m in weights:
            raise ValueError(f"duplicate factor value {m}")
        weights[m] = s if e == 1 else -s
        if e == 1:
            once.add(m)
    return weights, once


def product_slice_schur(factors, d: int) -> SchurExpansion:
    """The Schur expansion of ``plethysm.product_slice(factors, d)``, by a rim-hook dynamic program.

    One map per degree k = 0..d, from the beta keys of the shapes of k to
    integers, starts from the constant 1, and the factors are applied one
    at a time, smallest m first, in the Schur basis through
    p_m * s_mu = sum (-1)^{height} s_lam over the m-border strips lam/mu
    (Macdonald I.3, ex. 11).  With w = +/-1 the sign each part m
    contributes, a factor (1 + s p_m)^{-1} solves b = a + w p_m b in
    ascending degree, and a factor 1 + s p_m adds w p_m a in descending
    degree: either way w p_m times the degree k - m map is added into the
    degree-k map in place, pushing each shape mu forward to the lam its
    strips reach (``_add_ribbons``).  The first factor needs no walk: its
    powers w^j p_m^j are the ribbon chains ``_power_schur(m, j)``.  No
    character is evaluated, no partition is enumerated or interned, and no
    key is decoded until the result is read at its edge.  The tests check
    the DP against ``to_schur`` and against characters, which recurse over
    the backward walk ``_border_strips``.
    """
    weights, once = _factor_weights(factors, d)
    order = sorted(m for m in weights if m <= d)
    # gaps[i]: the sums <= d that the factors order[i:] can still add; a degree
    # k with d - k outside them is never read again, so it is left stale
    gaps = [{0}]
    for m in reversed(order):
        prev, gap = gaps[-1], set(gaps[-1])
        for t in range(d - m + 1):
            if t in (prev if m in once else gap):
                gap.add(t + m)
        gaps.append(gap)
    gaps.reverse()
    levels: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(d)]
    for i, m in enumerate(order):
        w, need = weights[m], (gaps[i + 1] if m in once else gaps[i])
        if not i:
            for j in range(1, 2 if m in once else d // m + 1):
                if d - j * m in need:
                    levels[j * m] = {lam: w**j * c for lam, c in _power_schur(m, j).items()}
            continue
        for k in range(d, m - 1, -1) if m in once else range(m, d + 1):
            if d - k in need and levels[k - m]:
                _add_ribbons(levels[k - m], m, w, levels[k])
    return _schur_of(d, levels[d])


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
