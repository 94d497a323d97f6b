"""
Exact integer polynomial arithmetic in one and two variables.

UniPoly is a dense tuple of coefficients, constant term first.  BiPoly is
the tuple of its y-rows: rows[b] is the coefficient of y^b, a UniPoly in x,
so a BiPoly's memory grows with its x-degree, not with its count of nonzero
terms.  Both are canonical (no trailing zero coefficient in a UniPoly, no
trailing zero row in a BiPoly) and treated as immutable, and all arithmetic
is exact over the integers; no floating point enters anywhere.  BiPoly.terms,
the map from exponent pairs (x-degree, y-degree) to nonzero coefficients, is
built from the rows when it is read; in the package only repr reads it.

The public constructors (UniPoly(...), BiPoly(...), monomial,
BiPoly.from_json_obj) refuse a non-int coefficient or exponent, and
evaluate refuses a point that is not an int or a Fraction; shift, totient,
cyclotomic and gaussian_binomial refuse an argument that is not an int.
Arithmetic and the package's own builders go through the one canonicaliser,
_DensePoly._canonical, which checks nothing.  _DensePoly holds the ring both
classes share: the canonical form, +, -, *, ==, hash, the rule that an int
operand is a constant, and exact long division.  Any other operand raises
TypeError.

>>> gaussian_binomial(2, 2)
UniPoly((1, 1, 2, 1, 1))
>>> print(BiPoly.one() + BiPoly.monomial(1, 1) + BiPoly.monomial(2, 1))
1 + x*y + x^2*y
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat, starmap, zip_longest
from operator import add, mul, neg, sub
from typing import Iterable, Mapping, Self


class _DensePoly:
    """The dense-polynomial ring that UniPoly and BiPoly share: coeffs is
    the tuple of coefficients, constant term first, with no trailing zero.
    A subclass names its zero coefficient, _zero (the int 0 for UniPoly, the
    zero UniPoly for BiPoly's y-rows), and how one coefficient divides
    another exactly, _divide_coefficient.  An int (or a bool) operand of +,
    -, * and == is the constant _zero + c, and a constant hashes as its int.
    Any other operand, the other polynomial class included, gives
    NotImplemented, so Python raises TypeError (== is False)."""

    __slots__ = ("coeffs",)

    @classmethod
    def _canonical(cls, coeffs: Iterable) -> Self:
        """The canonical form of coefficients of the subclass's type:
        trailing zeros are trimmed, nothing is checked."""
        p = object.__new__(cls)
        c = tuple(coeffs)
        end = len(c)
        while end and not c[end - 1]:
            end -= 1
        p.coeffs = c if end == len(c) else c[:end]
        return p

    @classmethod
    def zero(cls) -> Self:
        return cls._canonical(())

    @classmethod
    def one(cls) -> Self:
        return cls._canonical((cls._zero + 1,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _operand(self, other: object) -> tuple | None:
        """other's coefficients, an int (or a bool) as a constant; None for
        an operand of any other type."""
        if type(other) is type(self):
            return other.coeffs
        if isinstance(other, int):
            return (self._zero + other,) if other else ()
        return None

    def __eq__(self, other: object) -> bool:
        c = self._operand(other)
        return NotImplemented if c is None else self.coeffs == c

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes as that int.
        c = self.coeffs
        return hash(c) if len(c) > 1 else hash(c[0] if c else 0)

    def _zip(self, other: object, op) -> Self:
        c = self._operand(other)
        if c is None:
            return NotImplemented
        return self._canonical(starmap(op, zip_longest(self.coeffs, c, fillvalue=self._zero)))

    def __add__(self, other: Self | int) -> Self:
        return self._zip(other, add)

    __radd__ = __add__

    def __sub__(self, other: Self | int) -> Self:
        return self._zip(other, sub)

    def __rsub__(self, other: int) -> Self:
        return (-self)._zip(other, add)

    def __neg__(self) -> Self:
        return self._canonical(map(neg, self.coeffs))

    def __mul__(self, other: Self | int) -> Self:
        if isinstance(other, int):
            return self._canonical(c * other for c in self.coeffs)
        if type(other) is not type(self):
            return NotImplemented
        a = self.coeffs
        b = [(j, d) for j, d in enumerate(other.coeffs) if d]
        out = [self._zero] * (len(a) + len(other.coeffs) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in b:
                    out[i + j] += c * d
        return self._canonical(out)

    __rmul__ = __mul__

    def _div_exact(self, other: Self) -> Self | None:
        """The quotient self/other over the integers, or None if not
        divisible: long division from the top coefficient, each step one
        exact coefficient division, so a None return certifies
        indivisibility over Z."""
        if type(other) is not type(self):
            raise TypeError(f"cannot divide a {type(self).__name__} by {other!r}")
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        div = other.coeffs
        dd = len(div) - 1
        lead = div[dd]
        nonzero = [(j, d) for j, d in enumerate(div) if d]
        rem = list(self.coeffs)
        out = [self._zero] * max(len(rem) - dd, 0)
        for top in range(len(rem) - 1, dd - 1, -1):
            if not rem[top]:
                continue
            q = self._divide_coefficient(rem[top], lead)
            if q is None:
                return None
            out[top - dd] = q
            for j, d in nonzero:
                rem[top - dd + j] -= q * d
        if any(rem[:dd]):
            return None
        return self._canonical(out)


class UniPoly(_DensePoly):
    """Integer polynomial in one variable.  A coefficient that is not an int
    (a float, a bool, a Fraction) raises ValueError.

    >>> UniPoly((1, 1)) * UniPoly((-1, 1))
    UniPoly((-1, 0, 1))
    """

    __slots__ = ()
    _zero = 0

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        c = tuple(coeffs)
        if not {int}.issuperset(map(type, c)):
            bad = next(v for v in c if type(v) is not int)
            raise ValueError(f"coefficients must be ints, got {bad!r}")
        self.coeffs = self._canonical(c).coeffs

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> UniPoly:
        if type(power) is not int or power < 0:
            raise ValueError(f"exponents must be nonnegative ints, got {power!r}")
        return cls((0,) * power + (coeff,))

    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @staticmethod
    def _divide_coefficient(c: int, lead: int) -> int | None:
        q, r = divmod(c, lead)
        return None if r else q

    div_exact = _DensePoly._div_exact

    def shift(self, k: int) -> UniPoly:
        """Multiply by x^k.  A k that is not a nonnegative int raises
        ValueError."""
        if type(k) is not int or k < 0:
            raise ValueError(f"shift needs a nonnegative int, got {k!r}")
        return UniPoly._canonical((0,) * k + self.coeffs)

    def evaluate(self, x: Fraction | int) -> Fraction | int:
        """Exact value at x.  A point that is not an int or a Fraction (a
        float, a bool) raises ValueError instead of being converted."""
        _check_point(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        return format_terms((a, 0, c) for a, c in enumerate(self.coeffs) if c)

    def __repr__(self) -> str:
        return f"UniPoly({self.coeffs!r})"


def _check_ints(*values: object) -> None:
    """ValueError unless every value is an int; a bool or a float is refused."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"arguments must be ints, got {v!r}")


def _check_point(v: object) -> None:
    """ValueError unless v is an int or a Fraction; a bool is refused."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise ValueError(f"evaluation points must be ints or Fractions, got {v!r}")


def _primes(d: int) -> list[int]:
    """The distinct primes of d >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


def _one_minus_x_power(c: list[int], e: int, divide: bool) -> None:
    """Multiply c by (1 - x^e), or divide it by (1 - x^e) as a power series
    when divide, in place and modulo x^len(c).  The product subtracts c
    shifted by e; the quotient is a running sum along each residue class
    mod e."""
    if e >= len(c):
        return  # 1 - x^e is 1 modulo x^len(c)
    if divide:
        for r in range(e):
            c[r::e] = accumulate(c[r::e])
    else:
        c[e:] = map(sub, c[e:], c[:len(c) - e])


# An int argument is its own cache key and a bool or a float is keyed as a
# one-tuple, so neither is served the entry of its equal int and the int check
# runs (here and in cyclotomic); a typed cache would key every int as a tuple.
@lru_cache(maxsize=4096)
def totient(d: int) -> int:
    """Euler's totient by trial factorisation."""
    _check_ints(d)
    if d < 1:
        raise ValueError("totient needs a positive argument")
    out = d
    for p in _primes(d):
        out -= out // p
    return out


@lru_cache(maxsize=4096)
def cyclotomic(d: int) -> UniPoly:
    """The d-th cyclotomic polynomial, as the Moebius product

        Phi_d(x) = (-1)^[d = 1] * prod over e | d of (1 - x^e)^mu(d/e)

    taken modulo x^(phi(d)+1): one _one_minus_x_power pass for each
    squarefree divisor s of d, with e = d/s, dividing when s has an odd
    number of primes.  Every pass is exact in Z[[x]], the product is a
    polynomial of degree phi(d), so the cut loses nothing, and the sign
    is (-1)^(sum of mu(d/e)), which is -1 for d = 1 only.  No polynomial
    is divided and no Phi_e is built on the way.

    >>> cyclotomic(2)
    UniPoly((1, 1))
    >>> cyclotomic(6)
    UniPoly((1, -1, 1))
    """
    _check_ints(d)
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    squarefree = [(1, False)]
    for p in _primes(d):
        squarefree += [(s * p, not odd) for s, odd in squarefree]
    c = [1] + [0] * totient(d)
    for s, odd in squarefree:
        _one_minus_x_power(c, d // s, odd)
    return UniPoly._canonical(c) if d > 1 else -UniPoly._canonical(c)


def gaussian_binomial(m: int, k: int) -> UniPoly:
    """The Gaussian binomial (m+k choose k)_x.

    Its value at x=1 is binomial(m+k, k), its coefficient list is palindromic,
    and it is the coefficient of y^k in the geometric product over
    (1 - x^j y)^{-1} for j = 0..m.

    Built iteratively as the product over i = 1..min(m, k) of
    (1 - x^(max(m, k)+i)) / (1 - x^i), each factor two _one_minus_x_power
    passes over the coefficients, exact over the integers.  Each coefficient
    depends only on lower ones, so only the lower half is built and the
    palindrome gives the rest.  The package builds its Gaussian binomials
    from packed columns (zeta._gaussian_rows); this is the independent,
    list-based builder the tests compare those against.

    >>> gaussian_binomial(1, 1)
    UniPoly((1, 1))
    """
    _check_ints(m, k)
    if m < 0 or k < 0:
        raise ValueError("gaussian_binomial needs nonnegative arguments")
    m, k = max(m, k), min(m, k)
    top = m * k
    half = top // 2
    c = [1]
    for i in range(1, k + 1):
        # c holds (m+i-1 choose i-1)_x up to x^half; the new one has degree m*i.
        size = min(m * i, half) + 1
        c.extend([0] * (size - len(c)))
        _one_minus_x_power(c, m + i, False)
        _one_minus_x_power(c, i, True)
    return UniPoly._canonical(c + c[:top - half][::-1])


def format_terms(terms: Iterable[tuple[int, int, int]]) -> str:
    """Render (x-exp, y-exp, coeff) triples as a sum, in the given order.

    Unit exponents and unit coefficients are omitted: 1 + x*y + 2*x^2*y.
    """
    parts: list[str] = []
    for a, b, c in terms:
        names = []
        if a:
            names.append("x" if a == 1 else f"x^{a}")
        if b:
            names.append("y" if b == 1 else f"y^{b}")
        mag = abs(c)
        if mag != 1 or not names:
            names.insert(0, str(mag))
        body = "*".join(names)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)


class BiPoly(_DensePoly):
    """Integer polynomial in x and y, held as its y-rows: rows (the shared
    ring's coeffs) is the tuple whose entry b is the coefficient of y^b, a
    canonical UniPoly in x, with no trailing zero row.  terms is the same
    polynomial as a map from exponent pairs (x-degree, y-degree) to nonzero
    coefficients, built on each read.  As for UniPoly, an int (or a bool)
    operand of +, -, * and == is a constant, and a constant hashes as its
    int."""

    __slots__ = ()
    _zero = UniPoly.zero()
    rows = _DensePoly.coeffs

    def __init__(self, terms: Mapping[tuple[int, int], int] = ()) -> None:
        data = dict(terms)
        for key, v in data.items():
            if type(v) is not int:
                raise ValueError(f"coefficients must be ints, got {v!r}")
            if not isinstance(key, tuple) or len(key) != 2:
                raise ValueError(f"exponents must be (x, y) pairs, got {key!r}")
            a, b = key
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"exponents must be ints, got {key!r}")
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent pair ({a}, {b})")
        self.rows = self._from_terms(data.items()).rows

    @classmethod
    def _from_terms(cls, items: Iterable[tuple[tuple[int, int], int]]) -> BiPoly:
        """The polynomial of ((x, y), int) items with distinct nonnegative
        exponent pairs; zero coefficients are dropped, nothing is checked."""
        grid: list[list[int]] = []
        for (a, b), c in items:
            if b >= len(grid):
                grid += [[] for _ in range(b + 1 - len(grid))]
            row = grid[b]
            if a >= len(row):
                row += [0] * (a + 1 - len(row))
            row[a] = c
        return cls._canonical(map(UniPoly._canonical, grid))

    @classmethod
    def monomial(cls, a: int, b: int, coeff: int = 1) -> BiPoly:
        return cls({(a, b): coeff})

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        """{(x-degree, y-degree): coefficient} over the nonzero terms, in
        (y, x) order; a new dict on each read."""
        return {(a, b): c for b, row in enumerate(self.rows) for a, c in enumerate(row.coeffs) if c}

    @staticmethod
    def _divide_coefficient(c: UniPoly, lead: UniPoly) -> UniPoly | None:
        return c.div_exact(lead)

    divide_exact = _DensePoly._div_exact

    def degree_x(self) -> int:
        return max((len(row.coeffs) for row in self.rows), default=0) - 1

    def degree_y(self) -> int:
        return len(self.rows) - 1

    def evaluate(self, x: Fraction | int, y: Fraction | int) -> Fraction | int:
        """Exact value at (x, y): an int when x and y are ints, else a Fraction.
        A point that is not an int or a Fraction (a float, a bool) raises
        ValueError instead of being converted.

        With x = xn/xd, y = yn/yd and (A, B) the bidegree, xd^A yd^B f(x, y)
        is the integer sum of c * xn^a xd^(A-a) * yn^b yd^(B-b): each y-row
        sums its coefficients against one table of x-weights, and the rows
        are summed against the y-weights.  One Fraction is built at the end.

        >>> f = BiPoly({(0, 0): 1, (2, 1): 3})
        >>> f.evaluate(2, -1)
        -11
        >>> f.evaluate(Fraction(1, 2), 3)
        Fraction(13, 4)
        """
        _check_point(x)
        _check_point(y)
        wx = _homogeneous_powers(x, max(self.degree_x(), 0))
        wy = _homogeneous_powers(y, max(self.degree_y(), 0))
        total = sum(map(mul, [sum(map(mul, row.coeffs, wx)) for row in self.rows], wy))
        if isinstance(x, int) and isinstance(y, int):
            return total
        return Fraction(total, wx[0] * wy[0])

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """(x-exp, y-exp, coeff) triples sorted by (y-exp, x-exp)."""
        return [(a, b, c) for b, row in enumerate(self.rows) for a, c in enumerate(row.coeffs) if c]

    def y_coefficients(self) -> dict[int, UniPoly]:
        """The nonzero rows as a map y-degree -> coefficient in x."""
        return {b: row for b, row in enumerate(self.rows) if row}

    @classmethod
    def from_y_coefficients(cls, coeffs: Mapping[int, UniPoly]) -> BiPoly:
        """The polynomial sum of coeffs[b] y^b.  A degree b that is not a
        nonnegative int, or a row that is not a UniPoly, raises ValueError."""
        for b, row in coeffs.items():
            if type(b) is not int or b < 0:
                raise ValueError(f"y-degrees must be nonnegative ints, got {b!r}")
            if not isinstance(row, UniPoly):
                raise ValueError(f"y-coefficients must be UniPolys, got {row!r} at y^{b}")
        rows = [cls._zero] * (max(coeffs, default=-1) + 1)
        for b, row in coeffs.items():
            rows[b] = row
        return cls._canonical(rows)

    def reversed_xy(self) -> BiPoly:
        """x^A y^B f(1/x, 1/y) where (A, B) is the bidegree of f: the rows in
        reverse, each reversed in x and raised to x-degree A."""
        top = self.degree_x() + 1
        return BiPoly._canonical(
            UniPoly._canonical((0,) * (top - len(row.coeffs)) + row.coeffs[::-1])
            for row in reversed(self.rows)
        )

    def to_json_obj(self) -> dict:
        """The interchange form: decimal-string coefficients, sorted by (y, x)."""
        return {
            "vars": ["x", "y"],
            "terms": [[a, b, str(c)] for a, b, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> BiPoly:
        """The polynomial of an interchange object.  Exponents must be ints and
        coefficients ints or decimal strings; a float or a bool raises
        ValueError instead of being truncated, and so does an object that is
        not a mapping or has no list of terms."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"polynomial object must be a mapping, got {obj!r}")
        if obj.get("vars") != ["x", "y"]:
            raise ValueError("polynomial object must declare vars ['x', 'y']")
        if not isinstance(obj.get("terms"), (list, tuple)):
            raise ValueError(f"polynomial object must have a list of terms, got {obj.get('terms')!r}")
        terms: dict[tuple[int, int], int] = {}
        for term in obj["terms"]:
            if not isinstance(term, (list, tuple)) or len(term) != 3:
                raise ValueError(f"terms must be [x, y, coefficient], got {term!r}")
            a, b, c = term
            key = (a, b)
            if type(c) is not int and not (type(c) is str and re.fullmatch(r"-?[0-9]+", c)):
                raise ValueError(f"coefficients must be ints or decimal strings, got {c!r}")
            if key in terms:
                raise ValueError(f"duplicate exponent pair {key}")
            terms[key] = int(c)
        return cls(terms)

    def __str__(self) -> str:
        return format_terms(self.sorted_terms())

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r})"


def _homogeneous_powers(v: Fraction | int, top: int) -> list[int]:
    """[n^k * d^(top - k) for k in 0..top], where v = n/d in lowest terms."""
    up = list(accumulate(repeat(v.numerator, top), mul, initial=1))
    if v.denominator == 1:
        return up
    down = accumulate(repeat(v.denominator, top), mul, initial=1)
    return list(map(mul, up, reversed(list(down))))


def cyclotomic_in_monomial(d: int, a: int, b: int) -> BiPoly:
    """The d-th cyclotomic polynomial evaluated at x^a y^b.

    >>> print(cyclotomic_in_monomial(2, 1, 1))
    1 + x*y
    """
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"exponents must be ints, got {(a, b)!r}")
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError(f"monomial direction ({a}, {b}) must be nonzero and nonnegative")
    base = cyclotomic(d)
    return BiPoly._from_terms(((a * e, b * e), c) for e, c in enumerate(base.coeffs))
