"""Exact sparse multivariate Laurent polynomials.

A polynomial in n variables is stored as a dict mapping exponent tuples
(length n, entries may be negative) to nonzero int coefficients: the ring
is Z[X^±], and the constructor refuses any other coefficient, so
integrality is checked once, where a polynomial is built.  Ring operations,
monomial shifts and exact evaluation at positive rational points are the
operations the rest of the package is built on.  Evaluation runs in
integers: `evaluate_positive` checks the point and returns a Fraction, and
`_value_at`, which the refuter calls with a point it checked once per
sample, keeps a value that is integral an exact int.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add
from collections.abc import Iterable, Mapping, Sequence

from semizn.kernels import add_terms, mul_terms

def grlex_key(expo: Sequence[int]):
    """Graded-lexicographic sort key; used for determinism only."""
    return (sum(expo), tuple(expo))


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int coefficients."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: Mapping[tuple, object] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean = {}
        for expo, c in items:
            expo = tuple(int(e) for e in expo)
            if len(expo) != n:
                raise ValueError(f"exponent vector {expo} has length {len(expo)}, expected {n}")
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an int")
            if c:
                clean[expo] = clean.get(expo, 0) + c
                if not clean[expo]:
                    del clean[expo]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "LaurentPoly":
        """The polynomial with `terms` as they are: exponent tuples of length
        n and nonzero int coefficients.  For results valid by construction;
        input from outside goes through `__init__`, which checks it."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "n", n)
        object.__setattr__(poly, "terms", terms)
        object.__setattr__(poly, "_hash", None)
        return poly

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def constant(cls, n: int, c) -> "LaurentPoly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, expo: Sequence[int], c=1) -> "LaurentPoly":
        expo = tuple(int(e) for e in expo)
        return cls(len(expo), {expo: c})

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def has_positive_coeffs(self) -> bool:
        return bool(self.terms) and all(c > 0 for c in self.terms.values())

    # -- ring ops ----------------------------------------------------------
    def _check(self, other: "LaurentPoly"):
        if self.n != other.n:
            raise ValueError(f"variable-count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return LaurentPoly(self.n, add_terms(self.terms, other.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return LaurentPoly(self.n, mul_terms(self.terms, other.terms))

    def scale(self, c) -> "LaurentPoly":
        return LaurentPoly(self.n, {e: c * v for e, v in self.terms.items()})

    def shift(self, z: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial X^z."""
        z = tuple(int(v) for v in z)
        if len(z) != self.n:
            raise ValueError("shift vector length mismatch")
        return LaurentPoly._trusted(
            self.n, {tuple(map(add, e, z)): c for e, c in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly) and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, frozenset(self.terms.items()))))
        return self._hash

    def evaluate_positive(self, r: Sequence) -> Fraction:
        """Exact value at a strictly positive rational point, as a Fraction.
        The point is checked here; `_value_at` does the arithmetic."""
        r = [Fraction(x) for x in r]
        if len(r) != self.n:
            raise ValueError("evaluation point length mismatch")
        if any(x <= 0 for x in r):
            raise ValueError("evaluation point must be strictly positive")
        return Fraction(self._value_at([(x.numerator, x.denominator) for x in r]))

    def _value_at(self, pq: Sequence[tuple[int, int]]):
        """The value at the point with coordinates p/q, given as the pairs
        (p, q) in lowest terms with p, q > 0 (unchecked): an int when it is
        integral, else a Fraction.  With lo and hi the least and the largest
        exponent of a variable over the support, the value is
        sum c * prod p^(e - lo) * q^(hi - e), in integers, times
        prod p^lo / q^hi.  At all-ones, the first sample of every refuter
        schedule, that is the sum of the coefficients."""
        if all(p == q for p, q in pq):  # lowest terms: p == q only at 1
            return sum(self.terms.values())
        if not self.terms:
            return 0
        lo = list(map(min, zip(*self.terms)))
        hi = list(map(max, zip(*self.terms)))
        total = 0
        for e, c in self.terms.items():
            for (p, q), a, l, h in zip(pq, e, lo, hi):
                c *= p ** (a - l) * q ** (h - a)
            total += c
        num = den = 1
        for (p, q), l, h in zip(pq, lo, hi):
            num *= p ** max(l, 0) * q ** max(-h, 0)
            den *= p ** max(-l, 0) * q ** max(h, 0)
        num *= total
        return num // den if num % den == 0 else Fraction(num, den)

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"X{i+1}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"{c}*{mono}")
        return "LaurentPoly(" + " + ".join(bits) + ")"

