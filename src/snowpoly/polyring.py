"""Exact sparse polynomials in x1, x2, ... with the degree marker b.

Coefficients are arbitrary-precision Python integers. Monomials keep a
canonical form: the x-exponent vector never stores trailing zeros, so two
monomials are equal exactly when their canonical forms coincide. The marker
b records the inhomogeneous grading of Grothendieck and Lascoux polynomials;
every value is immutable and every operation is a pure function.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


def trim(exps: Iterable[int]) -> tuple[int, ...]:
    """Drop trailing zeros, returning the canonical exponent tuple."""
    out = list(exps)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def taillex_key(xexp: tuple[int, ...]):
    """Sort key realizing the tail lexicographic order on trimmed exponents.

    Two exponent vectors are compared at the largest index where they differ.
    A trimmed vector that is longer wins outright (its last entry is positive
    against an implicit zero), and equal-length vectors compare reversed.
    """
    return (len(xexp), tuple(reversed(xexp)))


class Monomial(NamedTuple):
    """A canonical monomial x1^e1 * x2^e2 * ... * b^bexp."""

    xexp: tuple[int, ...] = ()
    bexp: int = 0

    @classmethod
    def make(cls, xexp: Iterable[int] = (), bexp: int = 0) -> "Monomial":
        xexp = trim(xexp)
        if any(e < 0 for e in xexp) or bexp < 0:
            raise ValueError("exponents must be nonnegative")
        return cls(xexp, bexp)

    def x_exponent(self, i: int) -> int:
        """Exponent of x_i (1-indexed)."""
        return self.xexp[i - 1] if 0 < i <= len(self.xexp) else 0

    def x_degree(self) -> int:
        return sum(self.xexp)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    n = max(len(a.xexp), len(b.xexp))
    xs = tuple(
        (a.xexp[k] if k < len(a.xexp) else 0) + (b.xexp[k] if k < len(b.xexp) else 0)
        for k in range(n)
    )
    return Monomial(xs, a.bexp + b.bexp)


class Polynomial:
    """Immutable sparse polynomial: a map from canonical Monomial to nonzero int."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items() if hasattr(terms, "items") else terms:
                if not isinstance(mono, Monomial):
                    mono = Monomial.make(*mono)
                if coeff:
                    c = clean.get(mono, 0) + coeff
                    if c:
                        clean[mono] = c
                    else:
                        clean.pop(mono, None)
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({Monomial((), 0): 1})

    @classmethod
    def integer(cls, c: int) -> "Polynomial":
        return cls({Monomial((), 0): c})

    @classmethod
    def x(cls, i: int) -> "Polynomial":
        if i < 1:
            raise ValueError("variable index must be positive")
        return cls({Monomial((0,) * (i - 1) + (1,), 0): 1})

    @classmethod
    def beta(cls) -> "Polynomial":
        return cls({Monomial((), 1): 1})

    @classmethod
    def term(cls, coeff: int, xexp: Iterable[int] = (), bexp: int = 0) -> "Polynomial":
        return cls({Monomial.make(xexp, bexp): coeff})

    @classmethod
    def from_terms(cls, triples: Iterable[tuple[int, Iterable[int], int]]) -> "Polynomial":
        """Build from (coeff, x-exponents, b-exponent) triples."""
        return cls((Monomial.make(x, b), c) for c, x, b in triples)

    @classmethod
    def x_monomial(cls, alpha: Iterable[int]) -> "Polynomial":
        """The monomial x^alpha for a weak composition alpha."""
        return cls({Monomial.make(alpha, 0): 1})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def monomials(self) -> Iterator[Monomial]:
        return iter(self._terms)

    def coefficient(self, xexp: Iterable[int] = (), bexp: int = 0) -> int:
        return self._terms.get(Monomial.make(xexp, bexp), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def beta_degree(self) -> int:
        """Largest b-exponent present; -1 for the zero polynomial."""
        return max((m.bexp for m in self._terms), default=-1)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        parts = [
            f"{c}*x^{m.xexp}*b^{m.bexp}"
            for m, c in sorted(
                self._terms.items(), key=lambda mc: (taillex_key(mc[0].xexp), mc[0].bexp)
            )
        ]
        return "Polynomial(" + (" + ".join(parts) if parts else "0") + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        out = Polynomial.zero()
        out._terms = terms
        return out

    def __neg__(self) -> "Polynomial":
        out = Polynomial.zero()
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: dict[Monomial, int] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = _mono_mul(ma, mb)
                c = terms.get(m, 0) + ca * cb
                if c:
                    terms[m] = c
                else:
                    terms.pop(m, None)
        out = Polynomial.zero()
        out._terms = terms
        return out

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        if c == 0:
            return Polynomial.zero()
        out = Polynomial.zero()
        out._terms = {m: c * v for m, v in self._terms.items()}
        return out


def swap_action(f: Polynomial, i: int) -> Polynomial:
    """Apply the variable swap x_i <-> x_{i+1}; b is untouched."""
    if i < 1:
        raise ValueError("index must be positive")
    terms: dict[Monomial, int] = {}
    for mono, coeff in f.items():
        xs = list(mono.xexp)
        while len(xs) < i + 1:
            xs.append(0)
        xs[i - 1], xs[i] = xs[i], xs[i - 1]
        m = Monomial(trim(xs), mono.bexp)
        terms[m] = terms.get(m, 0) + coeff
    return Polynomial(terms)


def divided_difference(f: Polynomial, i: int) -> Polynomial:
    """(f - s_i f) / (x_i - x_{i+1}), exact by antisymmetry.

    Computed termwise by the telescoping rule: a monomial with x_i-exponent a
    and x_{i+1}-exponent b > a contributes -sum_{j=a}^{b-1} x_i^j x_{i+1}^(a+b-1-j)
    times the rest, and symmetrically with sign +1 when a > b. No rational
    arithmetic is ever needed; an assertion cross-checks the result against
    the defining quotient.
    """
    if i < 1:
        raise ValueError("index must be positive")
    terms: dict[Monomial, int] = {}
    for mono, coeff in f.items():
        a = mono.x_exponent(i)
        b = mono.x_exponent(i + 1)
        if a == b:
            continue
        lo, hi, sign = (b, a, 1) if a > b else (a, b, -1)
        xs = list(mono.xexp)
        while len(xs) < i + 1:
            xs.append(0)
        for j in range(lo, hi):
            xs[i - 1] = j
            xs[i] = a + b - 1 - j
            m = Monomial(trim(xs), mono.bexp)
            c = terms.get(m, 0) + sign * coeff
            if c:
                terms[m] = c
            else:
                terms.pop(m, None)
    out = Polynomial.zero()
    out._terms = terms
    assert (Polynomial.x(i) - Polynomial.x(i + 1)) * out == f - swap_action(f, i)
    return out


def demazure(f: Polynomial, i: int) -> Polynomial:
    """The operator f -> divided_difference(x_i * f, i); idempotent."""
    return divided_difference(Polynomial.x(i) * f, i)


def beta_component(f: Polynomial, d: int) -> Polynomial:
    """The x-polynomial coefficient of b^d in f; d must be nonnegative."""
    if d < 0:
        raise ValueError(f"b-layer must be nonnegative, got {d}")
    return Polynomial({Monomial(m.xexp, 0): c for m, c in f.items() if m.bexp == d})


def top_component(f: Polynomial) -> tuple[int, Polynomial]:
    """The largest d with a nonzero b^d layer, together with that layer."""
    if f.is_zero():
        raise ValueError("top component of the zero polynomial is undefined")
    d = f.beta_degree()
    return d, beta_component(f, d)


def leading_monomial_taillex(f: Polynomial) -> tuple[Monomial, int]:
    """Tail-lex maximal monomial of a pure x-polynomial, with its coefficient."""
    if f.is_zero():
        raise ValueError("leading monomial of the zero polynomial is undefined")
    if any(m.bexp for m in f.monomials()):
        raise ValueError("leading monomial requires a polynomial free of b")
    mono = max(f.monomials(), key=lambda m: taillex_key(m.xexp))
    return mono, f.coefficient(mono.xexp, 0)
