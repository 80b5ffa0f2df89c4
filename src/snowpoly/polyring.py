"""Exact sparse polynomials in x1, x2, ... with the degree marker b.

Coefficients are arbitrary-precision Python integers. Inside `Polynomial`
each term is stored under a flat tuple key `(bexp, e1, ..., ek)`: the
b-exponent first, then the x-exponents, with trailing x-zeros trimmed, so
two monomials are equal exactly when their keys are. Because b is one more
exponent, the product of two monomials is the element-wise sum of their
keys plus the tail of the longer one, and a sum of trimmed keys is trimmed.
The marker b records the inhomogeneous grading of Grothendieck and Lascoux
polynomials.

Keys never leave this module: `items`, `monomials`, `coefficient`,
`Polynomial(mapping)` and `from_terms` speak in `Monomial(xexp, bexp)`, a
view built on demand. Every value is immutable and every operation is a
pure function.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, NamedTuple


def taillex_key(xexp: tuple[int, ...]):
    """Sort key realizing the tail lexicographic order on trimmed exponents.

    Two exponent vectors are compared at the largest index where they differ.
    A trimmed vector that is longer wins outright (its last entry is positive
    against an implicit zero), and equal-length vectors compare reversed.
    """
    return (len(xexp), tuple(reversed(xexp)))


def _key(xexp: Iterable[int] = (), bexp: int = 0) -> tuple[int, ...]:
    """The flat key (bexp, e1, ..., ek) with trailing x-zeros trimmed."""
    key = (bexp, *xexp)
    if min(key) < 0:
        raise ValueError("exponents must be nonnegative")
    return _trim(key)


def _trim(key: tuple[int, ...]) -> tuple[int, ...]:
    """Drop trailing x-zeros; the b-exponent at index 0 always stays."""
    n = len(key)
    while n > 1 and key[n - 1] == 0:
        n -= 1
    return key[:n]


def _raise(key: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The key times x_i."""
    if len(key) > i:
        return key[:i] + (key[i] + 1,) + key[i + 1 :]
    return key + (0,) * (i - len(key)) + (1,)


def _swap(key: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The key with the exponents of x_i and x_{i+1} exchanged."""
    n = len(key)
    if n <= i:
        return key
    if n > i + 2:
        return key[:i] + (key[i + 1], key[i]) + key[i + 2 :]
    a = key[i]
    b = key[i + 1] if n == i + 2 else 0
    return key[:i] + ((b, a) if a else (b,))


class Monomial(NamedTuple):
    """A canonical monomial x1^e1 * x2^e2 * ... * b^bexp."""

    xexp: tuple[int, ...] = ()
    bexp: int = 0

    @classmethod
    def make(cls, xexp: Iterable[int] = (), bexp: int = 0) -> "Monomial":
        return _view(_key(xexp, bexp))

    def x_degree(self) -> int:
        return sum(self.xexp)


def _view(key: tuple[int, ...]) -> Monomial:
    """The public Monomial for a key."""
    return tuple.__new__(Monomial, (key[1:], key[0]))


def _of(terms: dict) -> "Polynomial":
    """Wrap a term dict without copying it; its keys must be trimmed and its
    coefficients nonzero."""
    out = object.__new__(Polynomial)
    out._terms = terms
    return out


class Polynomial:
    """Immutable sparse polynomial: a map from flat monomial key to nonzero int."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for mono, coeff in terms.items() if hasattr(terms, "items") else terms:
                key = _key(*mono)
                if coeff:
                    c = clean.get(key, 0) + coeff
                    if c:
                        clean[key] = c
                    else:
                        del clean[key]
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _of({})

    @classmethod
    def one(cls) -> "Polynomial":
        return _of({(0,): 1})

    @classmethod
    def integer(cls, c: int) -> "Polynomial":
        return _of({(0,): c} if c else {})

    @classmethod
    def x(cls, i: int) -> "Polynomial":
        if i < 1:
            raise ValueError("variable index must be positive")
        return _of({(0,) * i + (1,): 1})

    @classmethod
    def beta(cls) -> "Polynomial":
        return _of({(1,): 1})

    @classmethod
    def term(cls, coeff: int, xexp: Iterable[int] = (), bexp: int = 0) -> "Polynomial":
        return cls({(tuple(xexp), bexp): coeff})

    @classmethod
    def from_terms(cls, triples: Iterable[tuple[int, Iterable[int], int]]) -> "Polynomial":
        """Build from (coeff, x-exponents, b-exponent) triples."""
        return cls(((tuple(x), b), c) for c, x, b in triples)

    @classmethod
    def x_monomial(cls, alpha: Iterable[int]) -> "Polynomial":
        """The monomial x^alpha for a weak composition alpha."""
        return cls({(tuple(alpha), 0): 1})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return ((_view(k), c) for k, c in self._terms.items())

    def monomials(self) -> Iterator[Monomial]:
        return map(_view, self._terms)

    def coefficient(self, xexp: Iterable[int] = (), bexp: int = 0) -> int:
        return self._terms.get(_key(xexp, bexp), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def beta_degree(self) -> int:
        """Largest b-exponent present; -1 for the zero polynomial."""
        return max((k[0] for k in self._terms), default=-1)

    def ray(self) -> frozenset:
        """Normal form under scaling by a nonzero rational: each term's
        coefficient divided by the one at the least key. f.ray() == g.ray()
        exactly when f = c * g for some rational c != 0, or both are zero."""
        if not self._terms:
            return frozenset()
        c0 = self._terms[min(self._terms)]
        return frozenset((k, Fraction(c, c0)) for k, c in self._terms.items())

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
            for m, c in sorted(self.items(), key=lambda mc: (taillex_key(mc[0].xexp), mc[0].bexp))
        ]
        return "Polynomial(" + (" + ".join(parts) if parts else "0") + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self._terms)
        get = terms.get
        for key, coeff in other._terms.items():
            c = get(key, 0) + coeff
            if c:
                terms[key] = c
            else:
                del terms[key]
        return _of(terms)

    def __neg__(self) -> "Polynomial":
        return _of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self._terms)
        get = terms.get
        for key, coeff in other._terms.items():
            c = get(key, 0) - coeff
            if c:
                terms[key] = c
            else:
                del terms[key]
        return _of(terms)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: dict[tuple[int, ...], int] = {}
        get = terms.get
        right = other._terms.items()
        for ka, ca in self._terms.items():
            la = len(ka)
            for kb, cb in right:
                lb = len(kb)
                key = tuple(map(add, ka, kb)) + (ka[lb:] if la > lb else kb[la:])
                c = get(key, 0) + ca * cb
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        return _of(terms)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        if c == 0:
            return Polynomial.zero()
        return _of({k: c * v for k, v in self._terms.items()})


def swap_action(f: Polynomial, i: int) -> Polynomial:
    """Apply the variable swap x_i <-> x_{i+1}; b is untouched."""
    if i < 1:
        raise ValueError("index must be positive")
    return _of({_swap(k, i): c for k, c in f._terms.items()})


def divided_difference(f: Polynomial, i: int) -> Polynomial:
    """(f - s_i f) / (x_i - x_{i+1}), exact by antisymmetry.

    Computed termwise by the telescoping rule: a monomial with x_i-exponent a
    and x_{i+1}-exponent b > a contributes -sum_{j=a}^{b-1} x_i^j x_{i+1}^(a+b-1-j)
    times the rest, and symmetrically with sign +1 when a > b. No rational
    arithmetic is ever needed; every result is checked against the defining
    quotient by `check_divided_difference`.
    """
    if i < 1:
        raise ValueError("index must be positive")
    terms: dict[tuple[int, ...], int] = {}
    get = terms.get
    for key, coeff in f._terms.items():
        n = len(key)
        if n <= i:
            continue
        a = key[i]
        b = key[i + 1] if n > i + 1 else 0
        if a == b:
            continue
        lo, hi, signed = (b, a, coeff) if a > b else (a, b, -coeff)
        s = a + b - 1
        exps = list(key) if n > i + 1 else [*key, 0]
        for j in range(lo, hi):
            exps[i] = j
            exps[i + 1] = s - j
            new = tuple(exps) if exps[-1] else _trim(tuple(exps))
            c = get(new, 0) + signed
            if c:
                terms[new] = c
            else:
                del terms[new]
    out = _of(terms)
    check_divided_difference(f, i, out)
    return out


def check_divided_difference(f: Polynomial, i: int, quotient: Polynomial) -> None:
    """Raise ArithmeticError unless (x_i - x_{i+1}) * quotient == f - s_i f.

    Checked term by term on the keys: each quotient term is raised at x_i and
    at x_{i+1} with opposite signs, f is subtracted and s_i f added back, and
    every resulting coefficient must be zero. A term of f that s_i fixes
    cancels against its own swap and is skipped.
    """
    diff: dict[tuple[int, ...], int] = {}
    get = diff.get
    for key, c in quotient._terms.items():
        if len(key) > i + 1:
            exps = list(key)
            exps[i] += 1
            up_i = tuple(exps)
            exps[i] -= 1
            exps[i + 1] += 1
            up_next = tuple(exps)
        else:
            up_i, up_next = _raise(key, i), _raise(key, i + 1)
        diff[up_i] = get(up_i, 0) + c
        diff[up_next] = get(up_next, 0) - c
    for key, c in f._terms.items():
        swapped = _swap(key, i)
        if swapped != key:
            diff[key] = get(key, 0) - c
            diff[swapped] = get(swapped, 0) + c
    if any(diff.values()):
        raise ArithmeticError(
            f"divided difference at {i}: (x_{i} - x_{i + 1}) * quotient != f - s_{i} f"
        )


def demazure(f: Polynomial, i: int) -> Polynomial:
    """The operator f -> divided_difference(x_i * f, i); idempotent."""
    if i < 1:
        raise ValueError("index must be positive")
    return divided_difference(_of({_raise(k, i): c for k, c in f._terms.items()}), i)


def beta_component(f: Polynomial, d: int) -> Polynomial:
    """The x-polynomial coefficient of b^d in f; d must be nonnegative."""
    if d < 0:
        raise ValueError(f"b-layer must be nonnegative, got {d}")
    return _of({(0,) + k[1:]: c for k, c in f._terms.items() if k[0] == d})


def top_component(f: Polynomial) -> tuple[int, Polynomial]:
    """The largest d with a nonzero b^d layer, together with that layer."""
    if f.is_zero():
        raise ValueError("top component of the zero polynomial is undefined")
    d = f.beta_degree()
    return d, beta_component(f, d)


def bottom_component(f: Polynomial) -> tuple[int, Polynomial]:
    """The least d with a nonzero b^d layer, together with that layer."""
    if f.is_zero():
        raise ValueError("bottom component of the zero polynomial is undefined")
    d = min(k[0] for k in f._terms)
    return d, beta_component(f, d)


def leading_monomial_taillex(f: Polynomial) -> tuple[Monomial, int]:
    """Tail-lex maximal monomial of a pure x-polynomial, with its coefficient."""
    if f.is_zero():
        raise ValueError("leading monomial of the zero polynomial is undefined")
    if any(k[0] for k in f._terms):
        raise ValueError("leading monomial requires a polynomial free of b")
    # with b = 0 in every key, reversing the whole key reverses the x-exponents
    key = max(f._terms, key=lambda k: (len(k), k[::-1]))
    return _view(key), f._terms[key]
