"""Exact sparse polynomials in x1, x2, ... with the degree marker b.

Coefficients are arbitrary-precision Python integers. Inside `Polynomial`
each term is stored under one packed integer key: the b-exponent sits in
bits [0, 8) and the exponent of x_i in bits [8i, 8i + 8), so higher indices
sit in higher bits and two monomials are equal exactly when their keys are.
The product of two monomials is the sum of their keys, and integer order
of keys is tail-lex order on x, then b: the one term order, in which
`items` and `monomials` yield. The marker b records the inhomogeneous
grading of Grothendieck and Lascoux polynomials.

No carry may ever cross a field. Every stored exponent is at most 127, so
the top bit of each 8-bit field is a guard: naming a monomial with an
exponent of 128 or more raises ValueError, and a product, a Demazure step
or an ascent product whose result would reach 128 in any field raises
OverflowError. Two guarded fields sum to less than 256, so a carry never
reaches the next field before the guard sees it. 127 is above every
exponent the recursions reach up to S_16: x-exponents stay below n, and the
b-degree is at most C(n, 2) = 120.

`items`, `monomials`, `coefficient`, `Polynomial(mapping)` and `from_terms`
speak in `Monomial(xexp, bexp)`, a view built on demand. Keys leave this
module only through `packed_key` and `tally`, for code that moves a
monomial by adding keys, as the K-Kohnert closure does; the layout stays
here. Every value is immutable and every operation is a pure function,
except `Remainder`, the working copy that greedy elimination updates in
place.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Iterable, Iterator, NamedTuple

_WIDTH = 8  # bits per exponent field
_MASK = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 1)  # every stored exponent is below this; the field's top bit is the guard


def packed_key(xexp: Iterable[int] = (), bexp: int = 0) -> int:
    """The packed key of x^xexp * b^bexp. The key of a single variable is
    its increment: adding it to a key raises that exponent by one. Raises
    ValueError for an exponent that is negative or 128 or more."""
    key = 0
    for e in reversed((bexp, *xexp)):
        if not 0 <= e < _LIMIT:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            raise ValueError(f"exponent {e} exceeds the largest supported exponent {_LIMIT - 1}")
        key = (key << _WIDTH) | e
    return key


def tally(keys: Iterable[int]) -> "Polynomial":
    """The sum of the monomials with these packed keys, each counted once per
    occurrence. Raises OverflowError when a key has a guard bit set. Keys
    that step from a valid `packed_key` by one increment per field at a
    time, every step tallied, set a guard bit at 128 before any carry can
    cross into the next field."""
    return _of(_guarded(dict(Counter(keys)), "tally"))


def _guarded(terms: dict, op: str) -> dict:
    """Return terms, or raise OverflowError if any key has a guard bit set,
    that is, an exponent of 128 or more from a sum of two stored fields."""
    seen = reduce(or_, terms, 0)
    fields = seen.bit_length() // _WIDTH + 1
    guards = (((1 << (_WIDTH * fields)) - 1) // _MASK) << (_WIDTH - 1)
    if seen & guards:
        raise OverflowError(f"{op} reaches an exponent above {_LIMIT - 1}")
    return terms


def _swap(key: int, i: int) -> int:
    """The key with the exponents of x_i and x_{i+1} exchanged."""
    shift = _WIDTH * i
    a = (key >> shift) & _MASK
    b = (key >> (shift + _WIDTH)) & _MASK
    return key + (b - a) * ((1 << shift) - (1 << (shift + _WIDTH)))


class Monomial(NamedTuple):
    """A canonical monomial x1^e1 * x2^e2 * ... * b^bexp."""

    xexp: tuple[int, ...] = ()
    bexp: int = 0

    @classmethod
    def make(cls, xexp: Iterable[int] = (), bexp: int = 0) -> "Monomial":
        return _view(packed_key(xexp, bexp))


def _view(key: int) -> Monomial:
    """The public Monomial for a key."""
    bexp = key & _MASK
    xexp = []
    key >>= _WIDTH
    while key:
        xexp.append(key & _MASK)
        key >>= _WIDTH
    return tuple.__new__(Monomial, (tuple(xexp), bexp))


def _of(terms: dict) -> "Polynomial":
    """Wrap a term dict without copying it; its keys must be valid packed
    keys and its coefficients nonzero."""
    out = object.__new__(Polynomial)
    out._terms = terms
    return out


class Polynomial:
    """Immutable sparse polynomial: a map from packed monomial key to nonzero int."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[int, int] = {}
        if terms:
            for mono, coeff in terms.items() if hasattr(terms, "items") else terms:
                key = packed_key(*mono)
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
        return _of({0: 1})

    @classmethod
    def x(cls, i: int) -> "Polynomial":
        if i < 1:
            raise ValueError("variable index must be positive")
        return _of({1 << (_WIDTH * i): 1})

    @classmethod
    def beta(cls) -> "Polynomial":
        return _of({1: 1})

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
        """The terms in canonical order: ascending key, that is tail-lex on
        the x-exponents, then ascending b-exponent."""
        return ((_view(k), c) for k, c in sorted(self._terms.items()))

    def monomials(self) -> Iterator[Monomial]:
        """The monomials in the canonical order of `items`."""
        return map(_view, sorted(self._terms))

    def coefficient(self, xexp: Iterable[int] = (), bexp: int = 0) -> int:
        return self._terms.get(packed_key(xexp, bexp), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def beta_degree(self) -> int:
        """Largest b-exponent present; -1 for the zero polynomial."""
        return max((k & _MASK for k in self._terms), default=-1)

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
        parts = [f"{c}*x^{m.xexp}*b^{m.bexp}" for m, c in self.items()]
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
        terms: dict[int, int] = {}
        get = terms.get
        right = other._terms.items()
        for ka, ca in self._terms.items():
            for kb, cb in right:
                key = ka + kb
                c = get(key, 0) + ca * cb
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        return _of(_guarded(terms, "product"))

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
    times the rest, and symmetrically with sign +1 when a > b. Every exponent
    written stays below max(a, b), so no field can overflow. Each term writes
    its first output term at once and walks on only when |a - b| > 1, so the
    common span of one costs no loop. No rational arithmetic is ever needed.
    `check_divided_difference` tests a result against the defining quotient;
    `verify.suite_recursions` runs it on every ascent step of both recursions.
    """
    if i < 1:
        raise ValueError("index must be positive")
    shift = _WIDTH * i
    step = (1 << shift) - (1 << (shift + _WIDTH))  # x_i up by one, x_{i+1} down by one
    terms: dict[int, int] = {}
    get = terms.get
    for key, coeff in f._terms.items():
        a = (key >> shift) & _MASK
        b = (key >> (shift + _WIDTH)) & _MASK
        if a == b:
            continue
        lo, hi, signed = (b, a, coeff) if a > b else (a, b, -coeff)
        # the first term x_i^lo x_{i+1}^(a+b-1-lo); each next one adds step
        new = key + ((lo - a) << shift) + ((a - 1 - lo) << (shift + _WIDTH))
        while True:
            c = get(new, 0) + signed
            if c:
                terms[new] = c
            else:
                del terms[new]
            lo += 1
            if lo == hi:
                break
            new += step
    return _of(terms)


def check_divided_difference(f: Polynomial, i: int, quotient: Polynomial) -> None:
    """Raise ArithmeticError unless (x_i - x_{i+1}) * quotient == f - s_i f.

    Checked term by term on the keys: each quotient term is raised at x_i and
    at x_{i+1} with opposite signs, f is subtracted and s_i f added back, and
    every resulting coefficient must be zero. A term of f that s_i fixes
    cancels against its own swap and is skipped. A raised field stays below
    256, so no carry crosses fields.
    """
    shift = _WIDTH * i
    up_i = 1 << shift
    up_next = up_i << _WIDTH
    step = up_i - up_next
    terms = quotient._terms.items()
    diff = {key + up_i: c for key, c in terms}  # distinct keys: nothing to add yet
    get = diff.get
    for key, c in terms:
        k = key + up_next
        diff[k] = get(k, 0) - c
    for key, c in f._terms.items():
        a = (key >> shift) & _MASK
        b = (key >> (shift + _WIDTH)) & _MASK
        if a != b:
            diff[key] = get(key, 0) - c
            k = key + (b - a) * step
            diff[k] = get(k, 0) + c
    if any(diff.values()):
        raise ArithmeticError(
            f"divided difference at {i}: (x_{i} - x_{i + 1}) * quotient != f - s_{i} f"
        )


def demazure(f: Polynomial, i: int) -> Polynomial:
    """The operator f -> divided_difference(x_i * f, i); idempotent."""
    if i < 1:
        raise ValueError("index must be positive")
    up = 1 << (_WIDTH * i)
    raised = _guarded({k + up: c for k, c in f._terms.items()}, "Demazure step")
    return divided_difference(_of(raised), i)


def ascent_product(f: Polynomial, i: int, raise_i: bool = False) -> Polynomial:
    """(1 + b * x_{i+1}) * f, times x_i as well when raise_i: the product
    that one ascent step of the Grothendieck (raise_i false) or Lascoux
    (raise_i true) recursion hands to `divided_difference`.

    Built on the keys: each term is copied under its key plus the x_i
    increment (or zero), and added again under that key plus the increments
    of x_{i+1} and b. Every field rises by at most one, so an exponent of
    127 sets a guard bit and raises OverflowError, as the product would.
    """
    if i < 1:
        raise ValueError("index must be positive")
    up = 1 << (_WIDTH * i) if raise_i else 0
    shift = up + (1 << (_WIDTH * (i + 1))) + 1
    terms = {k + up: c for k, c in f._terms.items()}
    get = terms.get
    for key, coeff in f._terms.items():
        key += shift
        c = get(key, 0) + coeff
        if c:
            terms[key] = c
        else:
            del terms[key]
    return _of(_guarded(terms, "ascent product"))


def beta_component(f: Polynomial, d: int) -> Polynomial:
    """The x-polynomial coefficient of b^d in f; d must be nonnegative."""
    if d < 0:
        raise ValueError(f"b-layer must be nonnegative, got {d}")
    return _of({k - d: c for k, c in f._terms.items() if k & _MASK == d})


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
    if any(k & _MASK for k in f._terms):
        raise ValueError("leading monomial requires a polynomial free of b")
    # higher indices sit in higher bits, so on b-free keys integer order is tail-lex
    key = max(f._terms)
    return _view(key), f._terms[key]


class Remainder:
    """The working copy of a greedy elimination: a private term dict that
    `subtract` updates in place, with a lazy min-heap of (b-exponent, -key)
    entries, so `pivot` finds the tail-lex leading term of the lowest
    b-layer without a scan of the terms.

    Every live key has an entry in the heap. An entry whose key has since
    cancelled is stale, and `pivot` drops it when it reaches the top; a key
    that cancels and comes back gets a second entry, which is harmless.
    """

    __slots__ = ("_terms", "_heap")

    def __init__(self, f: Polynomial):
        self._terms = dict(f._terms)
        self._heap = [(k & _MASK, -k) for k in self._terms]
        heapify(self._heap)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def pivot(self) -> tuple[int, Monomial, int]:
        """The tail-lex leading term of the lowest b-layer, as (b-exponent,
        monomial of that layer, coefficient), of a nonzero remainder. Its
        entry stays on the heap, so a pivot that survives `subtract` is found
        again."""
        terms, heap = self._terms, self._heap
        while -heap[0][1] not in terms:
            heappop(heap)
        d, key = heap[0]
        return d, _view(-key - d), terms[-key]

    def subtract(self, coeff: int, d: int, f: Polynomial) -> None:
        """Subtract coeff * b^d * f in place, for a nonzero coeff and the
        b-exponent d of a pivot, adding d to each key of f and pushing only
        the keys this creates. Raises OverflowError when a b-exponent would
        reach 128; the remainder is then left part-way and must be dropped."""
        terms = self._terms
        get = terms.get
        created = []
        for key, c in f._terms.items():
            key += d
            old = get(key)
            if old is None:
                terms[key] = -coeff * c
                created.append(key)
            else:
                c = old - coeff * c
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        # the b-fields of f and d are below 128, so their sum sets no bit
        # beyond the b-field's guard, and only a created key can set it
        if reduce(or_, created, 0) & _LIMIT:
            raise OverflowError(f"elimination reaches a b-exponent above {_LIMIT - 1}")
        heap = self._heap
        for key in created:
            heappush(heap, (key & _MASK, -key))
