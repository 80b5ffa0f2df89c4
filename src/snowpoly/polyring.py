"""Exact sparse polynomials in x1, x2, ... with the degree marker b.

Coefficients are arbitrary-precision Python integers. Each monomial is
named by one packed integer key: the b-exponent sits in bits [0, 8) and
the exponent of x_i in bits [8i, 8i + 8), so higher indices sit in higher
bits and two monomials are equal exactly when their keys are. The product
of two monomials is the sum of their keys, and integer order of keys is
tail-lex order on x, then b: the one term order, in which `items` and
`monomials` yield. The marker b records the inhomogeneous grading of
Grothendieck and Lascoux polynomials.

A `Polynomial` stores its terms as two tuples, `_keys` and `_coeffs`, one
entry per term, in the order the terms were inserted and not sorted: 16
bytes a term beside the two tuple headers, where a dict spends about 40.
Equality and hashing do not depend on that order. Every operation builds
its result in a private working dict and freezes it once, at the end, in
`_of`; an operation that keeps the keys or the coefficients, such as
negation or `swap_action`, shares the other tuple unchanged.

No carry may ever cross a field. Every stored exponent is at most 127, so
the top bit of each 8-bit field is a guard: naming a monomial with an
exponent of 128 or more raises ValueError, and a product, or a divided
difference or Demazure step whose product would reach 128 in any field,
raises OverflowError. Two guarded fields sum to less than 256, so a carry
never reaches the next field before the guard sees it. 127 is above every
exponent the recursions reach up to S_16: x-exponents stay below n, and the
b-degree is at most C(n, 2) = 120.

`items`, `monomials`, `coefficient`, `Polynomial(mapping)` and `from_terms`
speak in `Monomial(xexp, bexp)`, a view built on demand. Keys leave this
module only through `packed_key` and `tally`, for code that moves a
monomial by adding keys, as the K-Kohnert closure does; the layout stays
here. Every value is immutable and every operation is a pure function,
except `Remainder`, the working copy that greedy elimination updates in
place.

`divided_difference(f, i, factor)` is the one kernel of every ascent
step: it computes the divided difference of factor * f, for a factor in
x_i, x_{i+1} and b, without building the product. The image of a term
depends only on its exponents of x_i and x_{i+1}, so the kernel builds one
small table of output offsets per distinct pair, and each term forms its
output keys by subtracting those offsets from its key with both fields
filled with ones. Keys built by subtraction carry no spare digit; see its
docstring. A caller that repeats one (i, factor) may keep the tables
across calls, and may pass a pool {obj: obj} through which the result's
keys, and then its key tuple and its coefficient tuple, are interned when
it is frozen. Results that share the pool then share one int per monomial
and one object per equal tuple, and the pool holds only keys and tuples
that some result kept; `schubert` does both for every ascent step. A call
without them keeps no state.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd
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
    return _of(_guarded(Counter(keys), "tally"))


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


def _of(terms: dict, pool: dict | None = None) -> "Polynomial":
    """Freeze a working term dict into a Polynomial; its keys must be valid
    packed keys and its coefficients nonzero. With a pool {obj: obj}, each
    key, then the key tuple and the coefficient tuple, is looked up there,
    and added if absent, and the result stores the pool's objects. An int
    never equals a tuple, so one pool holds both kinds."""
    if pool is None:
        return _frozen(tuple(terms), tuple(terms.values()))
    keys = tuple(map(pool.setdefault, terms, terms))
    coeffs = tuple(terms.values())
    return _frozen(pool.setdefault(keys, keys), pool.setdefault(coeffs, coeffs))


def _frozen(keys: tuple, coeffs: tuple) -> "Polynomial":
    """Wrap two tuples without copying them: distinct valid packed keys and
    their nonzero coefficients, in matching order."""
    out = object.__new__(Polynomial)
    out._keys = keys
    out._coeffs = coeffs
    return out


class Polynomial:
    """Immutable sparse polynomial: distinct packed monomial keys and their
    nonzero int coefficients, as two tuples in matching order."""

    __slots__ = ("_keys", "_coeffs")

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
        self._keys = tuple(clean)
        self._coeffs = tuple(clean.values())

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _frozen((), ())

    @classmethod
    def one(cls) -> "Polynomial":
        return _frozen((0,), (1,))

    @classmethod
    def x(cls, i: int) -> "Polynomial":
        if i < 1:
            raise ValueError("variable index must be positive")
        return _frozen((1 << (_WIDTH * i),), (1,))

    @classmethod
    def beta(cls) -> "Polynomial":
        return _frozen((1,), (1,))

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
        return ((_view(k), c) for k, c in sorted(zip(self._keys, self._coeffs)))

    def monomials(self) -> Iterator[Monomial]:
        """The monomials in the canonical order of `items`."""
        return map(_view, sorted(self._keys))

    def coefficient(self, xexp: Iterable[int] = (), bexp: int = 0) -> int:
        key = packed_key(xexp, bexp)
        try:
            return self._coeffs[self._keys.index(key)]
        except ValueError:
            return 0

    def is_zero(self) -> bool:
        return not self._keys

    def beta_degree(self) -> int:
        """Largest b-exponent present; -1 for the zero polynomial."""
        return max((k & _MASK for k in self._keys), default=-1)

    def ray(self) -> frozenset:
        """Normal form under scaling by a nonzero rational: the primitive
        integer vector, the coefficients divided by their gcd, signed so that
        the one at the least key is positive. f.ray() == g.ray() exactly
        when f = c * g for some rational c != 0, or both are zero."""
        keys, coeffs = self._keys, self._coeffs
        if not keys:
            return frozenset()
        d = gcd(*coeffs) if coeffs[keys.index(min(keys))] > 0 else -gcd(*coeffs)
        return frozenset(zip(keys, [c // d for c in coeffs]))

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return False
        if self._keys == other._keys:
            return self._coeffs == other._coeffs
        # the keys are distinct, so equal lengths and every key of other
        # found in self with its coefficient make the term sets equal
        if len(self._keys) != len(other._keys):
            return False
        lookup = dict(zip(self._keys, self._coeffs)).get
        return tuple(map(lookup, other._keys)) == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(zip(self._keys, self._coeffs)))

    def __repr__(self) -> str:
        parts = [f"{c}*x^{m.xexp}*b^{m.bexp}" for m, c in self.items()]
        return "Polynomial(" + (" + ".join(parts) if parts else "0") + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        # the working dict starts from the longer operand, and the shorter
        # one is merged term by term
        big, small = (self, other) if len(self._keys) >= len(other._keys) else (other, self)
        terms = dict(zip(big._keys, big._coeffs))
        get = terms.get
        for key, coeff in zip(small._keys, small._coeffs):
            c = get(key, 0) + coeff
            if c:
                terms[key] = c
            else:
                del terms[key]
        return _of(terms)

    def __neg__(self) -> "Polynomial":
        return _frozen(self._keys, tuple([-c for c in self._coeffs]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: dict[int, int] = {}
        get = terms.get
        right_keys, right_coeffs = other._keys, other._coeffs
        for ka, ca in zip(self._keys, self._coeffs):
            for kb, cb in zip(right_keys, right_coeffs):
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
        return _frozen(self._keys, tuple([c * v for v in self._coeffs]))


def swap_action(f: Polynomial, i: int) -> Polynomial:
    """Apply the variable swap x_i <-> x_{i+1}; b is untouched."""
    if i < 1:
        raise ValueError("index must be positive")
    return _frozen(tuple([_swap(k, i) for k in f._keys]), f._coeffs)


def divided_difference(
    f: Polynomial,
    i: int,
    factor: Polynomial | None = None,
    tables: dict[int, tuple] | None = None,
    pool: dict | None = None,
) -> Polynomial:
    """(g - s_i g) / (x_i - x_{i+1}) for g = factor * f, exact by
    antisymmetry, in one pass over f: the product g is never built. factor
    defaults to 1 and may hold only x_i, x_{i+1} and b; any other variable
    raises ValueError.

    Everything else in a term of f is symmetric in x_i and x_{i+1}, so it
    passes through the operator unchanged, and the image of a term depends
    only on its pair (a, c) of x_i and x_{i+1} exponents. The first term with
    a new pair builds that pair's table, the image of x_i^a x_{i+1}^c under
    the operator, by the telescoping rule: x_i^A x_{i+1}^C with A > C goes
    to sum_{j=C}^{A-1} x_i^j x_{i+1}^(A+C-1-j), and to minus the same sum
    with A and C exchanged when A < C. The table groups the image's terms
    by coefficient, each as an offset below a ceiling that fills the fields
    of x_i and x_{i+1} with ones. A term of f then adds its coefficient,
    times the group's, at `(key | ceiling) - offset` for each offset: the
    OR replaces the term's own pair by the ceiling, and the subtraction
    puts in the image's pair and adds its b-exponent.

    Every key is built by subtracting a positive int from a larger one.
    CPython gives the sum of two multi-digit ints one spare digit, which the
    stored key keeps for its lifetime, while a difference carries no spare
    digit: it takes the size of its larger operand, which here is that of
    the key in all but a few cases.

    A table depends only on (i, factor, pair), so a caller that repeats
    the same (i, factor) may keep one `tables` dict for it and pass it to
    every such call; it must never pass it with another index or factor.
    A caller may also pass a `pool`, a dict {obj: obj}. The terms are
    summed in a private dict and frozen once, after the last term of f:
    only then is each surviving key looked up in the pool, and added if
    absent, then the tuple of those keys and the tuple of coefficients,
    and the result stores the pool's objects. Results that share a pool
    then share one int per monomial and one object per equal tuple, and a
    key whose coefficient cancelled never reaches the pool. Without them,
    the call uses a throwaway tables dict and leaves no state behind.

    OverflowError is raised exactly when the product factor * f would raise
    it: when, in some field, the largest exponent of f plus the largest of
    factor reaches 128. The leading terms in an order led by that field
    multiply to a term that nothing cancels, even where its image under the
    operator is zero. The image never raises an exponent above those of the
    product, so it needs no guard of its own. The guard reads the keys of
    f before any table is looked up, so warm tables cannot skip it. No
    rational arithmetic is ever needed. `check_divided_difference` tests a
    result against the defining quotient; `verify.suite_recursions` runs it
    on every ascent step of both recursions.
    """
    if i < 1:
        raise ValueError("index must be positive")
    shift = _WIDTH * i
    ceiling = ((1 << (2 * _WIDTH)) - 1) << shift  # also the mask of the pair's fields
    factor_keys, factor_coeffs = ((0,), (1,)) if factor is None else (factor._keys, factor._coeffs)
    factor_seen = reduce(or_, factor_keys, 0)
    if factor_seen & ~(ceiling | _MASK):
        raise ValueError(f"the factor may hold only x_{i}, x_{i + 1} and b")
    keys = f._keys
    # the ORs of the keys bound each field's largest exponent from above, and
    # their fields add without a carry; the exact maxima are read only when
    # that bound reaches the guard bit of b, x_i or x_{i+1}
    guards = ((_LIMIT << _WIDTH | _LIMIT) << shift) | _LIMIT
    if (reduce(or_, keys, 0) + factor_seen) & guards:
        for s in (0, shift, shift + _WIDTH):
            top = max((k >> s) & _MASK for k in factor_keys)
            if max((k >> s) & _MASK for k in keys) + top >= _LIMIT:
                raise OverflowError(
                    f"divided difference of a product reaches an exponent above {_LIMIT - 1}"
                )
    up_i = 1 << shift
    rise = (up_i << _WIDTH) - up_i  # from one telescoping term's offset to the next one's
    factors = [
        ((k >> shift) & _MASK, k >> (shift + _WIDTH), k & _MASK, m)
        for k, m in zip(factor_keys, factor_coeffs)
    ]

    def table(pair: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        a, c = (pair >> shift) & _MASK, pair >> (shift + _WIDTH)
        image: dict[int, int] = {}
        for da, dc, e, m in factors:
            big, small = a + da, c + dc
            if big < small:
                big, small, m = small, big, -m
            # the term x_i^small x_{i+1}^(big-1) b^e comes first
            first = ceiling - small * up_i - ((big - 1) << (shift + _WIDTH)) - e
            for offset in range(first, first + (big - small) * rise, rise):
                image[offset] = image.get(offset, 0) + m
        groups: dict[int, list[int]] = {}
        for offset, m in image.items():
            if m:
                groups.setdefault(m, []).append(offset)
        return tuple((m, tuple(offsets)) for m, offsets in groups.items())

    if tables is None:
        tables = {}
    out: dict[int, int] = {}
    get = out.get
    for key, coeff in zip(keys, f._coeffs):
        pair = key & ceiling
        rows = tables.get(pair)
        if rows is None:
            rows = tables[pair] = table(pair)
        base = key | ceiling
        for m, offsets in rows:
            signed = coeff * m
            for offset in offsets:
                new = base - offset
                c = get(new)
                if c is None:
                    out[new] = signed
                else:
                    c += signed
                    if c:
                        out[new] = c
                    else:
                        del out[new]
    return _of(out, pool)


def check_divided_difference(f: Polynomial, i: int, quotient: Polynomial) -> None:
    """Raise ArithmeticError unless (x_i - x_{i+1}) * quotient == f - s_i f.

    Checked term by term on the keys: each quotient term is raised at x_i and
    at x_{i+1} with opposite signs, f is subtracted and s_i f added back, and
    every resulting coefficient must be zero. A term of f that s_i fixes
    cancels against its own swap and is skipped. A raised field stays below
    256, so no carry crosses fields. Raises ValueError for an index below 1,
    where the fields would be those of b and x_1.
    """
    if i < 1:
        raise ValueError("index must be positive")
    shift = _WIDTH * i
    up_i = 1 << shift
    up_next = up_i << _WIDTH
    step = up_i - up_next
    keys, coeffs = quotient._keys, quotient._coeffs
    diff = {key + up_i: c for key, c in zip(keys, coeffs)}  # distinct keys: nothing to add yet
    get = diff.get
    for key, c in zip(keys, coeffs):
        k = key + up_next
        diff[k] = get(k, 0) - c
    for key, c in zip(f._keys, f._coeffs):
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
    """The operator f -> divided_difference(x_i * f, i); idempotent. The
    factor x_i goes to the kernel, so x_i * f is never built."""
    if i < 1:
        raise ValueError("index must be positive")
    return divided_difference(f, i, Polynomial.x(i))


def beta_component(f: Polynomial, d: int) -> Polynomial:
    """The x-polynomial coefficient of b^d in f; d must be nonnegative."""
    if d < 0:
        raise ValueError(f"b-layer must be nonnegative, got {d}")
    # keys of one layer stay distinct once d is taken off, so no dict is needed
    keys, coeffs = [], []
    for k, c in zip(f._keys, f._coeffs):
        if k & _MASK == d:
            keys.append(k - d)
            coeffs.append(c)
    return _frozen(tuple(keys), tuple(coeffs))


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
    if any(k & _MASK for k in f._keys):
        raise ValueError("leading monomial requires a polynomial free of b")
    # higher indices sit in higher bits, so on b-free keys integer order is tail-lex
    key = max(f._keys)
    return _view(key), f._coeffs[f._keys.index(key)]


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
        self._terms = dict(zip(f._keys, f._coeffs))
        self._heap = [(k & _MASK, -k) for k in f._keys]
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
        for key, c in zip(f._keys, f._coeffs):
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
