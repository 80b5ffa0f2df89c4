"""Verification suites: the library-level identities checked exhaustively
at desk scale, reported one line per check.

These suites are the only implementation of the exhaustive checks: the
`verify` subcommand prints them, and the acceptance criteria in
`tests/test_acceptance.py` run them under their runtime budgets and assert
that every check passed with the expected count. A suite is a generator
that yields one (name, passed, detail, count) tuple per check, where count
is the number of items the check covered; every check states it. run_suite
alone turns them into CheckResults: it times each check from the previous
yield and fails a check whose count is zero, so no suite passes on an
empty set. A suite's default scale is its function's default argument:
psw, top-las, recursions and expansions default to n = 7, all 5,040
permutations of S_7 or compositions of the box C_7, and kkohnert to the
720 compositions of C_6. psw and top-las need a scale of at least 2: S_1
and C_1 have one element each, so no pair to compare.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from . import compositions, diagrams, permutations, qbell, schubert
from .compositions import enumerate_cn, is_snowy
from .diagrams import key_diagram, rothe_diagram
from .goldens import GROTHENDIECK_S4, LASCOUX_C4
from .kkohnert import PackedClosure, witness_diagram
from .permutations import all_permutations, is_inverse_fireworks, lis_lengths, schensted
from .polyring import (
    Polynomial,
    check_divided_difference,
    leading_monomial_taillex,
    top_component,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# (name, passed, detail, count): one check as a suite yields it
Check = tuple[str, bool, str, int]


# -- suites ---------------------------------------------------------------------


def suite_tables(scale: int | None = None) -> Iterator[Check]:
    """Both golden tables: exact polynomials, markers, and top layers."""
    ok = 0
    tables = [
        (GROTHENDIECK_S4, schubert.grothendieck, is_inverse_fireworks, schubert.top_grothendieck),
        (LASCOUX_C4, schubert.lascoux, is_snowy, schubert.top_lascoux),
    ]
    for rows, full, is_marked, top in tables:
        for index, marked, terms in rows:
            expected = Polynomial.from_terms(terms)
            good = (
                full(index) == expected
                and is_marked(index) == marked
                and top(index) == top_component(expected)[1]
            )
            ok += good
            if not good:
                yield f"table row {index}", False, "mismatch", 1
    total = len(GROTHENDIECK_S4) + len(LASCOUX_C4)
    yield "tables", ok == total, f"{ok}/{total} table rows match", total


def suite_rajcode_equiv(scale: int = 6) -> Iterator[Check]:
    """rajcode from increasing subsequences equals rajcode of the
    inversion diagram, for every permutation up to the scale."""
    for n in range(1, scale + 1):
        count = 0
        bad = 0
        for w in all_permutations(n):
            count += 1
            if permutations.rajcode(w, n) != diagrams.rajcode(rothe_diagram(w)):
                bad += 1
        yield (
            f"rajcode-equiv S_{n}",
            bad == 0,
            f"{count} permutations checked" + ("" if bad == 0 else f", {bad} failed"),
            count,
        )


def same_partition(xs: list, ys: list) -> bool:
    """True when xs[u] == xs[v] exactly when ys[u] == ys[v], for every pair
    u, v. The classes of the pairs (xs[v], ys[v]) refine both partitions, so
    the two are equal exactly when all three have the same number of
    classes: one pass decides all C(N, 2) pairs."""
    return len(set(xs)) == len(set(ys)) == len(set(zip(xs, ys)))


def _top_layer_checks(items, top, rajcode, is_unit, noun, unit_noun):
    """The leading monomial of each top layer is x^rajcode, two top layers
    are proportional iff their rajcodes agree, and the unit items (noun
    `unit_noun`) have leading coefficient 1 and meet each rajcode class
    once. Returns the top layers and the unit items."""
    tops = {v: top(v) for v in items}
    codes = {v: rajcode(v) for v in items}
    bad_lead = [v for v in items if leading_monomial_taillex(tops[v])[0].xexp != codes[v]]
    yield "leading monomial is x^rajcode", not bad_lead, f"{len(items)} {noun} checked", len(items)
    pairs = len(items) * (len(items) - 1) // 2
    yield (
        "proportional iff equal rajcode",
        # a top layer's ray is its normal form under rational scaling
        same_partition([tops[v].ray() for v in items], [codes[v] for v in items]),
        f"{pairs} pairs checked",
        pairs,
    )
    units = [v for v in items if is_unit(v)]
    bad_unit = [v for v in units if leading_monomial_taillex(tops[v])[1] != 1]
    yield (
        f"{unit_noun} leading coefficient 1",
        not bad_unit,
        f"{len(units)} {unit_noun} {noun}",
        len(units),
    )
    per_class: dict[tuple, int] = {}
    for v in units:
        per_class[codes[v]] = per_class.get(codes[v], 0) + 1
    all_codes = set(codes.values())
    unique = per_class.keys() == all_codes and all(c == 1 for c in per_class.values())
    yield (
        f"one {unit_noun} element per class",
        unique,
        f"{len(all_codes)} rajcode classes",
        len(all_codes),
    )
    return tops, units


def suite_psw(scale: int = 7) -> Iterator[Check]:
    """Leading-monomial, proportionality and representative statements for
    top Grothendieck polynomials over a full symmetric group."""
    yield from _top_layer_checks(
        list(all_permutations(scale)),
        schubert.top_grothendieck,
        lambda w: permutations.rajcode(w, scale),
        is_inverse_fireworks,
        "permutations",
        "inverse fireworks",
    )


def suite_top_las(scale: int = 7) -> Iterator[Check]:
    """The same statements for top Lascoux polynomials over the box, and the
    two routes to the snowy ones: the top layer of the full polynomial, and
    the b-free recursion of `schubert.snowy_top_lascoux`."""
    tops, snowy = yield from _top_layer_checks(
        enumerate_cn(scale),
        schubert.top_lascoux,
        compositions.rajcode,
        is_snowy,
        "compositions",
        "snowy",
    )
    yield (
        "snowy top recursion agrees",
        all(schubert.snowy_top_lascoux(a) == tops[a] for a in snowy),
        f"{len(snowy)} snowy compositions",
        len(snowy),
    )


def suite_recursions(scale: int = 7) -> Iterator[Check]:
    """Every step of both memoized recursions over the box C_n: the member
    at a weakly decreasing composition c is x^c, and at any other c
    `check_divided_difference` holds between the member and its parent
    times the step's factor, for the i and parent that `schubert._ascent`
    names. The factors are spelled here once per index, not read from the
    recursions, and multiplied with `*`. Each check counts every
    composition."""
    comps = enumerate_cn(scale)
    one, b = Polynomial.one(), Polynomial.beta()
    lift = {i: one + b * Polynomial.x(i + 1) for i in range(1, scale)}
    raised = {i: Polynomial.x(i) * f for i, f in lift.items()}
    for family, member, kind, factors in [
        ("Grothendieck", schubert._grothendieck, "grothendieck", lift),
        ("Lascoux", schubert._lascoux, "lascoux", raised),
    ]:
        bad = steps = 0
        for c in comps:
            f = member(c)
            step = schubert._ascent(c, kind)
            if step is None:
                bad += f != Polynomial.x_monomial(c)
                continue
            steps += 1
            i, parent = step
            try:
                check_divided_difference(factors[i] * member(parent), i, f)
            except ArithmeticError:
                bad += 1
        yield (
            f"{family} ascent steps satisfy the divided-difference identity",
            bad == 0,
            f"{len(comps)} compositions, {steps} ascent steps",
            len(comps),
        )


def suite_kkohnert(scale: int = 6) -> Iterator[Check]:
    """K-Kohnert generating sums match the recursion, and the lifted
    extreme diagram realizes the rajcode weight. Each key diagram, its
    closure and its snow diagram are built once and serve both checks."""
    comps = enumerate_cn(scale)
    bad_poly = []
    bad_witness = []
    for a in comps:
        start = key_diagram(a)
        closure = PackedClosure(start)
        if closure.polynomial() != schubert.lascoux(a):
            bad_poly.append(a)
        sd = diagrams.snow(start)
        g = witness_diagram(sd)
        code = compositions.rajcode(a)
        ok = (
            g in closure
            and g.cells == sd.cells
            and g.weight() == code
            and g.excess == sum(code) - sum(a)
        )
        if not ok:
            bad_witness.append(a)
    for name, bad in [
        ("K-Kohnert sum equals recursive Lascoux", bad_poly),
        ("witness diagram realizes rajcode", bad_witness),
    ]:
        yield name, not bad, f"{len(comps)} compositions checked", len(comps)


def suite_shadow(scale: int = 6) -> Iterator[Check]:
    """Insertion, shadow-line and dark-cloud correspondences over S_n."""
    count = 0
    bad = 0
    for n in range(1, scale + 1):
        for w in all_permutations(n):
            count += 1
            darks = diagrams.dark(rothe_diagram(w)).cells
            dark_by_row = {r: c for r, c in darks}
            _, events = schensted(w)
            lis = dict(zip(w, lis_lengths(w)))
            ok = True
            for event in events:
                if event.column != lis[event.value]:
                    ok = False
                if event.kind == "append":
                    ok = ok and event.position not in dark_by_row
                else:
                    ok = ok and dark_by_row.get(event.position) == event.bumped
            ok = ok and permutations.turning_points(w) == darks
            bad += not ok
    yield "insertion and shadow correspondences", bad == 0, f"{count} permutations checked", count


def suite_qbell(scale: int = 7) -> Iterator[Check]:
    """q-Bell identities, rook statistics, dimension counts and the two
    Hilbert series formulas. Each check counts the levels n it covers, or
    the coefficients of the stable series."""
    ok = True
    for n in range(1, scale + 1):
        rooks = qbell.enumerate_rook_n(n)
        top = n * (n - 1) // 2
        # by_blocks[k][g]: placements with n - k rooks (k blocks) and gr = g
        by_blocks = [[0] * (top + 1) for _ in range(n + 1)]
        for rook in rooks:
            by_blocks[n - len(rook)][qbell.gr_stat(rook, n)] += 1
        gr_sum = [sum(column) for column in zip(*by_blocks)]
        if qbell.qp_trim(gr_sum) != qbell.q_bell(n) or len(qbell.q_bell(n)) - 1 != top:
            ok = False
        for k in range(n + 1):
            if qbell.qp_trim(by_blocks[k]) != qbell.q_stirling(n, k):
                ok = False
        if len(rooks) != qbell.bell(n) or sum(qbell.q_bell(n)) != qbell.bell(n):
            ok = False
    yield "rook statistics and q-Bell sums", ok, f"n up to {scale}", scale
    dims_ok = True
    for n in range(1, min(scale, 6) + 1):
        fireworks, snowy = schubert.vhat_basis(n)
        if len(fireworks) != qbell.bell(n) or len(snowy) != qbell.bell(n):
            dims_ok = False
    yield "basis sizes are Bell numbers", dims_ok, f"n up to {min(scale, 6)}", min(scale, 6)
    hilb_bad = [
        n for n in range(1, scale + 1) if qbell.hilb_vn(n) != qbell.qp_rev(qbell.q_bell(n))
    ]
    hilb_msg = f"n up to {scale}"
    if hilb_bad:
        hilb_msg = f"hilb_vn differs from reversed q-Bell at n={hilb_bad[0]}"
    yield "Hilbert series routes agree", not hilb_bad, hilb_msg, scale
    degree = max(3, min(8, scale + 1))
    try:
        stable = qbell.hilb_v_stabilized(degree)
        product = qbell.hilb_v_truncated(degree)
        stable_ok = stable == product and product[:4] == (1, 1, 2, 4)
        stable_msg = f"coefficients {' '.join(map(str, product))}"
    except ArithmeticError as err:
        stable_ok, stable_msg = False, str(err)
    yield "stable Hilbert series product formula", stable_ok, stable_msg, degree + 1


def _expansion_check(name, n, expand, positive, basis) -> Iterator[Check]:
    """One check over S_n: expand(w) gives a polynomial and its coefficients
    over basis; each (index, coefficient) pair must be positive and the
    expansion must rebuild the polynomial."""
    count = 0
    bad = []
    for w in all_permutations(n):
        count += 1
        try:
            target, coeffs = expand(w)
        except (ValueError, ArithmeticError):
            bad.append(w)
            continue
        rebuilt = Polynomial.zero()
        for alpha, c in coeffs.items():
            if not positive(alpha, c):
                bad.append(w)
            rebuilt = rebuilt + c * basis(alpha)
        if rebuilt != target:
            bad.append(w)
    yield name, not bad, f"{count} permutations at n={n}", count


def suite_expansions(scale: int = 7) -> Iterator[Check]:
    """Positive expansions: top layers into the snowy basis and full
    Grothendieck polynomials into Lascoux polynomials."""

    def expand_top(w):
        top = schubert.top_grothendieck(w)
        return top, schubert.expand_top_into_snowy_basis(top, scale)

    yield from _expansion_check(
        "top layers expand positively into the snowy basis",
        scale,
        expand_top,
        lambda alpha, c: c > 0 and is_snowy(alpha),
        schubert.snowy_top_lascoux,
    )
    full_n = min(scale, 4)

    def expand_full(w):
        return schubert.grothendieck(w), schubert.expand_grothendieck_into_lascoux(w, full_n)

    yield from _expansion_check(
        "Grothendieck expands into Lascoux over nonnegative b-polynomials",
        full_n,
        expand_full,
        lambda alpha, g: all(m.xexp == () and c > 0 for m, c in g.items()),
        schubert.lascoux,
    )


SUITES = {
    "tables": suite_tables,
    "rajcode-equiv": suite_rajcode_equiv,
    "psw": suite_psw,
    "top-las": suite_top_las,
    "recursions": suite_recursions,
    "kkohnert": suite_kkohnert,
    "shadow": suite_shadow,
    "qbell": suite_qbell,
    "expansions": suite_expansions,
}


# the least scale of each suite whose every check covers an item; 1 if absent
MIN_SCALE = {"psw": 2, "top-las": 2}


def run_suite(name: str, scale: int | None = None) -> list[CheckResult]:
    """Run one suite by name, or all of them. Each check carries the wall
    time since the suite yielded the previous one (the first one since the
    start of its suite), so shared set-up counts towards the first check
    that uses it, and fails when it covered no item. Raises ValueError,
    before any suite runs, for a scale below the least scale of a suite it
    would run."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    for key in names:
        least = MIN_SCALE.get(key, 1)
        if scale is not None and scale < least:
            raise ValueError(f"scale must be at least {least} for {key}, got {scale}")
    if name == "all":
        return [r for key in names for r in run_suite(key, scale)]
    fn = SUITES[name]
    results = []
    previous = time.perf_counter()
    for check, passed, detail, count in fn() if scale is None else fn(scale):
        now = time.perf_counter()
        results.append(CheckResult(check, bool(passed) and count > 0, detail, now - previous))
        previous = now
    return results
