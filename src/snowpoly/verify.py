"""Verification suites: the library-level identities checked exhaustively
at desk scale, reported one line per check.

These suites are the only implementation of the exhaustive checks: the
`verify` subcommand prints them, and the acceptance criteria in
`tests/test_acceptance.py` run them under their runtime budgets and assert
that every check passed with the expected count. A check whose detail is
an item count fails when that count is zero, so no suite passes on an
empty set. A suite's default scale is its function's default argument:
psw, top-las and expansions default to n = 7, all 5,040 permutations of
S_7 or compositions of the box C_7, and kkohnert to the 720 compositions
of C_6. psw and top-las need a scale of at least 2: S_1 and C_1 have one
element each, so no pair to compare.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import compositions, diagrams, permutations, qbell, schubert
from .compositions import enumerate_cn, is_snowy
from .diagrams import key_diagram, rothe_diagram
from .goldens import GROTHENDIECK_S4, LASCOUX_C4
from .kkohnert import PackedClosure, witness_diagram
from .permutations import all_permutations, is_inverse_fireworks, lis_lengths, schensted
from .polyring import Polynomial, demazure, leading_monomial_taillex, top_component


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _check(
    results: list[CheckResult], name: str, passed: bool, detail: str, count: int = 1
):
    """Record a check; it fails when count, the number of items it covered,
    is zero. `seconds` holds the clock reading until run_suite turns it into
    the time since the previous check."""
    results.append(
        CheckResult(name, bool(passed) and count > 0, detail, time.perf_counter())
    )


# -- suites ---------------------------------------------------------------------


def suite_tables(scale: int | None = None) -> list[CheckResult]:
    """Both golden tables: exact polynomials, markers, and top layers."""
    results: list[CheckResult] = []
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
                _check(results, f"table row {index}", False, "mismatch")
    total = len(GROTHENDIECK_S4) + len(LASCOUX_C4)
    _check(results, "tables", ok == total, f"{ok}/{total} table rows match", total)
    return results


def suite_rajcode_equiv(scale: int = 6) -> list[CheckResult]:
    """rajcode from increasing subsequences equals rajcode of the
    inversion diagram, for every permutation up to the scale."""
    results: list[CheckResult] = []
    for n in range(1, scale + 1):
        count = 0
        bad = 0
        for w in all_permutations(n):
            count += 1
            if permutations.rajcode(w, n) != diagrams.rajcode(rothe_diagram(w)):
                bad += 1
        _check(
            results,
            f"rajcode-equiv S_{n}",
            bad == 0,
            f"{count} permutations checked" + ("" if bad == 0 else f", {bad} failed"),
            count,
        )
    return results


def same_partition(xs: list, ys: list) -> bool:
    """True when xs[u] == xs[v] exactly when ys[u] == ys[v], for every pair
    u, v. The classes of the pairs (xs[v], ys[v]) refine both partitions, so
    the two are equal exactly when all three have the same number of
    classes: one pass decides all C(N, 2) pairs."""
    return len(set(xs)) == len(set(ys)) == len(set(zip(xs, ys)))


def _top_layer_checks(results, items, top, rajcode, is_unit, noun, unit_noun):
    """The leading monomial of each top layer is x^rajcode, two top layers
    are proportional iff their rajcodes agree, and the unit items (noun
    `unit_noun`) have leading coefficient 1 and meet each rajcode class
    once. Returns the top layers and the unit items."""
    tops = {v: top(v) for v in items}
    codes = {v: rajcode(v) for v in items}
    bad_lead = [v for v in items if leading_monomial_taillex(tops[v])[0].xexp != codes[v]]
    _check(
        results,
        "leading monomial is x^rajcode",
        not bad_lead,
        f"{len(items)} {noun} checked",
        len(items),
    )
    pairs = len(items) * (len(items) - 1) // 2
    _check(
        results,
        "proportional iff equal rajcode",
        # a top layer's ray is its normal form under rational scaling
        same_partition([tops[v].ray() for v in items], [codes[v] for v in items]),
        f"{pairs} pairs checked",
        pairs,
    )
    units = [v for v in items if is_unit(v)]
    bad_unit = [v for v in units if leading_monomial_taillex(tops[v])[1] != 1]
    _check(
        results,
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
    _check(
        results,
        f"one {unit_noun} element per class",
        unique,
        f"{len(all_codes)} rajcode classes",
        len(all_codes),
    )
    return tops, units


def suite_psw(scale: int = 7) -> list[CheckResult]:
    """Leading-monomial, proportionality and representative statements for
    top Grothendieck polynomials over a full symmetric group."""
    results: list[CheckResult] = []
    _top_layer_checks(
        results,
        list(all_permutations(scale)),
        schubert.top_grothendieck,
        lambda w: permutations.rajcode(w, scale),
        is_inverse_fireworks,
        "permutations",
        "inverse fireworks",
    )
    return results


def suite_top_las(scale: int = 7) -> list[CheckResult]:
    """The same statements for top Lascoux polynomials over the box, and the
    ascent recursion for the snowy ones: top_lascoux(alpha) is x^alpha when
    alpha has no ascent, and otherwise demazure(x_{i+1} * top_lascoux(s_i
    alpha), i) at its first ascent i. s_i alpha is snowy and in the box, so
    one step per snowy alpha checks the whole recursion there."""
    results: list[CheckResult] = []
    tops, snowy = _top_layer_checks(
        results,
        enumerate_cn(scale),
        schubert.top_lascoux,
        compositions.rajcode,
        is_snowy,
        "compositions",
        "snowy",
    )

    def recursion_holds(alpha) -> bool:
        i = schubert._first_ascent(alpha)
        if i is None:
            return tops[alpha] == Polynomial.x_monomial(alpha)
        step = demazure(Polynomial.x(i + 1) * tops[compositions.s_action(alpha, i)], i)
        return tops[alpha] == step

    _check(
        results,
        "snowy top recursion agrees",
        all(recursion_holds(a) for a in snowy),
        f"{len(snowy)} snowy compositions",
        len(snowy),
    )
    return results


def suite_kkohnert(scale: int = 6) -> list[CheckResult]:
    """K-Kohnert generating sums match the recursion, and the lifted
    extreme diagram realizes the rajcode weight. Each key diagram, its
    closure and its snow diagram are built once and serve both checks."""
    results: list[CheckResult] = []
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
        _check(results, name, not bad, f"{len(comps)} compositions checked", len(comps))
    return results


def suite_shadow(scale: int = 6) -> list[CheckResult]:
    """Insertion, shadow-line and dark-cloud correspondences over S_n."""
    results: list[CheckResult] = []
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
    _check(
        results,
        "insertion and shadow correspondences",
        bad == 0,
        f"{count} permutations checked",
        count,
    )
    return results


def suite_qbell(scale: int = 7) -> list[CheckResult]:
    """q-Bell identities, rook statistics, dimension counts and the two
    Hilbert series formulas."""
    results: list[CheckResult] = []
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
    _check(results, "rook statistics and q-Bell sums", ok, f"n up to {scale}")
    dims_ok = True
    for n in range(1, min(scale, 6) + 1):
        fireworks, snowy = schubert.vhat_basis(n)
        if len(fireworks) != qbell.bell(n) or len(snowy) != qbell.bell(n):
            dims_ok = False
    _check(results, "basis sizes are Bell numbers", dims_ok, f"n up to {min(scale, 6)}")
    hilb_bad = [
        n for n in range(1, scale + 1) if qbell.hilb_vn(n) != qbell.qp_rev(qbell.q_bell(n))
    ]
    hilb_msg = f"n up to {scale}"
    if hilb_bad:
        hilb_msg = f"hilb_vn differs from reversed q-Bell at n={hilb_bad[0]}"
    _check(results, "Hilbert series routes agree", not hilb_bad, hilb_msg)
    degree = max(3, min(8, scale + 1))
    try:
        stable = qbell.hilb_v_stabilized(degree)
        product = qbell.hilb_v_truncated(degree)
        stable_ok = stable == product and product[:4] == (1, 1, 2, 4)
        stable_msg = f"coefficients {' '.join(map(str, product))}"
    except ArithmeticError as err:
        stable_ok, stable_msg = False, str(err)
    _check(results, "stable Hilbert series product formula", stable_ok, stable_msg)
    return results


def suite_expansions(scale: int = 7) -> list[CheckResult]:
    """Positive expansions: top layers into the snowy basis and full
    Grothendieck polynomials into Lascoux polynomials."""
    results: list[CheckResult] = []
    n = scale
    perms = list(all_permutations(n))
    bad = []
    for w in perms:
        top = schubert.top_grothendieck(w)
        try:
            coeffs = schubert.expand_top_into_snowy_basis(top, n)
        except (ValueError, ArithmeticError):
            bad.append(w)
            continue
        rebuilt = Polynomial.zero()
        for alpha, c in coeffs.items():
            if c <= 0 or not is_snowy(alpha):
                bad.append(w)
            rebuilt = rebuilt + c * schubert.top_lascoux(alpha)
        if rebuilt != top:
            bad.append(w)
    _check(
        results,
        "top layers expand positively into the snowy basis",
        not bad,
        f"{len(perms)} permutations at n={n}",
        len(perms),
    )
    full_n = min(n, 4)
    count = 0
    bad_full = []
    for w in all_permutations(full_n):
        count += 1
        try:
            coeffs = schubert.expand_grothendieck_into_lascoux(w, full_n)
        except ArithmeticError:
            bad_full.append(w)
            continue
        rebuilt = Polynomial.zero()
        for alpha, g in coeffs.items():
            if not all(m.xexp == () and c > 0 for m, c in g.items()):
                bad_full.append(w)
            rebuilt = rebuilt + g * schubert.lascoux(alpha)
        if rebuilt != schubert.grothendieck(w):
            bad_full.append(w)
    _check(
        results,
        "Grothendieck expands into Lascoux over nonnegative b-polynomials",
        not bad_full,
        f"{count} permutations at n={full_n}",
        count,
    )
    return results


SUITES = {
    "tables": suite_tables,
    "rajcode-equiv": suite_rajcode_equiv,
    "psw": suite_psw,
    "top-las": suite_top_las,
    "kkohnert": suite_kkohnert,
    "shadow": suite_shadow,
    "qbell": suite_qbell,
    "expansions": suite_expansions,
}


# the least scale of each suite whose every check covers an item; 1 if absent
MIN_SCALE = {"psw": 2, "top-las": 2}


def run_suite(name: str, scale: int | None = None) -> list[CheckResult]:
    """Run one suite by name, or all of them. Each check carries the wall
    time from the end of the previous check (the first one from the start of
    its suite), so shared set-up counts towards the first check that uses
    it. Raises ValueError, before any suite runs, for a scale below the
    least scale of a suite it would run."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    for key in names:
        least = MIN_SCALE.get(key, 1)
        if scale is not None and scale < least:
            raise ValueError(f"scale must be at least {least} for {key}, got {scale}")
    if name == "all":
        results: list[CheckResult] = []
        for key in names:
            results.extend(run_suite(key, scale))
        return results
    fn = SUITES[name]
    previous = time.perf_counter()
    results = fn() if scale is None else fn(scale)
    for r in results:
        r.seconds, previous = r.seconds - previous, r.seconds
    return results
