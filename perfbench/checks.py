"""Reference computations and output checks for the benchmark.

Everything here is written apart from snowpoly: it works on plain term
dictionaries {(x-exponents, b-exponent): coefficient} and tuples, and uses
the definitions from the paper (PSW rajcode by increasing subsequences,
the snow construction, q-Stirling recurrence) or properties every correct
output must have. Each check returns None when the output passes and a
short message naming the first defect otherwise.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import comb, factorial


def trim(xs) -> tuple[int, ...]:
    xs = list(xs)
    while xs and xs[-1] == 0:
        xs.pop()
    return tuple(xs)


def length(w) -> int:
    """Number of inversions of a permutation in one-line notation."""
    return sum(a > b for a, b in combinations(w, 2))


def lehmer_code(w) -> tuple[int, ...]:
    return trim(sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w)))


def taillex_leading(monomials):
    """Tail-lex maximal exponent vector: compared at the largest index
    where two vectors differ."""
    best = None
    for xs in monomials:
        xs = trim(xs)
        if best is None or (len(xs), xs[::-1]) > (len(best), best[::-1]):
            best = xs
    return best


# -- rajcode by its two definitions -------------------------------------------------


def lis_by_value(w) -> dict[int, int]:
    """Length of the longest increasing subsequence starting at each value."""
    n = len(w)
    lis = [1] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if w[j] > w[i] and lis[j] + 1 > lis[i]:
                lis[i] = lis[j] + 1
    return {w[i]: lis[i] for i in range(n)}


def rajcode_psw(w, n: int | None = None) -> tuple[int, ...]:
    """Pechenik-Speyer-Weigandt: entry r is n + 1 - r minus the length of the
    longest increasing subsequence starting at position r."""
    n = len(w) if n is None else n
    full = tuple(w) + tuple(range(len(w) + 1, n + 1))
    lis = lis_by_value(full)
    return trim(n - r - lis[full[r]] for r in range(n))


def snow_parts(cells):
    """Dark clouds and row weights of the snow diagram: rows bottom to top,
    the rightmost cell in a column without a dark cloud becomes one, and
    every empty position above a dark cloud gets a snowflake."""
    cells = set(cells)
    rows: dict[int, list[int]] = {}
    for r, c in cells:
        rows.setdefault(r, []).append(c)
    darks = []
    taken = set()
    for r in sorted(rows, reverse=True):
        free = [c for c in rows[r] if c not in taken]
        if free:
            c = max(free)
            darks.append((r, c))
            taken.add(c)
    weight: dict[int, int] = {}
    for r, _ in cells:
        weight[r] = weight.get(r, 0) + 1
    for r, c in darks:
        for rp in range(1, r):
            if (rp, c) not in cells:
                weight[rp] = weight.get(rp, 0) + 1
    top = max(weight, default=0)
    return darks, trim(weight.get(r, 0) for r in range(1, top + 1))


def rajcode_snow(cells) -> tuple[int, ...]:
    return snow_parts(cells)[1]


def rothe_cells(w):
    return [(r + 1, w[s]) for r in range(len(w)) for s in range(r + 1, len(w)) if w[r] > w[s]]


def key_cells(alpha):
    return [(r, c) for r, a in enumerate(alpha, start=1) for c in range(1, a + 1)]


def is_snowy(alpha) -> bool:
    pos = [a for a in alpha if a > 0]
    return len(pos) == len(set(pos))


def in_box(alpha, n: int) -> bool:
    alpha = trim(alpha)
    return len(alpha) <= n - 1 and all(a <= n - r for r, a in enumerate(alpha, start=1))


# -- Bell, q-Stirling and q-Bell numbers -------------------------------------------


def bell(n: int) -> int:
    """Bell number from the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _qpoly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, v in enumerate(p):
        out[i] += v
    for i, v in enumerate(q):
        out[i] += v
    return trim(out)


def q_stirling_table(n: int) -> list[list[tuple[int, ...]]]:
    """S_q(m, k) for m, k <= n by S_q(m, k) = q^(k-1) S_q(m-1, k-1) + [k]_q S_q(m-1, k)."""
    table = [[()] * (n + 1) for _ in range(n + 1)]
    table[0][0] = (1,)
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            shifted = (0,) * (k - 1) + table[m - 1][k - 1] if table[m - 1][k - 1] else ()
            prev = table[m - 1][k]
            spread = [0] * (len(prev) + k - 1) if prev else []
            for i, v in enumerate(prev):
                for j in range(k):
                    spread[i + j] += v
            table[m][k] = _qpoly_add(shifted, spread)
    return table


def q_bell(n: int) -> tuple[int, ...]:
    total: tuple[int, ...] = ()
    for poly in q_stirling_table(n)[n]:
        total = _qpoly_add(total, poly)
    return total


# -- polynomial checks ---------------------------------------------------------------


def check_family_member(terms: dict, degree: int, anchor: tuple[int, ...]) -> str | None:
    """A Grothendieck or Lascoux polynomial: value 1 at x = 1, b = -1; every
    term x^a b^k has |a| - k = degree; coefficients positive; the b^0 layer
    holds x^anchor with coefficient 1 (anchor is code(w), or alpha)."""
    value = 0
    for (xs, k), c in terms.items():
        if c <= 0:
            return f"nonpositive coefficient {c} at {xs} b^{k}"
        if sum(xs) - k != degree:
            return f"term {xs} b^{k} has |a| - k != {degree}"
        value += -c if k & 1 else c
    if value != 1:
        return f"value at x = 1, b = -1 is {value}, not 1"
    if terms.get((trim(anchor), 0)) != 1:
        return f"x^{trim(anchor)} is missing from the b^0 layer or has coefficient != 1"
    return None


def check_grothendieck(w, terms: dict) -> str | None:
    return check_family_member(terms, length(w), lehmer_code(w))


def check_lascoux(alpha, terms: dict) -> str | None:
    return check_family_member(terms, sum(alpha), alpha)


def check_top_layer(w, n: int, top: dict) -> str | None:
    """The top layer is free of b and its tail-lex leading monomial is
    x^rajcode, with the rajcode from both definitions."""
    if any(k for (_, k) in top):
        return "top layer contains b"
    code = rajcode_psw(w, n)
    if code != rajcode_snow(rothe_cells(w)):
        return f"reference rajcode routes disagree on {w}"
    lead = taillex_leading(xs for xs, _ in top)
    if lead != code:
        return f"leading monomial {lead} is not x^rajcode = {code}"
    return None


def check_rebuild(target: dict, expansion: dict, basis: dict, n: int, snowy: bool) -> str | None:
    """target == sum over alpha of expansion[alpha] * basis[alpha], with every
    expansion coefficient a nonnegative integer (snowy basis) or a
    polynomial in b with nonnegative coefficients (Lascoux basis), and every
    index in the box for n (and snowy, for the snowy basis)."""
    rebuilt: dict = {}
    for alpha, coeff in expansion.items():
        if not in_box(alpha, n):
            return f"index {alpha} is outside the box for n={n}"
        if snowy and not is_snowy(alpha):
            return f"index {alpha} is not snowy"
        layers = {0: coeff} if snowy else coeff
        for j, c in layers.items():
            if c < 0:
                return f"negative coefficient {c} at {alpha}"
            for (xs, k), v in basis[alpha].items():
                key = (xs, k + j)
                rebuilt[key] = rebuilt.get(key, 0) + c * v
    rebuilt = {m: c for m, c in rebuilt.items() if c}
    if rebuilt != target:
        return "expansion does not rebuild its polynomial"
    return None


def check_tables(rows, lookup) -> str | None:
    """Golden rows (index, marker, terms) against the computed term dict
    that lookup(index) returns."""
    for index, _, triples in rows:
        expected = {}
        for c, xs, k in triples:
            expected[(trim(xs), k)] = expected.get((trim(xs), k), 0) + c
        if lookup(index) != expected:
            return f"golden row {index} does not match"
    return None


# -- statistics checks ---------------------------------------------------------------


def check_permutation_statistics(w, lis_code, snow_code, turning, row_one) -> str | None:
    """The LIS route and the snow route of rajcode both equal the reference
    rajcode; the shadow-line turning points are the dark clouds of the
    Rothe diagram; each row-one insertion (value, column) sits in the column
    given by the longest increasing subsequence starting at that value."""
    darks, code = snow_parts(rothe_cells(w))
    if not (tuple(lis_code) == tuple(snow_code) == code == rajcode_psw(w)):
        return f"rajcode routes disagree on {w}: {lis_code}, {snow_code}, expected {code}"
    if set(turning) != set(darks):
        return f"turning points of {w} are not its dark clouds"
    lis = lis_by_value(w)
    if len(row_one) != len(w) or any(col != lis[v] for v, col in row_one):
        return f"row-one insertion columns of {w} differ from the LIS lengths"
    return None


def check_composition_statistics(alpha, code, rep, back) -> str | None:
    """rajcode(alpha) is the snow-diagram rajcode of its key diagram; the
    snowy representative is snowy with the same rajcode; recovering the
    composition from the rajcode gives the representative."""
    ref = rajcode_snow(key_cells(alpha))
    if tuple(code) != ref:
        return f"rajcode of {alpha} is {code}, expected {ref}"
    if not is_snowy(rep) or rajcode_snow(key_cells(rep)) != ref:
        return f"{rep} is not a snowy composition with the rajcode of {alpha}"
    if tuple(back) != tuple(rep):
        return f"composition recovered from {code} is {back}, expected {rep}"
    return None


def check_rook_statistics(n: int, placements, gr, nw) -> str | None:
    """Placements are the Bell(n) distinct non-attacking rook placements in
    the staircase; gr + nw = n(n-1)/2; the gr distribution is q-Bell(n), and
    split by rook count j it is the q-Stirling number S_q(n, n - j)."""
    if len(placements) != bell(n) or len(set(map(frozenset, placements))) != len(placements):
        return f"{len(placements)} placements, expected Bell({n}) = {bell(n)} distinct"
    top = n * (n - 1) // 2
    by_rooks: dict[int, list[int]] = {}
    for cells, g, v in zip(placements, gr, nw):
        rows = [r for r, _ in cells]
        cols = [c for _, c in cells]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            return f"placement {sorted(cells)} is attacking"
        if any(r + c > n for r, c in cells):
            return f"placement {sorted(cells)} leaves the staircase"
        if g + v != top:
            return f"gr + nw = {g + v} != {top} on {sorted(cells)}"
        dist = by_rooks.setdefault(len(cells), [0] * (top + 1))
        dist[g] += 1
    stirling = q_stirling_table(n)[n]
    total = [0] * (top + 1)
    for j, dist in by_rooks.items():
        if trim(dist) != stirling[n - j]:
            return f"gr over placements with {j} rooks is not S_q({n}, {n - j})"
        total = [a + b for a, b in zip(total, dist)]
    if trim(total) != q_bell(n):
        return f"gr distribution is not q-Bell({n})"
    return None


def check_hilbert(n: int, series) -> str | None:
    expected = trim(reversed(q_bell(n)))
    if tuple(series) != expected:
        return f"hilb_vn({n}) = {tuple(series)}, expected reversed q-Bell {expected}"
    return None


def check_distinct_rajcodes(n: int, codes) -> str | None:
    count = len(set(codes))
    if count != bell(n):
        return f"{count} distinct rajcodes, expected Bell({n}) = {bell(n)}"
    return None


# -- verify output ---------------------------------------------------------------


def stable_hilbert(degree: int) -> tuple[int, ...]:
    """Coefficients up to q^degree of prod_m (1 + q^m / (1 - q))."""
    acc = [1] + [0] * degree
    for m in range(1, degree + 1):
        factor = [1] + [0] * (m - 1) + [1] * (degree - m + 1)
        nxt = [0] * (degree + 1)
        for i, a in enumerate(acc):
            if a:
                for j, b in enumerate(factor[: degree + 1 - i]):
                    nxt[i + j] += a * b
        acc = nxt
    return tuple(acc)


def expected_verify_details(scale: int) -> dict[str, set[str]]:
    """Detail texts `snowpoly verify <suite> <scale>` must print, keyed by
    check name, computed from counting formulas."""
    nf = factorial(scale)
    b = bell(scale)
    full = min(scale, 4)
    degree = max(3, min(8, scale + 1))
    out: dict[str, set[str]] = {
        "tables": {f"{2 * factorial(4)}/{2 * factorial(4)} table rows match"},
        "leading monomial is x^rajcode": {
            f"{nf} permutations checked",
            f"{nf} compositions checked",
        },
        "proportional iff equal rajcode": {f"{comb(nf, 2)} pairs checked"},
        "inverse fireworks leading coefficient 1": {f"{b} inverse fireworks permutations"},
        "one inverse fireworks element per class": {f"{b} rajcode classes"},
        "snowy leading coefficient 1": {f"{b} snowy compositions"},
        "one snowy element per class": {f"{b} rajcode classes"},
        "snowy top recursion agrees": {f"{b} snowy compositions"},
        "K-Kohnert sum equals recursive Lascoux": {f"{nf} compositions checked"},
        "witness diagram realizes rajcode": {f"{nf} compositions checked"},
        "insertion and shadow correspondences": {
            f"{sum(factorial(k) for k in range(1, scale + 1))} permutations checked"
        },
        "rook statistics and q-Bell sums": {f"n up to {scale}"},
        "basis sizes are Bell numbers": {f"n up to {min(scale, 6)}"},
        "Hilbert series routes agree": {f"n up to {min(scale, 6)}"},
        "stable Hilbert series product formula": {
            "coefficients " + " ".join(map(str, stable_hilbert(degree)))
        },
        "top layers expand positively into the snowy basis": {f"{nf} permutations at n={scale}"},
        "Grothendieck expands into Lascoux over nonnegative b-polynomials": {
            f"{factorial(full)} permutations at n={full}"
        },
    }
    for k in range(1, scale + 1):
        out[f"rajcode-equiv S_{k}"] = {f"{factorial(k)} permutations checked"}
    return out


_LINE = re.compile(r"^\[(PASS|FAIL)\] (.+?): (.+?)(?: \([0-9.]+s\))?$")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify_output(text: str, scale: int) -> tuple[str | None, int]:
    """Every printed check passes, each summary line counts all of them, and
    every check named in expected_verify_details prints its expected detail.
    Returns (message, number of checks seen)."""
    expected = expected_verify_details(scale)
    seen: set[str] = set()
    checks = 0
    summarized = 0
    for line in text.splitlines():
        m = _LINE.match(line)
        if m:
            status, name, detail = m.groups()
            checks += 1
            if status != "PASS":
                return f"check failed: {line}", checks
            if name in expected:
                if detail not in expected[name]:
                    return f"unexpected count in: {line}", checks
                seen.add(name)
            continue
        m = _SUMMARY.match(line)
        if m:
            if m.group(1) != m.group(2):
                return f"summary reports failures: {line}", checks
            summarized += int(m.group(2))
    missing = sorted(set(expected) - seen)
    if missing:
        return f"checks missing from the output: {', '.join(missing)}", checks
    if summarized != checks:
        return f"summaries count {summarized} checks, {checks} printed", checks
    return None, checks
