"""The four workloads: how each builds its inputs from the seed, how one
cold unit of work is timed, and how its outputs are checked.

A unit runs in a process forked from the benchmark after `import snowpoly`
and before any snowpoly call, so nothing computed by an earlier unit is
cached. Timing covers the library calls only; checks run afterwards, in
the same process, against `checks`. Each unit reads its peak resident set
when its last timed call returns, before any check, so the checks' own
memory is not counted.
"""

from __future__ import annotations

import io
import random
import resource
from contextlib import redirect_stdout
from itertools import permutations, product
from time import perf_counter

import checks


def _terms(poly) -> dict:
    return {(tuple(m.xexp), m.bexp): c for m, c in poly.items()}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _unit(latencies, busy, rss_kb, errors=(), items=None) -> dict:
    """A unit's result: latency samples, timed seconds, peak resident set
    at the end of the timed calls, items done."""
    items = len(latencies) if items is None else items
    return {"lat": latencies, "busy": busy, "rss_kb": rss_kb, "items": items, "failed": 0,
            "errors": list(errors)[:5]}


def _pad(xs, n, fill):
    return tuple(xs) + tuple(fill(k) for k in range(len(xs), n))


# -- family_sweep ---------------------------------------------------------------------

SWEEP_N = 7


def build_family_sweep(seed: int) -> dict:
    """All of S_7 and of the box C_7, in lexicographic order; the seed is
    not used, since the inputs are exhaustive."""
    n = SWEEP_N
    return {
        "perms": list(permutations(range(1, n + 1))),
        "comps": list(product(*(range(n - r + 1) for r in range(1, n)))),
    }


def run_family_sweep(inputs: dict, unit) -> dict:
    from snowpoly import goldens, schubert

    start = perf_counter()
    groth = [schubert.grothendieck(w) for w in inputs["perms"]]
    las = [schubert.lascoux(alpha) for alpha in inputs["comps"]]
    busy = perf_counter() - start
    rss_kb = _peak_rss_kb()

    errors = []
    by_perm = dict(zip(inputs["perms"], groth))
    by_comp = dict(zip(inputs["comps"], las))
    for w, g in by_perm.items():
        msg = checks.check_grothendieck(w, _terms(g))
        if msg:
            errors.append(f"G{w}: {msg}")
    for alpha, f in by_comp.items():
        msg = checks.check_lascoux(alpha, _terms(f))
        if msg:
            errors.append(f"L{alpha}: {msg}")
    for rows, table, fill in [
        (goldens.GROTHENDIECK_S4, by_perm, lambda k: k + 1),
        (goldens.LASCOUX_C4, by_comp, lambda k: 0),
    ]:
        size = len(next(iter(table)))
        msg = checks.check_tables(rows, lambda idx: _terms(table[_pad(idx, size, fill)]))
        if msg:
            errors.append(msg)
    return _unit([busy], busy, rss_kb, errors=errors, items=len(groth) + len(las))


# -- cold_query -------------------------------------------------------------------------

QUERY_N = 8
QUERY_SAMPLE = 22  # S_8 permutations, one per length stratum
QUERY_SAMPLE_SEED = 0
QUERY_TRANSPOSITIONS = (9, 10, 11)  # s_{n-1} in S_n


def build_cold_query(seed: int) -> dict:
    """A fixed sample of S_8: the permutations sorted by (length, one-line
    notation), cut into QUERY_SAMPLE strata of nearly equal size, one drawn
    uniformly from each with random.Random(QUERY_SAMPLE_SEED); then the
    transpositions. The seed sets the order in which the queries run.

    The sample does not follow the seed because single-query cost spans
    three orders of magnitude: a fresh sample of the hundred queries a run
    can afford moves the run's figures by more than any bound allows."""
    perms = sorted(permutations(range(1, QUERY_N + 1)), key=lambda w: (checks.length(w), w))
    cuts = [len(perms) * k // QUERY_SAMPLE for k in range(QUERY_SAMPLE + 1)]
    draw = random.Random(QUERY_SAMPLE_SEED)
    queries = [draw.choice(perms[a:b]) for a, b in zip(cuts, cuts[1:])]
    queries += [tuple(range(1, n - 1)) + (n, n - 1) for n in QUERY_TRANSPOSITIONS]
    random.Random(seed).shuffle(queries)
    return {"queries": queries}


def run_cold_query(inputs: dict, w) -> dict:
    from snowpoly import schubert, top_component

    n = len(w)
    t0 = perf_counter()
    g = schubert.grothendieck(w)
    top = top_component(g)[1]
    snowy = schubert.expand_top_into_snowy_basis(top, n)
    full = schubert.expand_grothendieck_into_lascoux(w, n)
    busy = perf_counter() - t0
    rss_kb = _peak_rss_kb()

    g_terms = _terms(g)
    top_terms = _terms(top)
    msg = (
        checks.check_grothendieck(w, g_terms)
        or checks.check_top_layer(w, n, top_terms)
        or checks.check_rebuild(
            top_terms, snowy, {a: _terms(schubert.top_lascoux(a)) for a in snowy}, n, True
        )
        or checks.check_rebuild(
            g_terms,
            {a: {m.bexp: c for m, c in p.items()} for a, p in full.items()},
            {a: _terms(schubert.lascoux(a)) for a in full},
            n,
            False,
        )
    )
    return _unit([busy], busy, rss_kb, errors=[f"query {w}: {msg}"] if msg else [])


# -- verify_all -------------------------------------------------------------------------

VERIFY_SCALE = 6


def build_verify_all(seed: int) -> dict:
    """The suites of `verify all`; the seed is not used."""
    from snowpoly import verify

    return {"suites": list(verify.SUITES)}


def run_verify_all(inputs: dict, unit) -> dict:
    """`snowpoly verify all 6`, one CLI call per suite in the same order and
    process, so that each suite is timed from outside."""
    from snowpoly import cli

    lat = []
    out = io.StringIO()
    codes = []
    start = perf_counter()
    for suite in inputs["suites"]:
        t0 = perf_counter()
        with redirect_stdout(out):
            codes.append(cli.main(["verify", suite, str(VERIFY_SCALE)]))
        lat.append(perf_counter() - t0)
    busy = perf_counter() - start
    rss_kb = _peak_rss_kb()

    errors = []
    if any(codes):
        errors.append(f"verify exit codes {codes}")
    msg, _ = checks.check_verify_output(out.getvalue(), VERIFY_SCALE)
    if msg:
        errors.append(msg)
    return _unit(lat, busy, rss_kb, errors=errors)


# -- statistics -------------------------------------------------------------------------

STAT_PERM_N = 8
STAT_COMP_N = 8
STAT_ROOK_N = 9
STAT_HILB_N = 12


def build_statistics(seed: int) -> dict:
    """All of S_8 and of the box C_8 (the rook placements are enumerated by
    the library inside the timed pass); the seed is not used."""
    return {
        "perms": list(permutations(range(1, STAT_PERM_N + 1))),
        "comps": list(product(*(range(STAT_COMP_N - r + 1) for r in range(1, STAT_COMP_N)))),
    }


def run_statistics(inputs: dict, unit) -> dict:
    """Each permutation and composition is checked right after its calls
    are timed, and only what the final counts need is kept, so that the
    benchmark's own memory does not add garbage-collector pauses to the
    timings. Those checks allocate only short-lived small objects; the
    larger ones (the q-Bell and q-Stirling tables, the placement sets) run
    after the peak resident set is read."""
    from snowpoly import compositions, diagrams, permutations as perm, qbell

    lat = []
    errors = []
    perm_codes = set()
    for w in inputs["perms"]:
        t0 = perf_counter()
        lis_code = perm.rajcode(w, STAT_PERM_N)
        snow_code = diagrams.rajcode(diagrams.rothe_diagram(w))
        turning = perm.turning_points(w)
        _, events = perm.schensted(w)
        lat.append(perf_counter() - t0)
        row_one = [(e.value, e.column) for e in events]
        errors.append(
            checks.check_permutation_statistics(w, lis_code, snow_code, turning, row_one)
        )
        perm_codes.add(tuple(lis_code))
    comp_codes = set()
    for alpha in inputs["comps"]:
        t0 = perf_counter()
        code = compositions.rajcode(alpha)
        rep = compositions.snowy_representative(alpha)
        back = compositions.snowy_from_rajcode(code)
        lat.append(perf_counter() - t0)
        errors.append(checks.check_composition_statistics(alpha, code, rep, back))
        comp_codes.add(tuple(code))
    t0 = perf_counter()
    rooks = qbell.enumerate_rook_n(STAT_ROOK_N)
    enumeration = perf_counter() - t0
    gr, nw = [], []
    for rook in rooks:
        t0 = perf_counter()
        g = qbell.gr_stat(rook, STAT_ROOK_N)
        v = qbell.nw_stat(rook)
        lat.append(perf_counter() - t0)
        gr.append(g)
        nw.append(v)
    series = []
    for n in range(1, STAT_HILB_N + 1):
        t0 = perf_counter()
        series.append(qbell.hilb_vn(n))
        lat.append(perf_counter() - t0)
    busy = sum(lat) + enumeration
    rss_kb = _peak_rss_kb()

    errors += [checks.check_hilbert(n, s) for n, s in enumerate(series, 1)]
    errors.append(checks.check_distinct_rajcodes(STAT_PERM_N, perm_codes))
    errors.append(checks.check_distinct_rajcodes(STAT_COMP_N, comp_codes))
    errors.append(
        checks.check_rook_statistics(STAT_ROOK_N, [r.cells for r in rooks], gr, nw)
    )
    return _unit([busy], busy, rss_kb, errors=[e for e in errors if e], items=len(lat))


# -- registry -------------------------------------------------------------------------------


class Workload:
    def __init__(self, name, build, run, round_units, tail_share, min_rounds):
        self.name = name
        self.build = build
        self.run = run
        self.round_units = round_units  # inputs -> list of units in a round
        self.tail_share = tail_share  # percentile reported as item_tail_ms
        self.min_rounds = min_rounds


def _one_unit(inputs):
    return [None]


WORKLOADS = {
    w.name: w
    for w in [
        # one latency sample, the sweep, per round: the tail is the slowest sweep
        Workload("family_sweep", build_family_sweep, run_family_sweep, _one_unit, 1.0, 1),
        # 25 queries a round, at least 4 rounds: ten beyond the 90th percentile
        Workload("cold_query", build_cold_query, run_cold_query, lambda inputs: inputs["queries"],
                 0.90, 4),
        # 8 suites a round, at least 5 rounds: ten beyond the 75th percentile
        Workload("verify_all", build_verify_all, run_verify_all, _one_unit, 0.75, 5),
        # one latency sample, the pass, per round: the tail is the slowest pass
        Workload("statistics", build_statistics, run_statistics, _one_unit, 1.0, 1),
    ]
}
