#!/usr/bin/env python3
"""Check BENCH.json, the one artefact of bench/main.exe, against its gates.

    python3 bench/validate.py BENCH.json

The file holds long-form rows {section, workload, metric, value}
(schema bench-main/1, documented in README.md).  It passes when its
(section, workload) pairs are exactly those named in GATES below, every
gate holds, and its exact rows (integer, boolean and string values)
equal those of the golden file for its run size: bench/golden/quick.json
when the artefact's "quick" field is true, bench/golden/full.json
otherwise.  Exits 0 on a pass and 1 with one line per failure otherwise.

A change meant to move an exact value regenerates the golden file from
a run's artefact, and says why in CHANGES.md:

    python3 -c 'import sys; sys.path.insert(0, "bench"); import validate; validate.write_golden("BENCH.json")'
"""
import json
import operator
import os
import sys

OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
       "==": operator.eq}


def each(section, workloads, metric, op, threshold):
    return [(section, w, metric, op, threshold) for w in workloads]


class Metric(str):
    """A threshold that names another metric of the same workload."""


INSTANCES = Metric("instances")


def repro(workload, *claims):
    """One E-section's or figure's claims: (metric, op, threshold)."""
    return [("repro", workload, metric, op, threshold) for metric, op, threshold in claims]


NUMERIC = [f"{op}_{size}"
           for op in ("rational_add", "rational_mul", "rational_compare", "bigint_gcd")
           for size in ("small", "large")]
WALK = ["br_walk", "opt1_sweep", "is_nash_check"]
MIXED_SEED = ["uniform_n12", "two_classes_n12", "fractional_n12"]
MIXED_DP_ONLY = ["uniform_n20", "uniform_n40", "three_classes_n24"]
CLASS = ["k8_m4_small", "k8_m4_million"]
IGNORANCE = ["presence=1", "presence=3/4", "presence=1/2", "presence=1/4"]

# (section, workload, metric, op, threshold): every gate on the file.
GATES = [
    # The reproduction (section repro): each claim holds on every
    # instance, run size regardless.
    *repro("E1", ("pure_ne", "==", INSTANCES), ("pure_ne_initial", "==", INSTANCES)),
    *repro("E2", ("pure_ne", "==", INSTANCES), ("defections_over_bound", "==", 0)),
    *repro("E3", ("pure_ne", "==", INSTANCES), ("pure_ne_initial", "==", INSTANCES)),
    # n = 3 (Section 3.1): no best-response cycle, a pure NE in every cell.
    *repro("E4", ("best_response_cycles", "==", 0), ("cells_all_pure_ne", "==", Metric("cells"))),
    # Conjecture 3.7.
    *repro("E5", ("with_pure_ne", "==", INSTANCES)),
    # The Section 3.2 witness: a better-response cycle, 8 pure NE, no
    # best-response cycle.
    *repro("E6", ("witness_better_cycle", "==", 1), ("witness_pure_ne", "==", 8),
           ("witness_best_cycle", "==", 0)),
    *repro("E7", ("witness_found", "==", 1), ("witness_pure_ne", "==", 0),
           ("with_pure_ne", "==", INSTANCES)),
    # Thm 4.6 / Lemma 4.1: every candidate inside (0,1) is an exact NE
    # with the closed-form latencies.
    *repro("E8", ("rows_sum_one", "==", INSTANCES),
           ("fmne_is_nash", "==", Metric("fmne_exists")),
           ("lemma41_latencies", "==", Metric("fmne_exists"))),
    # Thm 4.8: under uniform beliefs the FMNE exists and is 1/m.
    *repro("E9", ("fmne_exists", "==", INSTANCES), ("equiprobable", "==", INSTANCES)),
    # Lemma 4.9, Thms 4.11/4.12.
    *repro("E10", ("dominated_by_fmne", "==", Metric("pure_ne")),
           ("sc_maximal", "==", Metric("pure_ne"))),
    # Thms 4.13/4.14: no equilibrium beats its bound.
    *repro("E11", ("violations", "==", 0), ("equilibria", ">", 0)),
    *repro("E12", ("violations", "==", 0), ("equilibria", ">", 0)),
    # Section 2: point beliefs are the KP-model.
    *repro("E13", ("ne_sets_agree", "==", INSTANCES), ("lpt_nash", "==", INSTANCES)),
    *repro("E14", ("belief_not_exact_potential", "==", INSTANCES),
           ("kp_exact_potential", "==", INSTANCES)),
    *repro("E15", ("pure_sets_agree", "==", INSTANCES),
           ("fmne_agrees", "==", Metric("fmne_exists"))),
    *repro("E16", ("converged", "==", INSTANCES), ("pure_ne_exists", "==", INSTANCES)),
    *repro("E17", ("equilibrium_failures", "==", 0)),
    *repro("E18", ("equilibrium_failures", "==", 0)),
    *repro("E19", ("stabilised_nash", "==", Metric("stabilised"))),
    # OPT <= bestCE <= bestNE.
    *repro("E20", ("sandwich", "==", INSTANCES)),
    *repro("F1", ("fmne_exists", "<=", INSTANCES)),
    # Every instance has a pure NE, so the mean count is at least 1.
    *repro("F2", ("pure_ne", ">=", INSTANCES)),
    # SC1/OPT1 >= 1.
    *repro("F3", ("below_opt", "==", 0)),
    *repro("F4", ("converged", "==", INSTANCES)),
    # Graham: LPT is within 4/3 - 1/(3m) of the optimum.
    *repro("F5", ("links_over_bound", "==", 0)),
    # E[max load] >= n/m.
    *repro("F6", ("below_split", "==", 0)),

    *each("numeric", NUMERIC, "fast_ns_per_op", ">", 0),
    *each("numeric", NUMERIC, "reference_ns_per_op", ">", 0),
    # Large compare once regressed to 0.78x; the mantissa-interval
    # prefilter must keep it ahead of the reference tower.
    ("numeric", "rational_compare_large", "speedup", ">=", 1.0),
    ("numeric", "is_nash", "calls_per_sec", ">", 0),

    *each("walk", WALK, "seed_ms", ">", 0),
    *each("walk", WALK, "incremental_ms", ">", 0),
    *each("walk", WALK, "identical", "==", True),
    *each("walk", WALK, "speedup", ">", 1),
    ("walk", "is_nash_check", "speedup", ">=", 10),

    *each("mixed", MIXED_SEED + MIXED_DP_ONLY, "states", ">", 0),
    *each("mixed", MIXED_SEED + MIXED_DP_ONLY, "classes", ">", 0),
    *each("mixed", MIXED_SEED + MIXED_DP_ONLY, "dp_ms", ">", 0),
    *each("mixed", MIXED_SEED, "exceeds_seed_limit", "==", False),
    *each("mixed", MIXED_SEED, "identical", "==", True),
    *each("mixed", MIXED_DP_ONLY, "exceeds_seed_limit", "==", True),
    ("mixed", "uniform_n12", "speedup", ">=", 10),

    *each("class", CLASS, "converged", "==", True),
    *each("class", CLASS, "nash", "==", True),
    *each("class", CLASS, "converge_ms", ">", 0),
    *each("class", CLASS, "is_nash_us", ">", 0),
    ("class", "k8_m4_small", "expand_agrees", "==", True),
    ("class", "k8_m4_million", "n", ">=", 1_000_000),
    ("class", "k8_m4_million", "k", "<=", 8),
    # poly(k, m): checking equilibrium must not scale with n.  The bound
    # is loose to absorb timing noise.
    ("class", "flatness", "is_nash_ratio", "<", 25),

    # Every population is priced against the true optimum.
    *each("ignorance", IGNORANCE, "informed_ratio", ">=", 1.0),
    *each("ignorance", IGNORANCE, "misinformed_ratio", ">=", 1.0),
    *each("ignorance", IGNORANCE, "robust_ratio", ">=", 1.0),
    *each("ignorance", IGNORANCE, "demand_gain", ">", 0),
    *each("ignorance", IGNORANCE, "expected_congestion", ">", 0),
    *each("ignorance", IGNORANCE, "equilibrium_failures", "==", 0),
    # Presence-1 participation is bit-identical to Bayesian, so both
    # populations walk the same trace and the gain is exactly 1.
    ("ignorance", "presence=1", "demand_gain", "==", 1.0),

    ("serve", "k96_m8_stream", "batches", ">", 0),
    ("serve", "k96_m8_stream", "mutations", ">", 0),
    ("serve", "k96_m8_stream", "repair_ms", ">", 0),
    ("serve", "k96_m8_stream", "resolve_ms", ">", 0),
    ("serve", "k96_m8_stream", "mutations_per_sec", ">", 0),
    # Incremental repair must beat re-solving by 5x on the rolling
    # 10^5-user instance, with the exact verdict identical per batch.
    ("serve", "k96_m8_stream", "speedup", ">=", 5),
    ("serve", "k96_m8_stream", "verdicts_identical", "==", True),
    ("serve", "k96_m8_stream", "users_min", ">=", 100_000),
]


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_path(doc):
    return os.path.join(GOLDEN, "quick.json" if doc["quick"] else "full.json")


def exact(v):
    """An Int, Bool or Str row: bench/main writes every float with a point."""
    return isinstance(v, (bool, int, str))


def golden_failures(doc, values):
    with open(golden_path(doc)) as f:
        golden = {(r["section"], r["workload"], r["metric"]): r["value"]
                  for r in json.load(f)["rows"]}
    for key, want in golden.items():
        v = values.get(key)
        if key not in values:
            yield f"missing golden row {key}"
        elif type(v) is not type(want) or v != want:
            yield f"{key}: {v!r} differs from the golden {want!r}"
    for key in sorted(k for k, v in values.items() if exact(v) and k not in golden):
        yield f"{key}: {values[key]!r} is not in the golden file"


def write_golden(path):
    """Write the exact rows of the artefact at [path] as its golden file."""
    with open(path) as f:
        doc = json.load(f)
    rows = [r for r in doc["rows"] if exact(r["value"])]
    with open(golden_path(doc), "w") as f:
        f.write('{"schema": "bench-golden/1", "quick": %s, "rows": [' % json.dumps(doc["quick"]))
        f.write(",".join("\n  " + json.dumps(r) for r in rows))
        f.write("\n]}\n")


def failures(doc):
    if doc.get("schema") != "bench-main/1":
        yield f"schema is {doc.get('schema')!r}, want 'bench-main/1'"
        return
    if not isinstance(doc.get("quick"), bool):
        yield f"quick is {doc.get('quick')!r}, want a boolean"
        return
    values = {}
    for r in doc["rows"]:
        key = (r["section"], r["workload"], r["metric"])
        if key in values:
            yield f"duplicate row {key}"
        values[key] = r["value"]
    have = {key[:2] for key in values}
    want = {gate[:2] for gate in GATES}
    for pair in sorted(have - want):
        yield f"unexpected workload {pair}"
    for pair in sorted(want - have):
        yield f"missing workload {pair}"
    for section, workload, metric, op, threshold in GATES:
        key = (section, workload, metric)
        v = values.get(key)
        if isinstance(threshold, Metric):
            other = (section, workload, threshold)
            if other not in values:
                yield f"missing row {other}"
                continue
            threshold = values[other]
        # A flag gate wants a JSON boolean; a numeric gate wants a number.
        if key not in values:
            yield f"missing row {key}"
        elif isinstance(threshold, bool) != isinstance(v, bool) or not isinstance(v, (int, float)):
            yield f"{key}: value {v!r} has the wrong type"
        elif not OPS[op](v, threshold):
            yield f"{key}: {v!r} {op} {threshold!r} does not hold"
    yield from golden_failures(doc, values)


def main(path):
    with open(path) as f:
        problems = list(failures(json.load(f)))
    for p in problems:
        print(f"FAIL {p}")
    print(f"{path}: {len(GATES)} gates, {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
