#!/usr/bin/env python3
"""Check BENCH.json, the one artefact of bench/main.exe, against its gates.

    python3 bench/validate.py BENCH.json

The file holds long-form rows {section, workload, metric, value}
(schema bench-main/1, documented in README.md).  It passes when its
(section, workload) pairs are exactly those named in GATES below and
every gate holds.  Exits 0 on a pass and 1 with one line per failure
otherwise.
"""
import json
import operator
import sys

OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
       "==": operator.eq}


def each(section, workloads, metric, op, threshold):
    return [(section, w, metric, op, threshold) for w in workloads]


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


def failures(doc):
    if doc.get("schema") != "bench-main/1":
        yield f"schema is {doc.get('schema')!r}, want 'bench-main/1'"
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
        # A flag gate wants a JSON boolean; a numeric gate wants a number.
        if key not in values:
            yield f"missing row {key}"
        elif isinstance(threshold, bool) != isinstance(v, bool) or not isinstance(v, (int, float)):
            yield f"{key}: value {v!r} has the wrong type"
        elif not OPS[op](v, threshold):
            yield f"{key}: {v!r} {op} {threshold!r} does not hold"


def main(path):
    with open(path) as f:
        problems = list(failures(json.load(f)))
    for p in problems:
        print(f"FAIL {p}")
    print(f"{path}: {len(GATES)} gates, {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
