#!/usr/bin/env python3
"""Validate and diff upcws-bench-v1 JSON files.

Usage:
  compare_bench.py --check-only CURRENT.json
      Validate the schema only (CI gate for a freshly generated file).

  compare_bench.py CURRENT.json BASELINE.json [--threshold 0.15]
      Per-result, per-metric comparison against a checked-in baseline.
      Prints a delta table and WARNS (exit 0) on any regression beyond the
      threshold; pass --fail-on-regression to turn warnings into exit 1.

  compare_bench.py CURRENT.json BASELINE.json --fail-over 30
      Same comparison, but any regression beyond 30% is a HARD FAIL
      (exit 1) regardless of --fail-on-regression. Lets CI keep the
      warn-at-15% policy while still catching catastrophic slowdowns.

  compare_bench.py --self-test
      Run the built-in unit checks on canned JSON and exit.

Each file records its host context (`nproc`, `sha1_kernel`). When the current
file and the baseline differ in either, the comparison prints a NOTE first:
host-time deltas then mix the host with the change. The note never changes
the exit code.

Regression direction is inferred from the metric name: *_per_sec and plain
counters are better-higher; ns_per_* and *_s (durations) are better-lower.
Metrics that are neither (e.g. `nodes`, `switches`) are checked for drift in
either direction -- a change there means the workload itself changed, which
invalidates the comparison.
"""

import argparse
import json
import sys

SCHEMA = "upcws-bench-v1"

# Metrics that describe the workload, not its speed: any change is suspect.
INVARIANT = {"nodes", "switches", "virtual_elapsed_s"}

# Metrics that legitimately vary with the host (psim shard layout follows the
# worker count, and the psim host-time ledger splits wall time by what the
# host's cores were doing): printed for the record, never flagged as
# regression or drift.
NEUTRAL = {"windows", "events", "events_per_window", "host_frac.busy",
           "host_frac.wake_wait", "host_frac.barrier_wait",
           "host_frac.completion"}

# Host context BenchReporter writes at the top of every file.
CONTEXT = ("nproc", "sha1_kernel")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"compare_bench: cannot read {path}: {e}")


def validate(doc, path):
    errors = []
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        errors.append("missing/empty 'bench' name")
    if doc.get("mode") not in ("quick", "default", "full"):
        errors.append(f"bad mode {doc.get('mode')!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("'results' must be a non-empty list")
        results = []
    seen = set()
    for i, r in enumerate(results):
        name = r.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"results[{i}]: missing name")
            continue
        if name in seen:
            errors.append(f"duplicate result name {name!r}")
        seen.add(name)
        metrics = r.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            errors.append(f"{name}: 'metrics' must be a non-empty object")
            continue
        for k, v in metrics.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                errors.append(f"{name}: metric {k!r} is not a number")
        notes = r.get("notes", {})
        if not isinstance(notes, dict):
            errors.append(f"{name}: 'notes' must be an object")
    for e in errors:
        print(f"compare_bench: {path}: {e}", file=sys.stderr)
    return not errors


def direction(metric):
    """+1 higher-is-better, -1 lower-is-better, 0 invariant, None neutral."""
    if metric in NEUTRAL:
        return None
    if metric in INVARIANT:
        return 0
    if metric.endswith("_per_sec") or metric.endswith("_per_s"):
        return +1
    if metric.startswith("ns_per_") or metric.endswith("_s"):
        return -1
    return +1


def context_diffs(cur, base):
    """One line per host-context field on which the two files differ; a
    field a file lacks reads as 'unrecorded'."""
    diffs = []
    for key in CONTEXT:
        c, b = cur.get(key, "unrecorded"), base.get(key, "unrecorded")
        if c != b:
            diffs.append(f"{key}: baseline {b}, current {c}")
    return diffs


def compare(cur, base, threshold, fail_on_regression, fail_over=None):
    diffs = context_diffs(cur, base)
    if diffs:
        print("compare_bench: NOTE: the files come from different host "
              "contexts, so host-time deltas mix the host with the change:")
        for d in diffs:
            print(f"  {d}")
        print()
    cur_by = {r["name"]: r for r in cur["results"]}
    base_by = {r["name"]: r for r in base["results"]}
    regressions = []
    hard_fails = []
    drift = []

    print(f"{'result':<28} {'metric':<20} {'baseline':>12} {'current':>12} "
          f"{'delta':>8}")
    for name, br in base_by.items():
        cr = cur_by.get(name)
        if cr is None:
            print(f"{name:<28} (missing from current run)")
            continue
        for metric, bv in br["metrics"].items():
            cv = cr["metrics"].get(metric)
            if cv is None or bv == 0:
                continue
            ratio = cv / bv
            delta = ratio - 1.0
            d = direction(metric)
            flag = ""
            if d is None:
                print(f"{name:<28} {metric:<20} {bv:>12.4g} {cv:>12.4g} "
                      f"{delta:>+7.1%}  (host-dependent)")
                continue
            if d == 0 and abs(delta) > 1e-9:
                flag = "  WORKLOAD CHANGED"
                drift.append((name, metric, bv, cv))
            elif d * delta < -threshold:
                flag = "  REGRESSION"
                regressions.append((name, metric, bv, cv, delta))
            elif d * delta > threshold:
                flag = "  improved"
            if fail_over is not None and d and d * delta < -fail_over:
                flag = "  HARD FAIL"
                hard_fails.append((name, metric, bv, cv, delta))
            print(f"{name:<28} {metric:<20} {bv:>12.4g} {cv:>12.4g} "
                  f"{delta:>+7.1%}{flag}")
    for name in cur_by:
        if name not in base_by:
            print(f"{name:<28} (new result, no baseline)")

    if drift:
        print(f"\ncompare_bench: WARNING: {len(drift)} workload-invariant "
              "metric(s) changed -- the bench is not measuring the same work "
              "as the baseline:", file=sys.stderr)
        for name, metric, bv, cv in drift:
            print(f"  {name} {metric}: {bv:g} -> {cv:g}", file=sys.stderr)
    if hard_fails:
        print(f"\ncompare_bench: FAIL: {len(hard_fails)} metric(s) "
              f"regressed more than the --fail-over gate of {fail_over:.0%}:",
              file=sys.stderr)
        for name, metric, bv, cv, delta in hard_fails:
            print(f"  {name} {metric}: {bv:g} -> {cv:g} ({delta:+.1%})",
                  file=sys.stderr)
        return 1
    if regressions:
        print(f"\ncompare_bench: WARNING: {len(regressions)} metric(s) "
              f"regressed more than {threshold:.0%} vs baseline:",
              file=sys.stderr)
        for name, metric, bv, cv, delta in regressions:
            print(f"  {name} {metric}: {bv:g} -> {cv:g} ({delta:+.1%})",
                  file=sys.stderr)
        if fail_on_regression:
            return 1
        print("(warning only; re-run on a quiet machine or refresh the "
              "baseline if the change is intended)", file=sys.stderr)
    else:
        print("\ncompare_bench: no regressions beyond "
              f"{threshold:.0%} threshold")
    return 0


def _canned(rate, nodes=1000):
    """One-result doc with a controllable throughput metric."""
    return {
        "schema": SCHEMA, "bench": "selftest", "mode": "quick",
        "results": [{"name": "case", "metrics":
                     {"nodes_per_sec": rate, "nodes": nodes}}],
    }


def self_test():
    """Unit checks on canned JSON; prints PASS/FAIL per case, exits 1 on
    any failure. Covers schema validation, regression direction, and the
    warn/--fail-on-regression/--fail-over exit-code matrix."""
    import contextlib
    import io

    cases = []

    def run_compare(cur, base, **kw):
        return run_compare_out(cur, base, **kw)[0]

    def run_compare_out(cur, base, **kw):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
             contextlib.redirect_stderr(io.StringIO()):
            rc = compare(cur, base, kw.pop("threshold", 0.15),
                         kw.pop("fail_on_regression", False),
                         kw.pop("fail_over", None))
        return rc, out.getvalue()

    def quiet_validate(doc):
        with contextlib.redirect_stderr(io.StringIO()):
            return validate(doc, "<canned>")

    cases.append(("valid doc passes validation",
                  quiet_validate(_canned(100.0))))
    bad_schema = _canned(100.0)
    bad_schema["schema"] = "nope-v0"
    cases.append(("wrong schema rejected", not quiet_validate(bad_schema)))
    dup = _canned(100.0)
    dup["results"].append(dup["results"][0])
    cases.append(("duplicate result name rejected", not quiet_validate(dup)))
    nan = _canned(100.0)
    nan["results"][0]["metrics"]["nodes"] = "many"
    cases.append(("non-numeric metric rejected", not quiet_validate(nan)))

    cases.append(("direction: throughput is better-higher",
                  direction("nodes_per_sec") == +1))
    cases.append(("direction: duration is better-lower",
                  direction("elapsed_s") == -1))
    cases.append(("direction: workload metric is invariant",
                  direction("nodes") == 0))
    cases.append(("direction: host-dependent metric is neutral",
                  direction("events_per_window") is None))

    base = _canned(100.0)
    cases.append(("5% slowdown under threshold -> exit 0",
                  run_compare(_canned(95.0), base) == 0))
    cases.append(("20% slowdown warns but exits 0",
                  run_compare(_canned(80.0), base) == 0))
    cases.append(("20% slowdown + --fail-on-regression -> exit 1",
                  run_compare(_canned(80.0), base,
                              fail_on_regression=True) == 1))
    cases.append(("20% slowdown under --fail-over 0.30 -> exit 0",
                  run_compare(_canned(80.0), base, fail_over=0.30) == 0))
    cases.append(("40% slowdown over --fail-over 0.30 -> exit 1",
                  run_compare(_canned(60.0), base, fail_over=0.30) == 1))
    cases.append(("40% speedup never trips --fail-over",
                  run_compare(_canned(140.0), base, fail_over=0.30) == 0))
    cases.append(("workload drift detected but non-fatal",
                  run_compare(_canned(100.0, nodes=999), base) == 0))
    neut_base = _canned(100.0)
    neut_base["results"][0]["metrics"]["windows"] = 50
    neut_cur = _canned(100.0)
    neut_cur["results"][0]["metrics"]["windows"] = 500
    cases.append(("neutral metric change never flagged, even over fail-over",
                  run_compare(neut_cur, neut_base, fail_over=0.30) == 0))
    neut_base["results"][0]["metrics"]["host_frac.wake_wait"] = 0.26
    neut_cur["results"][0]["metrics"]["host_frac.wake_wait"] = 0.52
    rc, out = run_compare_out(neut_cur, neut_base, fail_on_regression=True)
    cases.append(("psim ledger share is host-dependent, never flagged",
                  rc == 0 and "host-dependent" in out and
                  "REGRESSION" not in out and "improved" not in out))

    ctx_base = dict(_canned(100.0), nproc=4, sha1_kernel="portable")
    ctx_kernel = dict(ctx_base, sha1_kernel="sha-ni")
    rc, out = run_compare_out(ctx_base, ctx_base)
    cases.append(("same host context prints no note",
                  rc == 0 and "NOTE" not in out))
    rc, out = run_compare_out(ctx_kernel, ctx_base, fail_on_regression=True)
    cases.append(("sha1_kernel difference is noted, exit stays 0",
                  rc == 0 and "NOTE" in out and
                  "sha1_kernel: baseline portable, current sha-ni" in out))
    rc, out = run_compare_out(ctx_base, _canned(100.0))
    cases.append(("context missing from the baseline is noted as unrecorded",
                  rc == 0 and "nproc: baseline unrecorded, current 4" in out))

    failed = 0
    for name, ok in cases:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    print(f"compare_bench --self-test: {len(cases) - failed}/{len(cases)} "
          "checks passed")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current", nargs="?",
                    help="freshly generated BENCH_*.json")
    ap.add_argument("baseline", nargs="?",
                    help="checked-in baseline to diff against")
    ap.add_argument("--check-only", action="store_true",
                    help="validate the schema of CURRENT and exit")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative regression threshold (default 0.15)")
    ap.add_argument("--fail-on-regression", action="store_true",
                    help="exit 1 instead of warning on regressions")
    ap.add_argument("--fail-over", type=float, metavar="PCT",
                    help="hard-fail (exit 1) on any regression beyond PCT "
                         "percent, independent of --fail-on-regression")
    ap.add_argument("--self-test", action="store_true",
                    help="run built-in checks on canned JSON and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.current:
        sys.exit("compare_bench: need CURRENT.json (or --self-test)")
    if args.fail_over is not None and args.fail_over <= 0:
        sys.exit("compare_bench: --fail-over must be a positive percentage")

    cur = load(args.current)
    if not validate(cur, args.current):
        return 1
    if args.check_only:
        n = len(cur["results"])
        print(f"compare_bench: {args.current}: valid {SCHEMA} "
              f"({n} results)")
        return 0
    if not args.baseline:
        sys.exit("compare_bench: need BASELINE (or --check-only)")
    base = load(args.baseline)
    if not validate(base, args.baseline):
        return 1
    fail_over = None if args.fail_over is None else args.fail_over / 100.0
    return compare(cur, base, args.threshold, args.fail_on_regression,
                   fail_over)


if __name__ == "__main__":
    sys.exit(main())
