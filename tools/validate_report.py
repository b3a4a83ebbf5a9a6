#!/usr/bin/env python3
"""Validate machine-readable reports against their schema.

Dispatches on the document's "schema" field:

upcws-run-report-v1 (uts_cli --report), structurally and semantically:
  * required keys present with sane types,
  * per-rank entries cover every rank exactly once,
  * causes + residual exactly account for the non-working time,
  * the idle-time autopsy attributed >= 99% of non-working time
    (residual_frac_of_nonworking <= 0.01) -- the PR's acceptance bar.

upcws-soak-summary-v1 (chaos_soak --json):
  * passed + failed == campaigns, engine split sums to campaigns,
  * per-algorithm campaign counts sum to campaigns,
  * one violation entry per failed campaign, each naming the oracle
    that fired and the replay file that reproduces it.

upcws-service-report-v1 (service_soak --json):
  * the four terminal-state counts sum to jobs (every job ended in
    exactly one terminal state), engine/workload/algo splits sum to jobs,
  * typed reject reasons sum to the rejected count,
  * latency percentiles cover exactly the completed jobs and are
    monotone (p50 <= p90 <= p99 <= max),
  * the job-state oracle found no violation and no completed job
    disagreed with its sequential reference.

upcws-service-timeline-v1 (service_soak --report):
  * outcome counts sum to jobs and per_job has exactly one entry per job,
  * per job AND in aggregate, the five causes + residual exactly account
    for the arrival-to-terminal time,
  * every job with nonzero latency is >= 99% attributed (the residual is
    reported, not hidden), and the aggregate fractions agree with the
    nanosecond totals.

`validate_report.py --self-test` exercises the validator itself against
known-good and deliberately corrupted fixtures of all four schemas.

Stdlib only. Exit 0 on success, 1 with a message on any violation.
"""
import copy
import json
import sys

SCHEMA = "upcws-run-report-v1"
SOAK_SCHEMA = "upcws-soak-summary-v1"
SERVICE_SCHEMA = "upcws-service-report-v1"
TIMELINE_SCHEMA = "upcws-service-timeline-v1"
CAUSES = [
    "victim_miss_search",
    "steal_latency",
    "lock_contention",
    "termination_wait",
    "injected_fault",
    "recovery_replay",
]
TOP_KEYS = {
    "schema": str,
    "nranks": int,
    "sample_ns": int,
    "sample_points": int,
    "spans": dict,
    "dropped_trace_events": int,
    "total_ns": int,
    "working_ns": int,
    "nonworking_ns": int,
    "working_frac": float,
    "attributed_frac": float,
    "residual_ns": int,
    "residual_frac_of_nonworking": float,
    "causes_ns": dict,
    "per_rank": list,
}
SPAN_KEYS = ["total", "completed", "denied", "abandoned", "incomplete",
             "salvaged", "timeouts"]


class ValidationError(Exception):
    """Raised on any schema or invariant violation (so --self-test can
    assert that corrupted fixtures are caught without exiting)."""


def fail(msg):
    raise ValidationError(msg)


def check_causes(obj, where):
    if sorted(obj) != sorted(CAUSES):
        fail(f"{where}: causes_ns keys {sorted(obj)} != {sorted(CAUSES)}")
    for k, v in obj.items():
        if not isinstance(v, int) or v < 0:
            fail(f"{where}: causes_ns[{k}] = {v!r} is not a non-negative int")


SOAK_TOP_KEYS = {
    "schema": str,
    "campaigns": int,
    "passed": int,
    "failed": int,
    "engines": dict,
    "algos": dict,
    "fault_classes": dict,
    "violations": list,
    "elapsed_s": float,
}
SOAK_VIOLATION_KEYS = ["campaign", "engine", "algo", "oracle", "replay",
                       "message"]


def validate_soak(rep, path):
    for key, typ in SOAK_TOP_KEYS.items():
        if key not in rep:
            fail(f"missing key {key!r}")
        val = rep[key]
        if typ is float and isinstance(val, int):
            val = float(val)
        if not isinstance(val, typ):
            fail(f"key {key!r} has type {type(rep[key]).__name__}, "
                 f"want {typ.__name__}")
    n = rep["campaigns"]
    if n < 1:
        fail(f"campaigns = {n}")
    if rep["passed"] + rep["failed"] != n:
        fail(f"passed {rep['passed']} + failed {rep['failed']} != "
             f"campaigns {n}")
    engines = rep["engines"]
    if sorted(engines) != ["sim", "threads"]:
        fail(f"engines keys {sorted(engines)} != ['sim', 'threads']")
    for k, v in engines.items():
        if not isinstance(v, int) or v < 0:
            fail(f"engines[{k}] = {v!r} is not a non-negative int")
    if engines["sim"] + engines["threads"] != n:
        fail(f"engine split {engines['sim']} + {engines['threads']} != "
             f"campaigns {n}")
    for table in ("algos", "fault_classes"):
        for k, v in rep[table].items():
            if not isinstance(v, int) or not 0 <= v <= n:
                fail(f"{table}[{k}] = {v!r} out of range [0, {n}]")
    if not rep["algos"]:
        fail("no algorithms exercised")
    algo_sum = sum(rep["algos"].values())
    if algo_sum != n:
        fail(f"per-algo campaign counts sum to {algo_sum}, "
             f"campaigns is {n}")
    violations = rep["violations"]
    if len(violations) != rep["failed"]:
        fail(f"{len(violations)} violation entries for {rep['failed']} "
             "failed campaigns")
    for i, v in enumerate(violations):
        for k in SOAK_VIOLATION_KEYS:
            if k not in v:
                fail(f"violations[{i}] missing {k!r}")
        if not 0 <= v["campaign"] < n:
            fail(f"violations[{i}]: campaign id {v['campaign']} "
                 f"out of range")
        if v["engine"] not in ("sim", "threads", "psim"):
            fail(f"violations[{i}]: bad engine {v['engine']!r}")
        if not v["oracle"]:
            fail(f"violations[{i}]: empty oracle name")
    if rep["elapsed_s"] < 0:
        fail(f"elapsed_s = {rep['elapsed_s']}")

    print(f"validate_report: OK: {path} -- {n} campaigns "
          f"({engines['threads']} on threads), {rep['passed']} passed, "
          f"{rep['failed']} failed, {len(rep['algos'])} algorithms")


SERVICE_TOP_KEYS = {
    "schema": str,
    "jobs": int,
    "terminal": dict,
    "engines": dict,
    "workloads": dict,
    "algos": dict,
    "reject_reasons": dict,
    "retry_attempts": int,
    "chaos": dict,
    "nodes": dict,
    "latency_ns": dict,
    "queue_depth_max": int,
    "throughput_jobs_per_s": float,
    "oracle": dict,
    "result_mismatches": int,
    "elapsed_s": float,
}
TERMINAL_STATES = ["completed", "rejected", "cancelled", "retries_exhausted"]
LATENCY_KEYS = ["count", "p50", "p90", "p99", "max"]


def check_count_table(obj, where, total, exact=True, nonempty=False):
    for k, v in obj.items():
        if not isinstance(v, int) or not 0 <= v <= total:
            fail(f"{where}[{k}] = {v!r} out of range [0, {total}]")
    if nonempty and not obj:
        fail(f"{where} is empty")
    s = sum(obj.values())
    if exact and s != total:
        fail(f"{where} counts sum to {s}, want {total}")


def validate_service(rep, path):
    for key, typ in SERVICE_TOP_KEYS.items():
        if key not in rep:
            fail(f"missing key {key!r}")
        val = rep[key]
        if typ is float and isinstance(val, int):
            val = float(val)
        if not isinstance(val, typ):
            fail(f"key {key!r} has type {type(rep[key]).__name__}, "
                 f"want {typ.__name__}")
    n = rep["jobs"]
    if n < 1:
        fail(f"jobs = {n}")

    # Every job must land in exactly one terminal state.
    terminal = rep["terminal"]
    if sorted(terminal) != sorted(TERMINAL_STATES):
        fail(f"terminal keys {sorted(terminal)} != {sorted(TERMINAL_STATES)}")
    check_count_table(terminal, "terminal", n)

    engines = rep["engines"]
    if sorted(engines) != ["sim", "threads"]:
        fail(f"engines keys {sorted(engines)} != ['sim', 'threads']")
    check_count_table(engines, "engines", n)
    check_count_table(rep["workloads"], "workloads", n, nonempty=True)
    check_count_table(rep["algos"], "algos", n, nonempty=True)

    # Typed load-shedding: one reason per rejected job.
    check_count_table(rep["reject_reasons"], "reject_reasons",
                      terminal["rejected"])
    for table in ("chaos", "nodes"):
        for k, v in rep[table].items():
            if not isinstance(v, int) or v < 0:
                fail(f"{table}[{k}] = {v!r} is not a non-negative int")

    lat = rep["latency_ns"]
    for k in LATENCY_KEYS:
        if k not in lat or not isinstance(lat[k], int) or lat[k] < 0:
            fail(f"latency_ns.{k} missing or not a non-negative int")
    if lat["count"] != terminal["completed"]:
        fail(f"latency_ns.count {lat['count']} != completed "
             f"{terminal['completed']}")
    if not lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]:
        fail(f"latency percentiles not monotone: p50={lat['p50']} "
             f"p90={lat['p90']} p99={lat['p99']} max={lat['max']}")

    oracle = rep["oracle"]
    if oracle.get("checked") != n:
        fail(f"oracle checked {oracle.get('checked')} of {n} jobs")
    if not isinstance(oracle.get("violations"), list):
        fail("oracle.violations is not a list")
    if oracle["violations"]:
        fail(f"job-state oracle reported {len(oracle['violations'])} "
             f"violation(s): {oracle['violations'][0]}")
    if rep["result_mismatches"] != 0:
        fail(f"{rep['result_mismatches']} completed job(s) disagreed with "
             "the sequential reference")
    if rep["retry_attempts"] < 0 or rep["queue_depth_max"] < 0:
        fail("negative retry_attempts or queue_depth_max")
    if rep["throughput_jobs_per_s"] < 0 or rep["elapsed_s"] < 0:
        fail("negative throughput or elapsed_s")

    print(f"validate_report: OK: {path} -- {n} jobs "
          f"({engines['threads']} on threads), "
          f"{terminal['completed']} completed / "
          f"{terminal['rejected']} rejected / "
          f"{terminal['cancelled']} cancelled / "
          f"{terminal['retries_exhausted']} retries-exhausted, "
          f"p50={lat['p50']} p99={lat['p99']} ns")


TIMELINE_TOP_KEYS = {
    "schema": str,
    "jobs": int,
    "outcomes": dict,
    "total_ns": int,
    "residual_ns": int,
    "attributed_frac": float,
    "min_job_attributed_frac": float,
    "causes_ns": dict,
    "per_job": list,
}
TIMELINE_OUTCOMES = ["completed", "rejected", "cancelled",
                     "retries_exhausted", "unfinished"]
JOB_CAUSES = ["queue_wait", "backoff", "engine_run", "cancel_drain", "shed"]
JOB_KEYS = ["service", "id", "outcome", "attempts", "total_ns", "causes_ns",
            "residual_ns"]


def check_job_causes(obj, where):
    if sorted(obj) != sorted(JOB_CAUSES):
        fail(f"{where}: causes_ns keys {sorted(obj)} != {sorted(JOB_CAUSES)}")
    for k, v in obj.items():
        if not isinstance(v, int) or v < 0:
            fail(f"{where}: causes_ns[{k}] = {v!r} is not a non-negative int")


def validate_timeline(rep, path):
    for key, typ in TIMELINE_TOP_KEYS.items():
        if key not in rep:
            fail(f"missing key {key!r}")
        val = rep[key]
        if typ is float and isinstance(val, int):
            val = float(val)
        if not isinstance(val, typ):
            fail(f"key {key!r} has type {type(rep[key]).__name__}, "
                 f"want {typ.__name__}")
    n = rep["jobs"]
    if n < 1:
        fail(f"jobs = {n}")

    outcomes = rep["outcomes"]
    if sorted(outcomes) != sorted(TIMELINE_OUTCOMES):
        fail(f"outcomes keys {sorted(outcomes)} != "
             f"{sorted(TIMELINE_OUTCOMES)}")
    check_count_table(outcomes, "outcomes", n)
    check_job_causes(rep["causes_ns"], "aggregate")

    per_job = rep["per_job"]
    if len(per_job) != n:
        fail(f"per_job has {len(per_job)} entries for {n} jobs")
    # Per-job exactness, then cross-check the aggregates against the sums.
    total = residual = 0
    causes = {c: 0 for c in JOB_CAUSES}
    valid_outcomes = {"none"} | set(TIMELINE_OUTCOMES) - {"unfinished"}
    for i, job in enumerate(per_job):
        where = f"per_job[{i}]"
        for k in JOB_KEYS:
            if k not in job:
                fail(f"{where} missing {k!r}")
        if job["outcome"] not in valid_outcomes:
            fail(f"{where}: bad outcome {job['outcome']!r}")
        check_job_causes(job["causes_ns"], where)
        attributed = sum(job["causes_ns"].values())
        if attributed + job["residual_ns"] != job["total_ns"]:
            fail(f"{where}: causes + residual = "
                 f"{attributed + job['residual_ns']} != "
                 f"total_ns {job['total_ns']}")
        # The acceptance bar holds per job, not just on average.
        if job["total_ns"] > 0 and \
                job["residual_ns"] / job["total_ns"] > 0.01:
            fail(f"{where}: residual is "
                 f"{100 * job['residual_ns'] / job['total_ns']:.2f}% of its "
                 "latency (bar: 1%)")
        total += job["total_ns"]
        residual += job["residual_ns"]
        for c in JOB_CAUSES:
            causes[c] += job["causes_ns"][c]
    if total != rep["total_ns"]:
        fail(f"per-job totals sum to {total}, total_ns says "
             f"{rep['total_ns']}")
    if residual != rep["residual_ns"]:
        fail(f"per-job residuals sum to {residual}, residual_ns says "
             f"{rep['residual_ns']}")
    if causes != rep["causes_ns"]:
        fail(f"per-job causes sum to {causes}, aggregate says "
             f"{rep['causes_ns']}")
    for key in ("attributed_frac", "min_job_attributed_frac"):
        if not 0.0 <= rep[key] <= 1.0:
            fail(f"{key} = {rep[key]} outside [0, 1]")
    if rep["total_ns"] > 0:
        frac = 1.0 - rep["residual_ns"] / rep["total_ns"]
        if abs(frac - rep["attributed_frac"]) > 1e-6:
            fail("attributed_frac disagrees with residual_ns/total_ns")
    if rep["min_job_attributed_frac"] < 0.99:
        fail(f"min_job_attributed_frac = "
             f"{rep['min_job_attributed_frac']:.4f} < 0.99")

    print(f"validate_report: OK: {path} -- {n} jobs "
          f"({outcomes['completed']} completed / "
          f"{outcomes['rejected']} rejected / "
          f"{outcomes['cancelled']} cancelled / "
          f"{outcomes['retries_exhausted']} retries-exhausted / "
          f"{outcomes['unfinished']} unfinished), attributed "
          f"{100 * rep['attributed_frac']:.2f}% of arrival-to-terminal time")


def validate(rep, path):
    if rep.get("schema") == SOAK_SCHEMA:
        validate_soak(rep, path)
        return
    if rep.get("schema") == SERVICE_SCHEMA:
        validate_service(rep, path)
        return
    if rep.get("schema") == TIMELINE_SCHEMA:
        validate_timeline(rep, path)
        return
    validate_run_report(rep, path)


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        self_test()
        return
    if len(sys.argv) != 2:
        fail("usage: validate_report.py report.json | --self-test")
    try:
        with open(sys.argv[1]) as f:
            rep = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {sys.argv[1]}: {e}")
    validate(rep, sys.argv[1])


def validate_run_report(rep, path):
    for key, typ in TOP_KEYS.items():
        if key not in rep:
            fail(f"missing key {key!r}")
        val = rep[key]
        if typ is float and isinstance(val, int):
            val = float(val)  # JSON integers are valid doubles
        if not isinstance(val, typ):
            fail(f"key {key!r} has type {type(rep[key]).__name__}, "
                 f"want {typ.__name__}")
    if rep["schema"] != SCHEMA:
        fail(f"schema {rep['schema']!r} != {SCHEMA!r}")
    if rep["nranks"] < 1:
        fail(f"nranks = {rep['nranks']}")

    spans = rep["spans"]
    for k in SPAN_KEYS:
        if k not in spans or not isinstance(spans[k], int) or spans[k] < 0:
            fail(f"spans.{k} missing or not a non-negative int")
    accounted = (spans["completed"] + spans["denied"] + spans["abandoned"]
                 + spans["incomplete"])
    if accounted != spans["total"]:
        fail(f"span outcomes sum to {accounted}, total says {spans['total']}")

    check_causes(rep["causes_ns"], "aggregate")
    if rep["working_ns"] + rep["nonworking_ns"] != rep["total_ns"]:
        fail("working_ns + nonworking_ns != total_ns")
    cause_sum = sum(rep["causes_ns"].values()) + rep["residual_ns"]
    if cause_sum != rep["nonworking_ns"]:
        fail(f"causes + residual = {cause_sum} != "
             f"nonworking_ns {rep['nonworking_ns']}")

    per_rank = rep["per_rank"]
    if len(per_rank) != rep["nranks"]:
        fail(f"per_rank has {len(per_rank)} entries for {rep['nranks']} ranks")
    seen = set()
    for entry in per_rank:
        for k in ("rank", "total_ns", "working_ns", "causes_ns",
                  "residual_ns"):
            if k not in entry:
                fail(f"per_rank entry missing {k!r}")
        r = entry["rank"]
        if r in seen or not 0 <= r < rep["nranks"]:
            fail(f"bad or duplicate rank id {r}")
        seen.add(r)
        check_causes(entry["causes_ns"], f"rank {r}")
        nonworking = entry["total_ns"] - entry["working_ns"]
        rank_sum = sum(entry["causes_ns"].values()) + entry["residual_ns"]
        if rank_sum != nonworking:
            fail(f"rank {r}: causes + residual = {rank_sum} != "
                 f"non-working {nonworking}")

    # The acceptance bar: >= 99% of non-working time carries a cause. The
    # residual is allowed to exist (it must be REPORTED), just not to grow.
    if rep["nonworking_ns"] > 0:
        frac = rep["residual_ns"] / rep["nonworking_ns"]
        if frac > 0.01:
            fail(f"residual is {100 * frac:.2f}% of non-working time "
                 "(bar: 1%)")
        if abs(frac - rep["residual_frac_of_nonworking"]) > 1e-6:
            fail("residual_frac_of_nonworking disagrees with residual_ns")
    if rep["attributed_frac"] < 0.99:
        fail(f"attributed_frac = {rep['attributed_frac']:.4f} < 0.99")

    print(f"validate_report: OK: {path} -- {rep['nranks']} ranks, "
          f"{rep['sample_points']} samples, {spans['total']} spans, "
          f"attributed {100 * rep['attributed_frac']:.2f}% of "
          f"non-working time")


def _fixture_run_report():
    causes = {c: 0 for c in CAUSES}
    return {
        "schema": SCHEMA, "nranks": 1, "sample_ns": 100, "sample_points": 4,
        "spans": {"total": 2, "completed": 1, "denied": 1, "abandoned": 0,
                  "incomplete": 0, "salvaged": 0, "timeouts": 0},
        "dropped_trace_events": 0, "total_ns": 1000, "working_ns": 1000,
        "nonworking_ns": 0, "working_frac": 1.0, "attributed_frac": 1.0,
        "residual_ns": 0, "residual_frac_of_nonworking": 0.0,
        "causes_ns": dict(causes),
        "per_rank": [{"rank": 0, "total_ns": 1000, "working_ns": 1000,
                      "causes_ns": dict(causes), "residual_ns": 0}],
    }


def _fixture_soak():
    return {
        "schema": SOAK_SCHEMA, "campaigns": 2, "passed": 1, "failed": 1,
        "engines": {"sim": 2, "threads": 0},
        "algos": {"upc-term": 1, "mpi-ws": 1},
        "fault_classes": {"crashes": 1},
        "violations": [{"campaign": 0, "engine": "sim", "algo": "upc-term",
                        "oracle": "node-count", "replay": "r.json",
                        "message": "boom"}],
        "elapsed_s": 0.5,
    }


def _fixture_service():
    return {
        "schema": SERVICE_SCHEMA, "jobs": 4,
        "terminal": {"completed": 2, "rejected": 1, "cancelled": 1,
                     "retries_exhausted": 0},
        "engines": {"sim": 3, "threads": 1},
        "workloads": {"uts": 3, "knapsack": 1},
        "algos": {"upc-term": 2, "work-push": 2},
        "reject_reasons": {"queue-full": 1},
        "retry_attempts": 1, "chaos": {"crashes": 1, "drains": 0},
        "nodes": {"visited": 900, "reclaimed": 25},
        "latency_ns": {"count": 2, "p50": 10, "p90": 20, "p99": 20,
                       "max": 20},
        "queue_depth_max": 3, "throughput_jobs_per_s": 2.0,
        "oracle": {"checked": 4, "violations": []},
        "result_mismatches": 0, "elapsed_s": 0.1,
    }


def _fixture_timeline():
    def job(i, outcome, total, causes, residual=0, attempts=1):
        c = {k: 0 for k in JOB_CAUSES}
        c.update(causes)
        return {"service": 0, "id": i, "outcome": outcome,
                "attempts": attempts, "total_ns": total, "causes_ns": c,
                "residual_ns": residual}

    per_job = [
        job(0, "completed", 100, {"queue_wait": 40, "engine_run": 60}),
        job(1, "cancelled", 200, {"engine_run": 150, "cancel_drain": 50},
            attempts=1),
        job(2, "rejected", 10, {"shed": 10}, attempts=0),
        job(3, "retries_exhausted", 300,
            {"queue_wait": 50, "engine_run": 200, "backoff": 50},
            attempts=2),
    ]
    causes = {k: 0 for k in JOB_CAUSES}
    for j in per_job:
        for k in JOB_CAUSES:
            causes[k] += j["causes_ns"][k]
    return {
        "schema": TIMELINE_SCHEMA, "jobs": 4,
        "outcomes": {"completed": 1, "rejected": 1, "cancelled": 1,
                     "retries_exhausted": 1, "unfinished": 0},
        "total_ns": 610, "residual_ns": 0, "attributed_frac": 1.0,
        "min_job_attributed_frac": 1.0, "causes_ns": causes,
        "per_job": per_job,
    }


def self_test():
    """Known-good fixtures must pass; each corruption must be caught."""
    fixtures = {
        "run-report": _fixture_run_report,
        "soak": _fixture_soak,
        "service": _fixture_service,
        "timeline": _fixture_timeline,
    }
    for name, make in fixtures.items():
        validate(make(), f"<self-test {name}>")

    def corrupt(fix, mutate):
        doc = copy.deepcopy(fix())
        mutate(doc)
        return doc

    bad = [
        ("run: attribution bar", _fixture_run_report,
         lambda d: d.update(nonworking_ns=500, working_ns=500,
                            residual_ns=500, attributed_frac=0.5,
                            residual_frac_of_nonworking=1.0)),
        ("run: span outcomes", _fixture_run_report,
         lambda d: d["spans"].update(completed=2)),
        ("soak: pass/fail split", _fixture_soak,
         lambda d: d.update(passed=2)),
        ("soak: missing violation entry", _fixture_soak,
         lambda d: d.update(violations=[])),
        ("service: terminal sum", _fixture_service,
         lambda d: d["terminal"].update(completed=3)),
        ("service: engine split", _fixture_service,
         lambda d: d["engines"].update(sim=4)),
        ("service: latency count", _fixture_service,
         lambda d: d["latency_ns"].update(count=3)),
        ("service: non-monotone percentiles", _fixture_service,
         lambda d: d["latency_ns"].update(p50=30)),
        ("service: reject reasons", _fixture_service,
         lambda d: d["reject_reasons"].update({"shutdown": 1})),
        ("service: oracle violation", _fixture_service,
         lambda d: d["oracle"]["violations"].append("rank leak")),
        ("service: reference mismatch", _fixture_service,
         lambda d: d.update(result_mismatches=1)),
        ("service: missing key", _fixture_service,
         lambda d: d.pop("nodes")),
        ("timeline: outcome sum", _fixture_timeline,
         lambda d: d["outcomes"].update(completed=2)),
        ("timeline: per-job count", _fixture_timeline,
         lambda d: d["per_job"].pop()),
        ("timeline: job accounting", _fixture_timeline,
         lambda d: d["per_job"][0]["causes_ns"].update(engine_run=50)),
        ("timeline: hidden residual", _fixture_timeline,
         lambda d: (d["per_job"][0]["causes_ns"].update(engine_run=30),
                    d["per_job"][0].update(residual_ns=30),
                    d.update(residual_ns=30, causes_ns={
                        **d["causes_ns"],
                        "engine_run": d["causes_ns"]["engine_run"] - 30}))),
        ("timeline: aggregate cause drift", _fixture_timeline,
         lambda d: d["causes_ns"].update(
             queue_wait=d["causes_ns"]["queue_wait"] + 1)),
        ("timeline: bad outcome", _fixture_timeline,
         lambda d: d["per_job"][0].update(outcome="evaporated")),
        ("timeline: attribution bar", _fixture_timeline,
         lambda d: d.update(min_job_attributed_frac=0.5)),
        ("timeline: unknown cause key", _fixture_timeline,
         lambda d: d["per_job"][0]["causes_ns"].update(gc_pause=0)),
        ("timeline: missing key", _fixture_timeline,
         lambda d: d.pop("min_job_attributed_frac")),
    ]
    for name, fix, mutate in bad:
        try:
            validate(corrupt(fix, mutate), f"<self-test {name}>")
        except ValidationError:
            continue
        print(f"validate_report: SELF-TEST FAIL: corruption {name!r} "
              "was not caught", file=sys.stderr)
        sys.exit(1)
    print(f"validate_report: self-test OK: {len(fixtures)} schemas, "
          f"{len(bad)} corruptions caught")


if __name__ == "__main__":
    try:
        main()
    except ValidationError as e:
        print(f"validate_report: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
