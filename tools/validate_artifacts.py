#!/usr/bin/env python3
"""Validate the shape of run artifacts and bench reports.

Stdlib-only schema check for the JSON files the simulator emits:

  trace.json         Chrome trace_event export (obs/trace.h)
  attribution.json   per-op latency attribution (obs/attribution.h)
  checkpoints.json   per-checkpoint phase timeline
  metrics.json       typed metrics registry export
  summary.json       RunResult export (harness/run_export.h)
  cluster.json       cluster run export (src/cluster/cluster.h)
  telemetry.json     windowed probe series (obs/telemetry.h);
                     window indices must strictly increase and every
                     counter's window deltas must sum exactly to its
                     final value
  blackbox.json      anomaly dumps; every retained sample/event tick
                     must be <= the dump's trigger tick
  BENCH_cluster.json cluster scaling report (bench/cluster_scaling)
  BENCH_engines.json storage-backend comparison (bench/engine_compare)
  BENCH_openloop.json open-loop traffic sweep (bench/openloop)
  BENCH_*.json       bench/fig* reports (bench/bench_common.h);
                     every bench name must be registered below —
                     unregistered reports fail validation

Usage:
  tools/validate_artifacts.py PATH...

Each PATH may be a single .json file or a directory (validated
recursively; files are dispatched on their name). Exits nonzero and
prints one line per problem if any file is malformed; prints a
per-file OK line otherwise. A .json file whose name is not registered
fails validation: every artifact the simulator learns to emit must
come with a schema here.
"""

import json
import sys
from pathlib import Path

STAGES = {
    "queueDelay", "hostCpu", "checkpointStall", "journalWait",
    "ssdQueue", "firmware", "ftlMap", "dramCache", "nandWait",
    "nandMedia", "gcStall", "bus", "backpressure", "other",
}
OP_CLASSES = {"read", "update", "rmw", "scan", "delete"}
TRIGGERS = {"manual", "timer", "journalBytes", "spacePressure",
            "backlog", "adaptivePace", "safety"}
POLICIES = {"independent", "synchronized", "staggered"}

errors = []


def err(path, msg):
    errors.append(f"{path}: {msg}")


def require(path, obj, key, types):
    """Check obj[key] exists and has one of the given types."""
    if not isinstance(obj, dict) or key not in obj:
        err(path, f"missing key '{key}'")
        return None
    if not isinstance(obj[key], types):
        err(path, f"key '{key}' has type {type(obj[key]).__name__}")
        return None
    return obj[key]


def check_stage_map(path, stages, ctx):
    if not isinstance(stages, dict):
        err(path, f"{ctx}: 'stages' is not an object")
        return
    for name, ticks in stages.items():
        if name not in STAGES:
            err(path, f"{ctx}: unknown stage '{name}'")
        if not isinstance(ticks, int) or ticks < 0:
            err(path, f"{ctx}: stage '{name}' dwell is not a "
                      "non-negative integer")


def check_class_map(path, classes, ctx):
    if not isinstance(classes, dict):
        err(path, f"{ctx}: 'classes' is not an object")
        return
    for cls, breakdown in classes.items():
        if cls not in OP_CLASSES:
            err(path, f"{ctx}: unknown op class '{cls}'")
            continue
        require(path, breakdown, "ops", int)
        require(path, breakdown, "totalTicks", int)
        stages = require(path, breakdown, "stages", dict)
        if stages is not None:
            check_stage_map(path, stages, f"{ctx}.{cls}")


def validate_trace(path, doc):
    events = require(path, doc, "traceEvents", list)
    if events is None:
        return
    for i, ev in enumerate(events[:1000]):
        if not isinstance(ev, dict) or "ph" not in ev:
            err(path, f"traceEvents[{i}] is not a phase event")
            return


def validate_attribution(path, doc):
    require(path, doc, "totalOps", int)
    classes = require(path, doc, "classes", dict)
    if classes is not None:
        check_class_map(path, classes, "classes")
    tail = require(path, doc, "tail", dict)
    if tail is not None:
        require(path, tail, "ops", int)
        require(path, tail, "quantile", (int, float))
        require(path, tail, "thresholdTicks", int)
        tail_classes = require(path, tail, "classes", dict)
        if tail_classes is not None:
            check_class_map(path, tail_classes, "tail.classes")
    recorder = require(path, doc, "flightRecorder", list)
    if recorder is None:
        return
    prev = None
    for i, rec in enumerate(recorder):
        ctx = f"flightRecorder[{i}]"
        cls = require(path, rec, "class", str)
        if cls is not None and cls not in OP_CLASSES:
            err(path, f"{ctx}: unknown op class '{cls}'")
        issued = require(path, rec, "issued", int)
        done = require(path, rec, "done", int)
        latency = require(path, rec, "latencyTicks", int)
        stages = require(path, rec, "stages", dict)
        if None in (issued, done, latency, stages):
            continue
        if done - issued != latency:
            err(path, f"{ctx}: latencyTicks != done - issued")
        # Conservation: stage dwells must sum to the latency.
        check_stage_map(path, stages, ctx)
        if sum(stages.values()) != latency:
            err(path, f"{ctx}: stage dwells sum to "
                      f"{sum(stages.values())}, latency {latency}")
        if prev is not None and latency > prev:
            err(path, f"{ctx}: not sorted worst-first")
        prev = latency


def validate_checkpoints(path, doc):
    count = require(path, doc, "count", int)
    ckpts = require(path, doc, "checkpoints", list)
    if ckpts is None:
        return
    if count is not None and count != len(ckpts):
        err(path, f"count {count} != len(checkpoints) {len(ckpts)}")
    for i, c in enumerate(ckpts):
        ctx = f"checkpoints[{i}]"
        trigger = require(path, c, "trigger", str)
        if trigger is not None and trigger not in TRIGGERS:
            err(path, f"{ctx}: unknown trigger '{trigger}'")
        ticks = {}
        for key in ("seq", "startTick", "endTick", "dataTicks",
                    "metaTicks", "deleteTicks", "totalTicks",
                    "entries", "rawRecords", "fullRecords",
                    "partialRecords", "mergedRecords", "tombstones",
                    "cowCommands", "remappedPairs", "remappedUnits",
                    "copiedPairs", "copiedChunks",
                    "bufferedSmallRecords"):
            ticks[key] = require(path, c, key, int)
        if None in ticks.values():
            continue
        phase_sum = (ticks["dataTicks"] + ticks["metaTicks"] +
                     ticks["deleteTicks"])
        if phase_sum != ticks["totalTicks"]:
            err(path, f"{ctx}: phase ticks sum to {phase_sum}, "
                      f"totalTicks {ticks['totalTicks']}")
        if ticks["endTick"] - ticks["startTick"] != ticks["totalTicks"]:
            err(path, f"{ctx}: endTick - startTick != totalTicks")
        record_sum = (ticks["rawRecords"] + ticks["fullRecords"] +
                      ticks["partialRecords"] + ticks["mergedRecords"])
        if ticks["entries"] != record_sum:
            err(path, f"{ctx}: entries {ticks['entries']} != "
                      f"record-class sum {record_sum}")


def validate_metrics(path, doc):
    for key in ("counters", "gauges", "histograms", "series"):
        require(path, doc, key, dict)


def validate_summary(path, doc):
    require(path, doc, "client", dict)
    require(path, doc, "raw", dict)
    ckpts = require(path, doc, "checkpoints", dict)
    if ckpts is not None:
        require(path, ckpts, "count", int)
    attribution = require(path, doc, "attribution", dict)
    if attribution is not None and attribution.get("enabled"):
        require(path, attribution, "totalOps", int)
    timeline = doc.get("checkpointTimeline")
    if timeline is not None and not isinstance(timeline, list):
        err(path, "'checkpointTimeline' is not a list")


def check_hist(path, hist, ctx):
    if not isinstance(hist, dict):
        err(path, f"{ctx}: not a histogram object")
        return
    for key in ("count", "max", "min", "p50", "p99", "p999"):
        require(path, hist, key, int)
    require(path, hist, "mean", (int, float))


def validate_cluster(path, doc):
    """cluster.json: schema plus the router/shard conservation
    invariants — per-shard op and byte counts must sum exactly to
    the router's totals (and match its per-shard routing counters)."""
    coordination = require(path, doc, "coordination", str)
    if coordination is not None and coordination not in POLICIES:
        err(path, f"unknown coordination policy '{coordination}'")
    shard_count = require(path, doc, "shardCount", int)
    require(path, doc, "lookaheadTicks", int)
    require(path, doc, "simSpanTicks", int)
    require(path, doc, "totalEvents", int)
    require(path, doc, "verifiedKeys", int)
    sync = require(path, doc, "sync", dict)
    if sync is not None:
        require(path, sync, "messages", int)
        require(path, sync, "windows", int)

    router = require(path, doc, "router", dict)
    shards = require(path, doc, "shards", list)
    if router is None or shards is None:
        return
    if shard_count is not None and len(shards) != shard_count:
        err(path, f"shardCount {shard_count} != len(shards) "
                  f"{len(shards)}")

    ops_completed = require(path, router, "opsCompleted", int)
    ops_issued = require(path, router, "opsIssued", int)
    bytes_total = require(path, router, "bytesTotal", int)
    routed_ops = require(path, router, "routedOps", list)
    routed_bytes = require(path, router, "routedBytes", list)
    check_hist(path, router.get("all"), "router.all")
    if None in (ops_completed, ops_issued, bytes_total, routed_ops,
                routed_bytes):
        return
    if ops_issued != ops_completed:
        err(path, f"router opsIssued {ops_issued} != opsCompleted "
                  f"{ops_completed}")
    if len(routed_ops) != len(shards):
        err(path, "router.routedOps length != shard count")
        return
    if len(routed_bytes) != len(shards):
        err(path, "router.routedBytes length != shard count")
        return

    sum_ops = sum_bytes = 0
    for i, shard in enumerate(shards):
        ctx = f"shards[{i}]"
        ops = require(path, shard, "ops", int)
        nbytes = require(path, shard, "bytes", int)
        require(path, shard, "checkpoints", int)
        require(path, shard, "keys", int)
        check_hist(path, shard.get("service"), f"{ctx}.service")
        if ops is None or nbytes is None:
            return
        if ops != routed_ops[i]:
            err(path, f"{ctx}: ops {ops} != router.routedOps[{i}] "
                      f"{routed_ops[i]}")
        if nbytes != routed_bytes[i]:
            err(path, f"{ctx}: bytes {nbytes} != "
                      f"router.routedBytes[{i}] {routed_bytes[i]}")
        sum_ops += ops
        sum_bytes += nbytes
    if sum_ops != ops_completed:
        err(path, f"shard ops sum {sum_ops} != router opsCompleted "
                  f"{ops_completed}")
    if sum_bytes != bytes_total:
        err(path, f"shard bytes sum {sum_bytes} != router "
                  f"bytesTotal {bytes_total}")


def validate_bench_cluster(path, doc):
    """BENCH_cluster.json: per-run scaling metrics, every policy
    name known, wall-clock derived fields present, the synchronizer
    thread count recorded, and runs that differ only in thread count
    simulating exactly the same thing."""
    require(path, doc, "bench", str)
    runs = require(path, doc, "runs", list)
    if runs is None:
        return
    if not runs:
        err(path, "no runs")
        return
    simulated = {}
    for i, run in enumerate(runs):
        ctx = f"runs[{i}]"
        require(path, run, "label", str)
        result = require(path, run, "result", dict)
        if result is None:
            continue
        policy = require(path, result, "coordination", str)
        if policy is not None and policy not in POLICIES:
            err(path, f"{ctx}: unknown policy '{policy}'")
        require(path, result, "shardCount", int)
        require(path, result, "opsCompleted", int)
        require(path, result, "totalEvents", int)
        threads = require(path, result, "syncThreads", int)
        if threads is not None and threads < 1:
            err(path, f"{ctx}: syncThreads {threads} < 1")
        for key in ("eventsPerSec", "p999Us", "throughputOps",
                    "wallSeconds"):
            require(path, result, key, (int, float))
        sim = tuple(result.get(k) for k in
                    ("totalEvents", "simSpanTicks", "p999Us"))
        key = (result.get("shardCount"), policy,
               result.get("opsCompleted"))
        if simulated.setdefault(key, sim) != sim:
            err(path, f"{ctx}: simulated result differs from another "
                      f"run of {key} on a different thread count")


def validate_bench(path, doc):
    require(path, doc, "bench", str)
    runs = require(path, doc, "runs", list)
    if runs is None:
        return
    for i, run in enumerate(runs):
        require(path, run, "label", str)
        require(path, run, "result", dict)


def validate_bench_engines(path, doc):
    """BENCH_engines.json: the backend-comparison grid. Each run is a
    full RunResult export with latency attribution enabled; the label
    set must cover every (workload, backend) cell exactly once."""
    validate_bench(path, doc)
    runs = doc.get("runs")
    if not isinstance(runs, list):
        return
    expected = {f"{w}-{b}"
                for w in ("ycsb-a", "ycsb-b", "ycsb-c")
                for b in ("checkin", "lsm")}
    labels = [r.get("label") for r in runs if isinstance(r, dict)]
    if sorted(labels) != sorted(expected):
        err(path, f"labels {sorted(labels)} != expected grid "
                  f"{sorted(expected)}")
    for i, run in enumerate(runs):
        ctx = f"runs[{i}]"
        result = run.get("result") if isinstance(run, dict) else None
        if not isinstance(result, dict):
            continue
        require(path, result, "throughputOps", (int, float))
        require(path, result, "avgLatencyUs", (int, float))
        client = require(path, result, "client", dict)
        if client is not None:
            check_hist(path, client.get("all"), f"{ctx}.client.all")
        flash = require(path, result, "flash", dict)
        if flash is not None:
            require(path, flash, "waf", (int, float))
            require(path, flash, "programs", int)
        journal = require(path, result, "journal", dict)
        if journal is not None:
            require(path, journal, "payloadBytes", int)
            require(path, journal, "stalls", int)
        ckpts = require(path, result, "checkpoints", dict)
        if ckpts is not None:
            require(path, ckpts, "count", int)
        attribution = require(path, result, "attribution", dict)
        if attribution is not None:
            enabled = attribution.get("enabled")
            if enabled is not True:
                err(path, f"{ctx}: attribution not enabled — the "
                          "device-busy split would be empty")
            classes = require(path, attribution, "classes", dict)
            if classes is not None:
                check_class_map(path, classes,
                                f"{ctx}.attribution.classes")


def validate_bench_openloop(path, doc):
    """BENCH_openloop.json: the open-loop fixed-vs-adaptive sweep.
    Each run must satisfy the open-loop conservation invariants: the
    achieved rate can never exceed the offered rate (completions
    trail arrivals), every dispatched op records one queue delay,
    and per-tenant SLO-violation counts must sum to the client
    total."""
    validate_bench(path, doc)
    runs = doc.get("runs")
    if not isinstance(runs, list):
        return
    expected = {f"{s}-{p}"
                for s in ("poisson", "mmpp", "diurnal", "flashcrowd",
                          "multitenant")
                for p in ("fixed", "adaptive")}
    labels = [r.get("label") for r in runs if isinstance(r, dict)]
    if sorted(labels) != sorted(expected):
        err(path, f"labels {sorted(labels)} != expected grid "
                  f"{sorted(expected)}")
    for i, run in enumerate(runs):
        ctx = f"runs[{i}]"
        result = run.get("result") if isinstance(run, dict) else None
        if not isinstance(result, dict):
            continue
        throughput = require(path, result, "throughputOps",
                             (int, float))
        client = require(path, result, "client", dict)
        if client is None:
            continue
        offered_rate = require(path, client, "offeredOpsPerSec",
                               (int, float))
        ops_offered = require(path, client, "opsOffered", int)
        ops_completed = require(path, client, "opsCompleted", int)
        violations = require(path, client, "sloViolations", int)
        tenants = require(path, client, "tenants", list)
        check_hist(path, client.get("queueDelay"),
                   f"{ctx}.client.queueDelay")
        journal = require(path, result, "journal", dict)
        if journal is not None:
            require(path, journal, "fillRate", (int, float))
            require(path, journal, "stalls", int)
        if None in (throughput, offered_rate, ops_offered,
                    ops_completed, violations, tenants):
            continue
        if ops_completed > ops_offered:
            err(path, f"{ctx}: opsCompleted {ops_completed} > "
                      f"opsOffered {ops_offered}")
        if throughput > offered_rate:
            err(path, f"{ctx}: achieved rate {throughput} > offered "
                      f"rate {offered_rate}")
        queue_count = client.get("queueDelay", {}).get("count")
        if queue_count is not None and queue_count != ops_completed:
            err(path, f"{ctx}: queueDelay count {queue_count} != "
                      f"opsCompleted {ops_completed}")
        tenant_violations = 0
        tenant_ops = 0
        for j, t in enumerate(tenants):
            tctx = f"{ctx}.tenants[{j}]"
            require(path, t, "name", str)
            require(path, t, "sloLatencyTicks", int)
            v = require(path, t, "sloViolations", int)
            ops = require(path, t, "opsCompleted", int)
            if v is None or ops is None:
                continue
            if v > ops:
                err(path, f"{tctx}: sloViolations {v} > "
                          f"opsCompleted {ops}")
            tenant_violations += v
            tenant_ops += ops
        if tenants:
            if tenant_violations != violations:
                err(path, f"{ctx}: tenant sloViolations sum "
                          f"{tenant_violations} != client total "
                          f"{violations}")
            if tenant_ops != ops_completed:
                err(path, f"{ctx}: tenant opsCompleted sum "
                          f"{tenant_ops} != client total "
                          f"{ops_completed}")
        elif violations != 0:
            err(path, f"{ctx}: sloViolations {violations} with no "
                      "tenants configured")


ANOMALIES = {"sloStreak", "safetyTrip", "ckptOverrun", "mediaError",
             "powerCut"}
TELEMETRY_EVENTS = {"ckptStart", "ckptEnd", "journalStall",
                    "safetyTrip", "sloViolation", "mediaError",
                    "powerCut"}


def check_probe_series(path, name, series, ctx):
    kind = require(path, series, "kind", str)
    final = require(path, series, "final", int)
    points = require(path, series, "points", list)
    if kind is not None and kind not in ("gauge", "counter"):
        err(path, f"{ctx}: unknown probe kind '{kind}'")
    if None in (kind, final, points):
        return None
    prev = None
    total = 0
    for j, p in enumerate(points):
        if (not isinstance(p, list) or len(p) != 2 or
                not all(isinstance(x, int) for x in p)):
            err(path, f"{ctx}.points[{j}] is not [window, value]")
            return None
        if prev is not None and p[0] <= prev:
            err(path, f"{ctx}: window {p[0]} after {prev} — "
                      "windows must strictly increase")
        prev = p[0]
        total += p[1]
    # Exact reconciliation: a counter's window deltas are the whole
    # story of how it reached its final value.
    if kind == "counter" and total != final:
        err(path, f"{ctx}: window deltas sum to {total}, "
                  f"final {final}")
    return final


def validate_telemetry(path, doc):
    """telemetry.json (single-node or cluster-merged): window
    monotonicity, exact counter reconciliation, and — in the cluster
    variant — every cluster.* rollup equal to the sum of its
    shardN.* series."""
    require(path, doc, "anomalies", int)
    require(path, doc, "events", int)
    require(path, doc, "samples", int)
    baseline = require(path, doc, "baselineTick", int)
    final_tick = require(path, doc, "finalTick", int)
    window = require(path, doc, "windowTicks", int)
    probes = require(path, doc, "probes", dict)
    if None in (baseline, final_tick, window, probes):
        return
    if window <= 0:
        err(path, f"windowTicks {window} must be positive")
        return
    if final_tick < baseline:
        err(path, f"finalTick {final_tick} < baselineTick "
                  f"{baseline}")
    finals = {}
    for name, series in probes.items():
        final = check_probe_series(path, name, series,
                                   f"probes.{name}")
        if final is not None:
            finals[name] = final
    if "shardCount" not in doc:
        return
    shard_count = doc["shardCount"]
    for name, final in finals.items():
        if not name.startswith("cluster."):
            continue
        base = name[len("cluster."):]
        shard_sum = sum(finals.get(f"shard{s}.{base}", 0)
                        for s in range(shard_count))
        if shard_sum != final:
            err(path, f"probes.{name}: final {final} != shard sum "
                      f"{shard_sum}")


def check_blackbox_body(path, body, ctx):
    require(path, body, "anomalies", int)
    require(path, body, "depthEvents", int)
    require(path, body, "depthSamples", int)
    probe_names = require(path, body, "probeNames", list)
    dumps = require(path, body, "dumps", list)
    if dumps is None:
        return
    for i, d in enumerate(dumps):
        dctx = f"{ctx}dumps[{i}]"
        anomaly = require(path, d, "anomaly", str)
        if anomaly is not None and anomaly not in ANOMALIES:
            err(path, f"{dctx}: unknown anomaly '{anomaly}'")
        trigger = require(path, d, "triggerTick", int)
        require(path, d, "seq", int)
        require(path, d, "value", int)
        events = require(path, d, "events", list)
        samples = require(path, d, "samples", list)
        if None in (trigger, events, samples):
            continue
        # A dump is a *pre-trigger* window: nothing in it may
        # postdate the moment the anomaly fired.
        for j, e in enumerate(events):
            if not isinstance(e, list) or len(e) != 3:
                err(path, f"{dctx}.events[{j}] is not "
                          "[tick, event, value]")
                continue
            if not isinstance(e[0], int) or e[0] > trigger:
                err(path, f"{dctx}.events[{j}]: tick {e[0]} > "
                          f"trigger tick {trigger}")
            if e[1] not in TELEMETRY_EVENTS:
                err(path, f"{dctx}.events[{j}]: unknown event "
                          f"'{e[1]}'")
        for j, s in enumerate(samples):
            tick = require(path, s, "tick", int)
            values = require(path, s, "values", list)
            if tick is not None and tick > trigger:
                err(path, f"{dctx}.samples[{j}]: tick {tick} > "
                          f"trigger tick {trigger}")
            if (values is not None and probe_names is not None and
                    len(values) != len(probe_names)):
                err(path, f"{dctx}.samples[{j}]: {len(values)} "
                          f"values for {len(probe_names)} probes")


def validate_blackbox(path, doc):
    """blackbox.json: single-node body or cluster per-shard list."""
    if "shards" in doc:
        require(path, doc, "anomalies", int)
        shards = require(path, doc, "shards", list)
        if shards is None:
            return
        for i, s in enumerate(shards):
            require(path, s, "shard", int)
            check_blackbox_body(path, s, f"shards[{i}].")
        return
    check_blackbox_body(path, doc, "")


# Bench reports validated by the generic shape check. A BENCH_*.json
# whose name is in neither this set nor VALIDATORS fails validation:
# a new bench must register here (or with its own validator) so a
# typo'd or half-wired report can never pass silently.
GENERIC_BENCHES = {
    "ablation_checkin", "ext_workloads", "fault", "fig03_motivation",
    "fig04_breakdown", "fig08_write_amp", "fig09_tail_latency",
    "fig10_checkpoint_time", "fig11_throughput_latency",
    "fig12_interval_sensitivity", "fig13_mapping_unit", "kernel",
}


VALIDATORS = {
    "trace.json": validate_trace,
    "attribution.json": validate_attribution,
    "checkpoints.json": validate_checkpoints,
    "metrics.json": validate_metrics,
    "summary.json": validate_summary,
    "cluster.json": validate_cluster,
    "telemetry.json": validate_telemetry,
    "blackbox.json": validate_blackbox,
    "BENCH_cluster.json": validate_bench_cluster,
    "BENCH_engines.json": validate_bench_engines,
    "BENCH_openloop.json": validate_bench_openloop,
}


def dispatch(path):
    if path.name in VALIDATORS:
        validator = VALIDATORS[path.name]
    elif path.name.startswith("BENCH_") and path.suffix == ".json":
        bench = path.name[len("BENCH_"):-len(".json")]
        if bench not in GENERIC_BENCHES:
            err(path, "BENCH report with no registered schema — add "
                      "it to GENERIC_BENCHES or VALIDATORS in "
                      "tools/validate_artifacts.py")
            return True
        validator = validate_bench
    else:
        return False
    before = len(errors)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        err(path, f"unreadable: {e}")
        return True
    validator(path, doc)
    if len(errors) == before:
        print(f"OK {path}")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    validated = 0
    for arg in argv[1:]:
        root = Path(arg)
        if root.is_dir():
            for path in sorted(root.rglob("*.json")):
                if not dispatch(path):
                    # Unregistered artifacts fail: a new emitter must
                    # bring its schema to VALIDATORS.
                    err(path, "unregistered artifact name — add a "
                              "validator to tools/"
                              "validate_artifacts.py")
                validated += 1
        elif root.exists():
            if not dispatch(root):
                err(root, "unrecognized artifact name")
                validated += 1
        else:
            err(root, "no such file or directory")
    if errors:
        for line in errors:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    if validated == 0:
        print("FAIL: no recognized artifacts found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
