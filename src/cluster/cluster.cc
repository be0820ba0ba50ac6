#include "cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "cluster/hash_ring.h"
#include "harness/presets.h"
#include "harness/run_export.h"
#include "obs/json.h"
#include "sim/rng.h"

namespace checkin {

const char *
ckptCoordinationName(CkptCoordination policy)
{
    switch (policy) {
      case CkptCoordination::Independent: return "independent";
      case CkptCoordination::Synchronized: return "synchronized";
      case CkptCoordination::Staggered: return "staggered";
    }
    return "unknown";
}

namespace {

/** Key placement plus each shard's local->global key table. */
struct PlacementTables
{
    Placement placement;
    std::vector<std::vector<std::uint64_t>> shardKeys;
};

PlacementTables
placeKeys(const ClusterConfig &cfg)
{
    const HashRing ring(cfg.shardCount, cfg.vnodesPerShard);
    const std::uint64_t total = cfg.totalRecords();
    PlacementTables t;
    t.placement.shardOf.resize(total);
    t.placement.localKey.resize(total);
    t.shardKeys.resize(cfg.shardCount);
    for (std::uint64_t g = 0; g < total; ++g) {
        const std::uint32_t s = ring.shardOf(g);
        t.placement.shardOf[g] = s;
        t.placement.localKey[g] = t.shardKeys[s].size();
        t.shardKeys[s].push_back(g);
    }
    return t;
}

} // namespace

ClusterResult
runCluster(const ClusterConfig &cfg)
{
    if (cfg.shardCount == 0)
        throw std::invalid_argument("cluster needs at least 1 shard");
    if (cfg.lookahead() == 0)
        throw std::invalid_argument(
            "cluster link latencies must be positive (lookahead)");

    PlacementTables tables = placeKeys(cfg);

    // Under router-driven coordination the engines' own checkpoint
    // timers are disabled; the journal-bytes and space-pressure
    // triggers stay armed as a safety net.
    ExperimentConfig shard_cfg = cfg.shard;
    if (cfg.coordination != CkptCoordination::Independent)
        shard_cfg.engine.checkpointInterval = 0;

    const Rng root(cfg.seed);
    auto router = std::make_unique<RouterNode>(
        root.childSeed(0), cfg, tables.placement);
    std::vector<std::unique_ptr<ShardNode>> shards;
    shards.reserve(cfg.shardCount);
    for (std::uint32_t s = 0; s < cfg.shardCount; ++s) {
        ExperimentConfig sc = shard_cfg;
        sc.engine.recordCount = tables.shardKeys[s].size();
        shards.push_back(std::make_unique<ShardNode>(
            s, root.childSeed(1 + s), sc,
            std::move(tables.shardKeys[s]), cfg.workload,
            cfg.responseLatency, cfg.attributionEnabled));
    }

    std::vector<ClusterNode *> nodes;
    nodes.reserve(1 + shards.size());
    nodes.push_back(router.get());
    for (auto &s : shards)
        nodes.push_back(s.get());

    // Build + load every shard (embarrassingly parallel: each load is
    // a private serial simulation over the shard's own context).
    parallelFor(shards.size(), cfg.syncThreads,
                [&](std::size_t s) { shards[s]->buildAndLoad(); });

    // Shards quiesce their loads at different local ticks; the router
    // starts issuing after the latest of them (plus one lookahead of
    // margin) so no request is ever delivered into a shard's past.
    Tick t0 = 0;
    for (auto &s : shards)
        t0 = std::max(t0, s->ctx().now());
    t0 += cfg.lookahead();
    router->start(t0);

    ClusterResult r;
    r.startTick = t0;
    r.sync = runWindows(nodes, cfg.lookahead(), cfg.syncThreads,
                        [&] { return router->done(); });

    // Let in-flight checkpoints finish, then verify every store.
    for (auto &s : shards) {
        s->drainCheckpoint();
        SimContextScope scope(s->ctx());
        r.verifiedKeys += s->engine().verifyAllKeys();
    }

    r.router = router->stats();
    const double tail_q = cfg.shard.obs.attrTailQuantile;
    r.totalEvents = router->ctx().events().dispatched();
    r.clampedSchedules = router->ctx().events().clampedSchedules();
    for (auto &s : shards) {
        r.shards.push_back(s->summary(tail_q));
        r.totalEvents += r.shards.back().events;
        r.clampedSchedules += s->ctx().events().clampedSchedules();
    }
    r.simSpan = r.router.span();
    if (r.simSpan > 0) {
        r.throughputOps = double(r.router.opsCompleted) /
                          (double(r.simSpan) / double(kSec));
    }

    if (cfg.shard.obs.telemetry.enabled) {
        for (auto &s : shards) {
            const obs::TelemetrySummary t = s->telemetry().summary();
            r.telemetry.enabled = true;
            r.telemetry.windowTicks = t.windowTicks;
            r.telemetry.probes += t.probes;
            r.telemetry.samples += t.samples;
            r.telemetry.events += t.events;
            r.telemetry.anomalies += t.anomalies;
        }
    }

    if (!cfg.artifactDir.empty()) {
        obs::ArtifactWriter writer(cfg.artifactDir, cfg.runName);
        writer.writeText("cluster.json", clusterResultJson(cfg, r));
        if (cfg.shard.obs.telemetry.enabled) {
            // Merge in shard-index order: bytes are identical for
            // any synchronizer thread count.
            std::vector<const obs::TelemetrySampler *> samplers;
            samplers.reserve(shards.size());
            for (auto &s : shards)
                samplers.push_back(&s->telemetry());
            writer.writeText("telemetry.json",
                             obs::clusterTelemetryJson(samplers));
            writer.writeText("blackbox.json",
                             obs::clusterBlackboxJson(samplers));
        }
        r.artifacts = writer.bundle();
    }
    return r;
}

std::string
clusterResultJson(const ClusterConfig &cfg, const ClusterResult &r)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.kv("attributionEnabled", cfg.attributionEnabled);
    w.kv("clients", std::uint64_t(cfg.clients));
    w.kv("coordination", ckptCoordinationName(cfg.coordination));
    w.kv("coordinationIntervalTicks",
         cfg.coordinationInterval > 0
             ? cfg.coordinationInterval
             : cfg.shard.engine.checkpointInterval);
    w.kv("lookaheadTicks", cfg.lookahead());

    w.key("router").beginObject();
    histJson(w, "all", r.router.all);
    w.kv("bytesTotal", r.router.totalBytes);
    w.kv("ckptControls", r.router.ckptControls);
    histJson(w, "duringCheckpoint", r.router.duringCheckpoint);
    w.kv("loopMode", loopModeName(cfg.traffic.mode));
    w.kv("opsCompleted", r.router.opsCompleted);
    w.kv("opsIssued", r.router.opsIssued);
    w.kv("opsOffered", r.router.opsOffered);
    histJson(w, "outsideCheckpoint", r.router.outsideCheckpoint);
    histJson(w, "queueDelay", r.router.queueDelay);
    histJson(w, "reads", r.router.reads);
    w.key("routedBytes").beginArray();
    for (const std::uint64_t b : r.router.routedBytes)
        w.value(b);
    w.endArray();
    w.key("routedOps").beginArray();
    for (const std::uint64_t o : r.router.routedOps)
        w.value(o);
    w.endArray();
    histJson(w, "writes", r.router.writes);
    w.endObject();

    w.kv("seed", cfg.seed);
    w.kv("shardCount", std::uint64_t(cfg.shardCount));

    w.key("shards").beginArray();
    for (const ShardSummary &s : r.shards) {
        w.beginObject();
        w.kv("avgCheckpointMs", s.avgCheckpointMs);
        w.kv("bytes", s.bytes);
        w.kv("checkpoints", s.checkpoints);
        w.kv("ckptStallTicks", s.ckptStallTicks);
        w.kv("events", s.events);
        w.kv("journalStalls", s.journalStalls);
        w.kv("keys", s.keys);
        w.kv("maxCheckpointMs", s.maxCheckpointMs);
        w.kv("nandErases", s.nandErases);
        w.kv("nandPrograms", s.nandPrograms);
        w.kv("nandReads", s.nandReads);
        w.kv("ops", s.ops);
        histJson(w, "service", s.service);
        w.kv("shard", std::uint64_t(s.shard));
        w.kv("tailCkptStallTicks", s.tailCkptStallTicks);
        w.endObject();
    }
    w.endArray();

    w.kv("simSpanTicks", r.simSpan);
    w.kv("startTick", r.startTick);
    w.key("sync").beginObject();
    w.kv("messages", r.sync.messages);
    w.kv("windows", r.sync.windows);
    w.endObject();

    w.key("telemetry").beginObject();
    w.kv("anomalies", r.telemetry.anomalies);
    w.kv("enabled", r.telemetry.enabled);
    w.kv("events", r.telemetry.events);
    w.kv("probes", r.telemetry.probes);
    w.kv("samples", r.telemetry.samples);
    w.kv("windowTicks", std::uint64_t(r.telemetry.windowTicks));
    w.endObject();

    w.kv("throughputOps", r.throughputOps);
    w.kv("totalEvents", r.totalEvents);
    w.kv("verifiedKeys", r.verifiedKeys);

    w.key("workload").beginObject();
    w.kv("distribution",
         distributionName(cfg.workload.distribution));
    w.kv("name", cfg.workload.name);
    w.kv("operationCount", cfg.workload.operationCount);
    w.kv("seed", cfg.workload.seed);
    w.endObject();

    w.endObject();
    os << "\n";
    return os.str();
}

namespace presets {

ClusterConfig
cluster()
{
    ClusterConfig c;
    c.shard = small();
    // Per-shard share of the key space; the cluster total is
    // recordCount * shardCount.
    c.shard.engine.recordCount = 2000;
    // Frequent checkpoints so short runs still exercise the
    // coordination policies.
    c.shard.engine.checkpointInterval = 5 * kMsec;
    c.shardCount = 4;
    c.clients = 32;
    c.workload.operationCount = 8000;
    return c;
}

} // namespace presets

} // namespace checkin
