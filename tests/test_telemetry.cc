/**
 * @file
 * Tests for the continuous telemetry pipeline: windowed sampler
 * semantics (exact counter reconciliation, strictly increasing
 * windows), zero-storage-when-disabled, anomaly-triggered black-box
 * dumps (power cut mid-checkpoint), and byte-identical artifacts
 * across reruns, sweep worker counts, and cluster synchronizer
 * thread counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "harness/experiment.h"
#include "harness/node.h"
#include "harness/presets.h"
#include "harness/sweep.h"
#include "obs/json_parse.h"
#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"

namespace checkin {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ----------------------------------------------------------------------
// Sampler unit semantics
// ----------------------------------------------------------------------

TEST(TelemetrySampler, DisabledSamplerStoresNothing)
{
    obs::TelemetrySampler t; // disabled by default
    t.addGauge("g", [] { return std::uint64_t(1); });
    t.addCounter("c", [] { return std::uint64_t(1); });
    EventQueue eq;
    t.begin(eq); // must not install the step hook
    t.noteEvent(obs::TelemetryEvent::JournalStall, 1, 1);
    t.noteSloResult(1, true);
    t.noteCheckpointStart(1);
    t.noteCheckpointEnd(2, 1);
    t.finalize(2);
    EXPECT_EQ(t.probeCount(), 0u);
    EXPECT_EQ(t.sampleCount(), 0u);
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.anomalyCount(), 0u);
    EXPECT_EQ(t.storageBytes(), 0u);
    EXPECT_EQ(eq.stepHookDue(), kInvalidTick);
}

TEST(TelemetrySampler, CounterWindowsReconcileExactly)
{
    obs::TelemetryOptions opts;
    opts.enabled = true;
    opts.window = 100;
    obs::TelemetrySampler t(opts);
    std::uint64_t ops = 0;
    std::uint64_t depth = 0;
    t.addCounter("ops", [&ops] { return ops; });
    t.addGauge("depth", [&depth] { return depth; });

    EventQueue eq;
    // Load-phase noise: counted before begin(), so the baseline
    // snapshot must exclude it from every window and from final.
    ops = 5;
    t.begin(eq);
    for (std::uint64_t i = 0; i < 40; ++i) {
        eq.schedule(i * 37, [&ops, &depth, i] {
            ops += 3;
            depth = i;
        });
    }
    eq.run();
    t.finalize(eq.now());

    const std::vector<obs::TelemetrySeries> sv = t.series();
    ASSERT_EQ(sv.size(), 2u);
    EXPECT_EQ(sv[0].name, "depth");
    EXPECT_EQ(sv[1].name, "ops");
    EXPECT_EQ(sv[0].kind, obs::ProbeKind::Gauge);
    EXPECT_EQ(sv[1].kind, obs::ProbeKind::Counter);

    // Counter: per-window deltas sum to the post-baseline final.
    EXPECT_EQ(sv[1].final, 40u * 3u);
    std::uint64_t sum = 0;
    std::uint64_t prev_window = 0;
    bool first = true;
    for (const auto &[w, v] : sv[1].points) {
        if (!first) {
            EXPECT_GT(w, prev_window);
        }
        first = false;
        prev_window = w;
        sum += v;
    }
    EXPECT_EQ(sum, sv[1].final);

    // Gauge: final is the last sampled value.
    EXPECT_EQ(sv[0].final, 39u);
    EXPECT_GT(t.sampleCount(), 0u);
}

TEST(TelemetrySampler, SloStreakAndMediaErrorFireAnomalies)
{
    obs::TelemetryOptions opts;
    opts.enabled = true;
    opts.sloStreak = 4;
    obs::TelemetrySampler t(opts);
    EventQueue eq;
    t.begin(eq);

    // Three violations then a pass: streak resets, no anomaly.
    for (Tick i = 1; i <= 3; ++i)
        t.noteSloResult(i, true);
    t.noteSloResult(4, false);
    EXPECT_EQ(t.anomalyCount(), 0u);

    // Four consecutive violations: SloStreak fires once.
    for (Tick i = 5; i <= 8; ++i)
        t.noteSloResult(i, true);
    EXPECT_EQ(t.anomalyCount(), 1u);

    // A media error is an immediate anomaly.
    t.noteEvent(obs::TelemetryEvent::MediaError, 9, 7);
    EXPECT_EQ(t.anomalyCount(), 2u);
    t.finalize(10);

    const obs::JsonValue bb = obs::parseJson(t.blackboxJson());
    EXPECT_EQ(bb.at("anomalies").asU64(), 2u);
    const obs::JsonValue &dumps = bb.at("dumps");
    ASSERT_EQ(dumps.items.size(), 2u);
    EXPECT_EQ(dumps.at(0).at("anomaly").asString(), "sloStreak");
    EXPECT_EQ(dumps.at(1).at("anomaly").asString(), "mediaError");
}

// ----------------------------------------------------------------------
// Telemetry over a full experiment
// ----------------------------------------------------------------------

ExperimentConfig
telemetryRunConfig(const std::string &artifact_dir)
{
    ExperimentConfig cfg = presets::small();
    cfg.workload.operationCount = 3000;
    cfg.threads = 8;
    cfg.traffic.mode = LoopMode::Open;
    cfg.traffic.offeredOpsPerSec = 150'000;
    cfg.traffic.tenants.push_back(TenantSpec{});
    cfg.obs.telemetry.enabled = true;
    cfg.obs.artifactDir = artifact_dir;
    return cfg;
}

TEST(TelemetryRun, ArtifactsReconcileWithFinalCounters)
{
    const std::string dir =
        ::testing::TempDir() + "checkin-telemetry-run";
    ExperimentConfig cfg = telemetryRunConfig(dir);
    const RunResult r = runExperiment(cfg);
    EXPECT_TRUE(r.telemetry.enabled);
    EXPECT_GT(r.telemetry.probes, 0u);
    EXPECT_GT(r.telemetry.samples, 0u);

    ASSERT_FALSE(r.artifacts.empty());
    bool saw_telemetry = false;
    bool saw_blackbox = false;
    for (const std::string &f : r.artifacts.files) {
        saw_telemetry |= f == "telemetry.json";
        saw_blackbox |= f == "blackbox.json";
    }
    EXPECT_TRUE(saw_telemetry);
    EXPECT_TRUE(saw_blackbox);

    const obs::JsonValue tj =
        obs::parseJson(slurp(r.artifacts.dir + "/telemetry.json"));
    EXPECT_GT(tj.at("windowTicks").asU64(), 0u);
    EXPECT_GE(tj.at("finalTick").asU64(),
              tj.at("baselineTick").asU64());
    ASSERT_FALSE(tj.at("probes").fields.empty());
    for (const auto &[name, probe] : tj.at("probes").fields) {
        std::uint64_t prev = 0;
        bool first = true;
        std::uint64_t sum = 0;
        for (const auto &pt : probe.at("points").items) {
            const std::uint64_t w = pt.at(0).asU64();
            if (!first) {
                EXPECT_GT(w, prev) << name;
            }
            first = false;
            prev = w;
            sum += pt.at(1).asU64();
        }
        if (probe.at("kind").asString() == "counter") {
            EXPECT_EQ(sum, probe.at("final").asU64()) << name;
        }
    }
}

TEST(TelemetryRun, ByteIdenticalAcrossReruns)
{
    const std::string base =
        ::testing::TempDir() + "checkin-telemetry-rerun";
    ExperimentConfig a = telemetryRunConfig(base + "-a");
    ExperimentConfig b = telemetryRunConfig(base + "-b");
    const RunResult ra = runExperiment(a);
    const RunResult rb = runExperiment(b);
    for (const char *f : {"telemetry.json", "blackbox.json"}) {
        EXPECT_EQ(slurp(ra.artifacts.dir + "/" + f),
                  slurp(rb.artifacts.dir + "/" + f))
            << f;
    }
}

TEST(TelemetrySweep, ByteIdenticalAcrossWorkerCounts)
{
    const std::string base =
        ::testing::TempDir() + "checkin-telemetry-sweep";
    auto points = [&base](const std::string &tag) {
        std::vector<SweepPoint> pts;
        for (int i = 0; i < 3; ++i) {
            SweepPoint p;
            p.label = "p" + std::to_string(i);
            p.config = telemetryRunConfig(base + "-" + tag);
            p.config.obs.runName = p.label;
            p.config.workload.operationCount = 1500 + 200 * i;
            pts.push_back(std::move(p));
        }
        return pts;
    };
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions wide;
    wide.jobs = 4;
    const auto ra = runSweep(points("j1"), serial);
    const auto rb = runSweep(points("j4"), wide);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        ASSERT_TRUE(ra[i].ok) << ra[i].error;
        ASSERT_TRUE(rb[i].ok) << rb[i].error;
        for (const char *f : {"telemetry.json", "blackbox.json"}) {
            EXPECT_EQ(
                slurp(ra[i].result.artifacts.dir + "/" + f),
                slurp(rb[i].result.artifacts.dir + "/" + f))
                << ra[i].label << "/" << f;
        }
    }
}

// ----------------------------------------------------------------------
// Anomaly capture: power cut mid-checkpoint
// ----------------------------------------------------------------------

/**
 * Drive a device + engine stack to a mid-checkpoint power cut (the
 * crash-oracle recipe) with telemetry armed, and return the black
 * box. The cut must land while checkpointInProgress(), so the dump
 * captures the state leading into the incident.
 */
std::string
powerCutBlackbox()
{
    ExperimentConfig cfg = presets::small();
    SimContext ctx(cfg.seed != 0 ? cfg.seed : 42);

    obs::TelemetryOptions topts;
    topts.enabled = true;
    topts.window = 100 * kUsec;
    obs::TelemetrySampler telem(topts);
    ctx.setTelemetry(&telem);
    SimContextScope scope(ctx);

    StorageNode node(ctx, cfg);
    node.load([](std::uint64_t) { return std::uint32_t(256); });
    EventQueue &eq = ctx.events();
    const Tick load_end = eq.now();

    telem.begin(eq);
    node.engine().start();

    // Paced updates plus one forced checkpoint partway through.
    StorageEngine *eng = &node.engine();
    for (std::uint32_t i = 0; i < 300; ++i) {
        const std::uint64_t key = i % cfg.engine.recordCount;
        const Tick at = load_end + Tick(i + 1) * (50 * kUsec);
        eq.schedule(at, [eng, key] {
            eng->update(key, 256, [](const QueryResult &) {});
        });
        if (i == 100) {
            eq.schedule(at,
                        [eng] { eng->requestCheckpoint(); });
        }
    }

    while (!eng->checkpointInProgress()) {
        if (!eq.step())
            break;
    }
    EXPECT_TRUE(eng->checkpointInProgress());
    const Tick cut = eq.now();

    // Host crash: continuations die with the queue, then the device
    // loses power — which fires the PowerCut anomaly into the black
    // box. The engine object stays alive (its probes are sampled by
    // finalize) but never runs again.
    eq.clear();
    node.ssd().suddenPowerLoss();
    telem.finalize(cut);

    EXPECT_GE(telem.anomalyCount(), 1u);
    const std::string bb = telem.blackboxJson();
    const obs::JsonValue v = obs::parseJson(bb);
    bool saw_power_cut = false;
    for (const auto &dump : v.at("dumps").items) {
        const std::uint64_t trigger =
            dump.at("triggerTick").asU64();
        EXPECT_LE(trigger, cut);
        if (dump.at("anomaly").asString() == "powerCut") {
            saw_power_cut = true;
            EXPECT_EQ(trigger, cut);
        }
        // Flight-recorder invariant: nothing in a dump postdates
        // its trigger.
        for (const auto &ev : dump.at("events").items)
            EXPECT_LE(ev.at(0).asU64(), trigger);
        for (const auto &s : dump.at("samples").items)
            EXPECT_LE(s.at("tick").asU64(), trigger);
    }
    EXPECT_TRUE(saw_power_cut);
    return bb;
}

TEST(TelemetryAnomaly, PowerCutMidCheckpointCapturesDump)
{
    const std::string a = powerCutBlackbox();
    const std::string b = powerCutBlackbox();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b); // reruns are byte-identical
}

// ----------------------------------------------------------------------
// Cluster: per-shard samplers, sync-thread independence
// ----------------------------------------------------------------------

TEST(TelemetryCluster, ByteIdenticalAcrossSyncThreadCounts)
{
    const std::string base =
        ::testing::TempDir() + "checkin-telemetry-cluster";
    auto run = [&base](unsigned threads, const std::string &tag) {
        ClusterConfig cfg = presets::cluster();
        cfg.workload.operationCount = 2000;
        cfg.shard.obs.telemetry.enabled = true;
        cfg.syncThreads = threads;
        cfg.artifactDir = base + "-" + tag;
        return runCluster(cfg);
    };
    const ClusterResult a = run(1, "t1");
    const ClusterResult b = run(4, "t4");
    EXPECT_TRUE(a.telemetry.enabled);
    EXPECT_GT(a.telemetry.probes, 0u);
    EXPECT_GT(a.telemetry.samples, 0u);
    for (const char *f : {"telemetry.json", "blackbox.json"}) {
        EXPECT_EQ(slurp(a.artifacts.dir + "/" + f),
                  slurp(b.artifacts.dir + "/" + f))
            << f;
    }

    // The merged artifact carries per-shard series and cluster
    // rollups whose finals are the shard sums.
    const obs::JsonValue tj =
        obs::parseJson(slurp(a.artifacts.dir + "/telemetry.json"));
    const std::uint64_t shards = tj.at("shardCount").asU64();
    ASSERT_GT(shards, 0u);
    std::uint64_t rollups = 0;
    for (const auto &[name, probe] : tj.at("probes").fields) {
        if (name.rfind("cluster.", 0) != 0)
            continue;
        ++rollups;
        const std::string leaf = name.substr(8);
        std::uint64_t sum = 0;
        for (std::uint64_t s = 0; s < shards; ++s) {
            const obs::JsonValue *sp = tj.at("probes").find(
                "shard" + std::to_string(s) + "." + leaf);
            ASSERT_NE(sp, nullptr) << name;
            sum += sp->at("final").asU64();
        }
        EXPECT_EQ(sum, probe.at("final").asU64()) << name;
    }
    EXPECT_GT(rollups, 0u);
}

} // namespace
} // namespace checkin
