/**
 * @file
 * Cluster simulation tests: the determinism contract (byte-identical
 * artifacts for any synchronizer thread count, and under concurrent
 * outer runs), the router/shard accounting invariants, the three
 * checkpoint coordination policies, and the cluster.json artifact.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/hash_ring.h"

namespace checkin {
namespace {

/** Preset shrunk so a full cluster run stays test-sized. */
ClusterConfig
testConfig()
{
    ClusterConfig cfg = presets::cluster();
    cfg.shard.engine.recordCount = 1000;
    cfg.shard.engine.checkpointInterval = 2 * kMsec;
    cfg.workload.operationCount = 4000;
    return cfg;
}

/** Five shards, so six nodes: 4 threads own them unevenly, and 8
 *  threads exceed the node count. */
ClusterConfig
fiveShardConfig()
{
    ClusterConfig cfg = testConfig();
    cfg.shardCount = 5;
    cfg.shard.engine.recordCount = 800;
    cfg.seed = 7;
    return cfg;
}

/** Open-loop MMPP arrivals with a 4x flash crowd. The router starts
 *  near 15 ms and the last arrival lands near 26 ms, so the crowd's
 *  window lies inside the measured run. */
ClusterConfig
flashCrowdConfig()
{
    ClusterConfig cfg = testConfig();
    cfg.traffic.mode = LoopMode::Open;
    cfg.traffic.process = ArrivalProcess::Mmpp;
    cfg.traffic.offeredOpsPerSec = 150'000.0;
    cfg.traffic.flashCrowdStart = 20 * kMsec;
    cfg.traffic.flashCrowdDuration = 5 * kMsec;
    cfg.traffic.flashCrowdMultiplier = 4.0;
    return cfg;
}

std::string
runJson(ClusterConfig cfg)
{
    const ClusterResult r = runCluster(cfg);
    EXPECT_EQ(r.clampedSchedules, 0u)
        << cfg.syncThreads << " threads broke the window invariant";
    return clusterResultJson(cfg, r);
}

TEST(HashRing, CoversAllShardsDeterministically)
{
    const HashRing ring(8, 64);
    ASSERT_EQ(ring.size(), 8u * 64u);
    std::vector<std::uint64_t> perShard(8, 0);
    for (std::uint64_t k = 0; k < 8000; ++k) {
        const std::uint32_t s = ring.shardOf(k);
        ASSERT_LT(s, 8u);
        ++perShard[s];
        EXPECT_EQ(s, ring.shardOf(k)); // stable
    }
    for (std::uint32_t s = 0; s < 8; ++s)
        EXPECT_GT(perShard[s], 0u) << "shard " << s << " owns no key";
}

TEST(Cluster, ByteIdenticalAcrossSyncThreads)
{
    std::vector<std::string> serial;
    for (ClusterConfig cfg :
         {testConfig(), fiveShardConfig(), flashCrowdConfig()}) {
        SCOPED_TRACE(std::to_string(cfg.shardCount) + " shards, " +
                     loopModeName(cfg.traffic.mode) + " loop");
        ASSERT_GE(cfg.shardCount, 4u);
        cfg.syncThreads = 1;
        serial.push_back(runJson(cfg));
        ASSERT_FALSE(serial.back().empty());
        for (const unsigned threads : {2u, 3u, 4u, 8u}) {
            cfg.syncThreads = threads;
            EXPECT_EQ(serial.back(), runJson(cfg))
                << threads << " synchronizer threads changed the result";
        }
    }

    // Byte-identical also when whole cluster runs execute
    // concurrently (sweep-style outer parallelism): every run is
    // isolated in its own SimContexts.
    const ClusterConfig cfg = testConfig();
    std::vector<std::string> outer(4);
    {
        std::vector<std::thread> workers;
        workers.reserve(outer.size());
        for (std::size_t i = 0; i < outer.size(); ++i) {
            workers.emplace_back([&cfg, &outer, i] {
                ClusterConfig mine = cfg;
                mine.syncThreads = 1 + unsigned(i % 2);
                outer[i] = runJson(mine);
            });
        }
        for (std::thread &t : workers)
            t.join();
    }
    for (const std::string &json : outer)
        EXPECT_EQ(serial.front(), json);

    // The flash crowd surges inside the measured run.
    const ClusterConfig flash = flashCrowdConfig();
    const ClusterResult r = runCluster(flash);
    EXPECT_LT(r.startTick, flash.traffic.flashCrowdStart);
    EXPECT_GT(r.router.lastArrival, flash.traffic.flashCrowdStart +
                                         flash.traffic.flashCrowdDuration);
}

TEST(Cluster, TenantTableLeavesRouterOutputUnchanged)
{
    // The router keeps no per-tenant accounting, so a tenant table
    // draws nothing from the arrival stream either.
    ClusterConfig cfg = testConfig();
    cfg.traffic.mode = LoopMode::Open;
    cfg.traffic.process = ArrivalProcess::Mmpp;
    cfg.traffic.offeredOpsPerSec = 150'000.0;
    const std::string plain = runJson(cfg);
    cfg.traffic.tenants.push_back(TenantSpec{"slo", 1.0, 2 * kMsec});
    EXPECT_EQ(plain, runJson(cfg));
}

TEST(Cluster, ZeroClientsAreRejected)
{
    for (const LoopMode mode : {LoopMode::Closed, LoopMode::Open}) {
        SCOPED_TRACE(loopModeName(mode));
        ClusterConfig cfg = testConfig();
        cfg.clients = 0;
        cfg.traffic.mode = mode;
        try {
            runCluster(cfg);
            ADD_FAILURE() << "a cluster with no clients ran";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("client thread"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Cluster, IdleWorkersParkAndWake)
{
    // No window at all: perfbench's set-up-only call builds the pool
    // and tears it down while its workers wait for a first window.
    ClusterConfig empty = testConfig();
    empty.workload.operationCount = 0;
    // A trickle of open-loop arrivals: most windows hold only router
    // events, so workers run out their spin and park between the
    // windows that reach their shards.
    ClusterConfig trickle = testConfig();
    trickle.workload.operationCount = 400;
    trickle.traffic.mode = LoopMode::Open;
    trickle.traffic.offeredOpsPerSec = 2000.0;

    for (ClusterConfig cfg : {empty, trickle}) {
        SCOPED_TRACE(std::to_string(cfg.workload.operationCount) + " ops");
        cfg.syncThreads = 1;
        const std::string serial = runJson(cfg);
        cfg.syncThreads = 4;
        EXPECT_EQ(serial, runJson(cfg));
    }
    EXPECT_EQ(runCluster(empty).sync.windows, 0u);
}

/** A node with no behaviour of its own; tests schedule its events. */
class BareNode : public ClusterNode
{
  public:
    BareNode() : ClusterNode(1, "bare") {}

  protected:
    void onMessage(const Message &) override {}
};

TEST(Cluster, WindowExceptionReachesCaller)
{
    // At 2 threads node 1 runs on the worker: its exception must
    // reach the caller as it does at 1 thread, not terminate.
    for (const unsigned threads : {1u, 2u}) {
        BareNode idle;
        BareNode failing;
        failing.ctx().events().schedule(
            1, [] { throw std::runtime_error("node failed"); });
        const std::vector<ClusterNode *> nodes = {&idle, &failing};
        EXPECT_THROW(runWindows(nodes, 10, threads, [] { return false; }),
                     std::runtime_error)
            << threads << " threads";
    }
}

TEST(Cluster, RoutingInvariantsHold)
{
    ClusterConfig cfg = testConfig();
    const ClusterResult r = runCluster(cfg);
    EXPECT_EQ(r.clampedSchedules, 0u);

    EXPECT_EQ(r.router.opsIssued, cfg.workload.operationCount);
    EXPECT_EQ(r.router.opsCompleted, cfg.workload.operationCount);
    EXPECT_EQ(r.router.all.count(), r.router.opsCompleted);

    ASSERT_EQ(r.shards.size(), cfg.shardCount);
    ASSERT_EQ(r.router.routedOps.size(), cfg.shardCount);
    ASSERT_EQ(r.router.routedBytes.size(), cfg.shardCount);

    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t keys = 0;
    for (std::uint32_t s = 0; s < cfg.shardCount; ++s) {
        EXPECT_EQ(r.shards[s].ops, r.router.routedOps[s])
            << "shard " << s;
        EXPECT_EQ(r.shards[s].bytes, r.router.routedBytes[s])
            << "shard " << s;
        EXPECT_GT(r.shards[s].keys, 0u);
        ops += r.shards[s].ops;
        bytes += r.shards[s].bytes;
        keys += r.shards[s].keys;
    }
    EXPECT_EQ(ops, r.router.opsCompleted);
    EXPECT_EQ(bytes, r.router.totalBytes);
    EXPECT_EQ(keys, cfg.totalRecords());
    EXPECT_EQ(r.verifiedKeys, cfg.totalRecords());
    EXPECT_GT(r.sync.windows, 0u);
    EXPECT_GE(r.sync.messages, 2 * r.router.opsCompleted);
    EXPECT_GT(r.simSpan, 0u);
}

/**
 * Golden run: per-shard outputs of the 4-shard test config, pinned
 * across commits. A change that moves them on purpose updates these
 * constants and says why.
 */
TEST(Cluster, GoldenRunIsBitIdentical)
{
    struct Pin
    {
        std::uint64_t ops, nandReads, nandPrograms, nandErases,
            journalStalls, checkpoints;
    };
    const Pin want[] = {
        {804, 0, 72, 0, 0, 3},
        {1353, 0, 104, 0, 0, 3},
        {1098, 0, 96, 0, 0, 3},
        {745, 0, 56, 0, 0, 4},
    };
    const ClusterResult r = runCluster(testConfig());
    ASSERT_EQ(r.shards.size(), 4u);
    for (std::size_t s = 0; s < 4; ++s) {
        const ShardSummary &got = r.shards[s];
        EXPECT_EQ(got.ops, want[s].ops) << "shard " << s;
        EXPECT_EQ(got.nandReads, want[s].nandReads) << "shard " << s;
        EXPECT_EQ(got.nandPrograms, want[s].nandPrograms)
            << "shard " << s;
        EXPECT_EQ(got.nandErases, want[s].nandErases) << "shard " << s;
        EXPECT_EQ(got.journalStalls, want[s].journalStalls)
            << "shard " << s;
        EXPECT_EQ(got.checkpoints, want[s].checkpoints)
            << "shard " << s;
    }
    EXPECT_NEAR(r.shards[2].avgCheckpointMs, 0.2910, 1.0);
}

TEST(Cluster, CoordinationPoliciesCheckpointEveryShard)
{
    for (const CkptCoordination policy :
         {CkptCoordination::Independent,
          CkptCoordination::Synchronized,
          CkptCoordination::Staggered}) {
        ClusterConfig cfg = testConfig();
        cfg.coordination = policy;
        const ClusterResult r = runCluster(cfg);
        SCOPED_TRACE(ckptCoordinationName(policy));
        EXPECT_EQ(r.clampedSchedules, 0u);

        std::uint64_t checkpoints = 0;
        for (const ShardSummary &s : r.shards) {
            EXPECT_GT(s.checkpoints, 0u) << "shard " << s.shard;
            checkpoints += s.checkpoints;
        }
        if (policy == CkptCoordination::Independent) {
            EXPECT_EQ(r.router.ckptControls, 0u);
        } else {
            EXPECT_GT(r.router.ckptControls, 0u);
            // Every control message reaches a shard; shards may add
            // safety-net checkpoints (journal pressure) on top.
            EXPECT_GE(checkpoints, r.router.ckptControls / 2);
        }
        EXPECT_EQ(r.router.opsCompleted,
                  cfg.workload.operationCount);
    }
}

TEST(Cluster, AttributionReportsCheckpointStall)
{
    ClusterConfig cfg = testConfig();
    cfg.attributionEnabled = true;
    cfg.coordination = CkptCoordination::Synchronized;
    const ClusterResult r = runCluster(cfg);
    std::uint64_t attrOps = 0;
    for (const ShardSummary &s : r.shards) {
        EXPECT_TRUE(s.attribution.enabled);
        attrOps += s.attribution.totalOps;
    }
    EXPECT_EQ(attrOps, r.router.opsCompleted);
}

TEST(Cluster, WritesClusterJsonArtifact)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "checkin_cluster_artifacts";
    std::filesystem::remove_all(dir);

    ClusterConfig cfg = testConfig();
    cfg.workload.operationCount = 1000;
    cfg.artifactDir = dir.string();
    cfg.runName = "cluster-test";
    const ClusterResult r = runCluster(cfg);

    ASSERT_FALSE(r.artifacts.empty());
    const std::filesystem::path file =
        std::filesystem::path(r.artifacts.dir) / "cluster.json";
    ASSERT_TRUE(std::filesystem::exists(file));

    std::ifstream in(file);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), clusterResultJson(cfg, r));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace checkin
