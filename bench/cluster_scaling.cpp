/**
 * @file
 * Cluster scaling bench: simulation throughput (DES events per
 * wall-clock second) and client-visible tail latency (p99.9) versus
 * shard count, for each cross-shard checkpoint coordination policy.
 *
 * The interesting comparison is the policy column at fixed shard
 * count: Synchronized stalls every shard at once (worst cluster-wide
 * p99.9 spike, but aligned), Staggered spreads the stalls so at most
 * one shard pauses at a time, Independent lets the timers drift.
 *
 * A second axis times the synchronizer itself: the independent
 * policy at 4 and 16 shards on {1, 2, 4} synchronizer threads, with
 * a workload long enough (400 k ops) that window execution dominates
 * the wall time. Simulated results are identical across that axis;
 * only wall time and events/sec move.
 *
 * Writes BENCH_cluster.json into $CHECKIN_BENCH_DIR (default: the
 * working directory); every run records its synchronizer thread
 * count. `--quick` shrinks the per-run workload for CI; both axes
 * keep all their points in both modes.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "obs/json.h"

using namespace checkin;

namespace {

constexpr std::uint32_t kShardCounts[] = {1, 4, 16};
constexpr CkptCoordination kPolicies[] = {
    CkptCoordination::Independent, CkptCoordination::Synchronized,
    CkptCoordination::Staggered};

/** Synchronizer thread axis, run at kThreadAxisShards. */
constexpr unsigned kSyncThreads[] = {1, 2, 4};
constexpr std::uint32_t kThreadAxisShards[] = {4, 16};

struct BenchRun
{
    std::string label;
    std::uint32_t shards;
    unsigned syncThreads;
    const char *policy;
    ClusterResult result;
    double wallSeconds;
};

ClusterConfig
benchConfig(bool quick, std::uint32_t shards, CkptCoordination policy,
            unsigned threads, std::uint64_t ops)
{
    ClusterConfig cfg = presets::cluster();
    cfg.shardCount = shards;
    cfg.coordination = policy;
    cfg.syncThreads = threads;
    cfg.shard.engine.recordCount = quick ? 500 : 2000;
    cfg.workload.operationCount = ops;
    // Quick runs span only a few simulated ms; shorten the
    // checkpoint cadence so every policy still checkpoints.
    if (quick)
        cfg.shard.engine.checkpointInterval = 1 * kMsec;
    return cfg;
}

BenchRun
timedRun(const ClusterConfig &cfg, std::string label)
{
    const auto t0 = std::chrono::steady_clock::now();
    ClusterResult r = runCluster(cfg);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return BenchRun{std::move(label), cfg.shardCount, cfg.syncThreads,
                    ckptCoordinationName(cfg.coordination), std::move(r),
                    secs};
}

double
eventsPerSec(const BenchRun &r)
{
    return r.wallSeconds > 0.0
               ? double(r.result.totalEvents) / r.wallSeconds
               : 0.0;
}

void
writeReport(const std::vector<BenchRun> &runs)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.kv("bench", "cluster");
    w.key("runs").beginArray();
    for (const BenchRun &r : runs) {
        std::uint64_t checkpoints = 0;
        for (const ShardSummary &s : r.result.shards)
            checkpoints += s.checkpoints;
        w.newline().beginObject();
        w.kv("label", r.label);
        w.key("result").beginObject();
        w.kv("checkpoints", checkpoints);
        w.kv("coordination", r.policy);
        w.kv("eventsPerSec", eventsPerSec(r));
        w.kv("meanUs",
             r.result.router.all.mean() / double(kUsec));
        w.kv("opsCompleted", r.result.router.opsCompleted);
        w.kv("p50Us", double(r.result.router.all.quantile(0.5)) /
                          double(kUsec));
        w.kv("p999Us", double(r.result.router.all.quantile(0.999)) /
                           double(kUsec));
        w.kv("shardCount", std::uint64_t(r.shards));
        w.kv("simSpanTicks", r.result.simSpan);
        w.kv("syncThreads", std::uint64_t(r.syncThreads));
        w.kv("throughputOps", r.result.throughputOps);
        w.kv("totalEvents", r.result.totalEvents);
        w.kv("wallSeconds", r.wallSeconds);
        w.endObject();
        w.endObject();
    }
    w.newline().endArray();
    w.endObject();
    os << "\n";

    const char *dir = std::getenv("CHECKIN_BENCH_DIR");
    if (dir != nullptr) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
    }
    const std::string path =
        std::string(dir ? dir : ".") + "/BENCH_cluster.json";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
        std::exit(1);
    }
    f << os.str();
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    std::printf("cluster scaling — events/sec and p99.9 vs shard "
                "count vs checkpoint coordination%s\n",
                quick ? " (quick)" : "");

    std::vector<BenchRun> runs;
    // The policy grid runs on every core (CHECKIN_JOBS overrides).
    const unsigned grid_threads = resolveJobs(0);
    Table table({"shards", "policy", "ops", "events/sec", "p50 us",
                 "p99.9 us", "ckpts", "wall s"});
    for (const std::uint32_t shards : kShardCounts) {
        for (const CkptCoordination policy : kPolicies) {
            // The cluster-total op count is fixed across shard
            // counts so rows compare the same client workload.
            BenchRun run = timedRun(
                benchConfig(quick, shards, policy, grid_threads,
                            quick ? 2000 : 16000),
                std::string("shards") + std::to_string(shards) + "/" +
                    ckptCoordinationName(policy));
            const ClusterResult &r = run.result;
            std::uint64_t checkpoints = 0;
            for (const ShardSummary &s : r.shards)
                checkpoints += s.checkpoints;
            table.addRow(
                {Table::num(std::uint64_t(shards)), run.policy,
                 Table::num(r.router.opsCompleted),
                 Table::num(eventsPerSec(run), 0),
                 Table::num(double(r.router.all.quantile(0.5)) /
                                double(kUsec),
                            1),
                 Table::num(double(r.router.all.quantile(0.999)) /
                                double(kUsec),
                            1),
                 Table::num(checkpoints), Table::num(run.wallSeconds, 2)});
            runs.push_back(std::move(run));
        }
    }
    std::printf("\n%s\n", table.render().c_str());

    Table threads_table({"shards", "threads", "ops", "events/sec",
                         "wall s", "vs 1 thread"});
    for (const std::uint32_t shards : kThreadAxisShards) {
        double serial_wall = 0.0;
        for (const unsigned threads : kSyncThreads) {
            BenchRun run = timedRun(
                benchConfig(quick, shards,
                            CkptCoordination::Independent, threads,
                            quick ? 2000 : 400000),
                std::string("shards") + std::to_string(shards) +
                    "/independent/threads" + std::to_string(threads));
            if (threads == 1)
                serial_wall = run.wallSeconds;
            threads_table.addRow(
                {Table::num(std::uint64_t(shards)),
                 Table::num(std::uint64_t(threads)),
                 Table::num(run.result.router.opsCompleted),
                 Table::num(eventsPerSec(run), 0),
                 Table::num(run.wallSeconds, 2),
                 Table::num(run.wallSeconds > 0.0
                                ? serial_wall / run.wallSeconds
                                : 0.0,
                            2)});
            runs.push_back(std::move(run));
        }
    }
    std::printf("sync-thread scaling (independent)\n%s\n",
                threads_table.render().c_str());

    writeReport(runs);
    return 0;
}
