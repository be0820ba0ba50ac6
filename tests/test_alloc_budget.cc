/**
 * @file
 * Per-op allocation budget of the simulated stack.
 *
 * Every simulated op runs client -> engine -> journal group commit ->
 * SSD/ISCE -> FTL. None of that path may heap-allocate for state the
 * simulation does not keep: callbacks store inline, scratch buffers
 * are reused, counters are interned handles (docs/PERF.md, "Per-op
 * allocation budget"). What remains per op is simulated state, such
 * as journal-mapping-table nodes and the ISCE small-copy buffer.
 *
 * alloc_counter.cc replaces the global operator new/delete with
 * counting wrappers, so these tests build into a binary of their own.
 * Allocations per op are (full run - set-up-only run) / ops, the
 * method perfbench uses for sim.allocs_per_op. The runs are short
 * versions of perfbench's workloads on the Check-In backend. The same
 * counter also gates the event kernel's disarmed step hook.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/cluster.h"
#include "event_storm.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"

namespace checkin {
namespace {

/**
 * Allocations per op of running @p cfg through @p run: a full run
 * minus a set-up-only run (operationCount = 0), over the op count.
 * Also checks that no callback spilled out of its inline storage.
 */
template <typename Config, typename Run>
double
allocsPerOp(const Config &cfg, Run run)
{
    Config setup = cfg;
    setup.workload.operationCount = 0;
    const std::uint64_t fallbacks0 = InlineCallback::heapFallbacks();
    std::uint64_t a0 = allocCount();
    run(setup);
    const double setup_allocs = double(allocCount() - a0);
    a0 = allocCount();
    run(cfg);
    const double full_allocs = double(allocCount() - a0);
    EXPECT_EQ(InlineCallback::heapFallbacks(), fallbacks0)
        << "a callback spilled to the heap";
    return (full_allocs - setup_allocs) /
           double(cfg.workload.operationCount);
}

/** One paper-scale Check-In node with 32 closed-loop clients. */
ExperimentConfig
checkInNode(WorkloadSpec spec, std::uint64_t records, std::uint64_t ops)
{
    ExperimentConfig c = presets::paper();
    c.engine.backend = EngineBackend::CheckIn;
    c.engine.mode = CheckpointMode::CheckIn;
    c.engine.checkpointPolicy = CheckpointPolicyKind::Fixed;
    c.engine.recordCount = records;
    c.threads = 32;
    c.workload = std::move(spec);
    c.workload.seed = 7;
    c.workload.operationCount = ops;
    c.seed = 11;
    return c;
}

double
nodeAllocsPerOp(const ExperimentConfig &cfg)
{
    return allocsPerOp(cfg, [](const ExperimentConfig &c) {
        const RunResult r = runExperiment(c);
        EXPECT_EQ(r.client.opsCompleted, c.workload.operationCount);
    });
}

// Each bound sits 20-40% above the value last measured (0.236, 0.052,
// 0.206 and 0.124 per op, gcc 12 and libstdc++). When the budget was
// introduced the same runs allocated 0.45, 0.07, 0.37 and 0.24 per
// op, and before it 8 to 15 times per op.

TEST(AllocBudget, WriteOnlyClosedLoop)
{
    // The store fits the data cache: GC, remaps and checkpoints run.
    EXPECT_LE(nodeAllocsPerOp(checkInNode(WorkloadSpec::wo(), 4000,
                                          200'000)),
              0.30);
}

TEST(AllocBudget, YcsbBClosedLoop)
{
    // 20k records exceed the data cache: the read path works.
    EXPECT_LE(nodeAllocsPerOp(checkInNode(WorkloadSpec::b(), 20000,
                                          200'000)),
              0.07);
}

TEST(AllocBudget, YcsbAOpenLoopMmppAdaptive)
{
    ExperimentConfig c = checkInNode(WorkloadSpec::a(), 4000, 150'000);
    c.engine.checkpointPolicy = CheckpointPolicyKind::Adaptive;
    TrafficSpec &t = c.traffic;
    t.mode = LoopMode::Open;
    t.process = ArrivalProcess::Mmpp;
    t.offeredOpsPerSec = 7'500.0;
    t.burstMultiplier = 4.0;
    t.meanBaseDwell = 160 * kMsec;
    t.meanBurstDwell = 40 * kMsec;
    TenantSpec tenant;
    tenant.name = "slo2ms";
    tenant.share = 1.0;
    tenant.sloLatency = 2 * kMsec;
    t.tenants = {tenant};
    EXPECT_LE(nodeAllocsPerOp(c), 0.26);
}

TEST(AllocBudget, TwoShardCluster)
{
    ClusterConfig c;
    c.shard = presets::paper();
    c.shard.engine.recordCount = 4000;
    c.shardCount = 2;
    c.clients = 32;
    c.workload = WorkloadSpec::a();
    c.workload.seed = 7;
    c.workload.operationCount = 100'000;
    c.seed = 11;
    EXPECT_LE(allocsPerOp(c,
                          [](const ClusterConfig &cc) {
                              const ClusterResult r = runCluster(cc);
                              EXPECT_EQ(r.router.opsCompleted,
                                        cc.workload.operationCount);
                          }),
              0.16);
}

TEST(AllocBudget, DisarmedStepHookChangesNoDispatchOrAllocation)
{
    // The telemetry sampler installs a step hook; disarmed, it is one
    // always-false compare. The same event storm with and without it
    // must dispatch and allocate identically.
    const KernelRun plain = driveKernel<EventQueue>(200'000, 7);
    const KernelRun hooked =
        driveKernel<EventQueue>(200'000, 7, [](EventQueue &q) {
            q.installStepHook([](void *, Tick) {}, nullptr);
        });
    EXPECT_EQ(plain.dispatched, 200'000u);
    EXPECT_EQ(hooked.dispatched, plain.dispatched);
    EXPECT_EQ(hooked.allocs, plain.allocs);
}

} // namespace
} // namespace checkin
