/**
 * @file
 * Extension experiment — latency timeline around checkpoints.
 *
 * Renders what the paper's Fig 3(c) describes: per-interval average
 * query latency over the run, with checkpoint windows marked, for the
 * baseline and Check-In. The baseline shows tall latency plateaus at
 * every checkpoint; Check-In's timeline stays flat.
 */

#include <cstdio>

#include "bench_common.h"
#include "harness/node.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "sim/timeseries.h"

using namespace checkin;
using namespace checkin::bench;

namespace {

void
runTimeline(CheckpointMode mode)
{
    ExperimentConfig cfg = presets::paper();
    cfg.engine.mode = mode;
    cfg.workload = WorkloadSpec::a();
    cfg.workload.operationCount = 60'000;
    cfg.threads = 64;
    cfg.engine.checkpointInterval = 100 * kMsec;
    cfg.engine.checkpointJournalBytes = 64 * kMiB; // timer-driven

    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node(ctx, cfg);
    StorageEngine &engine = node.engine();
    WorkloadGenerator sizer(cfg.workload, cfg.engine.recordCount);
    node.load([&sizer](std::uint64_t k) { return sizer.initialSize(k); });
    const Tick t0 = eq.now();

    const Tick bucket = 20 * kMsec;
    TimeSeries lat(bucket);
    TimeSeries ckpt(bucket);
    ClientPool pool(ctx, engine, cfg.workload, TrafficSpec{}, cfg.threads);
    pool.setSampler([&](Tick issued, Tick done, bool during, bool) {
        lat.record(done - t0, done - issued);
        if (during)
            ckpt.record(done - t0, 1);
    });
    engine.start();
    pool.start();
    while (!pool.done() && eq.step()) {
    }

    printHeader("Timeline",
                (std::string(checkpointModeName(mode)) +
                 " — avg latency per 20 ms window ('#' ~ 250 us, "
                 "'C' = checkpoint active)")
                    .c_str());
    const auto [first, last] = lat.activeRange();
    for (std::size_t i = first; i <= last && i < first + 40; ++i) {
        const auto &b = lat.buckets()[i];
        const double avg_us = b.mean() / 1e3;
        int bars = int(avg_us / 250.0);
        bars = std::min(bars, 60);
        const bool in_ckpt =
            i < ckpt.buckets().size() && ckpt.buckets()[i].count > 0;
        std::printf("%6.0f ms |%c %8.0f us |", double(i * bucket) /
                                                   double(kMsec),
                    in_ckpt ? 'C' : ' ', avg_us);
        for (int k = 0; k < bars; ++k)
            std::printf("#");
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    printConfigOnce(presets::paper());
    runTimeline(CheckpointMode::Baseline);
    runTimeline(CheckpointMode::CheckIn);
    printPaperNote("the baseline's latency plateaus coincide with "
                   "checkpoint windows (reads ~4x, writes ~21x the "
                   "average in the paper's Fig 3c); Check-In's "
                   "timeline stays flat.");
    return 0;
}
