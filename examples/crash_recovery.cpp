/**
 * @file
 * Crash-recovery walkthrough: run a write burst, cut power mid-flight
 * (host memory is lost; the device flushes its volatile buffers on
 * capacitor power and its firmware rebuilds the map), recover the
 * engine from the device, and show what was recovered.
 */

#include <cstdio>

#include "harness/node.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "sim/rng.h"

int
main()
{
    using namespace checkin;

    SimContext ctx;
    EventQueue &eq = ctx.events();
    // Check-In class device: 512 B mapping unit.
    ExperimentConfig cfg;
    cfg.nand.blocksPerPlane = 64;
    cfg.nand.pagesPerBlock = 64;
    cfg.engine.mode = CheckpointMode::CheckIn;
    cfg.engine.recordCount = 2000;
    cfg.engine.journalHalfBytes = 4 * kMiB;
    cfg.engine.checkpointJournalBytes = 2 * kMiB;
    cfg.engine.checkpointInterval = 0; // manual checkpoints

    StorageNode node(ctx, cfg);
    node.load([](std::uint64_t) { return 512u; });
    std::printf("loaded %u keys at version 1\n", 2000);

    // Phase 1: committed work, then a checkpoint.
    Rng rng(7);
    std::uint64_t committed = 0;
    for (int i = 0; i < 1500; ++i) {
        node.engine().update(
            rng.nextBounded(2000),
            std::uint32_t(128 * (1 + rng.nextBounded(4))),
            [&](const QueryResult &) { ++committed; });
    }
    eq.run();
    node.engine().requestCheckpoint();
    eq.run();
    std::printf("phase 1: %llu updates committed, checkpoint done\n",
                (unsigned long long)committed);

    // Phase 2: more updates, but CRASH while they are in flight.
    for (int i = 0; i < 1000; ++i) {
        node.engine().update(
            rng.nextBounded(2000),
            std::uint32_t(128 * (1 + rng.nextBounded(4))),
            [&](const QueryResult &) { ++committed; });
    }
    int steps = 0;
    while (steps++ < 400 && eq.step()) {
    }
    std::printf("phase 2: power cut at t=%.3f ms with %llu total "
                "commits acknowledged\n",
                double(eq.now()) / double(kMsec),
                (unsigned long long)committed);

    // Host memory and pending host work are gone, the device runs
    // SPOR, and a fresh engine rebuilds from catalog + journal.
    const RecoveryInfo info = node.powerCut().recovery;
    std::printf("recovered: %llu keys from catalog, %llu journal "
                "logs replayed, %.3f ms simulated recovery time\n",
                (unsigned long long)info.catalogKeys,
                (unsigned long long)info.replayedLogs,
                double(info.duration) / double(kMsec));

    const std::uint64_t verified = node.engine().verifyAllKeys();
    std::printf("verified %llu keys after recovery — store is "
                "consistent\n",
                (unsigned long long)verified);

    // And it keeps serving.
    bool ok = false;
    node.engine().get(42, [&](const QueryResult &r) { ok = r.found; });
    eq.run();
    std::printf("post-recovery GET(42): %s\n",
                ok ? "found" : "missing");
    return ok ? 0 : 1;
}
