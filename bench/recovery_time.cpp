/**
 * @file
 * Extension experiment — crash-recovery time vs accumulated journal
 * (paper §III-G describes the recovery flow; no figure is given, so
 * this records the behaviour of our implementation): a power cut
 * (device SPOR + firmware rebuild), then catalog load + journal scan
 * + replay-checkpoint, for every configuration.
 */

#include <cstdio>

#include "bench_common.h"
#include "harness/node.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"

using namespace checkin;
using namespace checkin::bench;

namespace {

struct Probe
{
    double recoveryMs = 0.0;
    std::uint64_t replayed = 0;
};

Probe
measure(CheckpointMode mode, std::uint64_t updates)
{
    ExperimentConfig cfg = presets::small();
    cfg.engine.mode = mode;
    cfg.engine.checkpointInterval = 0;
    cfg.engine.checkpointJournalBytes = 1 * kGiB; // no auto checkpoints
    SimContext ctx;
    StorageNode node(ctx, cfg);
    node.load([](std::uint64_t) { return 384u; });

    Rng rng(3);
    for (std::uint64_t i = 0; i < updates; ++i) {
        node.engine().update(
            rng.nextBounded(cfg.engine.recordCount),
            std::uint32_t(128 * (1 + rng.nextBounded(4))),
            [](const QueryResult &) {});
    }
    ctx.events().run();

    // Power cut, then recover on a fresh engine.
    const RecoveryInfo info = node.powerCut().recovery;
    node.engine().verifyAllKeys();
    return Probe{double(info.duration) / double(kMsec),
                 info.replayedLogs};
}

} // namespace

int
main()
{
    printConfigOnce(presets::paper());
    printHeader("Recovery (extension)",
                "crash-recovery time vs un-checkpointed updates");
    Table t({"updates", "mode", "replayed logs", "recovery ms"});
    for (std::uint64_t updates : {2'000ULL, 8'000ULL, 24'000ULL}) {
        for (CheckpointMode mode :
             {CheckpointMode::Baseline, CheckpointMode::IscC,
              CheckpointMode::CheckIn}) {
            const Probe p = measure(mode, updates);
            t.addRow({Table::num(updates), modeName(mode),
                      Table::num(p.replayed),
                      Table::num(p.recoveryMs, 2)});
        }
    }
    std::printf("%s", t.render().c_str());
    printPaperNote("recovery = catalog read + journal scan + replay "
                   "checkpoint (paper §III-G); remapping modes "
                   "replay by remapping, so recovery is cheaper.");
    return 0;
}
