#include "harness/crash_oracle.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "harness/node.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"

namespace checkin {

namespace {

/** [start, end) interval during which a checkpoint was running. */
struct CkptWindow
{
    Tick start = 0;
    Tick end = 0;
};

/** Deterministic value size for a key's next version. */
std::uint32_t
valueBytes(std::uint64_t key, std::uint32_t version)
{
    return 128u * (1u + std::uint32_t(mix64(key * 31 + version) % 4));
}

/**
 * One seeded run of the oracle workload: a storage node + a paced
 * stream of updates/deletes whose acknowledgements are recorded as
 * (key -> committed version).
 */
class OracleRun
{
  public:
    OracleRun(const OracleConfig &cfg)
        : cfg_(cfg),
          ctx_(cfg.seed, "crash-oracle"),
          scope_(ctx_),
          node_(ctx_, cfg.base)
    {
        node_.load([&cfg](std::uint64_t key) {
            return 128u *
                   (1u + std::uint32_t(mix64(key ^ cfg.seed) % 4));
        });
        loadEnd_ = ctx_.now();
        issueOps();
        node_.engine().start();
    }

    StorageEngine &engine() { return node_.engine(); }
    FaultPlan &plan() { return node_.faults(); }
    Tick loadEnd() const { return loadEnd_; }

    const std::map<std::uint64_t, std::uint32_t> &
    committed() const
    {
        return committed_;
    }

    /**
     * Probe to completion (no crash): returns at the tick where all
     * ops are acknowledged and no checkpoint is running, recording
     * every checkpoint window on the way.
     */
    Tick
    probe(std::vector<CkptWindow> *windows)
    {
        EventQueue &eq = ctx_.events();
        bool in = false;
        Tick start = 0;
        while (acks_ < cfg_.ops || engine().checkpointInProgress()) {
            if (!eq.step())
                throw std::logic_error(
                    "oracle probe drained before all ops acked");
            const bool now_in = engine().checkpointInProgress();
            if (now_in != in) {
                in = now_in;
                if (in) {
                    start = eq.now();
                } else if (windows != nullptr) {
                    windows->push_back(CkptWindow{start, eq.now()});
                }
            }
        }
        return eq.now();
    }

    /** Step until simulated time would pass @p crash_tick. */
    void
    runUntil(Tick crash_tick)
    {
        EventQueue &eq = ctx_.events();
        while (eq.nextEventTick() != kInvalidTick &&
               eq.nextEventTick() <= crash_tick) {
            eq.step();
        }
    }

    /**
     * Cut power at @p crash_tick and recover (StorageNode::powerCut),
     * folding the cut into the fault schedule digest.
     * @return true when the cut landed mid-checkpoint.
     */
    bool
    crashAndRecover(Tick crash_tick)
    {
        const bool mid = engine().checkpointInProgress();
        plan().recordPowerLoss(crash_tick);
        node_.powerCut();
        return mid;
    }

  private:
    void
    issueOps()
    {
        EventQueue &eq = ctx_.events();
        Rng rng(mix64(cfg_.seed ^ 0x0AC1E));
        for (std::uint32_t i = 0; i < cfg_.ops; ++i) {
            const std::uint64_t key =
                rng.nextBounded(cfg_.base.engine.recordCount);
            const bool del = i % 8 == 7;
            const Tick at = loadEnd_ + Tick(i + 1) * cfg_.opGap;
            eq.schedule(at, [this, key, del] {
                auto ack = [this, key](const QueryResult &) {
                    committed_[key] = engine().committedVersion(key);
                    ++acks_;
                };
                if (del)
                    engine().erase(key, std::move(ack));
                else
                    engine().update(
                        key,
                        valueBytes(key, engine().committedVersion(key)),
                        std::move(ack));
            });
            // Guaranteed checkpoint activity even when the timer is
            // long relative to the run: one forced checkpoint at a
            // third of the way, one at two thirds.
            if (i == cfg_.ops / 3 || i == 2 * cfg_.ops / 3) {
                eq.schedule(at, [this] { engine().requestCheckpoint(); });
            }
        }
    }

    OracleConfig cfg_;
    SimContext ctx_;
    SimContextScope scope_;
    StorageNode node_;
    Tick loadEnd_ = 0;
    std::uint32_t acks_ = 0;
    std::map<std::uint64_t, std::uint32_t> committed_;
};

} // namespace

OracleReport
runCrashOracle(const OracleConfig &cfg)
{
    OracleReport report;

    // Probe: same seed as every replay, run to completion, noting
    // the end tick and every checkpoint window.
    std::vector<CkptWindow> windows;
    Tick end_tick;
    {
        OracleRun probe_run(cfg);
        end_tick = probe_run.probe(&windows);
        if (end_tick <= probe_run.loadEnd())
            throw std::logic_error("oracle probe made no progress");
    }

    Rng crash_rng(mix64(cfg.seed ^ 0xC7A5));
    for (std::uint32_t i = 0; i < cfg.crashPoints; ++i) {
        OracleRun run(cfg);
        const Tick lo = run.loadEnd() + 1;
        Tick crash_tick;
        if (i % 2 == 1 && !windows.empty()) {
            // Odd replays aim inside a checkpoint window so the cut
            // interrupts CoW/remap work mid-flight.
            const CkptWindow &w =
                windows[(i / 2) % windows.size()];
            crash_tick =
                w.start + crash_rng.nextBounded(
                              std::max<Tick>(1, w.end - w.start));
        } else {
            crash_tick =
                lo + crash_rng.nextBounded(
                         std::max<Tick>(1, end_tick - lo));
        }
        run.runUntil(crash_tick);
        report.ackedWrites += run.committed().size();
        // Snapshot the acks; crashAndRecover replaces the engine.
        const auto acked = run.committed();
        if (run.crashAndRecover(crash_tick))
            ++report.midCheckpointCrashes;
        for (const auto &[key, version] : acked) {
            if (run.engine().committedVersion(key) < version)
                ++report.lostWrites;
        }
        try {
            run.engine().verifyAllKeys();
        } catch (const std::runtime_error &) {
            ++report.tornRecords;
        }
        report.faultDigest =
            mix64(report.faultDigest ^ run.plan().digest());
        ++report.crashesRun;
    }
    return report;
}

} // namespace checkin
