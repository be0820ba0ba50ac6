/**
 * @file
 * The five checkpoint execution strategies evaluated in the paper
 * (§IV-A): host-driven Baseline, per-log CoW offload (ISC-A), batched
 * CoW offload (ISC-B), and the batched remapping checkpoint command
 * shared by ISC-C and Check-In (the two differ in the engine's
 * journaling alignment, not in the checkpoint command).
 */

#ifndef CHECKIN_ENGINE_CHECKPOINT_H_
#define CHECKIN_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/engine_config.h"
#include "engine/journal.h"
#include "engine/layout.h"
#include "sim/stats.h"
#include "ssd/ssd.h"

namespace checkin {

/** Executes the journal -> data-area movement of one checkpoint. */
class CheckpointStrategy
{
  public:
    /** Fired when the data movement is complete. */
    using DoneCb = std::function<void(Tick)>;

    CheckpointStrategy(Ssd &ssd, const DiskLayout &layout,
                       const EngineConfig &cfg, StatRegistry &stats)
        : ssd_(ssd), layout_(layout), cfg_(cfg), stats_(stats)
    {
    }

    virtual ~CheckpointStrategy() = default;

    /**
     * Move the latest versions described by @p entries from the
     * journal area to their data-area targets. @p done fires once
     * all movement commands completed; the caller then writes
     * metadata and deletes the logs.
     */
    virtual void run(const std::vector<JmtEntry> &entries,
                     DoneCb done) = 0;

    /** Factory keyed by the evaluated configuration. */
    static std::unique_ptr<CheckpointStrategy>
    create(Ssd &ssd, const DiskLayout &layout, const EngineConfig &cfg,
           StatRegistry &stats);

  protected:
    /** Build the chunk-precise CoW descriptor for one JMT entry. */
    CowPair pairFor(const JmtEntry &entry) const;

    Ssd &ssd_;
    const DiskLayout &layout_;
    const EngineConfig &cfg_;
    StatRegistry &stats_;

    // Per-entry and per-command counters, interned on their first add.
    StatHandle sHostReadSectors_{stats_, "engine.ckptHostReadSectors"};
    StatHandle sHostWriteSectors_{stats_,
                                  "engine.ckptHostWriteSectors"};
    StatHandle sCowCommands_{stats_, "engine.ckptCowCommands"};
    StatHandle sRemapCommands_{stats_, "engine.ckptRemapCommands"};
};

/** Baseline: the host reads journal logs and rewrites the data area. */
class HostCheckpoint : public CheckpointStrategy
{
  public:
    using CheckpointStrategy::CheckpointStrategy;
    void run(const std::vector<JmtEntry> &entries, DoneCb done)
        override;
};

/** ISC-A: one CowSingle command per latest log. */
class SingleCowCheckpoint : public CheckpointStrategy
{
  public:
    using CheckpointStrategy::CheckpointStrategy;
    void run(const std::vector<JmtEntry> &entries, DoneCb done)
        override;
};

/** ISC-B: CowMulti commands carrying batches of descriptors. */
class MultiCowCheckpoint : public CheckpointStrategy
{
  public:
    using CheckpointStrategy::CheckpointStrategy;
    void run(const std::vector<JmtEntry> &entries, DoneCb done)
        override;
};

/** ISC-C / Check-In: batched CheckpointRemap commands. */
class RemapCheckpoint : public CheckpointStrategy
{
  public:
    using CheckpointStrategy::CheckpointStrategy;
    void run(const std::vector<JmtEntry> &entries, DoneCb done)
        override;
};

} // namespace checkin

#endif // CHECKIN_ENGINE_CHECKPOINT_H_
