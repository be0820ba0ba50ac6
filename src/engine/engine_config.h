/**
 * @file
 * Storage-engine (DBMS-side) configuration.
 */

#ifndef CHECKIN_ENGINE_ENGINE_CONFIG_H_
#define CHECKIN_ENGINE_ENGINE_CONFIG_H_

#include <cstdint>
#include <string>

#include "sim/types.h"

namespace checkin {

/**
 * The five evaluated configurations (paper §IV-A).
 *
 * Baseline/IscA/IscB model a conventional page-mapping SSD (the
 * harness pairs them with a 4 KiB mapping unit); IscC and CheckIn add
 * the modified sub-page mapping (512 B default). CheckIn additionally
 * enables sector-aligned journaling in the engine.
 */
enum class CheckpointMode : std::uint8_t
{
    Baseline, //!< host-driven checkpointing through the block interface
    IscA,     //!< in-storage checkpointing, one CoW command per log
    IscB,     //!< in-storage checkpointing, batched multi-CoW commands
    IscC,     //!< in-storage checkpointing with FTL remapping
    CheckIn,  //!< remapping + sector-aligned journaling
};

const char *checkpointModeName(CheckpointMode mode);

/**
 * Which StorageEngine implementation to build (harness/presets.h
 * makeEngine).
 */
enum class EngineBackend : std::uint8_t
{
    CheckIn, //!< checkpoint-journal engine (engine/kv_engine.h)
    Lsm,     //!< LSM engine with ISCE-offloaded compaction (engine/lsm/)
};

const char *engineBackendName(EngineBackend backend);

/**
 * Which checkpoint-trigger policy the engine runs (see
 * engine/checkpoint_policy.h).
 */
enum class CheckpointPolicyKind : std::uint8_t
{
    Fixed,    //!< the paper's interval-OR-journal-bytes trigger
    Adaptive, //!< feedback controller pacing/deferring checkpoints
};

const char *checkpointPolicyName(CheckpointPolicyKind kind);

/** Knobs of the adaptive checkpoint controller (AdaptivePolicy). */
struct AdaptivePolicyConfig
{
    /** Controller evaluation period (replaces the fixed timer). */
    Tick controlInterval = 2 * kMsec;

    /** Hard ceiling: always checkpoint at this fraction of the
     *  active half, whatever the rate terms say. */
    double safetyFraction = 0.80;

    /** Steady-state pacing point, as a fraction of the half. */
    double paceFraction = 0.30;

    /** Safety projection margin: a checkpoint is started when
     *  journalBytes + margin * fillRate * ckptDuration would fill
     *  the active half. */
    double safetyMargin = 1.5;

    /** A burst is fast-rate > burstFactor * slow-rate. */
    double burstFactor = 2.0;

    /** A lull is fast-rate < idleFraction * slow-rate. */
    double idleFraction = 0.5;

    /** Do not checkpoint less than this during a lull (too little
     *  journaled data to be worth a catalog write). */
    std::uint64_t minCheckpointBytes = 2 * kMiB;

    /** Fill-rate EWMA time constants. */
    Tick fastTau = 10 * kMsec;
    Tick slowTau = 200 * kMsec;

    /** Checkpoint-duration EWMA weight (1/N of the new sample). */
    std::uint32_t durationEwmaShift = 2;

    /** Seed for the duration EWMA before any checkpoint ran. */
    Tick initialCheckpointDuration = 20 * kMsec;
};

struct EngineConfig
{
    /** Storage-engine backend. */
    EngineBackend backend = EngineBackend::CheckIn;

    CheckpointMode mode = CheckpointMode::CheckIn;

    /** Number of keys in the store. */
    std::uint64_t recordCount = 20'000;

    /** Maximum value size; determines the per-key data-area slot. */
    std::uint32_t maxValueBytes = 4096;

    /** Checkpoint-trigger policy (Fixed reproduces the paper's
     *  interval/threshold rule from the two fields below). */
    CheckpointPolicyKind checkpointPolicy =
        CheckpointPolicyKind::Fixed;

    /** Adaptive-controller knobs (used when checkpointPolicy is
     *  Adaptive; ignored by Fixed). */
    AdaptivePolicyConfig adaptive;

    /** Checkpoint timer period (0 disables the timer). */
    Tick checkpointInterval = 200 * kMsec;

    /**
     * Journal-bytes threshold that also triggers a checkpoint
     * (paper: 200 journal files of 100 MiB; scaled to our device).
     */
    std::uint64_t checkpointJournalBytes = 24 * kMiB;

    /** Size of each of the two journal halves. */
    std::uint64_t journalHalfBytes = 32 * kMiB;

    /** Compression ratio applied to values larger than the unit. */
    double compressRatio = 0.85;

    /**
     * Merge PARTIAL journal records into shared MERGED units
     * (Algorithm 2's MergePartialLogs). Disabling (ablation) places
     * each partial record alone in a padded unit.
     */
    bool mergePartials = true;

    /** Host-side CPU latency added to every query. */
    Tick hostCpuPerQuery = 1 * kUsec;

    /** Max updates flushed in one group commit. */
    std::uint32_t maxCommitGroup = 256;

    /** Max CoW descriptors per batched command (ISC-B and up). */
    std::uint32_t maxPairsPerCommand = 512;

    /**
     * When true, query processing is locked while a checkpoint runs
     * (used to measure pure checkpoint time, paper Fig 10).
     */
    bool lockQueriesDuringCheckpoint = false;

    /** True when the engine sector/unit-aligns journal logs. */
    bool
    alignedJournaling() const
    {
        return mode == CheckpointMode::CheckIn;
    }
};

} // namespace checkin

#endif // CHECKIN_ENGINE_ENGINE_CONFIG_H_
