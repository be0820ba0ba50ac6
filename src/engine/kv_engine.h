/**
 * @file
 * The storage engine (paper Fig 5 host side): query interface,
 * key-value mapping, journaling + checkpointing orchestration, and
 * crash recovery.
 */

#ifndef CHECKIN_ENGINE_KV_ENGINE_H_
#define CHECKIN_ENGINE_KV_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "engine/checkpoint.h"
#include "engine/checkpoint_policy.h"
#include "engine/engine_config.h"
#include "engine/journal.h"
#include "engine/keymap.h"
#include "engine/layout.h"
#include "engine/storage_engine.h"
#include "obs/attribution.h"
#include "obs/flight_recorder.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/sim_context.h"
#include "sim/stats.h"
#include "ssd/ssd.h"

namespace checkin {

/**
 * The checkpoint-journal storage engine (paper Fig 5 host side) —
 * the `checkin` StorageEngine backend.
 *
 * Construct, then call either load() (fresh store) or recover()
 * (rebuild from an existing device after a crash), then start() to
 * arm the checkpoint timer, then issue queries.
 */
class KvEngine : public StorageEngine
{
  public:
    KvEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg);

    /**
     * Populate the data area and catalog with initial values
     * (version 1). @p size_of gives each key's value size.
     */
    void load(const std::function<std::uint32_t(std::uint64_t)>
                  &size_of) override;

    /**
     * Rebuild the engine state from the device: restore the keymap
     * from the catalog, replay journal logs newer than the catalog,
     * checkpoint them, and leave a clean store.
     */
    RecoveryInfo recover() override;

    /** Arm the periodic checkpoint timer (if configured). */
    void start() override;

    // ------------------------------------------------------------------
    // Query interface
    // ------------------------------------------------------------------
    void get(std::uint64_t key, QueryCb cb) override;
    void update(std::uint64_t key, std::uint32_t value_bytes,
                QueryCb cb) override;
    void readModifyWrite(std::uint64_t key, std::uint32_t value_bytes,
                         QueryCb cb) override;
    /** Delete a key: journals a tombstone; the next checkpoint trims
     *  the data-area slot and records the deletion in the catalog. */
    void erase(std::uint64_t key, QueryCb cb) override;

    /**
     * Atomic multi-key transaction (paper Fig 7: the engine groups
     * journal logs into a transaction): every operation journals in
     * one group commit, so a crash persists all of them or none.
     * @p cb fires once, after the whole transaction is durable.
     */
    void updateBatch(std::vector<BatchOp> ops, QueryCb cb) override;
    /** Range scan over up to @p count consecutive keys. Data-area
     *  resident keys are fetched as one sequential read; journal-
     *  resident keys are fetched individually. */
    void scan(std::uint64_t start_key, std::uint32_t count,
              QueryCb cb) override;

    // ------------------------------------------------------------------
    // Checkpoint control
    // ------------------------------------------------------------------
    /** Start a checkpoint now if possible, else mark one pending.
     *  @p reason is recorded in the checkpoint phase timeline. */
    void requestCheckpoint(obs::CkptTrigger reason =
                               obs::CkptTrigger::Manual) override;
    bool
    checkpointInProgress() const override
    {
        return ckptInProgress_;
    }
    /** Completed checkpoint durations, in ticks. */
    const std::vector<Tick> &
    checkpointDurations() const override
    {
        return ckptDurations_;
    }

    double
    journalFillRate() const override
    {
        return policy_->fillRateBytesPerSec();
    }

    /** The trigger policy driving this engine's checkpoints. */
    const CheckpointPolicy &checkpointPolicy() const
    {
        return *policy_;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------
    const DiskLayout &layout() const { return layout_; }
    const Keymap &keymap() const { return keymap_; }
    JournalManager &journal() { return journal_; }
    StatRegistry &stats() override { return stats_; }
    const StatRegistry &stats() const override { return stats_; }
    const EngineConfig &config() const override { return cfg_; }

    std::uint32_t
    committedVersion(std::uint64_t key) const override
    {
        return keymap_[key].version;
    }

    /**
     * Functional full-store verification: read every key's committed
     * value through peek and check its content tokens.
     * @return number of keys verified.
     * @throws std::runtime_error on any content mismatch.
     */
    std::uint64_t verifyAllKeys() const override;

  private:
    struct ParsedLog
    {
        std::uint64_t key;
        std::uint32_t version;
        std::uint8_t half;
        std::uint64_t chunkOff;
        std::uint32_t chunks;
    };

    void doGet(std::uint64_t key, QueryCb cb);
    void doUpdate(std::uint64_t key, std::uint32_t value_bytes,
                  QueryCb cb);
    void doErase(std::uint64_t key, QueryCb cb);
    void doScan(std::uint64_t start_key, std::uint32_t count,
                QueryCb cb);
    /** Trim the data-area slots of deleted keys (fan-out). */
    void trimTombstones(const std::vector<JmtEntry> &tombs,
                        std::function<void(Tick)> cb);
    /** Defer @p task (moving it out) while checkpoint-locked; true
     *  when deferred. */
    bool maybeDefer(InlineCallback &task);
    void drainDeferred();

    void onCheckpointTimer();
    /** Current trigger-policy inputs. */
    PolicySignals policySignals() const;
    /** Feed the policy an append commit; maybe trigger. */
    void noteJournalAppend();
    void startCheckpoint();
    void onStrategyDone(const std::vector<JmtEntry> &entries,
                        std::uint8_t half, Tick t);
    /**
     * Persist catalog entries for @p entries (their data-area state
     * changed) and fire @p cb when all metadata writes completed.
     */
    void writeCatalog(const std::vector<JmtEntry> &entries,
                      std::function<void(Tick)> cb);
    void deleteLogs(std::uint8_t half, std::function<void(Tick)> cb);
    void finishCheckpoint(std::uint8_t half, Tick t);

    /** Verify a committed key's bytes at its current location. */
    void verifyKeyContent(std::uint64_t key, const KeyState &st) const;

    /** Parse all journal records out of @p half (recovery). */
    std::vector<ParsedLog> parseJournalHalf(std::uint8_t half) const;

    EventQueue &eq_;
    Ssd &ssd_;
    EngineConfig cfg_;
    DiskLayout layout_;
    Keymap keymap_;
    StatRegistry stats_;
    JournalManager journal_;
    std::unique_ptr<CheckpointStrategy> strategy_;
    std::unique_ptr<CheckpointPolicy> policy_;
    /** Telemetry sampler of the run (nullptr: telemetry off). */
    obs::TelemetrySampler *telem_ = nullptr;

    bool ckptInProgress_ = false;
    bool pendingCkptRequest_ = false;
    Tick ckptStart_ = 0;
    Tick ckptDataDone_ = 0; //!< data movement (strategy+trims) end
    Tick ckptMetaDone_ = 0; //!< catalog persistence end
    std::vector<Tick> ckptDurations_;
    /** In-flight checkpoint's phase-timeline record (attribution);
     *  device counters hold their start-of-checkpoint baselines
     *  until finishCheckpoint() turns them into deltas. */
    obs::CheckpointStat ckptRec_;
    std::uint64_t ckptSeq_ = 0;
    std::deque<InlineCallback> deferred_;

    // Per-op and per-entry counters, interned on their first add.
    StatHandle sGets_{stats_, "engine.gets"};
    StatHandle sGetMisses_{stats_, "engine.getMisses"};
    StatHandle sGetsFromJournal_{stats_, "engine.getsFromJournal"};
    StatHandle sUpdates_{stats_, "engine.updates"};
    StatHandle sUpdateBytes_{stats_, "engine.updateBytes"};
    StatHandle sDeletes_{stats_, "engine.deletes"};
    StatHandle sBatchCommits_{stats_, "engine.batchCommits"};
    StatHandle sScans_{stats_, "engine.scans"};
    StatHandle sScanSequentialSectors_{stats_,
                                       "engine.scanSequentialSectors"};
    StatHandle sTombstoneTrims_{stats_, "engine.ckptTombstoneTrims"};
    StatHandle sCatalogSectors_{stats_,
                                "engine.catalogSectorsWritten"};
};

} // namespace checkin

#endif // CHECKIN_ENGINE_KV_ENGINE_H_
