/**
 * @file
 * Journaling layer: write-ahead logging with group commit, the
 * journal mapping table (JMT), two ping-pong journal halves, and the
 * Check-In block aligner (paper Algorithm 2).
 *
 * Conventional mode packs journal records back-to-back at 128 B chunk
 * granularity (so commits rewrite the partially-filled tail sector —
 * the misalignment the paper attacks). Aligned mode formats every
 * record to mapping-unit buckets, bin-packs PARTIAL records into
 * MERGED units, and always writes whole fresh units.
 */

#ifndef CHECKIN_ENGINE_JOURNAL_H_
#define CHECKIN_ENGINE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "engine/engine_config.h"
#include "engine/layout.h"
#include "obs/attribution.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/ring_queue.h"
#include "sim/sim_context.h"
#include "sim/stats.h"
#include "ssd/ssd.h"

namespace checkin {

/** Journal record formatting classes (Algorithm 2). */
enum class LogType : std::uint8_t
{
    Raw,     //!< conventional chunk-packed record (no alignment)
    Full,    //!< aligned record occupying whole mapping units
    Partial, //!< sub-unit record alone in its (padded) unit
    Merged,  //!< sub-unit record sharing a unit with others
};

/** One journal mapping table entry (latest log of a key). */
struct JmtEntry
{
    std::uint64_t key = 0;
    std::uint32_t version = 0;
    std::uint8_t half = 0;
    /** Absolute chunk offset of the record inside the half. */
    std::uint64_t chunkOff = 0;
    /** Stored length in chunks (after formatting/compression). */
    std::uint32_t chunks = 0;
    /** Original payload bytes of the update. */
    std::uint32_t payloadBytes = 0;
    LogType type = LogType::Raw;
};

/** Formatting result of Algorithm 2's Update() for one record. */
struct FormattedSize
{
    std::uint32_t chunks = 0;
    LogType type = LogType::Raw;
};

/**
 * Pure function implementing Algorithm 2's size replacement: values
 * above the mapping unit are compressed and unit-aligned (FULL);
 * values at or below it are bucketed to unit/4 steps (FULL at exactly
 * one unit, PARTIAL otherwise). Conventional mode stores the raw
 * chunk count (Raw).
 */
FormattedSize formatLogSize(std::uint32_t value_bytes,
                            std::uint32_t unit_bytes, bool aligned,
                            double compress_ratio);

/** Write-ahead journal with group commit over an Ssd. */
class JournalManager
{
  public:
    /** Fired when a record's group commit completes. */
    using CommitCb = InlineFunction<void(const JmtEntry &, Tick)>;
    /** Fired when the journal wants a checkpoint (space pressure). */
    using PressureCb = std::function<void()>;

    JournalManager(SimContext &ctx, Ssd &ssd,
                   const DiskLayout &layout,
                   const EngineConfig &cfg, StatRegistry &stats);

    void setPressureCallback(PressureCb cb)
    {
        onPressure_ = std::move(cb);
    }

    /**
     * Append one update's log; @p cb fires when the containing group
     * commit is durable on the device.
     */
    void append(std::uint64_t key, std::uint32_t version,
                std::uint32_t value_bytes, CommitCb cb);

    /** One record of a multi-record transaction. */
    struct BatchRecord
    {
        std::uint64_t key;
        std::uint32_t version;
        std::uint32_t valueBytes; //!< 0 = tombstone
        CommitCb cb;
    };

    /**
     * Append a transaction: all records are guaranteed to flush in
     * the same group commit (one atomic device write, paper Fig 7),
     * so a crash either persists all of them or none.
     */
    void appendBatch(std::vector<BatchRecord> records);

    /** Half currently receiving logs. */
    std::uint8_t activeHalf() const { return active_; }

    /** True when the non-active half is free for a switch. */
    bool
    otherHalfFree() const
    {
        return !halfBusy_[active_ ^ 1];
    }

    /**
     * Begin a checkpoint: snapshot and clear the JMT, mark the active
     * half as being checkpointed, and switch logging to the other
     * (free) half. The caller owns checkpointing the returned entries
     * and must call onHalfFreed() once the logs are deleted.
     */
    std::vector<JmtEntry> beginCheckpoint();

    /** The checkpointed half's logs were deleted on the device. */
    void onHalfFreed(std::uint8_t half);

    /** Bytes of logs accumulated in the active half. */
    std::uint64_t
    activeJournalBytes() const
    {
        return appendChunk_[active_] * kChunkBytes;
    }

    /** Entries currently in the JMT (latest versions). */
    std::size_t jmtSize() const { return jmt_.size(); }

    /** Total logs appended to the active half since its last reset. */
    std::uint64_t
    logsInActiveHalf() const
    {
        return logsAppended_[active_];
    }

    /** True when appends are blocked waiting for journal space. */
    bool stalled() const { return stalledForSpace_; }

    /** Updates buffered but not yet committed (lost on crash). */
    std::size_t pendingCount() const { return buffer_.size(); }

    /** True while a group-commit write is outstanding. */
    bool flushInFlight() const { return flushInFlight_; }

    /**
     * Run @p cb as soon as no flush is outstanding, suppressing the
     * next flush until then. Used before switching halves so every
     * record of the old half is in the JMT when it is snapshotted.
     */
    void quiesce(std::function<void()> cb);

  private:
    struct Pending
    {
        std::uint64_t key = 0;
        std::uint32_t version = 0;
        std::uint32_t valueBytes = 0;
        CommitCb cb;
        /** Records in this batch (set on the head; 1 for singles). */
        std::uint32_t batchLen = 1;
        /** Latency-attribution op the record belongs to. */
        obs::OpToken op = obs::kNoOpToken;
    };

    struct Placed
    {
        Pending pending;
        std::uint64_t chunkOff;
        std::uint32_t chunks;
        LogType type;
    };

    /** Dry placement of one group record (placeGroup() scratch). */
    struct Slot
    {
        std::size_t index; //!< position in buffer_
        std::uint64_t chunkOff;
        std::uint32_t chunks;
        LogType type;
        std::uint32_t bin; //!< PARTIAL records: index into bins_
    };

    /** One mapping unit that PARTIAL records are packed into. */
    struct Bin
    {
        std::uint64_t base;
        std::uint32_t fill = 0;
        std::uint32_t members = 0;
    };

    std::uint32_t unitChunks() const;

    void startFlush();
    /**
     * Place the first @p n buffered records in the active half and
     * move them into inflight_. False, with nothing moved, when the
     * half is out of space.
     */
    bool placeGroup(std::size_t n, std::uint64_t &first_chunk,
                    std::uint64_t &end_chunk);
    /** Write inflight_ to the device. */
    void submitGroup(std::uint64_t first_chunk, std::uint64_t end_chunk);
    /** Completion of the inflight_ group commit. */
    void onGroupDone(std::uint8_t half, Tick submitted,
                     std::uint64_t sectors, const CmdResult &r);

    EventQueue &eq_;
    Ssd &ssd_;
    const DiskLayout &layout_;
    const EngineConfig &cfg_;
    StatRegistry &stats_;
    /** Telemetry sampler of the run (nullptr: telemetry off). */
    obs::TelemetrySampler *telem_ = nullptr;
    PressureCb onPressure_;

    RingQueue<Pending> buffer_;
    /** The group commit in flight; flushInFlight_ allows one. */
    std::vector<Placed> inflight_;
    /** placeGroup() scratch, reused by every group. */
    std::vector<Slot> slots_;
    std::vector<std::pair<std::size_t, FormattedSize>> partials_;
    std::vector<Bin> bins_;
    bool flushInFlight_ = false;
    bool stalledForSpace_ = false;
    /** Last space-stall window (attribution: records buffered across
     *  it charge the window to CheckpointStall, not JournalWait). */
    Tick stallStart_ = 0;
    Tick stallEnd_ = 0;
    std::function<void()> quiesceCb_;

    std::uint8_t active_ = 0;
    bool halfBusy_[2] = {false, false};
    std::uint64_t appendChunk_[2] = {0, 0};
    std::uint64_t logsAppended_[2] = {0, 0};
    /** Chunk-token image of each half (journal write buffer/cache). */
    std::vector<std::uint64_t> image_[2];

    std::unordered_map<std::uint64_t, JmtEntry> jmt_;

    // Per-record and per-group counters, interned on their first add.
    StatHandle sTombstones_{stats_, "engine.tombstones"};
    StatHandle sLogs_{stats_, "engine.journalLogs"};
    StatHandle sChunksStored_{stats_, "engine.journalChunksStored"};
    StatHandle sPayloadBytes_{stats_, "engine.journalPayloadBytes"};
    StatHandle sMergedUnits_{stats_, "engine.mergedUnits"};
    StatHandle sPartialUnits_{stats_, "engine.partialUnits"};
    StatHandle sFlushes_{stats_, "engine.journalFlushes"};
    StatHandle sSectorsWritten_{stats_, "engine.journalSectorsWritten"};
    StatHandle sStalls_{stats_, "engine.journalStalls"};
    StatHandle sTransactions_{stats_, "engine.transactions"};
};

} // namespace checkin

#endif // CHECKIN_ENGINE_JOURNAL_H_
