/**
 * @file
 * The engine core both StorageEngine backends derive from (paper
 * Fig 5 host side): one query front and one checkpoint lifecycle.
 */

#ifndef CHECKIN_ENGINE_ENGINE_CORE_H_
#define CHECKIN_ENGINE_ENGINE_CORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "engine/checkpoint_policy.h"
#include "engine/engine_config.h"
#include "engine/storage_engine.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/sim_context.h"
#include "sim/stats.h"
#include "ssd/ssd.h"

namespace checkin {

/**
 * What every backend shares, written once:
 *  - the query front: attribution marks, the host-CPU delay, the
 *    deferral queue of the checkpoint lock, readModifyWrite, and the
 *    GET path;
 *  - the triggers: the policy timer, policy signals, the append hook,
 *    and the coalescing of checkpoint requests;
 *  - the checkpoint lifecycle: start, the data / metadata / log
 *    deletion phase counters and spans (paper Figs 4 and 10), the
 *    obs::CheckpointStat record with its device-counter deltas, and
 *    finish with its re-request;
 *  - helpers: the command fan-out and the batching of CoW pairs into
 *    commands, scan and batch completion, the content-token check,
 *    verifyAllKeys.
 *
 * A backend keeps its journal, layout, keymap, checkpoint body, load
 * and recovery, and plugs into the core through the private hooks at
 * the end of this class.
 */
class EngineCore : public StorageEngine
{
  public:
    /** A backend's names for its checkpoint trace events; every
     *  pointer is a string literal. */
    struct TraceNames
    {
        const char *lane;
        const char *start;    //!< instant at checkpoint start
        const char *startArg; //!< its argument: journalRecords()
        const char *data;     //!< data-phase span
        const char *dataArg;  //!< its argument: records moved
        const char *meta;     //!< metadata-phase span
        const char *del;      //!< log-deletion span
        const char *whole;    //!< whole-checkpoint span
        const char *wholeArg; //!< its argument; nullptr: none
    };

    /** Timers, probes and callbacks hold the engine's address. */
    EngineCore(const EngineCore &) = delete;
    EngineCore &operator=(const EngineCore &) = delete;

    /** Arm the checkpoint policy's timer (if it has one). */
    void start() override;

    // ------------------------------------------------------------------
    // Query interface
    // ------------------------------------------------------------------
    void get(std::uint64_t key, QueryCb cb) override;
    void update(std::uint64_t key, std::uint32_t value_bytes,
                QueryCb cb) override;
    void readModifyWrite(std::uint64_t key, std::uint32_t value_bytes,
                         QueryCb cb) override;
    void erase(std::uint64_t key, QueryCb cb) override;
    void updateBatch(std::vector<BatchOp> ops, QueryCb cb) override;
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

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------
    StatRegistry &stats() override { return stats_; }
    const StatRegistry &stats() const override { return stats_; }
    const EngineConfig &config() const override { return cfg_; }

    std::uint32_t
    committedVersion(std::uint64_t key) const override
    {
        return locate(key).version;
    }

    /**
     * Functional full-store verification: read every key's committed
     * value through peek and check its content tokens.
     * @return number of keys verified.
     * @throws std::runtime_error on any content mismatch.
     */
    std::uint64_t verifyAllKeys() const override;

  protected:
    /** Trace lane of checkpoint events (Cat::Engine). */
    static constexpr std::uint32_t kCkptLane = 1;

    /** Where a key's committed value reads back from. */
    struct Located
    {
        std::uint32_t version = 0; //!< 0: never written
        std::uint32_t chunks = 0;  //!< 0: deleted
        bool inJournal = false;
        /** First sector; kInvalidAddr for a deleted key that left
         *  nothing on the device. */
        Lba lba = 0;
        std::uint32_t shift = 0; //!< first chunk within that sector
    };

    /** One scan's reads; the scan completes when the last one does. */
    struct ScanJob
    {
        std::size_t outstanding = 0;
        Tick last = 0;
        std::uint32_t scanned = 0;
        bool launched = false;
        bool ckptAtSubmit = false;
        QueryCb cb;
    };

    /** One updateBatch: acknowledged once every record is durable. */
    struct BatchJob
    {
        std::size_t outstanding = 0;
        Tick last = 0;
        bool ckptAtSubmit = false;
        QueryCb cb;
    };

    /** A probe a backend adds to the core's (name, reader). */
    using Probe =
        std::pair<const char *, obs::TelemetrySampler::ProbeFn>;

    EngineCore(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg,
               const TraceNames &names);

    /**
     * Register the telemetry probes (no-op when telemetry is off):
     * the core's gauges, then @p gauges, then the fill rate and the
     * checkpoint counter, then @p counters. Called last in the
     * backend's constructor, so probes its members registered come
     * first.
     */
    void addProbes(std::initializer_list<Probe> gauges,
                   std::initializer_list<Probe> counters);

    /** A doWrite() of @p value_bytes is durable at @p done: count it,
     *  feed the policy, then acknowledge. */
    void writeDone(const QueryCb &cb, Tick done, bool ckpt_at_submit,
                   std::uint32_t value_bytes);

    /** Start an updateBatch of @p records records. */
    std::shared_ptr<BatchJob> beginBatch(std::size_t records,
                                         QueryCb cb);
    /** One record of @p job became durable at @p done. */
    void batchRecordDone(BatchJob &job, Tick done);

    /** Start a scan; reads go through scanRead(), then endScan(). */
    std::shared_ptr<ScanJob> beginScan(QueryCb cb);
    void scanRead(const std::shared_ptr<ScanJob> &job, Lba lba,
                  std::uint64_t nsect);
    /** All reads issued; an empty scan completes asynchronously. */
    void endScan(const std::shared_ptr<ScanJob> &job);

    /**
     * Submit @p n commands, building command i with @p make(i) just
     * before it is submitted (so it sees the state the previous
     * submits left); @p done fires with the last completion tick, at
     * once (with now) when @p n is 0.
     */
    template <typename Make>
    void
    submitAll(std::size_t n, Make make, std::function<void(Tick)> done)
    {
        if (n == 0) {
            done(eq_.now());
            return;
        }
        auto job = std::make_shared<FanOut>();
        job->outstanding = n;
        job->done = std::move(done);
        for (std::size_t i = 0; i < n; ++i) {
            ssd_.submit(make(i),
                        [job](const CmdResult &r) { job->complete(r); });
        }
    }

    /** Commands that carry @p pairs CoW pairs, at most
     *  EngineConfig::maxPairsPerCommand each. */
    std::size_t
    batchCount(std::size_t pairs) const
    {
        return divCeil(pairs, cfg_.maxPairsPerCommand);
    }

    /** The pairs of command @p b of batchCount(pairs.size()), in
     *  order. */
    std::vector<CowPair> batch(const std::vector<CowPair> &pairs,
                               std::size_t b) const;

    /** Check @p v's content tokens (a tombstone for a deleted key).
     *  @throws std::runtime_error on a mismatch. */
    void checkContent(std::uint64_t key, const Located &v) const;

    // ---- checkpoint lifecycle, in order ----

    /**
     * The checkpoint's snapshot is taken: @p logs_seen journal
     * records, folding to @p entries. Returns this checkpoint's
     * phase-timeline record for the backend's record-class counts
     * when attribution is on, else nullptr.
     */
    obs::CheckpointStat *noteSnapshot(std::uint64_t logs_seen,
                                      std::uint64_t entries);
    /** Data movement of @p records records is done (now). */
    void markDataDone(std::uint64_t records);
    /** Metadata persisted at @p t. */
    void markMetaDone(Tick t);
    /** Old logs deleted at @p t. */
    void markDeleteDone(Tick t);
    /** The checkpoint ends at @p t; @p whole_arg is the value of
     *  TraceNames::wholeArg. Releases deferred queries and re-requests
     *  a checkpoint that coalesced into this one. */
    void finishCheckpoint(Tick t, std::uint64_t whole_arg = 0);

    EventQueue &eq_;
    Ssd &ssd_;
    EngineConfig cfg_;
    StatRegistry stats_;
    /** Telemetry sampler of the run (nullptr: telemetry off). */
    obs::TelemetrySampler *telem_ = nullptr;
    StatHandle sScanSequentialSectors_{stats_,
                                       "engine.scanSequentialSectors"};

  private:
    /** Fires done(last completion tick) once outstanding commands
     *  have completed. */
    struct FanOut
    {
        std::size_t outstanding = 0;
        Tick last = 0;
        std::function<void(Tick)> done;

        void complete(const CmdResult &r);
    };

    /** Defer @p task (moving it out) while checkpoint-locked; true
     *  when deferred. */
    bool maybeDefer(InlineCallback &task);
    void drainDeferred();
    /** Run @p task after the host-CPU delay, or defer it. */
    void submitTask(obs::OpToken op, InlineCallback task);
    void doGet(std::uint64_t key, QueryCb cb);

    void onCheckpointTimer();
    /** Current trigger-policy inputs. */
    PolicySignals policySignals() const;
    /** Feed the policy an append commit; maybe trigger. */
    void noteJournalAppend();
    void startCheckpoint();
    /** Feed the policy, then acknowledge a durable write. */
    void acknowledge(const QueryCb &cb, Tick done, bool ckpt_at_submit);

    // ---- backend hooks ----

    /** Where @p key's committed value lives (any key). */
    virtual Located locate(std::uint64_t key) const = 0;
    /** Journal one write; 0 bytes deletes the key. Ends in
     *  writeDone(). */
    virtual void doWrite(std::uint64_t key, std::uint32_t value_bytes,
                         QueryCb cb) = 0;
    virtual void doUpdateBatch(std::vector<BatchOp> ops,
                               QueryCb cb) = 0;
    virtual void doScan(std::uint64_t start_key, std::uint32_t count,
                        QueryCb cb) = 0;
    /** Payload bytes in the active journal half. */
    virtual std::uint64_t journalBytes() const = 0;
    /** Records in the active journal half. */
    virtual std::uint64_t journalRecords() const = 0;
    /** True when a checkpoint would have nothing to fold. */
    virtual bool nothingToCheckpoint() const = 0;
    /** True when the half a checkpoint frees into is still busy. */
    virtual bool spareHalfBusy() const = 0;
    /** The checkpoint itself, after the common start: ends in
     *  finishCheckpoint(). */
    virtual void runCheckpoint() = 0;
    /** Deferred queries were just released. */
    virtual void afterDeferredReleased() {}

    std::unique_ptr<CheckpointPolicy> policy_;
    TraceNames names_;
    bool ckptInProgress_ = false;
    bool pendingCkptRequest_ = false;
    Tick ckptStart_ = 0;
    Tick ckptDataDone_ = 0; //!< data movement end
    Tick ckptMetaDone_ = 0; //!< metadata persistence end
    std::vector<Tick> ckptDurations_;
    /** In-flight checkpoint's phase-timeline record (attribution);
     *  device counters hold their start-of-checkpoint baselines
     *  until finishCheckpoint() turns them into deltas. */
    obs::CheckpointStat ckptRec_;
    std::uint64_t ckptSeq_ = 0;
    std::deque<InlineCallback> deferred_;

    // Per-op counters, interned on their first add.
    StatHandle sGets_{stats_, "engine.gets"};
    StatHandle sGetMisses_{stats_, "engine.getMisses"};
    StatHandle sGetsFromJournal_{stats_, "engine.getsFromJournal"};
    StatHandle sUpdates_{stats_, "engine.updates"};
    StatHandle sUpdateBytes_{stats_, "engine.updateBytes"};
    StatHandle sDeletes_{stats_, "engine.deletes"};
    StatHandle sBatchCommits_{stats_, "engine.batchCommits"};
    StatHandle sScans_{stats_, "engine.scans"};
};

} // namespace checkin

#endif // CHECKIN_ENGINE_ENGINE_CORE_H_
