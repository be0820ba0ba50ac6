/**
 * @file
 * End-to-end latency attribution: per-op stage profiling.
 *
 * Every client op can carry an OpTimeline token from issue to
 * completion. The token is a cursor-based segment accumulator: marks
 * are monotone absolute ticks, each mark attributes the interval
 * [cursor, upTo) to one Stage and advances the cursor, and finish
 * sweeps the remainder into Stage::Other — so the per-stage dwell
 * times sum to the client-observed end-to-end latency *exactly*, by
 * construction (tick arithmetic, no rounding).
 *
 * Threading model (mirrors obs/trace.h):
 *  - AttributionCollector is installed per run thread via the
 *    thread-local detail::t_attr slot (AttributionScope, or
 *    SimContextScope inside runExperiment).
 *  - With no collector installed — or a disabled one — every probe is
 *    a single pointer + flag check: no token is acquired, nothing
 *    allocates, and storageBytes()/poolSize() stay 0 (asserted in
 *    tests/test_obs.cc).
 *  - Tokens are pooled indices: an op acquires a pooled OpTimeline
 *    slot at issue and releases it at finish, so steady state does
 *    zero allocations beyond the high-water pool.
 *
 * Layer plumbing: the client begins/finishes ops; the engine passes
 * the token through its task closures as a 4-byte index (so hot
 * lambdas stay within InlineCallback's inline buffer) and re-installs
 * it as the collector's *current op* around synchronous downstream
 * calls. Ssd::processCommand records its internal stage boundaries
 * into a per-command segment buffer (FTL and NAND append their own
 * sub-stages while the command is active) and the segments are then
 * replayed onto the op's timeline — directly for query-caused
 * commands, by the journal's group commit for each member op of a
 * shared flush.
 */

#ifndef CHECKIN_OBS_ATTRIBUTION_H_
#define CHECKIN_OBS_ATTRIBUTION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "sim/types.h"

namespace checkin::obs {

/** Pooled-timeline handle; kNoOpToken means "not attributed". */
using OpToken = std::uint32_t;
inline constexpr OpToken kNoOpToken = ~OpToken{0};

/** Aggregate dwell breakdown for one op class. */
struct ClassBreakdown
{
    std::uint64_t ops = 0;
    std::array<Tick, kStageCount> dwell{};

    Tick
    totalTicks() const
    {
        Tick t = 0;
        for (const Tick d : dwell)
            t += d;
        return t;
    }
};

/** Whole-run attribution rollup (lands in RunResult). */
struct AttributionSummary
{
    bool enabled = false;
    double tailQuantile = 0.0;
    Tick tailThresholdTicks = 0;
    std::uint64_t totalOps = 0;
    std::uint64_t tailOps = 0;
    /** All completed ops, by class. */
    std::array<ClassBreakdown, kOpClassCount> perClass{};
    /** Only ops at or above the tail-latency threshold. */
    std::array<ClassBreakdown, kOpClassCount> tailPerClass{};
};

/**
 * Per-run attribution collector: the OpTimeline pool, the per-command
 * segment buffer, the completed-op records, the slowest-K flight
 * recorder, and the checkpoint phase timeline.
 */
class AttributionCollector
{
  public:
    AttributionCollector() = default;

    AttributionCollector(const AttributionCollector &) = delete;
    AttributionCollector &
    operator=(const AttributionCollector &) = delete;

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    // ---- op lifecycle (client) ----

    /** Acquire a pooled timeline; cursor starts at @p issued. */
    OpToken beginOp(OpClass cls, Tick issued);

    /** Attribute [cursor, upTo) to @p stage; no-op when upTo is not
     *  past the cursor (marks are monotone). */
    void mark(OpToken op, Stage stage, Tick up_to);

    /** Sweep [cursor, done) into Stage::Other, record the op, feed
     *  the flight recorder, release the token. */
    void finishOp(OpToken op, Tick done);

    // ---- ambient current op (engine plumbing) ----

    OpToken currentOp() const { return current_; }
    void setCurrentOp(OpToken op) { current_ = op; }

    // ---- per-command stage segments (device layers) ----

    /** Start recording stage boundaries for one SSD command. */
    void
    cmdBegin()
    {
        cmdSegCount_ = 0;
        cmdDone_ = 0;
        cmdActive_ = true;
    }

    /**
     * Append a stage boundary for the active command. Dropped when no
     * command is active (e.g. background GC off any op's path). When
     * a stage override is in effect (GC, map fetch) the override
     * label wins. Overflow folds into the last segment: attribution
     * detail degrades, conservation does not.
     */
    void
    cmdMark(Stage stage, Tick up_to)
    {
        if (!cmdActive_)
            return;
        const Stage s = overrideDepth_ > 0 ? overrideStage_ : stage;
        if (cmdSegCount_ == kMaxCmdSegments) {
            Seg &last = cmdSegs_[kMaxCmdSegments - 1];
            if (up_to > last.upTo)
                last.upTo = up_to;
            return;
        }
        cmdSegs_[cmdSegCount_++] = Seg{s, up_to};
    }

    /**
     * Stop recording and note the command's completion tick. Replay
     * clamps segment boundaries to it: buffered writes ack before
     * their NAND programs finish, and media time past the ack is
     * background work, not op latency. 0 means "no clamp".
     */
    void
    cmdEnd(Tick done = 0)
    {
        cmdActive_ = false;
        cmdDone_ = done;
    }

    /** Replay the active command's segments onto @p op. */
    void applyCmdTo(OpToken op);

    /** applyCmdTo(currentOp()) if a current op is set. */
    void
    applyCmdToCurrent()
    {
        if (current_ != kNoOpToken)
            applyCmdTo(current_);
    }

    /** Relabel nested cmdMark()s (RAII via AttrStageScope). */
    void
    setStageOverride(Stage stage)
    {
        overrideStage_ = stage;
        ++overrideDepth_;
    }

    void clearStageOverride(Stage prev, std::uint32_t depth)
    {
        overrideStage_ = prev;
        overrideDepth_ = depth;
    }

    std::uint32_t overrideDepth() const { return overrideDepth_; }
    Stage overrideStage() const { return overrideStage_; }

    // ---- checkpoint phase timeline ----

    void noteCheckpoint(const CheckpointStat &s) { ckpts_.note(s); }

    const std::vector<CheckpointStat> &
    checkpoints() const
    {
        return ckpts_.stats();
    }

    // ---- results / introspection ----

    const std::vector<OpRecord> &ops() const { return records_; }

    const FlightRecorder &flightRecorder() const { return flight_; }

    /**
     * Running dwell total for @p s across every mark so far — live,
     * including segments of ops still in flight. Feedback consumers
     * (the adaptive checkpoint policy) read this mid-run; it is
     * reset with clearForMeasurement().
     */
    Tick
    liveStageTicks(Stage s) const
    {
        return liveDwell_[std::size_t(s)];
    }

    /** Timeline slots ever created; 0 proves no op was attributed. */
    std::size_t poolSize() const { return pool_.size(); }

    /** In-flight (unfinished) tokens. */
    std::size_t liveTokens() const { return live_; }

    /** Bytes of attribution storage; 0 until the first op. */
    std::uint64_t
    storageBytes() const
    {
        return pool_.capacity() * sizeof(Slot) +
               records_.capacity() * sizeof(OpRecord);
    }

    /** Drop load-phase records (pool and lane state survive). */
    void clearForMeasurement();

    /** Whole-run rollup with the tail cut at @p tail_quantile. */
    AttributionSummary summary(double tail_quantile) const;

    /** attribution.json (deterministic bytes). */
    std::string toJson(double tail_quantile) const;

    /** checkpoints.json (deterministic bytes). */
    std::string checkpointsJson() const { return ckpts_.toJson(); }

    void setFlightRecorderK(std::size_t k) { flight_ = FlightRecorder(k); }

  private:
    struct Slot
    {
        OpClass cls = OpClass::Read;
        bool active = false;
        Tick issued = 0;
        Tick cursor = 0;
        std::array<Tick, kStageCount> dwell{};
        std::uint32_t nextFree = kNoOpToken;
    };

    struct Seg
    {
        Stage stage;
        Tick upTo;
    };

    static constexpr std::size_t kMaxCmdSegments = 64;

    bool enabled_ = false;
    OpToken current_ = kNoOpToken;

    std::vector<Slot> pool_;
    std::uint32_t freeHead_ = kNoOpToken;
    std::size_t live_ = 0;

    bool cmdActive_ = false;
    Tick cmdDone_ = 0;
    std::uint32_t cmdSegCount_ = 0;
    std::array<Seg, kMaxCmdSegments> cmdSegs_;

    std::uint32_t overrideDepth_ = 0;
    Stage overrideStage_ = Stage::Other;

    std::vector<OpRecord> records_;
    FlightRecorder flight_;
    CheckpointTimeline ckpts_;
    std::array<Tick, kStageCount> liveDwell_{};
};

namespace detail {
/** Per-thread collector slot (see obs/trace.h for the rationale). */
inline thread_local AttributionCollector *t_attr = nullptr;
} // namespace detail

/** Install @p a as the calling thread's collector (nullptr clears). */
inline void
installAttribution(AttributionCollector *a)
{
    detail::t_attr = a;
}

/** The calling thread's collector, or nullptr. */
inline AttributionCollector *
installedAttribution()
{
    return detail::t_attr;
}

/** True when an enabled collector is installed on this thread. */
inline bool
attributionOn()
{
    const AttributionCollector *a = detail::t_attr;
    return a != nullptr && a->enabled();
}

/** RAII collector install/restore (the TraceScope analogue). */
class AttributionScope
{
  public:
    explicit AttributionScope(AttributionCollector *a)
        : prev_(detail::t_attr)
    {
        detail::t_attr = a;
    }

    ~AttributionScope() { detail::t_attr = prev_; }

    AttributionScope(const AttributionScope &) = delete;
    AttributionScope &operator=(const AttributionScope &) = delete;

  private:
    AttributionCollector *prev_;
};

// ---- hot-path probes: one pointer + flag check when disabled ----

inline OpToken
attrBeginOp(OpClass cls, Tick issued)
{
    if (AttributionCollector *a = detail::t_attr;
        a != nullptr && a->enabled())
        return a->beginOp(cls, issued);
    return kNoOpToken;
}

inline void
attrMark(OpToken op, Stage stage, Tick up_to)
{
    if (op == kNoOpToken)
        return;
    if (AttributionCollector *a = detail::t_attr; a != nullptr)
        a->mark(op, stage, up_to);
}

inline void
attrFinishOp(OpToken op, Tick done)
{
    if (op == kNoOpToken)
        return;
    if (AttributionCollector *a = detail::t_attr; a != nullptr)
        a->finishOp(op, done);
}

inline OpToken
attrCurrentOp()
{
    if (AttributionCollector *a = detail::t_attr;
        a != nullptr && a->enabled())
        return a->currentOp();
    return kNoOpToken;
}

/** Live cumulative dwell of @p stage; 0 when attribution is off. */
inline Tick
attrLiveStageTicks(Stage stage)
{
    if (AttributionCollector *a = detail::t_attr;
        a != nullptr && a->enabled())
        return a->liveStageTicks(stage);
    return 0;
}

/** Device-layer probe: stage boundary of the active SSD command. */
inline void
attrCmdMark(Stage stage, Tick up_to)
{
    if (AttributionCollector *a = detail::t_attr;
        a != nullptr && a->enabled())
        a->cmdMark(stage, up_to);
}

/** Checkpoint phase record (engine). */
inline void
attrNoteCheckpoint(const CheckpointStat &s)
{
    if (AttributionCollector *a = detail::t_attr;
        a != nullptr && a->enabled())
        a->noteCheckpoint(s);
}

/** RAII "current op" install around synchronous downstream calls. */
class AttrOpScope
{
  public:
    explicit AttrOpScope(OpToken op)
    {
        if (AttributionCollector *a = detail::t_attr;
            a != nullptr && a->enabled()) {
            a_ = a;
            prev_ = a->currentOp();
            a->setCurrentOp(op);
        }
    }

    ~AttrOpScope()
    {
        if (a_ != nullptr)
            a_->setCurrentOp(prev_);
    }

    AttrOpScope(const AttrOpScope &) = delete;
    AttrOpScope &operator=(const AttrOpScope &) = delete;

  private:
    AttributionCollector *a_ = nullptr;
    OpToken prev_ = kNoOpToken;
};

/** RAII stage relabel for nested device work (GC, map fetches). */
class AttrStageScope
{
  public:
    explicit AttrStageScope(Stage stage)
    {
        if (AttributionCollector *a = detail::t_attr;
            a != nullptr && a->enabled()) {
            a_ = a;
            prevStage_ = a->overrideStage();
            prevDepth_ = a->overrideDepth();
            a->setStageOverride(stage);
        }
    }

    ~AttrStageScope()
    {
        if (a_ != nullptr)
            a_->clearStageOverride(prevStage_, prevDepth_);
    }

    AttrStageScope(const AttrStageScope &) = delete;
    AttrStageScope &operator=(const AttrStageScope &) = delete;

  private:
    AttributionCollector *a_ = nullptr;
    Stage prevStage_ = Stage::Other;
    std::uint32_t prevDepth_ = 0;
};

} // namespace checkin::obs

#endif // CHECKIN_OBS_ATTRIBUTION_H_
