/**
 * @file
 * Attribution data model and bounded retention structures.
 *
 * This header defines the vocabulary of the latency-attribution
 * subsystem — the pipeline stages an op can dwell in, the op classes,
 * the per-op breakdown record — plus two retention structures built
 * on it:
 *
 *  - FlightRecorder: an online slowest-K recorder that keeps the full
 *    stage breakdown of the worst ops seen, so a tail spike can be
 *    explained after the fact without retaining every op.
 *  - CheckpointTimeline: one record per checkpoint (trigger reason,
 *    phase boundary ticks, CoW command count, remapped vs copied
 *    work, FULL/PARTIAL/MERGED journal-record counts per the paper's
 *    Algorithm 2).
 *
 * The hot-path collector that feeds these lives in obs/attribution.h.
 * Both exports are deterministic: content derives only from simulated
 * ticks and DES order, never from wall-clock, so sweep runs are
 * byte-identical for any worker count.
 */

#ifndef CHECKIN_OBS_FLIGHT_RECORDER_H_
#define CHECKIN_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace checkin::obs {

/**
 * Pipeline stages a client op can dwell in, in rough pipeline order.
 * Every tick of an op's end-to-end latency is attributed to exactly
 * one stage; Other catches whatever no probe claimed (completion
 * delivery, unattributed gaps).
 */
enum class Stage : std::uint8_t
{
    QueueDelay,      //!< open-loop arrival waited for a free client
                     //!< slot (offered load exceeded service rate)
    HostCpu,         //!< engine scheduling + host CPU per query
    CheckpointStall, //!< query locked out / journal starved by a
                     //!< running checkpoint
    JournalWait,     //!< append buffered until its group commit
    SsdQueue,        //!< NVMe submission-queue admission wait
    Firmware,        //!< SSD controller CPU occupancy
    FtlMap,          //!< mapping-table fetch on a map-cache miss
    DramCache,       //!< device DRAM data-cache service
    NandWait,        //!< die/channel contention before a media op
    NandMedia,       //!< NAND sense/program/transfer occupancy
    GcStall,         //!< inline garbage collection on the op's path
    Bus,             //!< host interface (PCIe) transfer
    Backpressure,    //!< write ack delayed by a full write buffer
    Other,           //!< remainder not claimed by any probe
};

inline constexpr std::size_t kStageCount = 14;

/** Stable lowercase stage name ("hostCpu", "nandMedia", ...). */
const char *stageName(Stage s);

/** Client-visible op classes (the workload mix legs). */
enum class OpClass : std::uint8_t
{
    Read,
    Update,
    Rmw,
    Scan,
    Delete,
};

inline constexpr std::size_t kOpClassCount = 5;

/** Stable lowercase class name ("read", "update", ...). */
const char *opClassName(OpClass c);

/** Completed-op breakdown: per-stage dwell ticks summing exactly to
 *  (done - issued). */
struct OpRecord
{
    OpClass cls = OpClass::Read;
    Tick issued = 0;
    Tick done = 0;
    std::array<Tick, kStageCount> dwell{};

    Tick latency() const { return done - issued; }
};

/**
 * Online slowest-K retention. note() keeps the K largest-latency
 * records seen; ties keep the earliest-finishing op so the content is
 * deterministic. slowest() returns them sorted worst-first.
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t k = 16) : k_(k) {}

    void note(const OpRecord &rec);

    /** Retained records, highest latency first (ties: finish order). */
    std::vector<OpRecord> slowest() const;

    std::size_t capacity() const { return k_; }
    std::size_t size() const { return entries_.size(); }

    void clear();

  private:
    struct Entry
    {
        OpRecord rec;
        std::uint64_t seq = 0; //!< finish order, the tie-breaker
    };

    std::size_t k_;
    std::uint64_t nextSeq_ = 0;
    std::vector<Entry> entries_;
};

/** Why a checkpoint started. */
enum class CkptTrigger : std::uint8_t
{
    Manual,        //!< explicit requestCheckpoint() call
    Timer,         //!< periodic checkpointInterval timer
    JournalBytes,  //!< active-journal-bytes threshold
    SpacePressure, //!< journal half out of space (appends stalled)
    Backlog,       //!< re-triggered right after a checkpoint finished
    AdaptivePace,  //!< adaptive controller's pacing/lull decision
    Safety,        //!< adaptive controller's hard overflow bound
};

const char *ckptTriggerName(CkptTrigger t);

/**
 * One checkpoint's phase timeline and work breakdown. Boundary ticks
 * are absolute; phase durations derive from them (data = dataDone -
 * start, meta = metaDone - dataDone, delete = end - metaDone).
 */
struct CheckpointStat
{
    std::uint64_t seq = 0;
    CkptTrigger trigger = CkptTrigger::Manual;
    Tick startTick = 0;    //!< quiesce completed, data movement started
    Tick dataDoneTick = 0; //!< value/data movement finished
    Tick metaDoneTick = 0; //!< catalog (metadata) persisted
    Tick endTick = 0;      //!< old logs deleted, checkpoint done

    /** JMT record-class counts at the checkpoint snapshot. */
    std::uint64_t rawRecords = 0;
    std::uint64_t fullRecords = 0;
    std::uint64_t partialRecords = 0;
    std::uint64_t mergedRecords = 0;
    std::uint64_t entries = 0;
    std::uint64_t tombstones = 0;

    /** Device-side work issued by this checkpoint (stat deltas). */
    std::uint64_t cowCommands = 0;
    std::uint64_t remappedPairs = 0;
    std::uint64_t remappedUnits = 0;
    std::uint64_t copiedPairs = 0;
    std::uint64_t copiedChunks = 0;
    std::uint64_t bufferedSmallRecords = 0;
};

/** Per-checkpoint record list with a deterministic JSON export. */
class CheckpointTimeline
{
  public:
    void note(const CheckpointStat &stat) { stats_.push_back(stat); }

    const std::vector<CheckpointStat> &stats() const { return stats_; }

    void clear() { stats_.clear(); }

    /** checkpoints.json: {"checkpoints":[...],"count":N}. */
    std::string toJson() const;

  private:
    std::vector<CheckpointStat> stats_;
};

} // namespace checkin::obs

#endif // CHECKIN_OBS_FLIGHT_RECORDER_H_
