/**
 * @file
 * Unified load driver: a pool of N logical client threads running a
 * WorkloadSpec in either loop mode of a TrafficSpec
 * (workload/traffic.h). The pool hands each op to an issue hook and
 * learns of its completion through complete(); the engine
 * constructor's hook is issueOp(), and the cluster router's hook
 * routes the op to a shard.
 *
 * Closed loop (default): each thread keeps exactly one query
 * outstanding — the paper's "number of threads" axis.
 *
 * Open loop: operations arrive on the TrafficSpec's arrival process,
 * independent of completions, and wait in an unbounded FIFO for one
 * of the N service slots. Latency is measured from *arrival*, so
 * client-side queue delay lands in the latency tail (and in
 * Stage::QueueDelay of the attribution timeline), with offered vs
 * achieved throughput and per-tenant SLO violations accounted in
 * ClientStats.
 */

#ifndef CHECKIN_WORKLOAD_CLIENT_H_
#define CHECKIN_WORKLOAD_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "engine/storage_engine.h"
#include "obs/attribution.h"
#include "sim/event_queue.h"
#include "sim/histogram.h"
#include "sim/ring_queue.h"
#include "sim/sim_context.h"
#include "workload/traffic.h"
#include "workload/ycsb.h"

namespace checkin {

/** Per-tenant progress and SLO accounting (open loop). */
struct TenantStats
{
    std::string name;
    Tick sloLatency = 0;
    LatencyHistogram latency;
    std::uint64_t opsCompleted = 0;
    std::uint64_t sloViolations = 0;
};

/** Latency and progress metrics of a client pool run. */
struct ClientStats
{
    LatencyHistogram all;
    LatencyHistogram reads;
    LatencyHistogram writes; //!< updates + RMWs
    LatencyHistogram duringCheckpoint;
    LatencyHistogram readsDuringCheckpoint;
    LatencyHistogram writesDuringCheckpoint;
    LatencyHistogram outsideCheckpoint;
    /** Open loop: arrival → issue wait for a free service slot. */
    LatencyHistogram queueDelay;
    std::uint64_t opsCompleted = 0;
    /** Open loop: arrivals generated (≥ opsCompleted mid-run). */
    std::uint64_t opsOffered = 0;
    /** Open loop: completions over any tenant's SLO latency. */
    std::uint64_t sloViolations = 0;
    Tick firstIssue = 0;
    Tick lastCompletion = 0;
    /** Open loop: last arrival tick (offered-rate denominator). */
    Tick lastArrival = 0;
    /** Open loop: one entry per TrafficSpec tenant. */
    std::vector<TenantStats> tenants;

    /** Wall-clock span of the run in ticks. */
    Tick
    span() const
    {
        return lastCompletion > firstIssue
                   ? lastCompletion - firstIssue
                   : 0;
    }

    /** Throughput in operations per simulated second. */
    double
    opsPerSec() const
    {
        return span() == 0
                   ? 0.0
                   : double(opsCompleted) * double(kSec) /
                         double(span());
    }

    /**
     * Offered arrival rate in ops per simulated second (open loop;
     * 0 in closed loop). Completions trail arrivals, so this is ≥
     * opsPerSec() by construction — the gap is the backlog the
     * engine could not absorb.
     */
    double
    offeredOpsPerSec() const
    {
        const Tick span = lastArrival > firstIssue
                              ? lastArrival - firstIssue
                              : 0;
        return span == 0 ? 0.0
                         : double(opsOffered) * double(kSec) /
                               double(span);
    }
};

/** Hand @p op to @p engine's entry point for its type; @p cb runs
 *  when the engine completes it. */
void issueOp(StorageEngine &engine, const WorkloadGenerator::Op &op,
             StorageEngine::QueryCb cb);

/** Latency-attribution class of an op type. */
obs::OpClass opClass(WorkloadGenerator::OpType type);

/** Drives a WorkloadSpec per a TrafficSpec's loop mode. */
class ClientPool
{
  public:
    /** Hands the op of @p slot (a closed-loop thread or open-loop
     *  service slot) to the system under load, which reports its
     *  completion through complete(slot, ...). */
    using Issue = std::function<void(std::uint32_t slot,
                                     const WorkloadGenerator::Op &)>;

    /**
     * Draws keys in [0, @p key_count); loop mode, arrival process,
     * and tenants per @p traffic; @p slots is the thread count
     * (closed) or service-slot count (open). Throws
     * std::invalid_argument for 0 slots and a workload with
     * operations: nothing would issue, and an engine's checkpoint
     * timer would keep the event queue running forever.
     */
    ClientPool(SimContext &ctx, Issue issue, std::uint64_t key_count,
               const WorkloadSpec &spec, const TrafficSpec &traffic,
               std::uint32_t slots);

    /** Pool over @p engine's key space that issues every op to it
     *  through issueOp(). */
    ClientPool(SimContext &ctx, StorageEngine &engine,
               const WorkloadSpec &spec, const TrafficSpec &traffic,
               std::uint32_t threads);

    // The issue hook, the engine continuations and the telemetry
    // probes hold this pool's address.
    ClientPool(const ClientPool &) = delete;
    ClientPool &operator=(const ClientPool &) = delete;

    /** Launch all threads' first operations / the arrival clock. */
    void start();

    /** The op of @p slot completed at @p res.done: record it and
     *  issue the slot's next op (closed loop) or the next queued
     *  arrival (open loop). */
    void complete(std::uint32_t slot, const QueryResult &res);

    /** True once every operation completed. */
    bool done() const { return stats_.opsCompleted >= opTarget_; }

    const ClientStats &stats() const { return stats_; }

    /** Per-operation sample hook (timelines, custom collectors).
     *  In open loop @p issued is the arrival tick. */
    using Sampler = std::function<void(Tick issued, Tick done,
                                       bool during_checkpoint,
                                       bool is_read)>;
    void setSampler(Sampler s) { sampler_ = std::move(s); }

  private:
    /** An arrival waiting for a service slot (open loop). */
    struct PendingOp
    {
        WorkloadGenerator::Op op;
        obs::OpToken tok = obs::kNoOpToken;
        Tick arrival = 0;
        std::uint32_t tenant = 0;
    };

    /**
     * The op a thread (closed loop) or service slot (open loop) has
     * issued. Keeping it here lets an engine continuation capture
     * only {this, slot}, which std::function stores inline.
     */
    struct InFlight
    {
        WorkloadGenerator::OpType type = WorkloadGenerator::OpType::Read;
        /** Issue tick (closed loop) or arrival tick (open loop). */
        Tick start = 0;
        obs::OpToken tok = obs::kNoOpToken;
        std::uint32_t tenant = 0;
    };

    void issueNext(std::uint32_t thread);
    void record(WorkloadGenerator::OpType type, std::uint32_t thread,
                Tick issued, const QueryResult &res);

    void scheduleNextArrival();
    void onArrival();
    void dispatch(std::uint32_t slot);

    Issue issue_;
    EventQueue &eq_;
    WorkloadGenerator gen_;
    TrafficSpec traffic_;
    std::uint64_t opTarget_;
    std::uint64_t opsIssued_ = 0;
    std::uint32_t threads_;
    ClientStats stats_;
    /** One entry per thread (closed) or service slot (open). */
    std::vector<InFlight> inflight_;
    Sampler sampler_;
    /** Telemetry sampler of the run (nullptr: telemetry off). */
    obs::TelemetrySampler *telem_ = nullptr;

    // Open-loop state.
    std::optional<ArrivalEngine> arrivals_;
    /** Flash-crowd key picker: the workload's mix over the `latest`
     *  distribution, on its own deterministic stream. */
    std::unique_ptr<WorkloadGenerator> flashGen_;
    RingQueue<PendingOp> queue_;
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace checkin

#endif // CHECKIN_WORKLOAD_CLIENT_H_
