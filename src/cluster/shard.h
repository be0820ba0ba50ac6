/**
 * @file
 * One engine shard: a full private storage stack behind the router.
 *
 * A shard owns its own SimContext and StorageNode (fault plan, Ssd,
 * StorageEngine), plus a per-shard attribution collector. It executes
 * Request messages against the engine and sends Response messages
 * back to the router; CkptControl messages start coordinated
 * checkpoints. All counters a shard reports are post-load deltas, so
 * cluster results exclude the initial load exactly like single-device
 * experiment runs do.
 */

#ifndef CHECKIN_CLUSTER_SHARD_H_
#define CHECKIN_CLUSTER_SHARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/node.h"
#include "engine/storage_engine.h"
#include "harness/experiment.h"
#include "harness/node.h"
#include "obs/attribution.h"
#include "obs/telemetry.h"
#include "sim/histogram.h"
#include "workload/ycsb.h"

namespace checkin {

/** Post-run summary of one shard (all counters post-load deltas). */
struct ShardSummary
{
    std::uint32_t shard = 0;
    std::uint64_t keys = 0;  //!< keys placed on this shard
    std::uint64_t ops = 0;   //!< requests executed
    std::uint64_t bytes = 0; //!< value payload bytes written
    std::uint64_t events = 0; //!< DES events dispatched (whole run)
    std::uint64_t checkpoints = 0;
    double avgCheckpointMs = 0.0;
    double maxCheckpointMs = 0.0;
    std::uint64_t nandReads = 0;
    std::uint64_t nandPrograms = 0;
    std::uint64_t nandErases = 0;
    std::uint64_t journalStalls = 0;
    /** Service time (request arrival -> engine completion). */
    LatencyHistogram service;
    /** Attribution dwells summed over classes (0 when disabled). */
    Tick ckptStallTicks = 0;
    Tick tailCkptStallTicks = 0;
    /** Full per-class attribution (enabled flag inside). */
    obs::AttributionSummary attribution;
};

/** One engine shard node (synchronizer node 1 + shard index). */
class ShardNode : public ClusterNode
{
  public:
    /**
     * @param cfg shard stack template with engine.recordCount
     *        already set to this shard's exact key share.
     * @param global_keys global key of every local key (load sizing).
     * @param sizer_spec cluster workload spec (value-size law).
     */
    ShardNode(std::uint32_t shard, std::uint64_t seed,
              const ExperimentConfig &cfg,
              std::vector<std::uint64_t> global_keys,
              const WorkloadSpec &sizer_spec, Tick response_latency,
              bool attribution);

    ~ShardNode() override;

    /**
     * Build the shard's StorageNode and load it (to quiescence, with
     * its post-load baseline), then arm the checkpoint timer. Enters
     * this node's SimContextScope itself; safe to run for different
     * shards in parallel.
     */
    void buildAndLoad();

    /** Summarize the shard (call after the run fully drained). */
    ShardSummary summary(double tail_quantile) const;

    StorageEngine &engine() { return node_->engine(); }

    /** Shard-local telemetry (enabled per cfg.obs.telemetry). */
    const obs::TelemetrySampler &telemetry() const { return telem_; }

    /** Let an in-flight checkpoint finish (post-run drain) and
     *  finalize shard telemetry. */
    void drainCheckpoint();

  protected:
    void onMessage(const Message &m) override;

  private:
    /** A request inside the engine. Pooled, so the engine
     *  continuation captures only {this, slot}, which std::function
     *  stores without allocating. */
    struct InFlight
    {
        Message request;
        Tick arrival = 0;
        obs::OpToken tok = obs::kNoOpToken;
        std::uint32_t nextFree = 0; //!< free-list link when unused
    };
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    void execute(const Message &m);
    /** The engine completed the request in slot @p slot. */
    void complete(std::uint32_t slot, const QueryResult &res);

    std::uint32_t shard_;
    ExperimentConfig cfg_;
    std::vector<std::uint64_t> globalKeys_;
    WorkloadSpec sizerSpec_;
    Tick responseLatency_;

    std::unique_ptr<StorageNode> node_;
    obs::AttributionCollector attr_;
    /** Per-shard sampler, driven by this shard's own event queue so
     *  merged artifacts are independent of synchronizer threading. */
    obs::TelemetrySampler telem_;

    std::vector<InFlight> inflight_;
    std::uint32_t freeSlot_ = kNoSlot;

    // Measured-run accumulation.
    std::uint64_t ops_ = 0;
    std::uint64_t bytes_ = 0;
    LatencyHistogram service_;
};

} // namespace checkin

#endif // CHECKIN_CLUSTER_SHARD_H_
