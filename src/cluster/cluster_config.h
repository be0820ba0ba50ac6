/**
 * @file
 * Configuration of a sharded cluster simulation.
 *
 * A cluster run models N engine shards — each a full private stack
 * (SimContext + KvEngine + JournalManager + Ssd/FTL/NAND) — behind a
 * front-end router that owns the clients and places keys on shards by
 * consistent hashing. The shards and the router advance together
 * under a conservative time-window synchronizer (see
 * cluster/synchronizer.h), so one run is truly parallel yet
 * byte-identical for any synchronizer thread count.
 */

#ifndef CHECKIN_CLUSTER_CLUSTER_CONFIG_H_
#define CHECKIN_CLUSTER_CLUSTER_CONFIG_H_

#include <cstdint>

#include "harness/experiment.h"
#include "sim/types.h"
#include "workload/traffic.h"
#include "workload/ycsb.h"

namespace checkin {

/**
 * Cross-shard checkpoint coordination policy.
 *
 * Checkpoint stalls are the cluster's dominant tail-latency source;
 * the policy decides whether the N shards stall together or in turn.
 */
enum class CkptCoordination : std::uint8_t
{
    /** Every shard runs its own checkpoint timer, unsynchronized:
     *  stalls drift apart (or pile up) on their own. */
    Independent,
    /** The router broadcasts one checkpoint request to all shards
     *  every interval: the whole cluster stalls at once, but between
     *  checkpoints no shard stalls. */
    Synchronized,
    /** The router rotates one checkpoint request across the shards,
     *  spacing them interval / shardCount apart: at most one shard
     *  stalls at a time (each still checkpoints every interval). */
    Staggered,
};

const char *ckptCoordinationName(CkptCoordination policy);

/** Everything one cluster run needs. */
struct ClusterConfig
{
    /**
     * Per-shard stack template: NAND/FTL/SSD geometry, engine
     * configuration, and fault plan of every shard.
     * shard.engine.recordCount is the *average* records per shard;
     * consistent hashing decides each shard's exact share. The
     * template's workload/seed/obs fields are ignored — the
     * cluster-level fields below replace them.
     */
    ExperimentConfig shard;

    /** Number of engine shards behind the router. */
    std::uint32_t shardCount = 4;

    /** Client threads (closed loop) / service slots (open loop) at
     *  the router; at least 1 when the workload has operations. */
    std::uint32_t clients = 32;

    /**
     * Loop mode and arrival process of the router's ClientPool
     * (workload/traffic.h). Open mode turns the router into an
     * open-loop driver: arrivals wait in an unbounded FIFO for a
     * free client slot and latency is measured from arrival. A
     * flash crowd applies in full (rate surge and `latest` key
     * picker); the tenant table is dropped, as the router keeps no
     * per-tenant SLO accounting.
     */
    TrafficSpec traffic;

    /**
     * Cluster-level workload: operationCount is the total across all
     * shards; keys are drawn from the global key space
     * (shard.engine.recordCount * shardCount) and routed by the
     * consistent-hash ring.
     */
    WorkloadSpec workload;

    /** Cross-shard checkpoint coordination policy. */
    CkptCoordination coordination = CkptCoordination::Independent;

    /**
     * Coordination period for Synchronized/Staggered (every shard
     * checkpoints once per interval under either policy). 0 uses
     * shard.engine.checkpointInterval. Under these policies the
     * shard engines' own timers are disabled; their journal-bytes /
     * space-pressure triggers stay armed as a safety net.
     */
    Tick coordinationInterval = 0;

    /** Router -> shard request delivery latency (one way). Also the
     *  synchronizer lookahead, so it must be > 0. */
    Tick requestLatency = 20 * kUsec;

    /** Shard -> router response delivery latency (one way). */
    Tick responseLatency = 20 * kUsec;

    /** Virtual nodes per shard on the consistent-hash ring. */
    std::uint32_t vnodesPerShard = 64;

    /**
     * Synchronizer worker threads advancing shard windows. 1 runs
     * the windows serially on the calling thread; 0 resolves through
     * CHECKIN_JOBS / hardware_concurrency (harness/sweep.h). Results
     * are byte-identical for every value.
     */
    unsigned syncThreads = 1;

    /** Root seed: router, shards, and workload streams derive from
     *  it via Rng::childSeed. */
    std::uint64_t seed = 42;

    /** Collect per-op latency attribution on every shard (feeds the
     *  per-stage checkpoint-stall accounting in the result). */
    bool attributionEnabled = false;

    /** When non-empty, write cluster.json into
     *  <artifactDir>/<runName>/. */
    std::string artifactDir;
    std::string runName = "cluster";

    /** Synchronizer lookahead: no cross-node message travels faster
     *  than this. */
    Tick
    lookahead() const
    {
        return requestLatency < responseLatency ? requestLatency
                                                : responseLatency;
    }

    /** Total keys in the cluster's global key space. */
    std::uint64_t
    totalRecords() const
    {
        return shard.engine.recordCount * shardCount;
    }
};

} // namespace checkin

#endif // CHECKIN_CLUSTER_CLUSTER_CONFIG_H_
