/**
 * @file
 * Front-end router: the cluster's clients, key placement and
 * checkpoint coordination.
 *
 * The router is synchronizer node 0. Its clients are a ClientPool
 * (workload/client.h) over the global key space, in either loop mode
 * of the cluster's TrafficSpec. The pool's issue hook places each key
 * on a shard via the precomputed consistent-hash placement and sends
 * the request; the response completes the op in the pool, which
 * records client-visible latency. Under the Synchronized and
 * Staggered policies the router also runs the checkpoint coordinator
 * that sends CkptControl messages to the shards.
 */

#ifndef CHECKIN_CLUSTER_ROUTER_H_
#define CHECKIN_CLUSTER_ROUTER_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "workload/client.h"

namespace checkin {

/** Key placement: global key -> (owning shard, shard-local key). */
struct Placement
{
    std::vector<std::uint32_t> shardOf;
    std::vector<std::uint64_t> localKey;
};

/** What the router counts itself: routing and coordination. */
struct RoutingTotals
{
    std::uint64_t opsIssued = 0;
    std::uint64_t totalBytes = 0; //!< value payload bytes routed
    std::uint64_t ckptControls = 0;
    /** Per-shard routing totals (the validator checks these equal
     *  the shard-side counters exactly). */
    std::vector<std::uint64_t> routedOps;
    std::vector<std::uint64_t> routedBytes;
};

/** Router-side outcome of a cluster run: the clients' latency and
 *  progress (end-to-end, issue -> response delivery; in open loop
 *  from arrival) plus the router's routing totals. */
struct RouterStats : ClientStats, RoutingTotals
{
};

/** The front-end node (synchronizer node 0). */
class RouterNode : public ClusterNode
{
  public:
    /** Throws std::invalid_argument for 0 clients and a workload
     *  with operations. */
    RouterNode(std::uint64_t seed, const ClusterConfig &cfg,
               const Placement &placement);

    /**
     * Begin the run at @p t0: start the clients and (policy
     * permitting) the checkpoint coordinator. @p t0 must be at or
     * after every shard's load-quiesce tick so no request is
     * delivered into a shard's past.
     */
    void start(Tick t0);

    /** True once every workload operation has completed. */
    bool done() const { return pool_.done(); }

    RouterStats stats() const;

  protected:
    void onMessage(const Message &m) override;

  private:
    void routeOp(std::uint32_t client, const WorkloadGenerator::Op &op);
    void onCoordinatorTimer();

    const ClusterConfig &cfg_;
    const Placement &placement_;
    Tick coordPeriod_ = 0;     //!< coordinator self-reschedule period
    std::uint32_t nextCkptShard_ = 0; //!< staggered rotation cursor
    RoutingTotals routing_;
    ClientPool pool_;
};

} // namespace checkin

#endif // CHECKIN_CLUSTER_ROUTER_H_
