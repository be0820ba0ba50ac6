/**
 * @file
 * Base class of synchronizer-driven cluster nodes.
 *
 * A node owns a private SimContext (event queue, clock, RNG,
 * observability sinks) and an outbox of cross-node messages. The
 * synchronizer advances nodes in bounded time windows — each node on
 * the same thread for the whole run, its context installed via
 * SimContextScope — and exchanges outboxes at window barriers, so a
 * node's state is only ever touched by one thread at a time.
 */

#ifndef CHECKIN_CLUSTER_NODE_H_
#define CHECKIN_CLUSTER_NODE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/message.h"
#include "sim/sim_context.h"

namespace checkin {

/** One synchronizer-driven simulation node (router or shard). */
class ClusterNode
{
  public:
    ClusterNode(std::uint64_t seed, std::string name)
        : ctx_(seed, std::move(name))
    {
    }

    virtual ~ClusterNode() = default;

    ClusterNode(const ClusterNode &) = delete;
    ClusterNode &operator=(const ClusterNode &) = delete;

    SimContext &ctx() { return ctx_; }

    /** Messages sent during the node's last window (send order). */
    std::vector<Message> &outbox() { return outbox_; }

    /**
     * Schedule @p m for processing at m.deliverTick in this node's
     * own event queue. Called at synchronizer barriers, in canonical
     * (source node, send order) order — together with the queue's
     * (tick, seq) dispatch order this makes delivery order
     * independent of the synchronizer thread count.
     */
    void
    deliver(const Message &m)
    {
        ctx_.events().schedule(m.deliverTick,
                               [this, m] { onMessage(m); });
    }

  protected:
    /** Handle a delivered message; runs inside the node's window at
     *  m.deliverTick, with the node's context installed. */
    virtual void onMessage(const Message &m) = 0;

    /** Deposit @p m for delivery at the next barrier. */
    void send(Message m) { outbox_.push_back(m); }

    SimContext ctx_;
    std::vector<Message> outbox_;
};

} // namespace checkin

#endif // CHECKIN_CLUSTER_NODE_H_
