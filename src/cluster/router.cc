#include "cluster/router.h"

#include <algorithm>
#include <cassert>

namespace checkin {

namespace {

/** The router keeps no per-tenant accounting; without a tenant table
 *  its pool draws no tenant pick per arrival. */
TrafficSpec
withoutTenants(TrafficSpec traffic)
{
    traffic.tenants.clear();
    return traffic;
}

} // namespace

RouterNode::RouterNode(std::uint64_t seed, const ClusterConfig &cfg,
                       const Placement &placement)
    : ClusterNode(seed, "router"),
      cfg_(cfg),
      placement_(placement),
      pool_(
          ctx_,
          [this](std::uint32_t client, const WorkloadGenerator::Op &op) {
              routeOp(client, op);
          },
          cfg.totalRecords(), cfg.workload, withoutTenants(cfg.traffic),
          cfg.clients)
{
    routing_.routedOps.assign(cfg.shardCount, 0);
    routing_.routedBytes.assign(cfg.shardCount, 0);
}

RouterStats
RouterNode::stats() const
{
    return RouterStats{pool_.stats(), routing_};
}

void
RouterNode::start(Tick t0)
{
    assert(t0 >= ctx_.now());
    ctx_.events().schedule(t0, [this] { pool_.start(); });

    if (cfg_.coordination == CkptCoordination::Independent)
        return;
    Tick interval = cfg_.coordinationInterval > 0
                        ? cfg_.coordinationInterval
                        : cfg_.shard.engine.checkpointInterval;
    if (interval == 0)
        return; // coordination disabled along with the timers
    if (cfg_.coordination == CkptCoordination::Staggered) {
        // Rotate through the shards so each still checkpoints once
        // per interval, but at most one stalls at a time.
        interval = std::max<Tick>(1, interval / cfg_.shardCount);
    }
    coordPeriod_ = interval;
    ctx_.events().schedule(t0 + coordPeriod_,
                           [this] { onCoordinatorTimer(); });
}

void
RouterNode::onCoordinatorTimer()
{
    Message m;
    m.kind = Message::Kind::CkptControl;
    m.deliverTick = ctx_.now() + cfg_.requestLatency;
    if (cfg_.coordination == CkptCoordination::Synchronized) {
        for (std::uint32_t s = 0; s < cfg_.shardCount; ++s) {
            m.dst = 1 + s;
            send(m);
            ++routing_.ckptControls;
        }
    } else {
        m.dst = 1 + nextCkptShard_;
        nextCkptShard_ = (nextCkptShard_ + 1) % cfg_.shardCount;
        send(m);
        ++routing_.ckptControls;
    }
    ctx_.events().scheduleAfter(coordPeriod_,
                                [this] { onCoordinatorTimer(); });
}

void
RouterNode::routeOp(std::uint32_t client, const WorkloadGenerator::Op &op)
{
    ++routing_.opsIssued;
    const std::uint32_t shard = placement_.shardOf[op.key];

    Message m;
    m.kind = Message::Kind::Request;
    m.op = op.type;
    m.dst = 1 + shard;
    m.deliverTick = ctx_.now() + cfg_.requestLatency;
    m.key = placement_.localKey[op.key];
    m.client = client;
    m.valueBytes = op.valueBytes;
    m.scanLength = op.scanLength;
    send(m);

    ++routing_.routedOps[shard];
    if (op.type == WorkloadGenerator::OpType::Update ||
        op.type == WorkloadGenerator::OpType::Rmw) {
        routing_.routedBytes[shard] += op.valueBytes;
        routing_.totalBytes += op.valueBytes;
    }
}

void
RouterNode::onMessage(const Message &m)
{
    assert(m.kind == Message::Kind::Response &&
           "the router only receives responses");
    pool_.complete(m.client, QueryResult{ctx_.now(), m.duringCheckpoint,
                                         m.found, m.scanned});
}

} // namespace checkin
