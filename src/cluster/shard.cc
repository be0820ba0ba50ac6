#include "cluster/shard.h"

#include <algorithm>
#include <cassert>

#include "workload/client.h"

namespace checkin {

ShardNode::ShardNode(std::uint32_t shard, std::uint64_t seed,
                     const ExperimentConfig &cfg,
                     std::vector<std::uint64_t> global_keys,
                     const WorkloadSpec &sizer_spec,
                     Tick response_latency, bool attribution)
    : ClusterNode(seed, "shard" + std::to_string(shard)),
      shard_(shard),
      cfg_(cfg),
      globalKeys_(std::move(global_keys)),
      sizerSpec_(sizer_spec),
      responseLatency_(response_latency),
      telem_(cfg.obs.telemetry)
{
    attr_.setEnabled(attribution);
    if (attribution)
        ctx_.setAttribution(&attr_);
    // The stack built in buildAndLoad() registers its probes against
    // this sampler via the shard's context.
    if (telem_.enabled())
        ctx_.setTelemetry(&telem_);
}

ShardNode::~ShardNode() = default;

void
ShardNode::buildAndLoad()
{
    SimContextScope scope(ctx_);

    // The node's fault plan seeds from the shard's context seed, so
    // each shard has its own deterministic fault schedule.
    node_ = std::make_unique<StorageNode>(ctx_, cfg_);

    // Initial values are sized by the *global* key so shard placement
    // never changes a key's content, only where it lives. Every
    // summary is a delta from the node's post-load baseline.
    WorkloadGenerator sizer(
        sizerSpec_,
        std::max<std::uint64_t>(1, globalKeys_.size()));
    node_->load([this, &sizer](std::uint64_t local_key) {
        return sizer.initialSize(globalKeys_[local_key]);
    });
    if (attr_.enabled())
        attr_.clearForMeasurement();

    // Arm sampling on the shard's own queue: windows are in shard
    // sim time, untouched by synchronizer threading.
    telem_.begin(ctx_.events());

    engine().start();
}

void
ShardNode::onMessage(const Message &m)
{
    switch (m.kind) {
      case Message::Kind::Request:
        execute(m);
        break;
      case Message::Kind::CkptControl:
        engine().requestCheckpoint(obs::CkptTrigger::Manual);
        break;
      case Message::Kind::Response:
        assert(false && "shards do not receive responses");
        break;
    }
}

void
ShardNode::execute(const Message &m)
{
    const Tick arrival = ctx_.now();
    const obs::OpToken tok = obs::attrBeginOp(opClass(m.op), arrival);
    std::uint32_t slot = freeSlot_;
    if (slot != kNoSlot) {
        freeSlot_ = inflight_[slot].nextFree;
    } else {
        slot = std::uint32_t(inflight_.size());
        inflight_.emplace_back();
    }
    inflight_[slot] = InFlight{m, arrival, tok};
    obs::AttrOpScope attr_scope(tok);
    issueOp(engine(), {m.op, m.key, m.valueBytes, m.scanLength},
            [this, slot](const QueryResult &res) { complete(slot, res); });
}

void
ShardNode::complete(std::uint32_t slot, const QueryResult &res)
{
    const InFlight f = inflight_[slot];
    inflight_[slot].nextFree = freeSlot_;
    freeSlot_ = slot;
    const Message &m = f.request;
    obs::attrFinishOp(f.tok, res.done);
    ++ops_;
    if (m.op == WorkloadGenerator::OpType::Update ||
        m.op == WorkloadGenerator::OpType::Rmw) {
        bytes_ += m.valueBytes;
    }
    service_.record(res.done > f.arrival ? res.done - f.arrival : 0);
    Message resp = m;
    resp.kind = Message::Kind::Response;
    resp.dst = 0; // the router
    resp.deliverTick = res.done + responseLatency_;
    resp.found = res.found;
    resp.scanned = res.scanned;
    resp.duringCheckpoint = res.duringCheckpoint;
    send(resp);
}

void
ShardNode::drainCheckpoint()
{
    SimContextScope scope(ctx_);
    while (engine().checkpointInProgress() && ctx_.events().step()) {
    }
    // Flush the residual window before verification reads perturb
    // the shard's device counters.
    telem_.finalize(ctx_.events().now());
}

ShardSummary
ShardNode::summary(double tail_quantile) const
{
    ShardSummary s;
    s.shard = shard_;
    s.keys = globalKeys_.size();
    s.ops = ops_;
    s.bytes = bytes_;
    s.events = ctx_.events().dispatched();
    s.service = service_;

    const CheckpointTotals ckpts = node_->checkpointsSinceLoad();
    s.checkpoints = ckpts.count;
    s.avgCheckpointMs = ckpts.avgMs;
    s.maxCheckpointMs = ckpts.maxMs;
    s.nandReads = node_->sinceLoad("nand.reads");
    s.nandPrograms = node_->sinceLoad("nand.programs");
    s.nandErases = node_->sinceLoad("nand.erases");
    s.journalStalls = node_->sinceLoad("engine.journalStalls");

    if (attr_.enabled()) {
        s.attribution = attr_.summary(tail_quantile);
        constexpr auto stall =
            std::size_t(obs::Stage::CheckpointStall);
        for (const obs::ClassBreakdown &c : s.attribution.perClass)
            s.ckptStallTicks += c.dwell[stall];
        for (const obs::ClassBreakdown &c :
             s.attribution.tailPerClass) {
            s.tailCkptStallTicks += c.dwell[stall];
        }
    }
    return s;
}

} // namespace checkin
