#include "workload/client.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace checkin {

namespace {

const char *
opTraceName(WorkloadGenerator::OpType type)
{
    switch (type) {
      case WorkloadGenerator::OpType::Read: return "op.read";
      case WorkloadGenerator::OpType::Update: return "op.update";
      case WorkloadGenerator::OpType::Rmw: return "op.rmw";
      case WorkloadGenerator::OpType::Scan: return "op.scan";
      case WorkloadGenerator::OpType::Delete: return "op.delete";
    }
    return "op.unknown";
}

} // namespace

obs::OpClass
opClass(WorkloadGenerator::OpType type)
{
    switch (type) {
      case WorkloadGenerator::OpType::Read: return obs::OpClass::Read;
      case WorkloadGenerator::OpType::Update:
        return obs::OpClass::Update;
      case WorkloadGenerator::OpType::Rmw: return obs::OpClass::Rmw;
      case WorkloadGenerator::OpType::Scan: return obs::OpClass::Scan;
      case WorkloadGenerator::OpType::Delete:
        return obs::OpClass::Delete;
    }
    return obs::OpClass::Read;
}

void
issueOp(StorageEngine &engine, const WorkloadGenerator::Op &op,
        StorageEngine::QueryCb cb)
{
    switch (op.type) {
      case WorkloadGenerator::OpType::Read:
        engine.get(op.key, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Update:
        engine.update(op.key, op.valueBytes, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Rmw:
        engine.readModifyWrite(op.key, op.valueBytes, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Scan:
        engine.scan(op.key, op.scanLength, std::move(cb));
        break;
      case WorkloadGenerator::OpType::Delete:
        engine.erase(op.key, std::move(cb));
        break;
    }
}

ClientPool::ClientPool(SimContext &ctx, StorageEngine &engine,
                       const WorkloadSpec &spec,
                       const TrafficSpec &traffic,
                       std::uint32_t threads)
    : ClientPool(
          ctx,
          [this, &engine](std::uint32_t slot,
                          const WorkloadGenerator::Op &op) {
              issueOp(engine, op, [this, slot](const QueryResult &res) {
                  complete(slot, res);
              });
          },
          engine.config().recordCount, spec, traffic, threads)
{
}

ClientPool::ClientPool(SimContext &ctx, Issue issue,
                       std::uint64_t key_count,
                       const WorkloadSpec &spec,
                       const TrafficSpec &traffic,
                       std::uint32_t slots)
    : issue_(std::move(issue)),
      eq_(ctx.events()),
      gen_(spec, key_count),
      traffic_(traffic),
      opTarget_(spec.operationCount),
      threads_(slots),
      inflight_(slots)
{
    if (threads_ == 0 && opTarget_ > 0) {
        throw std::invalid_argument(
            "load driver needs at least one client thread");
    }
    for (std::uint32_t t = 0; t < threads_; ++t) {
        obs::nameLane(obs::Cat::Workload, t,
                      "client" + std::to_string(t));
    }
    if (traffic_.mode == LoopMode::Open) {
        arrivals_.emplace(
            traffic_,
            ctx.deriveSeed(TrafficSpec::kArrivalStream));
        if (traffic_.hasFlashCrowd()) {
            WorkloadSpec crowd = spec;
            crowd.distribution = Distribution::Latest;
            crowd.seed =
                ctx.deriveSeed(TrafficSpec::kFlashKeyStream);
            flashGen_ =
                std::make_unique<WorkloadGenerator>(crowd, key_count);
        }
        for (const TenantSpec &t : traffic_.tenants) {
            TenantStats ts;
            ts.name = t.name;
            ts.sloLatency = t.sloLatency;
            stats_.tenants.push_back(std::move(ts));
        }
    }
    telem_ = ctx.telemetry();
    if (telem_ != nullptr && telem_->enabled()) {
        telem_->addGauge("client.queueDepth", [this] {
            return std::uint64_t(queue_.size());
        });
        telem_->addGauge("client.freeSlots", [this] {
            return std::uint64_t(freeSlots_.size());
        });
        telem_->addCounter("client.opsCompleted", [this] {
            return stats_.opsCompleted;
        });
        telem_->addCounter("client.opsOffered", [this] {
            return stats_.opsOffered;
        });
        telem_->addCounter("client.sloViolations", [this] {
            return stats_.sloViolations;
        });
        // Per-tenant achieved load + SLO burn rate (windowed deltas
        // of these counters are rates over the sampling window).
        for (std::size_t i = 0; i < stats_.tenants.size(); ++i) {
            const std::string base =
                "tenant." + stats_.tenants[i].name + ".";
            telem_->addCounter(base + "opsCompleted", [this, i] {
                return stats_.tenants[i].opsCompleted;
            });
            telem_->addCounter(base + "sloViolations", [this, i] {
                return stats_.tenants[i].sloViolations;
            });
        }
    }
}

void
ClientPool::start()
{
    stats_.firstIssue = eq_.now();
    if (traffic_.mode == LoopMode::Open) {
        freeSlots_.reserve(threads_);
        // Popping from the back hands the lowest slot ids out first.
        for (std::uint32_t t = threads_; t > 0; --t)
            freeSlots_.push_back(t - 1);
        scheduleNextArrival();
        return;
    }
    for (std::uint32_t t = 0; t < threads_ && opsIssued_ < opTarget_;
         ++t) {
        issueNext(t);
    }
}

// ----------------------------------------------------------------------
// Closed loop
// ----------------------------------------------------------------------

void
ClientPool::issueNext(std::uint32_t thread)
{
    if (opsIssued_ >= opTarget_)
        return;
    ++opsIssued_;
    const WorkloadGenerator::Op op = gen_.next();
    const Tick issued = eq_.now();
    // Start the op's latency-attribution timeline and make it the
    // ambient current op for the engine entry call below (the engine
    // captures the token into its task); finish it exactly when the
    // client observes completion, so the stage dwells sum to the
    // client-visible latency.
    const obs::OpToken tok = obs::attrBeginOp(opClass(op.type), issued);
    InFlight &f = inflight_[thread];
    f.type = op.type;
    f.start = issued;
    f.tok = tok;
    obs::AttrOpScope attr_scope(tok);
    issue_(thread, op);
}

// ----------------------------------------------------------------------
// Open loop
// ----------------------------------------------------------------------

void
ClientPool::scheduleNextArrival()
{
    if (stats_.opsOffered >= opTarget_)
        return;
    const Tick gap = arrivals_->nextInterarrival(eq_.now());
    eq_.scheduleAfter(gap, [this] { onArrival(); });
}

void
ClientPool::onArrival()
{
    const Tick arrival = eq_.now();
    ++stats_.opsOffered;
    stats_.lastArrival = arrival;
    PendingOp p;
    // The key picker switches to the `latest` distribution inside a
    // flash-crowd window: the surge hammers recently-updated keys.
    WorkloadGenerator &g =
        flashGen_ != nullptr && arrivals_->inFlashCrowd(arrival)
            ? *flashGen_
            : gen_;
    p.op = g.next();
    p.arrival = arrival;
    p.tenant = arrivals_->pickTenant();
    // The timeline starts at arrival: queue wait is part of the
    // latency an open-loop client observes.
    p.tok = obs::attrBeginOp(opClass(p.op.type), arrival);
    queue_.push_back(std::move(p));
    scheduleNextArrival();
    if (!freeSlots_.empty()) {
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        dispatch(slot);
    }
}

void
ClientPool::dispatch(std::uint32_t slot)
{
    assert(!queue_.empty());
    PendingOp p = std::move(queue_.front());
    queue_.pop_front();
    const Tick issued = eq_.now();
    stats_.queueDelay.record(issued > p.arrival ? issued - p.arrival
                                                : 0);
    obs::attrMark(p.tok, obs::Stage::QueueDelay, issued);
    inflight_[slot] = InFlight{p.op.type, p.arrival, p.tok, p.tenant};
    obs::AttrOpScope attr_scope(p.tok);
    issue_(slot, p.op);
}

// ----------------------------------------------------------------------
// Completion
// ----------------------------------------------------------------------

void
ClientPool::complete(std::uint32_t slot, const QueryResult &res)
{
    // Copy: the next issue below reuses the slot.
    const InFlight f = inflight_[slot];
    obs::attrFinishOp(f.tok, res.done);
    // Open loop: latency from arrival, queue delay included.
    record(f.type, slot, f.start, res);
    if (traffic_.mode == LoopMode::Closed) {
        issueNext(slot);
        return;
    }
    if (f.tenant < stats_.tenants.size()) {
        TenantStats &ts = stats_.tenants[f.tenant];
        const Tick lat = res.done > f.start ? res.done - f.start : 0;
        ts.latency.record(lat);
        ++ts.opsCompleted;
        const bool violated = ts.sloLatency > 0 && lat > ts.sloLatency;
        if (violated) {
            ++ts.sloViolations;
            ++stats_.sloViolations;
        }
        if (telem_ != nullptr && ts.sloLatency > 0)
            telem_->noteSloResult(res.done, violated);
    }
    if (!queue_.empty())
        dispatch(slot);
    else
        freeSlots_.push_back(slot);
}

void
ClientPool::record(WorkloadGenerator::OpType type,
                   std::uint32_t thread, Tick issued,
                   const QueryResult &res)
{
    const Tick latency = res.done > issued ? res.done - issued : 0;
    stats_.all.record(latency);
    const bool is_read = type == WorkloadGenerator::OpType::Read ||
                         type == WorkloadGenerator::OpType::Scan;
    obs::span(obs::Cat::Workload, thread, opTraceName(type), issued,
              res.done,
              {{"duringCkpt", res.duringCheckpoint ? 1u : 0u}});
    if (sampler_)
        sampler_(issued, res.done, res.duringCheckpoint, is_read);
    if (is_read)
        stats_.reads.record(latency);
    else
        stats_.writes.record(latency);
    if (res.duringCheckpoint) {
        stats_.duringCheckpoint.record(latency);
        if (is_read)
            stats_.readsDuringCheckpoint.record(latency);
        else
            stats_.writesDuringCheckpoint.record(latency);
    } else {
        stats_.outsideCheckpoint.record(latency);
    }
    ++stats_.opsCompleted;
    stats_.lastCompletion = std::max(stats_.lastCompletion, res.done);
}

} // namespace checkin
