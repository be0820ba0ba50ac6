#include "harness/node.h"

#include <algorithm>
#include <vector>

#include "harness/presets.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"

namespace checkin {

StorageNode::StorageNode(SimContext &ctx, const ExperimentConfig &cfg)
    : ctx_(ctx),
      engineCfg_(cfg.engine),
      faults_(cfg.faults, ctx.deriveSeed(FaultPlan::kSeedStream))
{
    // The plan must be installed before the device: the Ssd wires it
    // into the NAND at construction. Its seed derives from the
    // context seed, so the schedule is part of the run identity.
    ctx_.setFaults(&faults_);
    FtlConfig ftl_cfg = cfg.ftl;
    ftl_cfg.mappingUnitBytes = cfg.resolvedMappingUnit();
    ssd_ = std::make_unique<Ssd>(ctx_, cfg.nand, ftl_cfg, cfg.ssd);
    engine_ = presets::makeEngine(ctx_, *ssd_, engineCfg_);
}

void
StorageNode::load(
    const std::function<std::uint32_t(std::uint64_t)> &size_of)
{
    engine_->load(size_of);
    // Drain the load so measured work starts from an idle device,
    // then snapshot the baseline so reports exclude the load.
    EventQueue &eq = ctx_.events();
    eq.schedule(ssd_->quiesceTick(), [] {});
    eq.run();
    loadCounters_ = layerCounters();
    loadCheckpoints_ = engine_->checkpointDurations().size();
}

std::array<const StatRegistry *, 4>
StorageNode::registries() const
{
    return {&ssd_->nand().stats(), &ssd_->ftl().stats(), &ssd_->stats(),
            &engine_->stats()};
}

std::map<std::string, std::uint64_t>
StorageNode::layerCounters() const
{
    std::map<std::string, std::uint64_t> out;
    for (const StatRegistry *reg : registries()) {
        for (const auto &[k, v] : reg->all())
            out[k] = v;
    }
    return out;
}

std::uint64_t
StorageNode::sinceLoad(const std::string &name) const
{
    // Every layer prefixes its counters (nand., ftl./gc./wl.,
    // ssd./isce., engine.), so at most one registry holds @p name.
    std::uint64_t now = 0;
    for (const StatRegistry *reg : registries())
        now += reg->get(name);
    const auto base = loadCounters_.find(name);
    return now - (base == loadCounters_.end() ? 0 : base->second);
}

CheckpointTotals
StorageNode::checkpointsSinceLoad() const
{
    const std::vector<Tick> &durations = engine_->checkpointDurations();
    CheckpointTotals t;
    t.count = durations.size() - loadCheckpoints_;
    Tick total = 0;
    Tick worst = 0;
    for (std::size_t i = loadCheckpoints_; i < durations.size(); ++i) {
        total += durations[i];
        worst = std::max(worst, durations[i]);
    }
    if (t.count > 0)
        t.avgMs = double(total) / double(t.count) / double(kMsec);
    t.maxMs = double(worst) / double(kMsec);
    return t;
}

std::map<std::string, std::uint64_t>
StorageNode::counters() const
{
    std::map<std::string, std::uint64_t> out = layerCounters();
    // The fault plan's outcome and the wear skew ride along, so
    // sweeps and the oracle can assert fault determinism from
    // exported artifacts alone.
    const FaultCounters &fc = faults_.counters();
    out["fault.faultyReads"] = fc.faultyReads;
    out["fault.readRetries"] = fc.readRetries;
    out["fault.uncorrectableReads"] = fc.uncorrectableReads;
    out["fault.programFails"] = fc.programFails;
    out["fault.eraseFails"] = fc.eraseFails;
    out["fault.powerLosses"] = fc.powerLosses;
    out["fault.digest"] = faults_.digest();
    out["nand.eraseSkew"] =
        ssd_->nand().maxEraseCount() - ssd_->nand().minEraseCount();
    return out;
}

RecoveryInfo
StorageNode::recoverEngine()
{
    engine_ = presets::makeEngine(ctx_, *ssd_, engineCfg_);
    return engine_->recover();
}

RecoveryInfo
StorageNode::restartHost()
{
    ctx_.events().clear();
    engine_.reset();
    return recoverEngine();
}

PowerCutReport
StorageNode::powerCut()
{
    ctx_.events().clear();
    engine_.reset();
    PowerCutReport r;
    r.rebuild = ssd_->suddenPowerLoss();
    ssd_->ftl().checkInvariants();
    r.recovery = recoverEngine();
    return r;
}

} // namespace checkin
