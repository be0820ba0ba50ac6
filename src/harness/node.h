/**
 * @file
 * One storage node: the fault plan, SSD (FTL + NAND) and storage
 * engine of one simulated device stack, built in the order every run
 * uses, with its post-load baseline and the paper's power cut
 * (§III-G).
 *
 * The node lives on a caller-owned SimContext. Callers install the
 * tracer, attribution, metrics and telemetry sinks on the context
 * *before* constructing the node, because tracer lanes and telemetry
 * probes register in the layer constructors. Build (the constructor)
 * and load() are separate steps so that callers can time them apart.
 */

#ifndef CHECKIN_HARNESS_NODE_H_
#define CHECKIN_HARNESS_NODE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "engine/storage_engine.h"
#include "fault/fault_plan.h"
#include "ftl/ftl.h"
#include "harness/experiment.h"
#include "sim/stats.h"
#include "ssd/ssd.h"

namespace checkin {

class SimContext;

/** Checkpoints completed since load: count, mean and max length. */
struct CheckpointTotals
{
    std::uint64_t count = 0;
    double avgMs = 0.0;
    double maxMs = 0.0;
};

/** What a power cut reports. */
struct PowerCutReport
{
    Ftl::RebuildReport rebuild; //!< the device's SPOR rebuild
    RecoveryInfo recovery;      //!< the fresh engine's recover()
};

/** One device + engine stack on a caller-owned SimContext. */
class StorageNode
{
  public:
    /**
     * Build the stack of @p cfg on @p ctx, which must outlive the
     * node: a FaultPlan seeded from the context (installed on it; a
     * disabled plan draws nothing), then the Ssd with the mode's
     * mapping unit (ExperimentConfig::resolvedMappingUnit()), then
     * the engine (presets::makeEngine).
     */
    StorageNode(SimContext &ctx, const ExperimentConfig &cfg);

    StorageNode(const StorageNode &) = delete;
    StorageNode &operator=(const StorageNode &) = delete;

    /**
     * Load every key with its initial value (@p size_of gives the
     * size), drain until the device is idle, and snapshot the
     * post-load baseline the reports below are relative to.
     */
    void load(const std::function<std::uint32_t(std::uint64_t)> &size_of);

    Ssd &ssd() { return *ssd_; }
    StorageEngine &engine() { return *engine_; }
    const StorageEngine &engine() const { return *engine_; }
    FaultPlan &faults() { return faults_; }

    /** Change of layer counter @p name since load (0 when absent). */
    std::uint64_t sinceLoad(const std::string &name) const;

    /** Checkpoints completed since load. */
    CheckpointTotals checkpointsSinceLoad() const;

    /**
     * Every layer's counters merged into one map, plus the fault
     * plan's outcome (fault.*, including its schedule digest) and
     * nand.eraseSkew — the map RunResult::raw exports.
     */
    std::map<std::string, std::uint64_t> counters() const;

    /**
     * Host crash: in-flight host work dies with the event queue and
     * the engine's RAM state is dropped; the device keeps its state.
     * A fresh engine then recovers from the device.
     */
    RecoveryInfo restartHost();

    /**
     * Power cut: the host crash above, plus the device's sudden
     * power loss (capacitor flush, firmware rebuild from OOB) and an
     * FTL invariant check, before the fresh engine recovers.
     */
    PowerCutReport powerCut();

  private:
    /** The four layers' counter registries, bottom layer first. */
    std::array<const StatRegistry *, 4> registries() const;
    std::map<std::string, std::uint64_t> layerCounters() const;
    /** Build a fresh engine over the device and recover it. */
    RecoveryInfo recoverEngine();

    SimContext &ctx_;
    EngineConfig engineCfg_;
    FaultPlan faults_;
    std::unique_ptr<Ssd> ssd_;
    std::unique_ptr<StorageEngine> engine_;

    // Post-load baseline.
    std::map<std::string, std::uint64_t> loadCounters_;
    std::size_t loadCheckpoints_ = 0;
};

} // namespace checkin

#endif // CHECKIN_HARNESS_NODE_H_
