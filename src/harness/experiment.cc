#include "harness/experiment.h"

#include <stdexcept>

#include "engine/storage_engine.h"
#include "harness/node.h"
#include "harness/run_export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"

namespace checkin {

std::uint32_t
ExperimentConfig::resolvedMappingUnit() const
{
    if (mappingUnitOverride != 0)
        return mappingUnitOverride;
    // The LSM backend always journals and remaps at sector
    // granularity, whatever checkpoint mode tags the config.
    if (engine.backend == EngineBackend::Lsm)
        return 512;
    switch (engine.mode) {
      case CheckpointMode::Baseline:
      case CheckpointMode::IscA:
      case CheckpointMode::IscB:
        // Conventional page-granularity mapping.
        return nand.pageBytes;
      case CheckpointMode::IscC:
      case CheckpointMode::CheckIn:
        // The paper's modified sub-page mapping (host sector size).
        return 512;
    }
    return 512;
}

RunResult
runExperiment(const ExperimentConfig &cfg)
{
    // The run's context: event queue, root RNG, and observability
    // sinks. Everything the simulation touches hangs off it (or off
    // this stack frame), so concurrent runExperiment calls on
    // different threads share no mutable state.
    SimContext ctx(cfg.seed != 0 ? cfg.seed : cfg.workload.seed,
                   cfg.obs.runName);

    // The tracer must be installed and enabled before the device is
    // built: lane names register from the component constructors. An
    // enabled ambient tracer installed by the caller (on this thread)
    // is reused so callers can keep the events; otherwise a run-local
    // one is used when tracing was requested.
    obs::Tracer own_tracer;
    obs::Tracer *tracer = nullptr;
    if (cfg.obs.traceEnabled) {
        if (obs::traceOn()) {
            tracer = obs::installedTracer();
        } else {
            own_tracer.setEnabled(true);
            tracer = &own_tracer;
        }
    }
    ctx.setTracer(tracer);

    // Same reuse discipline for the latency-attribution collector:
    // an enabled ambient collector (installed by the caller) keeps
    // the op records; otherwise a run-local one serves the run.
    obs::AttributionCollector own_attr;
    obs::AttributionCollector *attr = nullptr;
    if (cfg.obs.attributionEnabled) {
        if (obs::attributionOn()) {
            attr = obs::installedAttribution();
        } else {
            own_attr.setEnabled(true);
            attr = &own_attr;
        }
        attr->setFlightRecorderK(cfg.obs.attrFlightRecorderK);
    }
    ctx.setAttribution(attr);

    obs::MetricsRegistry metrics;
    ctx.setMetrics(&metrics);

    // The telemetry sampler must exist before the device: layer
    // constructors (journal, SSD, engine, client pool) register
    // their probes and capture the pointer. Sampling only starts at
    // begin() after the load, so artifacts cover the measured run.
    obs::TelemetrySampler telemetry(cfg.obs.telemetry);
    if (telemetry.enabled())
        ctx.setTelemetry(&telemetry);
    SimContextScope active(ctx);

    EventQueue &eq = ctx.events();
    StorageNode node(ctx, cfg);
    StorageEngine &engine = node.engine();
    WorkloadGenerator sizer(cfg.workload, cfg.engine.recordCount);
    node.load([&sizer](std::uint64_t key) {
        return sizer.initialSize(key);
    });
    if (tracer != nullptr) {
        // Drop load-phase events (lane names survive) so the trace
        // covers exactly the measured run.
        tracer->clear();
    }
    if (attr != nullptr)
        attr->clearForMeasurement();

    const bool want_artifacts = !cfg.obs.artifactDir.empty();

    ClientPool pool(ctx, engine, cfg.workload, cfg.traffic,
                    cfg.threads);
    if (telemetry.enabled() && attr != nullptr) {
        // Per-stage dwell rates: windowed deltas of the collector's
        // live cumulative per-stage dwell.
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
            telemetry.addCounter(
                std::string("attr.dwell.") +
                    obs::stageName(obs::Stage(s)),
                [attr, s] {
                    return std::uint64_t(
                        attr->liveStageTicks(obs::Stage(s)));
                });
        }
    }
    telemetry.begin(eq);
    if (want_artifacts) {
        const obs::MetricId lat_series =
            metrics.series("op.latency", cfg.obs.seriesInterval);
        const obs::MetricId lat_hist =
            metrics.histogram("op.latency");
        pool.setSampler([&metrics, lat_series, lat_hist](
                            Tick issued, Tick done, bool, bool) {
            const Tick lat = done > issued ? done - issued : 0;
            metrics.sample(lat_series, done, lat);
            metrics.observe(lat_hist, lat);
        });
    }
    engine.start();
    pool.start();
    while (!pool.done()) {
        if (!eq.step())
            throw std::logic_error(
                "experiment deadlock: event queue drained before "
                "the workload finished");
    }
    // Let an in-flight checkpoint finish so its cost is attributed.
    while (engine.checkpointInProgress() && eq.step()) {
    }
    // Flush the residual telemetry window before verification reads
    // perturb the device counters.
    telemetry.finalize(eq.now());

    // Full-store content check: every committed key must read back
    // its exact chunk tokens wherever it currently lives.
    engine.verifyAllKeys();

    RunResult r;
    r.client = pool.stats();
    r.simSpan = r.client.span();
    r.throughputOps = r.client.opsPerSec();
    r.avgLatencyUs = r.client.all.mean() / double(kUsec);

    const CheckpointTotals ckpts = node.checkpointsSinceLoad();
    r.checkpoints = ckpts.count;
    r.avgCheckpointMs = ckpts.avgMs;
    r.maxCheckpointMs = ckpts.maxMs;

    r.raw = node.counters();
    for (const char *name :
         {"fault.digest", "fault.uncorrectableReads",
          "fault.programFails", "fault.eraseFails"}) {
        metrics.set(metrics.counter(name), r.raw.at(name));
    }
    r.nandReads = node.sinceLoad("nand.reads");
    r.nandPrograms = node.sinceLoad("nand.programs");
    r.nandErases = node.sinceLoad("nand.erases");
    r.gcInvocations = node.sinceLoad("gc.invocations");
    r.gcMigratedSlots = node.sinceLoad("gc.migratedSlots");
    r.remaps = node.sinceLoad("ftl.remaps");
    r.redundantSlotWrites = node.sinceLoad("ftl.slotWrites.checkpoint");
    r.redundantBytes =
        r.redundantSlotWrites * cfg.resolvedMappingUnit();
    r.invalidatedSlots = node.sinceLoad("ftl.invalidatedSlots");
    r.journalPayloadBytes = node.sinceLoad("engine.journalPayloadBytes");
    r.journalChunksStored = node.sinceLoad("engine.journalChunksStored");
    r.journalChunkBytes = kChunkBytes;
    r.journalStalls = node.sinceLoad("engine.journalStalls");
    r.journalFillRate = engine.journalFillRate();
    metrics.set(metrics.gauge("journal.fillRate"),
                std::uint64_t(r.journalFillRate));
    r.mergedUnits = node.sinceLoad("engine.mergedUnits");
    r.ckptLogsSeen = node.sinceLoad("engine.ckptLogsSeen");
    r.ckptLatestEntries = node.sinceLoad("engine.ckptLatestEntries");
    r.hostWriteSectors = node.sinceLoad("ftl.hostWriteSectors");
    r.hostReadSectors = node.sinceLoad("ftl.hostReadSectors");
    r.ckptDataTicks = node.sinceLoad("engine.ckptDataTicks");
    r.ckptMetaTicks = node.sinceLoad("engine.ckptMetaTicks");
    r.ckptDeleteTicks = node.sinceLoad("engine.ckptDeleteTicks");
    if (r.journalPayloadBytes > 0) {
        r.waf = double(r.nandPrograms) * cfg.nand.pageBytes /
                double(r.journalPayloadBytes);
    }

    // Kernel health counters: clamped (past-tick) schedules are
    // silent model bugs, so they ride along in every artifact bundle.
    metrics.set(metrics.counter("sim.clampedSchedules"),
                eq.clampedSchedules());
    metrics.set(metrics.counter("sim.dispatchedEvents"),
                eq.dispatched());

    if (attr != nullptr) {
        r.attribution = attr->summary(cfg.obs.attrTailQuantile);
        r.checkpointTimeline = attr->checkpoints();

        // Surface the breakdown in the metrics registry: total dwell
        // per stage as counters, per-class x per-stage latency
        // histograms built from the retained op records.
        metrics.set(metrics.counter("attr.ops"),
                    r.attribution.totalOps);
        metrics.set(metrics.counter("attr.tailOps"),
                    r.attribution.tailOps);
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
            Tick total = 0;
            for (const obs::ClassBreakdown &c :
                 r.attribution.perClass) {
                total += c.dwell[s];
            }
            if (total > 0) {
                metrics.set(
                    metrics.counter(
                        std::string("attr.dwell.") +
                        obs::stageName(obs::Stage(s))),
                    total);
            }
        }
        obs::MetricId ids[obs::kOpClassCount][obs::kStageCount];
        bool have[obs::kOpClassCount][obs::kStageCount] = {};
        for (const obs::OpRecord &rec : attr->ops()) {
            const auto c = std::size_t(rec.cls);
            for (std::size_t s = 0; s < obs::kStageCount; ++s) {
                if (rec.dwell[s] == 0)
                    continue;
                if (!have[c][s]) {
                    ids[c][s] = metrics.histogram(
                        std::string("attr.") +
                        obs::opClassName(rec.cls) + "." +
                        obs::stageName(obs::Stage(s)));
                    have[c][s] = true;
                }
                metrics.observe(ids[c][s], rec.dwell[s]);
            }
        }
    }

    r.telemetry = telemetry.summary();
    if (telemetry.enabled()) {
        metrics.set(metrics.counter("telemetry.samples"),
                    telemetry.sampleCount());
        metrics.set(metrics.counter("telemetry.anomalies"),
                    telemetry.anomalyCount());
    }

    if (want_artifacts) {
        metrics.importStats(node.ssd().nand().stats());
        metrics.importStats(node.ssd().ftl().stats());
        metrics.importStats(node.ssd().stats());
        metrics.importStats(engine.stats());
        obs::ArtifactWriter writer(cfg.obs.artifactDir,
                                   cfg.obs.runName);
        if (tracer != nullptr)
            writer.writeText("trace.json", tracer->toJson());
        writer.writeText("metrics.json", metrics.toJson());
        writer.writeText("metrics.csv", metrics.scalarsCsv());
        writer.writeText("series.csv", metrics.seriesCsv());
        if (attr != nullptr) {
            writer.writeText(
                "attribution.json",
                attr->toJson(cfg.obs.attrTailQuantile));
            writer.writeText("checkpoints.json",
                             attr->checkpointsJson());
        }
        if (telemetry.enabled()) {
            writer.writeText("telemetry.json",
                             telemetry.telemetryJson());
            writer.writeText("blackbox.json",
                             telemetry.blackboxJson());
        }
        writer.writeText("summary.json", runResultJson(r));
        r.artifacts = writer.bundle();
    }
    return r;
}

} // namespace checkin
