#include "harness/run_export.h"

#include <sstream>

namespace checkin {

void
histJson(obs::JsonWriter &w, const std::string &key,
         const LatencyHistogram &h)
{
    w.key(key).beginObject();
    w.kv("count", h.count());
    w.kv("max", h.max());
    w.kv("mean", h.mean());
    w.kv("min", h.min());
    w.kv("p50", h.quantile(0.5));
    w.kv("p99", h.quantile(0.99));
    w.kv("p999", h.quantile(0.999));
    w.endObject();
}

namespace {

void
classBreakdownsJson(
    obs::JsonWriter &w, const std::string &key,
    const std::array<obs::ClassBreakdown, obs::kOpClassCount> &cls)
{
    w.key(key).beginObject();
    for (std::size_t c = 0; c < obs::kOpClassCount; ++c) {
        const obs::ClassBreakdown &b = cls[c];
        if (b.ops == 0)
            continue;
        w.key(obs::opClassName(obs::OpClass(c))).beginObject();
        w.kv("ops", b.ops);
        w.key("stages").beginObject();
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
            if (b.dwell[s] != 0)
                w.kv(obs::stageName(obs::Stage(s)), b.dwell[s]);
        }
        w.endObject();
        w.kv("totalTicks", b.totalTicks());
        w.endObject();
    }
    w.endObject();
}

} // namespace

void
writeRunResultJson(obs::JsonWriter &w, const RunResult &r)
{
    w.beginObject();

    w.key("attribution").beginObject();
    if (r.attribution.enabled) {
        classBreakdownsJson(w, "classes", r.attribution.perClass);
        w.kv("enabled", true);
        classBreakdownsJson(w, "tailClasses",
                            r.attribution.tailPerClass);
        w.kv("tailOps", r.attribution.tailOps);
        w.kv("tailQuantile", r.attribution.tailQuantile);
        w.kv("tailThresholdTicks", r.attribution.tailThresholdTicks);
        w.kv("totalOps", r.attribution.totalOps);
    } else {
        w.kv("enabled", false);
    }
    w.endObject();

    w.kv("avgLatencyUs", r.avgLatencyUs);

    w.key("checkpoints").beginObject();
    w.kv("avgMs", r.avgCheckpointMs);
    w.kv("count", r.checkpoints);
    w.kv("dataTicks", r.ckptDataTicks);
    w.kv("deleteTicks", r.ckptDeleteTicks);
    w.kv("latestEntries", r.ckptLatestEntries);
    w.kv("logsSeen", r.ckptLogsSeen);
    w.kv("maxMs", r.maxCheckpointMs);
    w.kv("metaTicks", r.ckptMetaTicks);
    w.endObject();

    w.key("checkpointTimeline").beginArray();
    for (const obs::CheckpointStat &c : r.checkpointTimeline) {
        w.beginObject();
        w.kv("bufferedSmallRecords", c.bufferedSmallRecords);
        w.kv("copiedChunks", c.copiedChunks);
        w.kv("copiedPairs", c.copiedPairs);
        w.kv("cowCommands", c.cowCommands);
        w.kv("dataTicks", c.dataDoneTick - c.startTick);
        w.kv("deleteTicks", c.endTick - c.metaDoneTick);
        w.kv("endTick", c.endTick);
        w.kv("entries", c.entries);
        w.kv("fullRecords", c.fullRecords);
        w.kv("mergedRecords", c.mergedRecords);
        w.kv("metaTicks", c.metaDoneTick - c.dataDoneTick);
        w.kv("partialRecords", c.partialRecords);
        w.kv("rawRecords", c.rawRecords);
        w.kv("remappedPairs", c.remappedPairs);
        w.kv("remappedUnits", c.remappedUnits);
        w.kv("seq", c.seq);
        w.kv("startTick", c.startTick);
        w.kv("tombstones", c.tombstones);
        w.kv("totalTicks", c.endTick - c.startTick);
        w.kv("trigger", obs::ckptTriggerName(c.trigger));
        w.endObject();
    }
    w.endArray();

    w.key("client").beginObject();
    histJson(w, "all", r.client.all);
    histJson(w, "duringCheckpoint", r.client.duringCheckpoint);
    w.kv("offeredOpsPerSec", r.client.offeredOpsPerSec());
    w.kv("opsCompleted", r.client.opsCompleted);
    w.kv("opsOffered", r.client.opsOffered);
    histJson(w, "outsideCheckpoint", r.client.outsideCheckpoint);
    histJson(w, "queueDelay", r.client.queueDelay);
    histJson(w, "reads", r.client.reads);
    histJson(w, "readsDuringCheckpoint",
             r.client.readsDuringCheckpoint);
    w.kv("sloViolations", r.client.sloViolations);
    w.key("tenants").beginArray();
    for (const TenantStats &t : r.client.tenants) {
        w.beginObject();
        histJson(w, "latency", t.latency);
        w.kv("name", t.name);
        w.kv("opsCompleted", t.opsCompleted);
        w.kv("sloLatencyTicks", t.sloLatency);
        w.kv("sloViolations", t.sloViolations);
        w.endObject();
    }
    w.endArray();
    histJson(w, "writes", r.client.writes);
    histJson(w, "writesDuringCheckpoint",
             r.client.writesDuringCheckpoint);
    w.endObject();

    w.key("flash").beginObject();
    w.kv("erases", r.nandErases);
    w.kv("gcInvocations", r.gcInvocations);
    w.kv("gcMigratedSlots", r.gcMigratedSlots);
    w.kv("invalidatedSlots", r.invalidatedSlots);
    w.kv("programs", r.nandPrograms);
    w.kv("reads", r.nandReads);
    w.kv("redundantBytes", r.redundantBytes);
    w.kv("redundantSlotWrites", r.redundantSlotWrites);
    w.kv("remaps", r.remaps);
    w.kv("waf", r.waf);
    w.endObject();

    w.key("host").beginObject();
    w.kv("readSectors", r.hostReadSectors);
    w.kv("writeSectors", r.hostWriteSectors);
    w.endObject();

    w.key("journal").beginObject();
    w.kv("chunkBytes",
         std::uint64_t(r.journalChunkBytes));
    w.kv("chunksStored", r.journalChunksStored);
    w.kv("fillRate", r.journalFillRate);
    w.kv("mergedUnits", r.mergedUnits);
    w.kv("payloadBytes", r.journalPayloadBytes);
    w.kv("spaceOverhead", r.journalSpaceOverhead());
    w.kv("stalls", r.journalStalls);
    w.endObject();

    w.key("raw").beginObject();
    for (const auto &[k, v] : r.raw)
        w.kv(k, v);
    w.endObject();

    w.kv("simSpanTicks", r.simSpan);

    w.key("telemetry").beginObject();
    w.kv("anomalies", r.telemetry.anomalies);
    w.kv("enabled", r.telemetry.enabled);
    w.kv("events", r.telemetry.events);
    w.kv("probes", r.telemetry.probes);
    w.kv("samples", r.telemetry.samples);
    w.kv("windowTicks", std::uint64_t(r.telemetry.windowTicks));
    w.endObject();

    w.kv("throughputOps", r.throughputOps);

    w.endObject();
}

std::string
runResultJson(const RunResult &r)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    writeRunResultJson(w, r);
    os << "\n";
    return os.str();
}

} // namespace checkin
