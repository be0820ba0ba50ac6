/**
 * @file
 * Tests for the observability subsystem: tracer semantics and
 * zero-cost-when-disabled guarantee, JSON writer, metrics registry
 * exporters, artifact bundles, and end-to-end trace determinism.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "harness/presets.h"
#include "harness/run_export.h"
#include "obs/artifacts.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/inline_event.h"
#include "sim/stats.h"

namespace checkin {
namespace {

// ----------------------------------------------------------------------
// Tracer
// ----------------------------------------------------------------------

TEST(Tracer, RecordsSpansInstantsAndCounters)
{
    obs::Tracer t;
    t.setEnabled(true);
    t.span(obs::Cat::Nand, 2, "nand.prog", 100, 250, {{"ppn", 7}});
    t.instant(obs::Cat::Ftl, 0, "ftl.remap", 300);
    t.counter(obs::Cat::Ssd, 1, "isce.smallBuf", 400, 13);
    ASSERT_EQ(t.eventCount(), 3u);
    const auto &e = t.events();
    EXPECT_EQ(e[0].phase, obs::Tracer::Phase::Span);
    EXPECT_EQ(e[0].ts, 100u);
    EXPECT_EQ(e[0].dur, 150u);
    EXPECT_EQ(e[0].nargs, 1u);
    EXPECT_STREQ(e[0].argKeys[0], "ppn");
    EXPECT_EQ(e[0].argVals[0], 7u);
    EXPECT_EQ(e[1].phase, obs::Tracer::Phase::Instant);
    EXPECT_EQ(e[2].phase, obs::Tracer::Phase::Counter);
    EXPECT_EQ(e[2].dur, 13u);
    EXPECT_EQ(t.countIn(obs::Cat::Nand), 1u);
    EXPECT_EQ(t.countIn(obs::Cat::Workload), 0u);
}

TEST(Tracer, DisabledTracerRecordsNothingAndAllocatesNothing)
{
    obs::Tracer t; // disabled by default
    obs::TraceScope scope(t);
    EXPECT_FALSE(obs::traceOn());
    obs::span(obs::Cat::Nand, 0, "nand.prog", 1, 2);
    obs::instant(obs::Cat::Ftl, 0, "ftl.remap", 3);
    obs::counterSample(obs::Cat::Ssd, 0, "ssd.writeBuf", 4, 5);
    obs::nameLane(obs::Cat::Nand, 0, "die0");
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.storageCapacity(), 0u);
}

TEST(Tracer, ProbesReachTheInstalledTracerOnlyInsideScope)
{
    obs::Tracer t;
    t.setEnabled(true);
    {
        obs::TraceScope scope(t);
        EXPECT_TRUE(obs::traceOn());
        obs::instant(obs::Cat::Sim, 0, "tick", 1);
    }
    EXPECT_FALSE(obs::traceOn());
    obs::instant(obs::Cat::Sim, 0, "tick", 2); // dropped
    EXPECT_EQ(t.eventCount(), 1u);
}

TEST(Tracer, NestedScopesRestoreThePreviousTracer)
{
    obs::Tracer outer;
    outer.setEnabled(true);
    obs::TraceScope outer_scope(outer);
    {
        obs::Tracer inner;
        inner.setEnabled(true);
        obs::TraceScope inner_scope(inner);
        obs::instant(obs::Cat::Sim, 0, "inner", 1);
        EXPECT_EQ(inner.eventCount(), 1u);
    }
    obs::instant(obs::Cat::Sim, 0, "outer", 2);
    EXPECT_EQ(outer.eventCount(), 1u);
}

TEST(Tracer, JsonHasMetadataAndSortedEvents)
{
    obs::Tracer t;
    t.setEnabled(true);
    t.setLaneName(obs::Cat::Nand, 0, "die0");
    // Emit out of timestamp order; writeJson sorts by ts.
    t.instant(obs::Cat::Nand, 0, "late", 900);
    t.span(obs::Cat::Nand, 0, "early", 100, 200);
    const std::string json = t.toJson();
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("\"die0\""), std::string::npos);
    EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
}

TEST(Tracer, ClearDropsEventsButKeepsLaneNames)
{
    obs::Tracer t;
    t.setEnabled(true);
    t.setLaneName(obs::Cat::Ftl, 0, "ftl");
    t.instant(obs::Cat::Ftl, 0, "ftl.remap", 5);
    t.clear();
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_NE(t.toJson().find("\"ftl\""), std::string::npos);
}

// ----------------------------------------------------------------------
// JSON writer
// ----------------------------------------------------------------------

TEST(JsonWriter, CommasNestingAndEscaping)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject()
        .kv("a", std::uint64_t(1))
        .key("b")
        .beginArray()
        .value(std::uint64_t(2))
        .value("x\"y\n")
        .endArray()
        .kv("c", true)
        .endObject();
    EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[2,\"x\\\"y\\n\"],"
                        "\"c\":true}");
}

TEST(JsonWriter, StableDoubleFormat)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginArray().value(0.5).value(1.0 / 3.0).endArray();
    EXPECT_EQ(os.str(), "[0.5,0.333333]");
}

// ----------------------------------------------------------------------
// StatRegistry interning
// ----------------------------------------------------------------------

TEST(StatRegistry, InternedAddAliasesTheStringCounter)
{
    StatRegistry s;
    const StatId id = s.intern("x.count");
    s.add(id, 2);
    s.add("x.count", 3);
    EXPECT_EQ(s.get(id), 5u);
    EXPECT_EQ(s.get("x.count"), 5u);
    EXPECT_EQ(s.intern("x.count"), id); // idempotent
    EXPECT_EQ(s.all().at("x.count"), 5u);
}

// ----------------------------------------------------------------------
// Metrics registry
// ----------------------------------------------------------------------

TEST(MetricsRegistry, ScalarsSeriesAndHistogramsExport)
{
    obs::MetricsRegistry m;
    const obs::MetricId c = m.counter("ops");
    const obs::MetricId g = m.gauge("depth");
    const obs::MetricId s = m.series("lat", 100);
    const obs::MetricId h = m.histogram("lat");
    m.add(c, 4);
    m.set(g, 9);
    m.sample(s, 50, 10);
    m.sample(s, 250, 30);
    m.observe(h, 10);
    m.observe(h, 30);
    EXPECT_EQ(m.value(c), 4u);
    EXPECT_EQ(m.seriesData(s).interval(), 100u);
    EXPECT_EQ(m.histogramData(h).count(), 2u);

    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"ops\":4"), std::string::npos);
    EXPECT_NE(json.find("\"depth\":9"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);

    EXPECT_NE(m.scalarsCsv().find("ops,4"), std::string::npos);
    const std::string csv = m.seriesCsv();
    EXPECT_NE(csv.find("series,bucket,start_tick,count,sum,max"),
              std::string::npos);
    EXPECT_NE(csv.find("lat,0,0,1,10,10"), std::string::npos);
    EXPECT_NE(csv.find("lat,2,200,1,30,30"), std::string::npos);
}

TEST(MetricsRegistry, CsvEscapesDelimitersAndQuotes)
{
    // RFC 4180: names with a comma/quote/newline are quoted with
    // internal quotes doubled, so they cannot shift CSV columns.
    obs::MetricsRegistry m;
    m.add(m.counter("bad,name\"x\""), 3);
    m.sample(m.series("s,1", 10), 5, 50);

    const std::string sc = m.scalarsCsv();
    EXPECT_EQ(sc.rfind("name,value\n", 0), 0u);
    EXPECT_NE(sc.find("\"bad,name\"\"x\"\"\",3"), std::string::npos)
        << sc;

    const std::string se = m.seriesCsv();
    EXPECT_EQ(se.rfind("series,bucket,start_tick,count,sum,max\n", 0),
              0u);
    EXPECT_NE(se.find("\"s,1\",0,0,1,50,50"), std::string::npos)
        << se;
}

TEST(MetricsRegistry, ImportStatsMergesLegacyCounters)
{
    StatRegistry legacy;
    legacy.add("nand.reads", 7);
    obs::MetricsRegistry m;
    m.add(m.counter("nand.reads"), 1);
    m.importStats(legacy);
    EXPECT_EQ(m.value(m.counter("nand.reads")), 8u);
}

TEST(MetricsRegistry, ExportersAreDeterministic)
{
    auto build = [] {
        obs::MetricsRegistry m;
        m.add(m.counter("b"), 2);
        m.add(m.counter("a"), 1);
        m.sample(m.series("s", 10), 5, 50);
        m.observe(m.histogram("h"), 123);
        return m.toJson() + m.scalarsCsv() + m.seriesCsv();
    };
    EXPECT_EQ(build(), build());
}

// ----------------------------------------------------------------------
// Artifacts + end-to-end runs
// ----------------------------------------------------------------------

namespace {

ExperimentConfig
tinyTracedConfig(const std::string &artifact_dir)
{
    ExperimentConfig cfg = presets::small();
    cfg.workload.operationCount = 1200;
    cfg.threads = 8;
    cfg.obs.traceEnabled = true;
    cfg.obs.attributionEnabled = true;
    cfg.obs.artifactDir = artifact_dir;
    cfg.obs.runName = "obs-test";
    return cfg;
}

/** Run a traced experiment and return the trace JSON bytes. */
std::string
tracedRunJson()
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    obs::TraceScope scope(tracer);
    ExperimentConfig cfg = tinyTracedConfig("");
    runExperiment(cfg);
    return tracer.toJson();
}

} // namespace

TEST(ObsRun, TraceCoversAllDeviceLayersWithSpans)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    obs::TraceScope scope(tracer);
    ExperimentConfig cfg = tinyTracedConfig("");
    runExperiment(cfg);
    std::set<obs::Cat> span_layers;
    for (const auto &e : tracer.events()) {
        if (e.phase == obs::Tracer::Phase::Span)
            span_layers.insert(e.cat);
    }
    EXPECT_TRUE(span_layers.count(obs::Cat::Workload));
    EXPECT_TRUE(span_layers.count(obs::Cat::Engine));
    EXPECT_TRUE(span_layers.count(obs::Cat::Ssd));
    EXPECT_TRUE(span_layers.count(obs::Cat::Ftl));
    EXPECT_TRUE(span_layers.count(obs::Cat::Nand));
}

TEST(ObsRun, SameSeedProducesByteIdenticalTraces)
{
    const std::string a = tracedRunJson();
    const std::string b = tracedRunJson();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(ObsRun, DisabledTracingAllocatesNoTraceStorage)
{
    obs::Tracer tracer; // installed but disabled
    obs::TraceScope scope(tracer);
    ExperimentConfig cfg = tinyTracedConfig("");
    cfg.obs.traceEnabled = false;
    cfg.obs.attributionEnabled = false;
    const RunResult r = runExperiment(cfg);
    EXPECT_GT(r.client.opsCompleted, 0u);
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.storageCapacity(), 0u);
    EXPECT_TRUE(r.artifacts.empty());
}

TEST(ObsRun, DisabledAttributionAllocatesNoStorageOrTokens)
{
    // The zero-overhead guard: with attribution off, the whole op
    // path must never touch the installed (disabled) collector — no
    // pooled tokens are created and no storage is allocated.
    obs::AttributionCollector attr; // installed but disabled
    obs::AttributionScope scope(&attr);
    ExperimentConfig cfg = tinyTracedConfig("");
    cfg.obs.traceEnabled = false;
    cfg.obs.attributionEnabled = false;
    const RunResult r = runExperiment(cfg);
    EXPECT_GT(r.client.opsCompleted, 0u);
    EXPECT_EQ(attr.poolSize(), 0u);
    EXPECT_EQ(attr.liveTokens(), 0u);
    EXPECT_EQ(attr.storageBytes(), 0u);
    EXPECT_FALSE(r.attribution.enabled);
    EXPECT_TRUE(r.checkpointTimeline.empty());
}

TEST(ObsRun, PaperRunsKeepCallbacksInlineAndDisabledAttributionUntouched)
{
    // Whole paper-scale YCSB-WO runs issue every command type: an
    // event or completion callback that outgrows its inline buffer
    // shows up as a heap fallback. The installed but disabled
    // collector must see no token, pool slot or byte in either mode.
    obs::AttributionCollector attr;
    obs::AttributionScope scope(&attr);
    const std::uint64_t fallbacks = InlineCallback::heapFallbacks();
    ExperimentConfig cfg = presets::paper();
    cfg.workload = WorkloadSpec::wo();
    cfg.workload.distribution = Distribution::Zipfian;
    cfg.workload.operationCount = 5'000;
    for (const CheckpointMode mode :
         {CheckpointMode::Baseline, CheckpointMode::CheckIn}) {
        cfg.engine.mode = mode;
        EXPECT_EQ(runExperiment(cfg).client.opsCompleted, 5'000u);
    }
    EXPECT_EQ(InlineCallback::heapFallbacks(), fallbacks);
    EXPECT_EQ(attr.poolSize(), 0u);
    EXPECT_EQ(attr.liveTokens(), 0u);
    EXPECT_EQ(attr.storageBytes(), 0u);
}

TEST(ObsRun, ArtifactBundleIsWrittenToDisk)
{
    const std::string dir =
        ::testing::TempDir() + "checkin-obs-artifacts";
    ExperimentConfig cfg = tinyTracedConfig(dir);
    const RunResult r = runExperiment(cfg);
    ASSERT_FALSE(r.artifacts.empty());
    EXPECT_EQ(r.artifacts.dir, dir + "/obs-test");
    const std::vector<std::string> expect = {
        "trace.json",        "metrics.json",     "metrics.csv",
        "series.csv",        "attribution.json", "checkpoints.json",
        "summary.json"};
    EXPECT_EQ(r.artifacts.files, expect);
    for (const std::string &f : r.artifacts.files) {
        std::ifstream in(r.artifacts.dir + "/" + f);
        ASSERT_TRUE(in.good()) << f;
        std::string first;
        std::getline(in, first);
        EXPECT_FALSE(first.empty()) << f;
    }
}

TEST(ObsRun, RunSummaryJsonIsDeterministicAndComplete)
{
    ExperimentConfig cfg = tinyTracedConfig("");
    cfg.obs.traceEnabled = false;
    const RunResult r = runExperiment(cfg);
    const std::string json = runResultJson(r);
    EXPECT_EQ(json, runResultJson(r));
    EXPECT_EQ(json.back(), '\n');
    for (const char *k :
         {"\"throughputOps\"", "\"checkpoints\"", "\"flash\"",
          "\"journal\"", "\"client\"", "\"raw\""}) {
        EXPECT_NE(json.find(k), std::string::npos) << k;
    }
}

} // namespace
} // namespace checkin
