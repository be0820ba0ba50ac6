/**
 * @file
 * checkin_cli — the simulator's command-line front end.
 *
 *   checkin_cli [flags]                    run one node and report it
 *   checkin_cli --preset cluster [flags]   run a sharded cluster
 *   checkin_cli crash                      power-cut recovery walkthrough
 *   checkin_cli trace gen [flags] FILE     write a workload trace
 *   checkin_cli trace info FILE            summarize a trace
 *   checkin_cli trace replay [flags] FILE  replay a trace on one node
 *   checkin_cli report DIR [--out FILE]    render a run's artifacts
 *
 * One table (kFlags) declares every flag: the commands that take it,
 * how it reads its value and what --help says about it. Every value
 * is parsed whole and range-checked; bad input exits 2 with a message
 * that names the flag. --help lists the flags with the defaults of the
 * preset in use.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "engine/storage_engine.h"
#include "harness/experiment.h"
#include "harness/node.h"
#include "harness/presets.h"
#include "harness/report.h"
#include "harness/table.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "workload/trace.h"

namespace {

using namespace checkin;

/** What one invocation does; a flag accepts a mask of these. */
enum Command : unsigned
{
    kRun = 1u << 0,         //!< one node (--preset small|paper|faulty)
    kCluster = 1u << 1,     //!< --preset cluster
    kCrash = 1u << 2,       //!< crash
    kTraceGen = 1u << 3,    //!< trace gen FILE
    kTraceInfo = 1u << 4,   //!< trace info FILE
    kTraceReplay = 1u << 5, //!< trace replay FILE
    kReport = 1u << 6,      //!< report DIR
};

/** Command names by bit, as messages and --help print them. */
const char *const kCommandNames[] = {
    "single-node runs", "--preset cluster", "crash",  "trace gen",
    "trace info",       "trace replay",     "report"};

const char *
commandName(unsigned command)
{
    return kCommandNames[std::countr_zero(command)];
}

/** One accepted value of an enumerated flag. */
template <typename T>
struct Choice
{
    const char *name;
    T value;
};

const Choice<ExperimentConfig (*)()> kPresets[] = {
    {"small", presets::small},
    {"paper", presets::paper},
    {"faulty", presets::faulty},
    // The cluster builds its shards from presets::cluster(); small()
    // only serves the single-node defaults --help prints.
    {"cluster", presets::small}};

const Choice<CheckpointMode> kModes[] = {
    {"baseline", CheckpointMode::Baseline},
    {"isc-a", CheckpointMode::IscA},
    {"isc-b", CheckpointMode::IscB},
    {"isc-c", CheckpointMode::IscC},
    {"checkin", CheckpointMode::CheckIn}};

const Choice<WorkloadSpec (*)()> kWorkloads[] = {
    {"a", WorkloadSpec::a}, {"b", WorkloadSpec::b},
    {"c", WorkloadSpec::c}, {"d", WorkloadSpec::d},
    {"e", WorkloadSpec::e}, {"f", WorkloadSpec::f},
    {"wo", WorkloadSpec::wo}};

const Choice<CheckpointPolicyKind> kTriggers[] = {
    {"fixed", CheckpointPolicyKind::Fixed},
    {"adaptive", CheckpointPolicyKind::Adaptive}};

const Choice<CkptCoordination> kPolicies[] = {
    {"independent", CkptCoordination::Independent},
    {"synchronized", CkptCoordination::Synchronized},
    {"staggered", CkptCoordination::Staggered}};

const Choice<ArrivalProcess> kProcesses[] = {
    {"poisson", ArrivalProcess::Poisson},
    {"mmpp", ArrivalProcess::Mmpp},
    {"diurnal", ArrivalProcess::Diurnal}};

template <typename T, std::size_t N>
T
pick(const Choice<T> (&choices)[N], const std::string &text)
{
    std::string names;
    for (const Choice<T> &c : choices) {
        if (text == c.name)
            return c.value;
        names += names.empty() ? c.name : std::string("|") + c.name;
    }
    throw std::invalid_argument("unknown value '" + text + "' (expected " +
                                names + ")");
}

template <typename T, std::size_t N>
std::string
nameOf(const Choice<T> (&choices)[N], T value)
{
    for (const Choice<T> &c : choices) {
        if (c.value == value)
            return c.name;
    }
    return "?";
}

constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

/** @p text as a whole number in [lo, hi]; the whole string must parse. */
std::uint64_t
whole(const std::string &text, std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::invalid_argument || ptr != end)
        throw std::invalid_argument("'" + text +
                                    "' is not a whole number");
    if (ec == std::errc::result_out_of_range || v < lo || v > hi) {
        throw std::invalid_argument(text + " is outside " +
                                    std::to_string(lo) + ".." +
                                    std::to_string(hi));
    }
    return v;
}

/** @p text as a finite decimal in [0, 1e12], or (0, 1e12]. */
double
decimal(const std::string &text, bool zero_ok)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        throw std::invalid_argument("'" + text + "' is not a number");
    if (v < 0.0 || (v == 0.0 && !zero_ok) || v > 1e12) {
        throw std::invalid_argument(text + " is outside " +
                                    (zero_ok ? "[0" : "(0") + ", 1e12]");
    }
    return v;
}

/** Everything the command line sets. */
struct Options
{
    Command command = kRun;
    std::string preset;
    /** The single-node run; trace gen's workload and key count; trace
     *  replay's node. */
    ExperimentConfig node;
    std::uint64_t deviceMib = 0;
    ClusterConfig cluster = presets::cluster();
    std::string path; //!< the FILE or DIR operand
    std::string out;  //!< report --out
    bool help = false;
    bool allModes = false;
    bool allPolicies = false;
    bool csv = false;
    bool trace = false;
    bool attribution = false;
};

void
usePreset(Options &o, const std::string &name)
{
    o.node = pick(kPresets, name)();
    o.node.workload = WorkloadSpec::a();
    o.deviceMib = o.node.nand.totalBytes() / kMiB;
    o.preset = name;
    o.command = name == "cluster" ? kCluster : kRun;
}

/** Swap in another YCSB mix, keeping the op count and seed. */
void
setWorkload(WorkloadSpec &w, const std::string &name)
{
    WorkloadSpec next = pick(kWorkloads, name)();
    next.operationCount = w.operationCount;
    next.seed = w.seed;
    w = std::move(next);
}

/** A flag: where it applies, how it reads its value, what --help says. */
struct Flag
{
    const char *name;
    const char *arg; //!< value placeholder; nullptr for a switch
    unsigned commands;
    const char *help;
    void (*apply)(Options &o, const std::string &value);
};

constexpr unsigned kAll = kRun | kCluster | kCrash | kTraceGen |
                          kTraceInfo | kTraceReplay | kReport;

const Flag kFlags[] = {
    {"--help", nullptr, kAll, "print this help",
     [](Options &o, const std::string &) { o.help = true; }},
    {"--preset", "P", kRun | kCluster, "small|paper|faulty|cluster",
     [](Options &o, const std::string &v) { usePreset(o, v); }},
    {"--seed", "N", kRun | kCluster, "workload seed",
     [](Options &o, const std::string &v) {
         o.node.workload.seed = o.cluster.workload.seed = o.cluster.seed =
             whole(v, 0, kMax64);
     }},
    {"--interval-ms", "N", kRun | kCluster,
     "checkpoint timer period, 0 = no timer",
     [](Options &o, const std::string &v) {
         o.node.engine.checkpointInterval =
             o.cluster.shard.engine.checkpointInterval =
                 whole(v, 0, kMax32) * kMsec;
     }},
    {"--openloop", "RATE[:PROC]", kRun | kCluster,
     "open-loop arrivals at RATE ops/s with a\n"
     "2 ms-SLO tenant; PROC poisson|mmpp|diurnal",
     [](Options &o, const std::string &v) {
         const std::size_t colon = v.find(':');
         const double rate = decimal(v.substr(0, colon), false);
         for (TrafficSpec *t : {&o.node.traffic, &o.cluster.traffic}) {
             t->mode = LoopMode::Open;
             t->offeredOpsPerSec = rate;
             if (colon != std::string::npos)
                 t->process = pick(kProcesses, v.substr(colon + 1));
             // SLO accounting and the SloStreak anomaly need a tenant.
             if (t->tenants.empty())
                 t->tenants.push_back(TenantSpec{});
         }
     }},
    {"--telemetry", nullptr, kRun | kCluster,
     "windowed telemetry + anomaly black box",
     [](Options &o, const std::string &) {
         o.node.obs.telemetry.enabled =
             o.cluster.shard.obs.telemetry.enabled = true;
     }},
    {"--telemetry-window", "MS", kRun | kCluster,
     "telemetry sampling window",
     [](Options &o, const std::string &v) {
         o.node.obs.telemetry.window =
             o.cluster.shard.obs.telemetry.window =
                 whole(v, 1, kMax32) * kMsec;
     }},
    {"--blackbox-depth", "N", kRun | kCluster,
     "black-box ring: N samples, 4N events",
     [](Options &o, const std::string &v) {
         const auto n = std::uint32_t(whole(v, 1, kMax32 / 4));
         for (obs::TelemetryOptions *t :
              {&o.node.obs.telemetry, &o.cluster.shard.obs.telemetry}) {
             t->blackboxSamples = n;
             t->blackboxEvents = 4 * n;
         }
     }},
    {"--artifact-dir", "D", kRun | kCluster,
     "write the artifact bundle under D",
     [](Options &o, const std::string &v) {
         o.node.obs.artifactDir = o.cluster.artifactDir = v;
     }},
    {"--workload", "W", kRun | kCluster | kTraceGen, "a|b|c|d|e|f|wo",
     [](Options &o, const std::string &v) {
         setWorkload(o.node.workload, v);
         setWorkload(o.cluster.workload, v);
     }},
    {"--ops", "N", kRun | kCluster | kTraceGen, "operations",
     [](Options &o, const std::string &v) {
         o.node.workload.operationCount =
             o.cluster.workload.operationCount = whole(v, 1, kMax64);
     }},
    {"--record-count", "N", kRun | kCluster | kTraceGen,
     "keys in the store, per shard in a cluster",
     [](Options &o, const std::string &v) {
         o.node.engine.recordCount = o.cluster.shard.engine.recordCount =
             whole(v, 1, kMax32);
     }},
    {"--threads", "N", kRun | kCluster | kTraceReplay,
     "client threads; open loop: service slots",
     [](Options &o, const std::string &v) {
         o.node.threads = o.cluster.clients =
             std::uint32_t(whole(v, 1, kMax32));
     }},
    {"--mode", "M", kRun | kTraceReplay,
     "baseline|isc-a|isc-b|isc-c|checkin, or all:\n"
     "a flash-wear table over the five",
     [](Options &o, const std::string &v) {
         o.allModes = v == "all" && o.command == kRun;
         if (!o.allModes)
             o.node.engine.mode = pick(kModes, v);
     }},
    {"--engine", "E", kRun, "checkin|lsm storage backend",
     [](Options &o, const std::string &v) {
         o.node.engine.backend = presets::parseEngineBackend(v);
     }},
    {"--threshold-mib", "X", kRun, "checkpoint journal threshold",
     [](Options &o, const std::string &v) {
         o.node.engine.checkpointJournalBytes =
             std::uint64_t(std::llround(decimal(v, true) * double(kMiB)));
     }},
    {"--trigger", "T", kRun,
     "fixed|adaptive checkpoint trigger; adaptive\n"
     "also collects the attribution it reads",
     [](Options &o, const std::string &v) {
         o.node.engine.checkpointPolicy = pick(kTriggers, v);
         if (o.node.engine.checkpointPolicy ==
             CheckpointPolicyKind::Adaptive)
             o.node.obs.attributionEnabled = true;
     }},
    {"--unit", "BYTES", kRun,
     "FTL mapping unit: a multiple of 512 that\n"
     "divides the page; the default follows --mode",
     [](Options &o, const std::string &v) {
         const std::uint64_t unit = whole(v, kSectorBytes, kMax32);
         if (unit % kSectorBytes != 0 || o.node.nand.pageBytes % unit != 0)
             throw std::invalid_argument(
                 v + " is not a multiple of 512 that divides the " +
                 std::to_string(o.node.nand.pageBytes) + " B page");
         o.node.mappingUnitOverride = std::uint32_t(unit);
     }},
    {"--pattern", "P", kRun, "record-size pattern 1..4 (Fig 13b)",
     [](Options &o, const std::string &v) {
         o.node.workload.valueSizes =
             WorkloadSpec::sizePattern(std::uint32_t(whole(v, 1, 4)));
     }},
    {"--device-mib", "N", kRun, "raw flash capacity",
     [](Options &o, const std::string &v) {
         // Keep the dies, scale the blocks per plane.
         NandConfig &nand = o.node.nand;
         o.deviceMib = whole(v, 1, kMax32);
         nand.blocksPerPlane = std::uint32_t(
             o.deviceMib * kMiB /
             (std::uint64_t(nand.pagesPerBlock) * nand.pageBytes *
              nand.dieCount()));
         if (nand.blocksPerPlane < 16)
             throw std::invalid_argument(
                 "device too small (under 16 blocks per plane)");
     }},
    {"--csv", nullptr, kRun, "one CSV line per run instead of the report",
     [](Options &o, const std::string &) { o.csv = true; }},
    {"--trace", nullptr, kRun, "record trace.json; print events per layer",
     [](Options &o, const std::string &) {
         o.trace = o.node.obs.traceEnabled = true;
     }},
    {"--attribution", nullptr, kRun,
     "attribute latency to stages; print the\n"
     "breakdown, tail, slowest ops, checkpoints",
     [](Options &o, const std::string &) {
         o.attribution = o.node.obs.attributionEnabled = true;
     }},
    {"--shards", "N", kCluster, "engine shards behind the router",
     [](Options &o, const std::string &v) {
         o.cluster.shardCount = std::uint32_t(whole(v, 1, kMax32));
     }},
    {"--policy", "P", kCluster, "independent|synchronized|staggered|all",
     [](Options &o, const std::string &v) {
         o.allPolicies = v == "all";
         if (!o.allPolicies)
             o.cluster.coordination = pick(kPolicies, v);
     }},
    {"--sync-threads", "N", kCluster,
     "synchronizer worker threads, 0 = auto",
     [](Options &o, const std::string &v) {
         o.cluster.syncThreads = unsigned(whole(v, 0, 1024));
     }},
    {"--out", "FILE", kReport, "HTML file (default DIR/report.html)",
     [](Options &o, const std::string &v) { o.out = v; }},
};

/** Each flag's default, read from the configuration in use. */
std::map<std::string, std::string>
defaults(const Options &o)
{
    const bool cluster = o.command == kCluster;
    const ExperimentConfig &n = cluster ? o.cluster.shard : o.node;
    const WorkloadSpec &w = cluster ? o.cluster.workload : o.node.workload;
    std::string workload = w.name;
    for (const auto &c : kWorkloads) {
        if (c.value().name == w.name)
            workload = c.name;
    }
    const auto num = [](std::uint64_t v) { return std::to_string(v); };
    return {
        {"--preset", o.preset},
        {"--engine", engineBackendName(n.engine.backend)},
        {"--mode", nameOf(kModes, n.engine.mode)},
        {"--workload", workload},
        {"--threads", num(cluster ? o.cluster.clients : n.threads)},
        {"--ops", num(w.operationCount)},
        {"--record-count", num(n.engine.recordCount)},
        {"--interval-ms", num(n.engine.checkpointInterval / kMsec)},
        {"--threshold-mib",
         Table::num(double(n.engine.checkpointJournalBytes) / double(kMiB),
                    2)},
        {"--trigger", nameOf(kTriggers, n.engine.checkpointPolicy)},
        {"--unit", num(n.resolvedMappingUnit())},
        {"--seed", num(cluster ? o.cluster.seed : w.seed)},
        {"--device-mib", num(o.deviceMib)},
        {"--telemetry-window", num(n.obs.telemetry.window / kMsec)},
        {"--blackbox-depth", num(n.obs.telemetry.blackboxSamples)},
        {"--shards", num(o.cluster.shardCount)},
        {"--policy", nameOf(kPolicies, o.cluster.coordination)},
        {"--sync-threads", num(o.cluster.syncThreads)},
    };
}

void
printHelp(const Options &o)
{
    std::printf(
        "checkin_cli — Check-In experiment runner\n\n"
        "  checkin_cli [flags]                    run one node, report it\n"
        "  checkin_cli --preset cluster [flags]   run a sharded cluster\n"
        "  checkin_cli crash                      power-cut recovery "
        "walkthrough\n"
        "  checkin_cli trace gen [flags] FILE     write a workload trace\n"
        "  checkin_cli trace info FILE            summarize a trace\n"
        "  checkin_cli trace replay [flags] FILE  replay a trace on one "
        "node\n"
        "  checkin_cli report DIR [--out FILE]    render DIR's artifacts "
        "as\n"
        "                                         HTML + a terminal "
        "summary\n"
        "\nFlags, with the defaults of --preset %s, by the commands that\n"
        "take them:\n",
        o.preset.c_str());
    const std::map<std::string, std::string> shown = defaults(o);
    unsigned group = 0;
    for (const Flag &f : kFlags) {
        if (f.commands != group) {
            // kFlags lists the flags grouped by the commands taking them.
            group = f.commands;
            std::string takers;
            for (unsigned bit = 0; bit < std::size(kCommandNames); ++bit) {
                if (group != kAll && (group >> bit & 1u))
                    takers += (takers.empty() ? "" : ", ") +
                              std::string(kCommandNames[bit]);
            }
            std::printf("\n%s:\n",
                        takers.empty() ? "every command" : takers.c_str());
        }
        std::string text = f.help;
        for (std::size_t nl = text.find('\n'); nl != std::string::npos;
             nl = text.find('\n', nl + 1))
            text.insert(nl + 1, 25, ' ');
        if (const auto d = shown.find(f.name); d != shown.end())
            text += " (default " + d->second + ")";
        const std::string head =
            f.arg ? std::string(f.name) + " " + f.arg : f.name;
        std::printf("  %-22s %s\n", head.c_str(), text.c_str());
    }
}

/**
 * Read argv into Options. Throws std::invalid_argument naming the flag
 * or operand at fault.
 */
Options
parse(int argc, char **argv)
{
    Options o;
    usePreset(o, "small");
    const std::vector<std::string> args(argv + 1, argv + argc);
    std::size_t first = 0;
    if (!args.empty() && args[0] == "crash") {
        o.command = kCrash;
        first = 1;
    } else if (!args.empty() && args[0] == "report") {
        o.command = kReport;
        first = 1;
    } else if (!args.empty() && args[0] == "trace") {
        const std::string sub = args.size() > 1 ? args[1] : "";
        if (sub == "gen")
            o.command = kTraceGen;
        else if (sub == "info")
            o.command = kTraceInfo;
        else if (sub == "replay")
            o.command = kTraceReplay;
        else
            throw std::invalid_argument("trace needs gen, info or replay");
        first = 2;
    }
    const bool wants_operand =
        (o.command & (kTraceGen | kTraceInfo | kTraceReplay | kReport)) != 0;

    // --preset and --help go first, so every other flag lands on the
    // preset's configuration wherever it stands.
    for (const bool early : {true, false}) {
        for (std::size_t i = first; i < args.size(); ++i) {
            const std::string &a = args[i];
            if (a.empty() || a[0] != '-') {
                if (early)
                    continue;
                if (!wants_operand || !o.path.empty())
                    throw std::invalid_argument("unexpected argument '" + a +
                                                "'");
                o.path = a;
                continue;
            }
            const std::string name = a == "-h" ? "--help" : a;
            const Flag *f = nullptr;
            for (const Flag &candidate : kFlags) {
                if (name == candidate.name)
                    f = &candidate;
            }
            if (f == nullptr)
                throw std::invalid_argument("unknown flag '" + a + "'");
            std::string value;
            if (f->arg != nullptr) {
                if (++i == args.size())
                    throw std::invalid_argument(a + " needs a value");
                value = args[i];
            }
            if (early != (name == "--preset" || name == "--help"))
                continue;
            if ((f->commands & o.command) == 0) {
                throw std::invalid_argument(
                    a + " is not supported with " + commandName(o.command));
            }
            try {
                f->apply(o, value);
            } catch (const std::exception &e) {
                throw std::invalid_argument(a + ": " + e.what());
            }
        }
        if (o.help)
            return o;
    }
    if (wants_operand && o.path.empty()) {
        throw std::invalid_argument(std::string(commandName(o.command)) +
                                    " needs a " +
                                    (o.command == kReport ? "DIR" : "FILE"));
    }
    return o;
}

// ------------------------------------------------------------- printers

/** The headline report of one single-node run. */
void
printReport(const ExperimentConfig &cfg, const RunResult &r,
            std::uint64_t device_mib)
{
    const ClientStats &c = r.client;
    std::printf("=== %s / %s / %s / %u threads / %llu ops / %llu "
                "MiB device ===\n",
                engineBackendName(cfg.engine.backend),
                checkpointModeName(cfg.engine.mode),
                cfg.workload.name.c_str(), cfg.threads,
                (unsigned long long)c.opsCompleted,
                (unsigned long long)device_mib);
    std::printf("throughput        %10.0f ops/s\n", r.throughputOps);
    std::printf("avg latency       %10.1f us\n", r.avgLatencyUs);
    std::printf("p99 / p99.9 / p99.99  %8.1f / %.1f / %.1f us\n",
                double(c.all.quantile(0.99)) / 1e3,
                double(c.all.quantile(0.999)) / 1e3,
                double(c.all.quantile(0.9999)) / 1e3);
    std::printf("checkpoints       %10llu (avg %.2f ms, max %.2f "
                "ms)\n",
                (unsigned long long)r.checkpoints, r.avgCheckpointMs,
                r.maxCheckpointMs);
    std::printf("redundant writes  %10.2f MiB\n",
                double(r.redundantBytes) / double(kMiB));
    std::printf("redundant slots   %10llu (%llu bytes)\n",
                (unsigned long long)r.redundantSlotWrites,
                (unsigned long long)r.redundantBytes);
    std::printf("remaps            %10llu\n",
                (unsigned long long)r.remaps);
    std::printf("GC / erases       %10llu / %llu\n",
                (unsigned long long)r.gcInvocations,
                (unsigned long long)r.nandErases);
    std::printf("GC migrated       %10llu slots\n",
                (unsigned long long)r.gcMigratedSlots);
    std::printf("NAND r/p          %10llu / %llu\n",
                (unsigned long long)r.nandReads,
                (unsigned long long)r.nandPrograms);
    std::printf("journal overhead  %10.1f %%\n",
                r.journalSpaceOverhead() * 100.0);
    std::printf("journal stalls    %10llu\n",
                (unsigned long long)r.journalStalls);
    if (cfg.traffic.mode == LoopMode::Open) {
        std::printf("offered load      %10.0f ops/s (%s, achieved "
                    "%.0f)\n",
                    c.offeredOpsPerSec(),
                    arrivalProcessName(cfg.traffic.process),
                    c.opsPerSec());
        std::printf("queue delay p99.9 %10.1f us\n",
                    double(c.queueDelay.quantile(0.999)) / 1e3);
        std::printf("journal fill rate %10.0f KiB/s\n",
                    r.journalFillRate / double(kKiB));
    }
    if (r.telemetry.enabled) {
        std::printf("telemetry         %10llu samples / %llu events "
                    "/ %llu anomalies\n",
                    (unsigned long long)r.telemetry.samples,
                    (unsigned long long)r.telemetry.events,
                    (unsigned long long)r.telemetry.anomalies);
    }
    if (!r.artifacts.empty())
        std::printf("artifacts         %s\n", r.artifacts.dir.c_str());
}

void
printCsvRow(const ExperimentConfig &cfg, const RunResult &r)
{
    const ClientStats &c = r.client;
    std::printf(
        "%s,%s,%s,%u,%llu,%.2f,%.1f,%.1f,%.1f,%.1f,%llu,%.2f,"
        "%.2f,%llu,%llu,%llu,%.4f\n",
        engineBackendName(cfg.engine.backend),
        checkpointModeName(cfg.engine.mode), cfg.workload.name.c_str(),
        cfg.threads, (unsigned long long)c.opsCompleted,
        r.throughputOps / 1e3, r.avgLatencyUs,
        double(c.all.quantile(0.99)) / 1e3,
        double(c.all.quantile(0.999)) / 1e3,
        double(c.all.quantile(0.9999)) / 1e3,
        (unsigned long long)r.checkpoints, r.avgCheckpointMs,
        double(r.redundantBytes) / double(kMiB),
        (unsigned long long)r.remaps, (unsigned long long)r.gcInvocations,
        (unsigned long long)r.nandErases, r.journalSpaceOverhead());
}

/** --mode all: flash wear per mode and Eq (1)'s relative lifetime. */
void
printWearTable(const Options &o, const std::vector<RunResult> &runs)
{
    const ExperimentConfig &cfg = o.node;
    std::printf("=== %s / all modes / %s / %u threads / %llu ops / %llu "
                "MiB device ===\n\n",
                engineBackendName(cfg.engine.backend),
                cfg.workload.name.c_str(), cfg.threads,
                (unsigned long long)cfg.workload.operationCount,
                (unsigned long long)o.deviceMib);
    Table t({"mode", "programs", "erases", "GC", "redundant MiB",
             "lifetime x"});
    // runs follow kModes, so runs[0] is Baseline.
    const double base_erases =
        std::max<double>(1.0, double(runs[0].nandErases));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        t.addRow({checkpointModeName(kModes[i].value),
                  Table::num(r.nandPrograms), Table::num(r.nandErases),
                  Table::num(r.gcInvocations),
                  Table::num(double(r.redundantBytes) / double(kMiB), 2),
                  r.nandErases > 0
                      ? Table::num(base_erases / double(r.nandErases), 2)
                      : std::string("inf")});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nEq (1): lifetime_block = PEC_max * T_op / BEC — "
                "with a fixed workload, relative lifetime is the\n"
                "inverse ratio of block erase counts. Paper: x3.86 "
                "vs baseline, x1.81 vs ISC-C.\n");
}

/** --trace: the recorded events per layer. */
void
printTraceEvents(const obs::Tracer &tracer, const RunResult &r)
{
    std::printf("trace events      %10zu\n", tracer.eventCount());
    for (std::size_t c = 0; c < obs::kCatCount; ++c) {
        const auto cat = static_cast<obs::Cat>(c);
        if (const std::uint64_t n = tracer.countIn(cat); n > 0) {
            std::printf("  %-10s      %10llu\n", obs::catName(cat),
                        (unsigned long long)n);
        }
    }
    std::printf("sim span          %10.2f ms\n",
                double(r.simSpan) / double(kMsec));
    if (!r.artifacts.empty()) {
        std::printf("open %s/trace.json in ui.perfetto.dev\n",
                    r.artifacts.dir.c_str());
    }
}

void
printBreakdown(
    const char *title,
    const std::array<obs::ClassBreakdown, obs::kOpClassCount> &classes)
{
    std::printf("%s\n", title);
    for (std::size_t c = 0; c < obs::kOpClassCount; ++c) {
        const obs::ClassBreakdown &cb = classes[c];
        if (cb.ops == 0)
            continue;
        const Tick total = cb.totalTicks();
        std::printf("  %-7s %8llu ops, avg %8.1f us\n",
                    obs::opClassName(obs::OpClass(c)),
                    (unsigned long long)cb.ops,
                    double(total) / double(cb.ops) / double(kUsec));
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
            if (cb.dwell[s] == 0)
                continue;
            std::printf("    %-16s %6.1f %%\n",
                        obs::stageName(obs::Stage(s)),
                        100.0 * double(cb.dwell[s]) / double(total));
        }
    }
}

/** --attribution: where the latency went, per class, in the tail, in
 *  the slowest ops, and per checkpoint phase. */
void
printAttribution(const obs::AttributionCollector &attr, const RunResult &r)
{
    std::printf("\n");
    printBreakdown("all ops, per class:", r.attribution.perClass);
    std::printf("\ntail (>= p%g, %llu ops at >= %.1f us):\n",
                100.0 * r.attribution.tailQuantile,
                (unsigned long long)r.attribution.tailOps,
                double(r.attribution.tailThresholdTicks) / double(kUsec));
    printBreakdown("", r.attribution.tailPerClass);

    std::printf("\nflight recorder (slowest %zu ops):\n",
                attr.flightRecorder().size());
    for (const obs::OpRecord &rec : attr.flightRecorder().slowest()) {
        std::printf("  %-7s issued %12llu  latency %8.1f us:",
                    obs::opClassName(rec.cls),
                    (unsigned long long)rec.issued,
                    double(rec.latency()) / double(kUsec));
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
            if (rec.dwell[s] == 0)
                continue;
            std::printf(" %s=%.1fus", obs::stageName(obs::Stage(s)),
                        double(rec.dwell[s]) / double(kUsec));
        }
        std::printf("\n");
    }

    std::printf("\ncheckpoint timeline (%zu checkpoints):\n",
                r.checkpointTimeline.size());
    for (const obs::CheckpointStat &c : r.checkpointTimeline) {
        std::printf("  #%llu %-13s data %7.2f ms, meta %6.2f ms, "
                    "delete %6.2f ms | %llu entries "
                    "(%llu full / %llu partial / %llu merged / "
                    "%llu raw), %llu CoW cmds, %llu remapped, "
                    "%llu copied\n",
                    (unsigned long long)c.seq,
                    obs::ckptTriggerName(c.trigger),
                    double(c.dataDoneTick - c.startTick) / double(kMsec),
                    double(c.metaDoneTick - c.dataDoneTick) /
                        double(kMsec),
                    double(c.endTick - c.metaDoneTick) / double(kMsec),
                    (unsigned long long)c.entries,
                    (unsigned long long)c.fullRecords,
                    (unsigned long long)c.partialRecords,
                    (unsigned long long)c.mergedRecords,
                    (unsigned long long)c.rawRecords,
                    (unsigned long long)c.cowCommands,
                    (unsigned long long)c.remappedPairs,
                    (unsigned long long)c.copiedPairs);
    }
}

// ------------------------------------------------------------- commands

int
runNode(const Options &o)
{
    std::vector<CheckpointMode> modes = {o.node.engine.mode};
    if (o.allModes) {
        modes.clear();
        for (const auto &m : kModes)
            modes.push_back(m.value);
    }
    if (o.csv) {
        std::printf(
            "engine,mode,workload,threads,ops,kops,avg_us,p99_us,"
            "p999_us,p9999_us,checkpoints,ckpt_avg_ms,redundant_mib,"
            "remaps,gc,erases,journal_pad\n");
    }
    std::vector<RunResult> runs;
    for (const CheckpointMode mode : modes) {
        ExperimentConfig cfg = o.node;
        cfg.engine.mode = mode;
        if (o.trace || o.attribution) {
            cfg.obs.runName = std::string(o.trace ? "trace-" : "latency-") +
                              checkpointModeName(mode);
        }
        // Sinks installed here outlive the run, so the sections below
        // can read them: runExperiment reuses an enabled ambient sink.
        obs::Tracer tracer;
        obs::AttributionCollector attr;
        std::optional<obs::TraceScope> trace_scope;
        std::optional<obs::AttributionScope> attr_scope;
        if (o.trace) {
            tracer.setEnabled(true);
            trace_scope.emplace(tracer);
        }
        if (o.attribution) {
            attr.setEnabled(true);
            attr_scope.emplace(&attr);
        }
        RunResult r = runExperiment(cfg);
        if (o.csv) {
            printCsvRow(cfg, r);
        } else if (!o.allModes) {
            printReport(cfg, r, o.deviceMib);
            if (o.trace)
                printTraceEvents(tracer, r);
            if (o.attribution)
                printAttribution(attr, r);
        }
        runs.push_back(std::move(r));
    }
    if (o.allModes && !o.csv)
        printWearTable(o, runs);
    return 0;
}

void
printPolicyRow(Table &t, const char *policy, const ClusterResult &r)
{
    std::uint64_t ckpts = 0;
    double stall_ms = 0.0;
    for (const ShardSummary &s : r.shards) {
        ckpts += s.checkpoints;
        stall_ms += double(s.ckptStallTicks) / double(kMsec);
    }
    t.addRow({policy, Table::num(r.router.opsCompleted),
              Table::num(r.throughputOps, 0),
              Table::num(double(r.router.all.quantile(0.5)) /
                             double(kUsec),
                         1),
              Table::num(double(r.router.all.quantile(0.999)) /
                             double(kUsec),
                         1),
              Table::num(ckpts), Table::num(stall_ms, 2),
              Table::num(r.sync.windows)});
}

int
runClusterCommand(const Options &o)
{
    ClusterConfig cfg = o.cluster;
    cfg.attributionEnabled = true;
    std::printf("=== cluster / %u shards / %u clients / %llu ops "
                "===\n",
                cfg.shardCount, cfg.clients,
                (unsigned long long)cfg.workload.operationCount);

    Table policy_table({"policy", "ops", "ops/s", "p50 us", "p99.9 us",
                        "ckpts", "stall ms", "windows"});
    if (o.allPolicies) {
        for (const auto &p : kPolicies) {
            cfg.coordination = p.value;
            printPolicyRow(policy_table, ckptCoordinationName(p.value),
                           runCluster(cfg));
        }
        std::printf("\n%s\n", policy_table.render().c_str());
        return 0;
    }

    const ClusterResult last = runCluster(cfg);
    printPolicyRow(policy_table, ckptCoordinationName(cfg.coordination),
                   last);
    std::printf("\n%s\n", policy_table.render().c_str());

    Table shard_table({"shard", "keys", "ops", "MiB", "svc p99.9 us",
                       "ckpts", "avg ckpt ms", "nand r/p/e", "stalls"});
    for (const ShardSummary &s : last.shards) {
        shard_table.addRow(
            {Table::num(std::uint64_t(s.shard)), Table::num(s.keys),
             Table::num(s.ops),
             Table::num(double(s.bytes) / double(kMiB), 2),
             Table::num(double(s.service.quantile(0.999)) /
                            double(kUsec),
                        1),
             Table::num(s.checkpoints), Table::num(s.avgCheckpointMs, 2),
             Table::num(s.nandReads) + "/" + Table::num(s.nandPrograms) +
                 "/" + Table::num(s.nandErases),
             Table::num(s.journalStalls)});
    }
    std::printf("%s\n", shard_table.render().c_str());
    std::printf("windows %llu, cross-node messages %llu, events "
                "%llu, verified keys %llu\n",
                (unsigned long long)last.sync.windows,
                (unsigned long long)last.sync.messages,
                (unsigned long long)last.totalEvents,
                (unsigned long long)last.verifiedKeys);
    if (last.telemetry.enabled) {
        std::printf("telemetry: %llu samples / %llu events / %llu "
                    "anomalies across %u shards\n",
                    (unsigned long long)last.telemetry.samples,
                    (unsigned long long)last.telemetry.events,
                    (unsigned long long)last.telemetry.anomalies,
                    cfg.shardCount);
    }
    if (!last.artifacts.empty())
        std::printf("artifacts: %s\n", last.artifacts.dir.c_str());
    return 0;
}

/**
 * Crash-recovery walkthrough: run a write burst, cut power mid-flight
 * (host memory is lost; the device flushes its volatile buffers on
 * capacitor power and its firmware rebuilds the map), recover the
 * engine from the device, and show what was recovered. Exits 1 when
 * the store misses a key after recovery.
 */
int
runCrash()
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    // Check-In class device: 512 B mapping unit.
    ExperimentConfig cfg;
    cfg.nand.blocksPerPlane = 64;
    cfg.nand.pagesPerBlock = 64;
    cfg.engine.mode = CheckpointMode::CheckIn;
    cfg.engine.recordCount = 2000;
    cfg.engine.journalHalfBytes = 4 * kMiB;
    cfg.engine.checkpointJournalBytes = 2 * kMiB;
    cfg.engine.checkpointInterval = 0; // manual checkpoints

    StorageNode node(ctx, cfg);
    node.load([](std::uint64_t) { return 512u; });
    std::printf("loaded %u keys at version 1\n", 2000);

    // Phase 1: committed work, then a checkpoint.
    Rng rng(7);
    std::uint64_t committed = 0;
    const auto burst = [&](int updates) {
        for (int i = 0; i < updates; ++i) {
            node.engine().update(
                rng.nextBounded(2000),
                std::uint32_t(128 * (1 + rng.nextBounded(4))),
                [&](const QueryResult &) { ++committed; });
        }
    };
    burst(1500);
    eq.run();
    node.engine().requestCheckpoint();
    eq.run();
    std::printf("phase 1: %llu updates committed, checkpoint done\n",
                (unsigned long long)committed);

    // Phase 2: more updates, but CRASH while they are in flight.
    burst(1000);
    int steps = 0;
    while (steps++ < 400 && eq.step()) {
    }
    std::printf("phase 2: power cut at t=%.3f ms with %llu total "
                "commits acknowledged\n",
                double(eq.now()) / double(kMsec),
                (unsigned long long)committed);

    // Host memory and pending host work are gone, the device runs
    // SPOR, and a fresh engine rebuilds from catalog + journal.
    const RecoveryInfo info = node.powerCut().recovery;
    std::printf("recovered: %llu keys from catalog, %llu journal "
                "logs replayed, %.3f ms simulated recovery time\n",
                (unsigned long long)info.catalogKeys,
                (unsigned long long)info.replayedLogs,
                double(info.duration) / double(kMsec));

    const std::uint64_t verified = node.engine().verifyAllKeys();
    std::printf("verified %llu keys after recovery — store is "
                "consistent\n",
                (unsigned long long)verified);

    // And it keeps serving.
    bool ok = false;
    node.engine().get(42, [&](const QueryResult &r) { ok = r.found; });
    eq.run();
    std::printf("post-recovery GET(42): %s\n", ok ? "found" : "missing");
    return ok ? 0 : 1;
}

int
traceGen(const Options &o)
{
    const WorkloadSpec &spec = o.node.workload;
    const std::uint64_t keys = o.node.engine.recordCount;
    const std::uint64_t ops = spec.operationCount;
    const Trace t = Trace::generate(spec, keys, ops);
    std::ofstream os(o.path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", o.path.c_str());
        return 1;
    }
    os << "# checkin trace: workload=" << spec.name << " keys=" << keys
       << " ops=" << ops << "\n";
    t.save(os);
    std::printf("wrote %zu ops to %s\n", t.size(), o.path.c_str());
    return 0;
}

/** Read the trace at @p path; nullopt (after a message) if it is not
 *  there. */
std::optional<Trace>
loadTrace(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return std::nullopt;
    }
    return Trace::load(is);
}

int
traceInfo(const Options &o)
{
    const std::optional<Trace> t = loadTrace(o.path);
    if (!t)
        return 1;
    using OpType = WorkloadGenerator::OpType;
    std::map<OpType, std::uint64_t> counts;
    std::uint64_t max_key = 0;
    for (const auto &op : t->ops()) {
        ++counts[op.type];
        max_key = std::max(max_key, op.key);
    }
    std::printf("%zu ops, max key %llu\n", t->size(),
                (unsigned long long)max_key);
    std::printf("  reads   %llu\n",
                (unsigned long long)counts[OpType::Read]);
    std::printf("  updates %llu\n",
                (unsigned long long)counts[OpType::Update]);
    std::printf("  rmws    %llu\n", (unsigned long long)counts[OpType::Rmw]);
    std::printf("  scans   %llu\n",
                (unsigned long long)counts[OpType::Scan]);
    std::printf("  deletes %llu\n",
                (unsigned long long)counts[OpType::Delete]);
    return 0;
}

/** Replay a trace on a small-preset node sized to its key space. */
int
traceReplay(const Options &o)
{
    const std::optional<Trace> trace = loadTrace(o.path);
    if (!trace)
        return 1;
    const auto &ops = trace->ops();
    const auto top = std::max_element(
        ops.begin(), ops.end(),
        [](const auto &a, const auto &b) { return a.key < b.key; });
    const std::uint64_t max_key = top == ops.end() ? 0 : top->key;
    // The store holds keys [0, max key]; its size must not wrap.
    constexpr std::uint64_t kMaxKey =
        std::numeric_limits<std::uint64_t>::max() - 1;
    if (max_key > kMaxKey) {
        throw std::invalid_argument(
            "trace op " + std::to_string(top - ops.begin() + 1) +
            ": key " + std::to_string(max_key) + " is above " +
            std::to_string(kMaxKey) + ", the largest a store can hold");
    }

    ExperimentConfig cfg = o.node;
    cfg.engine.recordCount = max_key + 1;
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node(ctx, cfg);
    StorageEngine &engine = node.engine();
    node.load([](std::uint64_t) { return 384u; });
    engine.start();

    const Tick start = eq.now();
    TraceReplayer replay(ctx, engine, *trace, cfg.threads);
    replay.start();
    while (!replay.done()) {
        if (!eq.step()) {
            std::fprintf(stderr, "replay deadlocked\n");
            return 1;
        }
    }
    const Tick span = eq.now() - start;
    engine.verifyAllKeys();
    std::printf("replayed %llu ops as %s in %.3f ms simulated "
                "(%.0f kops/s), %zu checkpoints\n",
                (unsigned long long)replay.completed(),
                checkpointModeName(cfg.engine.mode),
                double(span) / double(kMsec),
                double(replay.completed()) * double(kSec) / double(span) /
                    1e3,
                engine.checkpointDurations().size());
    return 0;
}

int
runReport(const Options &o)
{
    const std::string out = o.out.empty() ? o.path + "/report.html" : o.out;
    try {
        const std::string html = renderRunReportHtml(o.path);
        std::ofstream f(out, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n", out.c_str());
            return 1;
        }
        f << html;
        f.close();
        std::printf("%s", renderRunReportText(o.path).c_str());
        std::printf("wrote %s (%zu bytes)\n", out.c_str(), html.size());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "report failed: %s\n", e.what());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parse(argc, argv);
        if (o.help) {
            printHelp(o);
            return 0;
        }
        switch (o.command) {
          case kRun:
            return runNode(o);
          case kCluster:
            return runClusterCommand(o);
          case kCrash:
            return runCrash();
          case kTraceGen:
            return traceGen(o);
          case kTraceInfo:
            return traceInfo(o);
          case kTraceReplay:
            return traceReplay(o);
          case kReport:
            return runReport(o);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "checkin_cli: %s\n", e.what());
    }
    return 2;
}
