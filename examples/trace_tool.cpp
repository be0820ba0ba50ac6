/**
 * @file
 * trace_tool — generate, inspect, and replay operation traces.
 *
 * Usage:
 *   trace_tool gen <workload> <keys> <ops> <file>   generate a trace
 *   trace_tool info <file>                          summarize a trace
 *   trace_tool replay <file> <mode> [threads]       replay vs engine
 *
 * Replays run against a small-scale Check-In stack and print the
 * same headline metrics as ycsb_run, so the same trace can be
 * compared across checkpoint configurations.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "engine/storage_engine.h"
#include "harness/experiment.h"
#include "harness/node.h"
#include "harness/presets.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "workload/trace.h"

namespace {

using namespace checkin;

int
cmdGen(int argc, char **argv)
{
    if (argc < 6) {
        std::fprintf(stderr,
                     "usage: trace_tool gen <workload> <keys> <ops> "
                     "<file>\n");
        return 2;
    }
    const std::string wl = argv[2];
    WorkloadSpec spec;
    if (wl == "a")
        spec = WorkloadSpec::a();
    else if (wl == "b")
        spec = WorkloadSpec::b();
    else if (wl == "d")
        spec = WorkloadSpec::d();
    else if (wl == "e")
        spec = WorkloadSpec::e();
    else if (wl == "f")
        spec = WorkloadSpec::f();
    else if (wl == "wo")
        spec = WorkloadSpec::wo();
    else {
        std::fprintf(stderr, "unknown workload '%s'\n", wl.c_str());
        return 2;
    }
    const auto keys = std::uint64_t(std::atoll(argv[3]));
    const auto ops = std::uint64_t(std::atoll(argv[4]));
    const Trace t = Trace::generate(spec, keys, ops);
    std::ofstream os(argv[5]);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", argv[5]);
        return 1;
    }
    os << "# checkin trace: workload=" << spec.name
       << " keys=" << keys << " ops=" << ops << "\n";
    t.save(os);
    std::printf("wrote %zu ops to %s\n", t.size(), argv[5]);
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: trace_tool info <file>\n");
        return 2;
    }
    std::ifstream is(argv[2]);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", argv[2]);
        return 1;
    }
    const Trace t = Trace::load(is);
    std::map<WorkloadGenerator::OpType, std::uint64_t> counts;
    std::uint64_t max_key = 0;
    for (const auto &op : t.ops()) {
        ++counts[op.type];
        max_key = std::max(max_key, op.key);
    }
    using OpType = WorkloadGenerator::OpType;
    std::printf("%zu ops, max key %llu\n", t.size(),
                (unsigned long long)max_key);
    std::printf("  reads   %llu\n",
                (unsigned long long)counts[OpType::Read]);
    std::printf("  updates %llu\n",
                (unsigned long long)counts[OpType::Update]);
    std::printf("  rmws    %llu\n",
                (unsigned long long)counts[OpType::Rmw]);
    std::printf("  scans   %llu\n",
                (unsigned long long)counts[OpType::Scan]);
    std::printf("  deletes %llu\n",
                (unsigned long long)counts[OpType::Delete]);
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr, "usage: trace_tool replay <file> "
                             "<mode> [threads]\n");
        return 2;
    }
    std::ifstream is(argv[2]);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", argv[2]);
        return 1;
    }
    const Trace trace = Trace::load(is);
    const std::string mode_s = argv[3];
    CheckpointMode mode = CheckpointMode::CheckIn;
    if (mode_s == "baseline")
        mode = CheckpointMode::Baseline;
    else if (mode_s == "isc-a")
        mode = CheckpointMode::IscA;
    else if (mode_s == "isc-b")
        mode = CheckpointMode::IscB;
    else if (mode_s == "isc-c")
        mode = CheckpointMode::IscC;
    else if (mode_s != "checkin") {
        std::fprintf(stderr, "unknown mode '%s'\n", mode_s.c_str());
        return 2;
    }
    const auto threads =
        std::uint32_t(argc > 4 ? std::atoi(argv[4]) : 32);

    std::uint64_t max_key = 0;
    for (const auto &op : trace.ops())
        max_key = std::max(max_key, op.key);

    ExperimentConfig base = presets::small();
    base.engine.mode = mode;
    base.engine.recordCount = max_key + 1;
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node(ctx, base);
    StorageEngine &engine = node.engine();
    node.load([](std::uint64_t) { return 384u; });
    engine.start();

    const Tick start = eq.now();
    TraceReplayer replay(ctx, engine, trace, threads);
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
                checkpointModeName(mode),
                double(span) / double(kMsec),
                double(replay.completed()) * double(kSec) /
                    double(span) / 1e3,
                engine.checkpointDurations().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: trace_tool gen|info|replay ...\n");
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "gen")
        return cmdGen(argc, argv);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    if (cmd == "replay")
        return cmdReplay(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}
