/**
 * @file
 * DES kernel microbenchmark: events/sec and allocations/event of the
 * calendar-queue + inline-callback kernel against the binary-heap +
 * std::function kernel it replaced.
 *
 * Both kernels dispatch the *same* deterministic event stream
 * (tests/event_storm.h; the golden test in
 * tests/test_event_queue_golden.cc proves order equality against the
 * same tests/reference_event_queue.h), so the comparison isolates
 * kernel overhead. Unlike the figure benches, BENCH_kernel.json
 * contains wall-clock-derived numbers and is not byte-deterministic
 * across invocations. The kernel's zero-overhead gates run in ctest
 * (test_alloc_budget.cc, test_obs.cc, test_telemetry.cc).
 *
 * Usage: bench_kernel [--quick]
 */

#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "event_storm.h"
#include "reference_event_queue.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"

namespace checkin {
namespace {

using bench::BenchReport;
using bench::printHeader;

void
microbench(BenchReport &report, bool quick)
{
    printHeader("Kernel microbench",
                "events/sec, calendar+inline vs heap+std::function "
                "(identical event streams)");
    const std::uint64_t target = quick ? 300'000 : 3'000'000;
    constexpr int kReps = 3;

    KernelRun ref;
    KernelRun cal;
    std::uint64_t fallbacks = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        const KernelRun a =
            driveKernel<ReferenceEventQueue>(target, 42);
        if (a.eventsPerSec > ref.eventsPerSec)
            ref = a;
        const std::uint64_t fb_before =
            InlineCallback::heapFallbacks();
        const KernelRun b = driveKernel<EventQueue>(target, 42);
        fallbacks = InlineCallback::heapFallbacks() - fb_before;
        if (b.eventsPerSec > cal.eventsPerSec)
            cal = b;
    }

    const double speedup =
        ref.eventsPerSec > 0 ? cal.eventsPerSec / ref.eventsPerSec
                             : 0.0;
    Table t({"kernel", "events/sec", "allocs/event",
             "heap fallbacks"});
    t.addRow({"heap + std::function",
              Table::num(std::uint64_t(ref.eventsPerSec)),
              Table::num(double(ref.allocs) / double(ref.dispatched),
                         3),
              "n/a"});
    t.addRow({"calendar + inline cb",
              Table::num(std::uint64_t(cal.eventsPerSec)),
              Table::num(double(cal.allocs) / double(cal.dispatched),
                         3),
              Table::num(fallbacks)});
    std::printf("%s", t.render().c_str());
    std::printf("\nspeedup: %.2fx over the pre-change kernel "
                "(%llu events each)\n",
                speedup, (unsigned long long)cal.dispatched);

    RunResult r;
    r.raw["kernel.eventsPerSec"] =
        std::uint64_t(cal.eventsPerSec);
    r.raw["kernel.referenceEventsPerSec"] =
        std::uint64_t(ref.eventsPerSec);
    r.raw["kernel.speedupX100"] = std::uint64_t(speedup * 100.0);
    r.raw["kernel.dispatched"] = cal.dispatched;
    r.raw["kernel.allocs"] = cal.allocs;
    r.raw["kernel.referenceAllocs"] = ref.allocs;
    r.raw["kernel.heapFallbacks"] = fallbacks;
    report.add("microbench", r);
}

} // namespace
} // namespace checkin

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }
    checkin::bench::BenchReport report("kernel");
    checkin::microbench(report, quick);
    return 0;
}
