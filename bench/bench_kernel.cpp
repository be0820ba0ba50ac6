/**
 * @file
 * DES kernel microbenchmark: events/sec and allocations/event of the
 * calendar-queue + inline-callback kernel against the binary-heap +
 * std::function kernel it replaced, plus a full-stack fig08-style
 * experiment timing.
 *
 * Both kernels dispatch the *same* deterministic event stream (the
 * golden test in tests/test_event_queue_golden.cc proves order
 * equality against the same tests/reference_event_queue.h), so the
 * comparison isolates kernel overhead. Unlike the figure benches,
 * BENCH_kernel.json contains wall-clock-derived numbers and is not
 * byte-deterministic across invocations.
 *
 * Usage: bench_kernel [--quick]
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/telemetry.h"
#include "reference_event_queue.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/rng.h"
#include "ssd/ssd.h"

// ----------------------------------------------------------------
// Allocation accounting: count every global operator new so the two
// kernels' per-event allocation behaviour is measured, not inferred.
// ----------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace checkin {
namespace {

using bench::BenchReport;
using bench::modeName;
using bench::printHeader;

struct KernelRun
{
    double eventsPerSec = 0.0;
    std::uint64_t dispatched = 0;
    std::uint64_t allocs = 0;
};

/**
 * Dispatch @p target self-rescheduling events through @p Queue. A
 * fixed population of actors reschedules itself with the simulator's
 * delay mix (same-tick fan-out, CPU/NAND latencies, far timers); each
 * callback captures 32 bytes — the engine/FTL hot-path shape that
 * overflows std::function's inline buffer but fits InlineCallback's.
 */
/**
 * In-flight event population: roughly the figure-scale experiment's
 * steady state (32 client chains plus per-die NAND completions, GC,
 * journal and checkpoint machinery all pending at once).
 */
constexpr std::uint64_t kActors = 256;

template <typename Queue, typename Prep = void (*)(Queue &)>
KernelRun
driveKernel(
    std::uint64_t target, std::uint64_t seed,
    Prep prep = [](Queue &) {})
{
    Queue q;
    prep(q);
    Rng rng(seed);
    std::uint64_t dispatched = 0;
    std::uint64_t sink = 0;

    struct Rearm
    {
        Queue *q;
        Rng *rng;
        std::uint64_t *dispatched;
        std::uint64_t *sink;
        std::uint64_t target;

        /**
         * Count-weighted delay mix from the simulator: same-tick
         * layer handoffs and ~1-2 us host CPU steps dominate, NAND
         * page ops land 50-600 us out, and erase-class /
         * checkpoint-interval timers are rare.
         */
        Tick
        drawDelay() const
        {
            const std::uint64_t roll = rng->nextBounded(100);
            if (roll < 30)
                return 0;
            if (roll < 55)
                return 500 + rng->nextBounded(2'000);
            if (roll < 90)
                return 50'000 + rng->nextBounded(600'000);
            if (roll < 98)
                return rng->nextBounded(3'000'000);
            return rng->nextBounded(200'000'000);
        }

        void
        operator()() const
        {
            const Tick d = drawDelay();
            const std::uint64_t key = *dispatched;
            const std::uint64_t bytes = key ^ d;
            const std::uint64_t gen = key * 0x9e3779b97f4a7c15ULL;
            auto *self = this;
            q->scheduleAfter(d, [self, key, bytes, gen] {
                ++*self->dispatched;
                *self->sink += key ^ bytes ^ gen;
                if (*self->dispatched + kActors <= self->target)
                    (*self)();
            });
        }
    };

    Rearm rearm{&q, &rng, &dispatched, &sink, target};

    const std::uint64_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kActors; ++i)
        rearm();
    while (dispatched < target && q.step()) {
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    KernelRun r;
    r.dispatched = dispatched;
    r.allocs = g_allocs.load(std::memory_order_relaxed) -
               allocs_before;
    r.eventsPerSec = secs > 0 ? double(dispatched) / secs : 0.0;
    if (sink == 0x5eed) // defeat dead-code elimination
        std::printf("%llu\n", (unsigned long long)sink);
    return r;
}

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

void
fullStack(BenchReport &report, bool quick)
{
    printHeader("Full-stack timing",
                "fig08-style experiment wall time through the new "
                "kernel (YCSB-WO, zipfian)");
    ExperimentConfig cfg = presets::paper();
    cfg.workload = WorkloadSpec::wo();
    cfg.workload.distribution = Distribution::Zipfian;
    if (quick)
        cfg.workload.operationCount = 5'000;

    Table t({"mode", "wall ms", "sim ops/s", "avg lat us",
             "nand programs"});
    // Gate, not just a metric: a full experiment issues every
    // command type, so any Ssd::Completion (or event callback) that
    // outgrows the inline buffer shows up here as a heap fallback.
    const std::uint64_t fb_before = Ssd::Completion::heapFallbacks();
    // Second gate: an installed-but-disabled attribution collector
    // must stay untouched through whole runs — the probes compile to
    // a pointer + flag check, never a token acquire or an allocation.
    obs::AttributionCollector attr_guard;
    obs::AttributionScope attr_scope(&attr_guard);
    for (const CheckpointMode mode :
         {CheckpointMode::Baseline, CheckpointMode::CheckIn}) {
        cfg.engine.mode = mode;
        const auto t0 = std::chrono::steady_clock::now();
        RunResult r = runExperiment(cfg);
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        r.raw["kernel.fullstackWallMs"] = std::uint64_t(ms);
        r.raw["kernel.ssdHeapFallbacks"] =
            Ssd::Completion::heapFallbacks() - fb_before;
        t.addRow({modeName(mode), Table::num(ms, 1),
                  Table::num(r.throughputOps, 0),
                  Table::num(r.avgLatencyUs, 1),
                  Table::num(r.nandPrograms)});
        report.add(std::string("fullstack_") + modeName(mode), r);
    }
    std::printf("%s", t.render().c_str());
    const std::uint64_t fb =
        Ssd::Completion::heapFallbacks() - fb_before;
    if (fb != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu completion/event callbacks fell "
                     "back to the heap during the full-stack runs\n",
                     (unsigned long long)fb);
        std::exit(1);
    }
    if (attr_guard.poolSize() != 0 || attr_guard.liveTokens() != 0 ||
        attr_guard.storageBytes() != 0) {
        std::fprintf(stderr,
                     "FAIL: disabled attribution collector was "
                     "touched (pool %zu, live %zu, bytes %llu)\n",
                     attr_guard.poolSize(), attr_guard.liveTokens(),
                     (unsigned long long)attr_guard.storageBytes());
        std::exit(1);
    }
    std::printf("\nssd completion heap fallbacks: 0 (asserted)\n");
    std::printf("disabled-attribution storage/tokens: 0 "
                "(asserted)\n");
}

void
telemetryGate(BenchReport &report, bool quick)
{
    printHeader("Telemetry zero-overhead gate",
                "disabled sampler stores nothing; a disarmed step "
                "hook changes no dispatch/alloc counts");

    // Gate 1: a disabled sampler must ignore registration and every
    // hot-path note — the layers' probes compile down to a pointer +
    // flag check, never storage.
    obs::TelemetrySampler off;
    off.addGauge("gate.g", [] { return std::uint64_t(1); });
    off.addCounter("gate.c", [] { return std::uint64_t(1); });
    EventQueue dummy;
    off.begin(dummy); // no-op: must not install the hook
    off.noteEvent(obs::TelemetryEvent::JournalStall, 1, 1);
    off.noteSloResult(1, true);
    off.noteCheckpointStart(1);
    off.noteCheckpointEnd(2, 1);
    off.finalize(2);
    if (off.probeCount() != 0 || off.sampleCount() != 0 ||
        off.eventCount() != 0 || off.storageBytes() != 0 ||
        dummy.stepHookDue() != kInvalidTick) {
        std::fprintf(
            stderr,
            "FAIL: disabled telemetry sampler was touched "
            "(probes %zu, samples %llu, events %llu, bytes %llu)\n",
            off.probeCount(),
            (unsigned long long)off.sampleCount(),
            (unsigned long long)off.eventCount(),
            (unsigned long long)off.storageBytes());
        std::exit(1);
    }

    // Gate 2: the same event storm with and without an installed
    // (never armed) hook must dispatch identically and allocate
    // identically — the disarmed path is one always-false compare.
    const std::uint64_t target = quick ? 200'000 : 2'000'000;
    const KernelRun plain = driveKernel<EventQueue>(target, 7);
    const KernelRun hooked = driveKernel<EventQueue>(
        target, 7, [](EventQueue &q) {
            q.installStepHook([](void *, Tick) {}, nullptr);
        });
    if (plain.dispatched != hooked.dispatched ||
        plain.allocs != hooked.allocs) {
        std::fprintf(stderr,
                     "FAIL: disarmed step hook changed the kernel "
                     "(dispatched %llu vs %llu, allocs %llu vs "
                     "%llu)\n",
                     (unsigned long long)plain.dispatched,
                     (unsigned long long)hooked.dispatched,
                     (unsigned long long)plain.allocs,
                     (unsigned long long)hooked.allocs);
        std::exit(1);
    }

    Table t({"kernel", "events/sec", "allocs/event"});
    t.addRow({"no hook",
              Table::num(std::uint64_t(plain.eventsPerSec)),
              Table::num(double(plain.allocs) /
                             double(plain.dispatched),
                         3)});
    t.addRow({"hook installed, disarmed",
              Table::num(std::uint64_t(hooked.eventsPerSec)),
              Table::num(double(hooked.allocs) /
                             double(hooked.dispatched),
                         3)});
    std::printf("%s", t.render().c_str());
    std::printf("\ndisabled-telemetry storage/samples: 0 "
                "(asserted)\ndisarmed-hook dispatch/alloc parity "
                "(asserted)\n");

    RunResult r;
    r.raw["telemetry.gate.dispatched"] = hooked.dispatched;
    r.raw["telemetry.gate.allocs"] = hooked.allocs;
    r.raw["telemetry.gate.eventsPerSec"] =
        std::uint64_t(hooked.eventsPerSec);
    r.raw["telemetry.gate.plainEventsPerSec"] =
        std::uint64_t(plain.eventsPerSec);
    report.add("telemetry_gate", r);
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
    checkin::fullStack(report, quick);
    checkin::telemetryGate(report, quick);
    return 0;
}
