/**
 * @file
 * Continuous telemetry: sim-time-windowed sampling + black box.
 *
 * A TelemetrySampler turns the stack's instantaneous state into
 * evidence of *how a run evolved*: layers register named gauge and
 * counter probes (journal fill, queue depth, FTL free blocks, NAND
 * program counts, per-tenant load, ...) and the sampler snapshots all
 * of them at fixed sim-time windows, driven by a post-dispatch hook on
 * the run's EventQueue (see EventQueue::installStepHook). Counter
 * probes record the per-window delta, so window sums reconcile
 * *exactly* with the end-of-run counter (validated by
 * tools/validate_artifacts.py); gauges record the sampled value.
 *
 * Alongside the series it keeps a bounded "black box": ring buffers of
 * the most recent samples and of high-resolution recent events
 * (checkpoint start/end, journal stalls, SLO violations, media
 * errors). When an anomaly fires — an SLO violation streak, an
 * AdaptivePolicy safety-bound trip, a checkpoint overrunning its
 * running average, a MediaError, or a power cut — the sampler freezes
 * a copy of both rings as a pre-trigger dump, exactly like a flight
 * recorder: the state leading *into* the incident survives even when
 * the incident destroys the run.
 *
 * Determinism: everything is keyed to sim time and driven by the
 * event queue of one SimContext, so telemetry.json / blackbox.json
 * are byte-identical across sweep workers and cluster synchronizer
 * thread counts (tested in tests/test_telemetry.cc).
 *
 * Zero overhead when disabled: layers hold a TelemetrySampler pointer
 * (from their SimContext) and every note is a pointer + flag check; a
 * disabled sampler registers no probes, allocates nothing, and the
 * event queue pays one always-false compare per dispatch
 * (tests/test_telemetry.cc and tests/test_alloc_budget.cc gate this).
 */

#ifndef CHECKIN_OBS_TELEMETRY_H_
#define CHECKIN_OBS_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace checkin {
class EventQueue;
} // namespace checkin

namespace checkin::obs {

/** What a probe's samples mean. */
enum class ProbeKind : std::uint8_t
{
    /** Instantaneous level; each window records the sampled value. */
    Gauge,
    /** Monotone cumulative count; each window records the delta. */
    Counter,
};

const char *probeKindName(ProbeKind k);

/** High-resolution event classes recorded into the black box. */
enum class TelemetryEvent : std::uint8_t
{
    CkptStart = 0,
    CkptEnd,
    JournalStall,
    SafetyTrip,
    SloViolation,
    MediaError,
    PowerCut,
};

inline constexpr std::size_t kTelemetryEventCount = 7;

const char *telemetryEventName(TelemetryEvent ev);

/** Why a black-box dump was captured. */
enum class Anomaly : std::uint8_t
{
    SloStreak = 0,
    SafetyTrip,
    CkptOverrun,
    MediaError,
    PowerCut,
};

const char *anomalyName(Anomaly a);

/** Sampler configuration (part of ObsOptions). */
struct TelemetryOptions
{
    /** Master switch; a disabled sampler stores nothing. */
    bool enabled = false;

    /** Sampling window width (sim ticks). */
    Tick window = kMsec;

    /** Black-box ring depth: retained recent samples. */
    std::uint32_t blackboxSamples = 64;

    /** Black-box ring depth: retained recent events. */
    std::uint32_t blackboxEvents = 256;

    /** Dumps retained; further anomalies are counted, not dumped. */
    std::uint32_t maxDumps = 4;

    /** Consecutive SLO violations that fire the SloStreak anomaly. */
    std::uint32_t sloStreak = 16;

    /** Checkpoint overrun: duration > factor x running EWMA. */
    double ckptOverrunFactor = 4.0;

    /** Checkpoints observed before overrun detection arms. */
    std::uint32_t ckptOverrunMinHistory = 4;
};

/** End-of-run rollup (rides in RunResult / summary.json). */
struct TelemetrySummary
{
    bool enabled = false;
    Tick windowTicks = 0;
    std::uint64_t probes = 0;
    std::uint64_t samples = 0;
    std::uint64_t events = 0;
    std::uint64_t anomalies = 0;
};

/** One exported probe series (cluster rollups merge these). */
struct TelemetrySeries
{
    std::string name;
    ProbeKind kind = ProbeKind::Gauge;
    /** Counter: cumulative post-baseline delta (== sum of points).
     *  Gauge: last sampled value. */
    std::uint64_t final = 0;
    /** (absolute window index, value); windows strictly increase. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> points;
};

/**
 * Windowed sampler + anomaly black box for one SimContext.
 *
 * Lifecycle: construct (with the run's options) before the device so
 * layer constructors can register probes and capture the pointer;
 * begin() after the load phase (snapshots counter baselines, arms the
 * event-queue hook); finalize() after the measured run (flushes the
 * residual window, disarms the hook). Notes outside begin()/finalize()
 * are dropped, so artifacts cover exactly the measured run.
 */
class TelemetrySampler
{
  public:
    using ProbeFn = std::function<std::uint64_t()>;

    explicit TelemetrySampler(TelemetryOptions opts = {});

    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /** True when the run asked for telemetry. */
    bool enabled() const { return enabled_; }

    /** True between begin() and finalize(). */
    bool active() const { return active_; }

    const TelemetryOptions &options() const { return opts_; }

    /** Register an instantaneous-level probe (no-op when disabled). */
    void addGauge(std::string name, ProbeFn fn);

    /** Register a cumulative-counter probe (no-op when disabled). */
    void addCounter(std::string name, ProbeFn fn);

    /**
     * Arm sampling on @p eq: snapshot counter baselines at eq.now()
     * and install the post-dispatch hook (first fire at the next
     * window boundary). No-op when disabled.
     */
    void begin(EventQueue &eq);

    /** Flush the residual window at @p now and disarm the hook. */
    void finalize(Tick now);

    // ---- hot-path notes (inline flag check, out-of-line body) ----

    /** Record a high-resolution event; some kinds fire anomalies
     *  (SafetyTrip, MediaError, PowerCut). */
    void
    noteEvent(TelemetryEvent ev, Tick now, std::uint64_t value = 0)
    {
        if (!active_)
            return;
        record(ev, now, value);
    }

    /** Per-op SLO outcome; a violation streak fires SloStreak. */
    void
    noteSloResult(Tick now, bool violated)
    {
        if (!active_)
            return;
        slo(now, violated);
    }

    void
    noteCheckpointStart(Tick now)
    {
        noteEvent(TelemetryEvent::CkptStart, now);
    }

    /** Checkpoint completion; overruns vs the EWMA fire CkptOverrun. */
    void
    noteCheckpointEnd(Tick now, Tick duration)
    {
        if (!active_)
            return;
        ckptEnd(now, duration);
    }

    // ---- exports ----

    /** telemetry.json: every probe series + run window metadata. */
    std::string telemetryJson() const;

    /** blackbox.json: anomaly dumps (pre-trigger rings). */
    std::string blackboxJson() const;

    TelemetrySummary summary() const;

    /** Exported series, sorted by name (cluster rollups use this). */
    std::vector<TelemetrySeries> series() const;

    // ---- introspection (tests + zero-overhead gates) ----

    std::size_t probeCount() const { return probes_.size(); }
    std::uint64_t sampleCount() const { return samples_; }
    std::uint64_t eventCount() const { return events_; }
    std::uint64_t anomalyCount() const { return anomalies_; }
    Tick baselineTick() const { return baselineTick_; }
    Tick finalTick() const { return finalTick_; }

    /** Bytes held by probes, series, and rings; 0 when disabled. */
    std::size_t storageBytes() const;

  private:
    struct Probe
    {
        std::string name;
        ProbeKind kind;
        ProbeFn fn;
        /** Raw value at the previous sample (counter baseline). */
        std::uint64_t lastRaw = 0;
        /** Cumulative post-baseline delta / last gauge value. */
        std::uint64_t final = 0;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> points;
    };

    struct EventRec
    {
        Tick tick;
        TelemetryEvent ev;
        std::uint64_t value;
    };

    struct SampleRec
    {
        Tick tick;
        std::vector<std::uint64_t> values;
    };

    struct Dump
    {
        Anomaly anomaly;
        Tick triggerTick;
        std::uint64_t value;
        std::uint64_t seq;
        std::vector<SampleRec> samples;
        std::vector<EventRec> events;
    };

    static void hookThunk(void *self, Tick now);
    void onHook(Tick now);

    /** Take one sample at @p now, merging into an already-sampled
     *  window (finalize can land in the last hook's window). */
    void sample(Tick now);

    void record(TelemetryEvent ev, Tick now, std::uint64_t value);
    void slo(Tick now, bool violated);
    void ckptEnd(Tick now, Tick duration);
    void trigger(Anomaly a, Tick now, std::uint64_t value);

    /** Ring contents oldest -> newest. */
    std::vector<SampleRec> orderedSamples() const;
    std::vector<EventRec> orderedEvents() const;

    friend void writeBlackboxBody(class JsonWriter &w,
                                  const TelemetrySampler &t);

    TelemetryOptions opts_;
    bool enabled_ = false;
    bool active_ = false;
    EventQueue *eq_ = nullptr;

    std::vector<Probe> probes_;

    // Black-box rings (bounded; head_ = oldest once full).
    std::vector<SampleRec> sampleRing_;
    std::size_t sampleHead_ = 0;
    std::vector<EventRec> eventRing_;
    std::size_t eventHead_ = 0;

    std::vector<Dump> dumps_;

    // Anomaly detector state.
    std::uint32_t sloStreak_ = 0;
    double ckptEwma_ = 0.0;
    std::uint32_t ckptSeen_ = 0;

    std::uint64_t samples_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t anomalies_ = 0;
    Tick baselineTick_ = 0;
    Tick finalTick_ = 0;
};

/**
 * Merged cluster artifact: every shard's series prefixed
 * "shard<i>.<name>" plus "cluster.<name>" per-window rollups (values
 * summed across shards). Deterministic for any synchronizer thread
 * count because each shard's sampler is driven by that shard's own
 * event queue and shards are merged in index order.
 */
std::string clusterTelemetryJson(
    const std::vector<const TelemetrySampler *> &shards);

/** Merged cluster black box: per-shard dump sections, shard order. */
std::string clusterBlackboxJson(
    const std::vector<const TelemetrySampler *> &shards);

} // namespace checkin::obs

#endif // CHECKIN_OBS_TELEMETRY_H_
