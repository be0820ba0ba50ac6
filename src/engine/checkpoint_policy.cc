#include "engine/checkpoint_policy.h"

namespace checkin {

const char *
checkpointModeName(CheckpointMode mode)
{
    switch (mode) {
      case CheckpointMode::Baseline: return "Baseline";
      case CheckpointMode::IscA: return "ISC-A";
      case CheckpointMode::IscB: return "ISC-B";
      case CheckpointMode::IscC: return "ISC-C";
      case CheckpointMode::CheckIn: return "Check-In";
    }
    return "?";
}

const char *
engineBackendName(EngineBackend backend)
{
    switch (backend) {
      case EngineBackend::CheckIn: return "checkin";
      case EngineBackend::Lsm: return "lsm";
    }
    return "?";
}

const char *
checkpointPolicyName(CheckpointPolicyKind kind)
{
    switch (kind) {
        case CheckpointPolicyKind::Fixed:
            return "fixed";
        case CheckpointPolicyKind::Adaptive:
            return "adaptive";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Fill-rate estimator (shared by all policies)
// ---------------------------------------------------------------------
//
// Two EWMAs over the active half's byte level, decayed with the
// rational factor tau / (tau + dt) per sample — no transcendental
// calls, so the estimate is a pure rational function of the sample
// history and bit-stable across toolchains. For a constant fill rate
// r the credit converges to r * tau, so rate = credit / tau.

void
CheckpointPolicy::noteAppend(Tick now, std::uint64_t level_bytes)
{
    if (!primed_) {
        primed_ = true;
        lastTick_ = now;
        lastLevel_ = level_bytes;
        return;
    }
    const std::uint64_t delta =
        level_bytes > lastLevel_ ? level_bytes - lastLevel_ : 0;
    const Tick dt = now > lastTick_ ? now - lastTick_ : 0;
    fastCredit_ = fastCredit_ * (double(fastTau_) /
                                 double(fastTau_ + dt)) +
                  double(delta);
    slowCredit_ = slowCredit_ * (double(slowTau_) /
                                 double(slowTau_ + dt)) +
                  double(delta);
    lastTick_ = now;
    lastLevel_ = level_bytes;
}

double
CheckpointPolicy::fillRateBytesPerSec() const
{
    return fastCredit_ / double(fastTau_) * double(kSec);
}

double
CheckpointPolicy::slowFillRateBytesPerSec() const
{
    return slowCredit_ / double(slowTau_) * double(kSec);
}

std::unique_ptr<CheckpointPolicy>
CheckpointPolicy::create(const EngineConfig &cfg)
{
    switch (cfg.checkpointPolicy) {
        case CheckpointPolicyKind::Fixed:
            return std::make_unique<FixedPolicy>(cfg);
        case CheckpointPolicyKind::Adaptive:
            return std::make_unique<AdaptivePolicy>(cfg);
    }
    return std::make_unique<FixedPolicy>(cfg);
}

// ---------------------------------------------------------------------
// FixedPolicy
// ---------------------------------------------------------------------

FixedPolicy::FixedPolicy(const EngineConfig &cfg)
    : CheckpointPolicy(cfg.adaptive.fastTau, cfg.adaptive.slowTau),
      interval_(cfg.checkpointInterval),
      thresholdBytes_(cfg.checkpointJournalBytes)
{
}

PolicyDecision
FixedPolicy::onTimer(const PolicySignals &)
{
    // The historical timer body called requestCheckpoint
    // unconditionally; requestCheckpoint itself handles the
    // in-progress / empty-JMT cases.
    return {true, obs::CkptTrigger::Timer};
}

PolicyDecision
FixedPolicy::onAppend(const PolicySignals &sig)
{
    // Exactly the historical inline predicate (the caller keeps its
    // !checkpointInProgress guard, as before).
    return {sig.journalBytes >= thresholdBytes_,
            obs::CkptTrigger::JournalBytes};
}

// ---------------------------------------------------------------------
// AdaptivePolicy
// ---------------------------------------------------------------------

AdaptivePolicy::AdaptivePolicy(const EngineConfig &cfg)
    : CheckpointPolicy(cfg.adaptive.fastTau, cfg.adaptive.slowTau),
      knobs_(cfg.adaptive),
      ckptDurEwma_(cfg.adaptive.initialCheckpointDuration)
{
}

bool
AdaptivePolicy::safetyBound(const PolicySignals &sig) const
{
    if (sig.journalBytes == 0 || sig.journalCapacityBytes == 0)
        return false;
    const double cap = double(sig.journalCapacityBytes);
    // Absolute backstop: never let the half run past safetyFraction
    // without a checkpoint, whatever the rate estimate says.
    if (double(sig.journalBytes) >= knobs_.safetyFraction * cap)
        return true;
    // Projection: would the half fill before a checkpoint of EWMA
    // duration (with margin) could free the other one?
    const double rate_per_tick =
        fillRateBytesPerSec() / double(kSec);
    const double projected =
        double(sig.journalBytes) +
        knobs_.safetyMargin * rate_per_tick * double(ckptDurEwma_);
    return projected >= cap;
}

double
AdaptivePolicy::stallFactor(const PolicySignals &sig)
{
    // Checkpoint-stall dwell accumulated since the last control
    // tick, normalized to the control interval and folded into an
    // EWMA. 0 = checkpoints are free; -> 1 = every interval burns
    // multiples of itself in stalls.
    const Tick stall = sig.checkpointStallTicks;
    const Tick delta =
        stall > lastStallTicks_ ? stall - lastStallTicks_ : 0;
    lastStallTicks_ = stall;
    const Tick dt = sig.now > lastControlTick_
                        ? sig.now - lastControlTick_
                        : knobs_.controlInterval;
    lastControlTick_ = sig.now;
    const double x = dt > 0 ? double(delta) / double(dt) : 0.0;
    stallEwma_ = 0.75 * stallEwma_ + 0.25 * x;
    return stallEwma_ / (1.0 + stallEwma_);
}

PolicyDecision
AdaptivePolicy::onTimer(const PolicySignals &sig)
{
    const double stall = stallFactor(sig);
    if (sig.checkpointInProgress)
        return {};
    if (safetyBound(sig))
        return {true, obs::CkptTrigger::Safety};
    if (sig.journalBytes == 0)
        return {};
    const double fast = fillRateBytesPerSec();
    const double slow = slowFillRateBytesPerSec();
    // Burst: the fast rate has pulled away from the long-run rate.
    // Defer — stacking checkpoint device work on top of an arrival
    // burst is exactly what widens the tail. Safety above still
    // bounds how long deferral can go on.
    if (slow > 0.0 && fast > knobs_.burstFactor * slow)
        return {};
    // Lull: arrivals have fallen off; checkpoint now while the
    // device is idle so the next burst starts with an empty half.
    if (slow > 0.0 && fast < knobs_.idleFraction * slow &&
        sig.journalBytes >= knobs_.minCheckpointBytes)
        return {true, obs::CkptTrigger::AdaptivePace};
    // Steady state: pace at paceFraction of the half, stretched
    // toward the safety ceiling when recent checkpoints caused
    // measurable foreground stall (do them less often, as late as
    // safety allows).
    const double pace =
        knobs_.paceFraction +
        (knobs_.safetyFraction - knobs_.paceFraction) * stall;
    if (double(sig.journalBytes) >=
        pace * double(sig.journalCapacityBytes))
        return {true, obs::CkptTrigger::AdaptivePace};
    return {};
}

PolicyDecision
AdaptivePolicy::onAppend(const PolicySignals &sig)
{
    // The append path only enforces the hard bound; pacing decisions
    // belong to the control timer.
    if (sig.checkpointInProgress)
        return {};
    if (safetyBound(sig))
        return {true, obs::CkptTrigger::Safety};
    return {};
}

void
AdaptivePolicy::onCheckpointEnd(Tick, Tick duration)
{
    const std::int64_t err =
        std::int64_t(duration) - std::int64_t(ckptDurEwma_);
    ckptDurEwma_ = Tick(std::int64_t(ckptDurEwma_) +
                        (err >> knobs_.durationEwmaShift));
}

} // namespace checkin
