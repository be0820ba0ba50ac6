#include "engine/engine_core.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "engine/record.h"
#include "obs/attribution.h"
#include "obs/trace.h"

namespace checkin {

namespace {

/** Sum of the device counters behind CheckpointStat::cowCommands. */
std::uint64_t
cowCommandCount(const StatRegistry &ds)
{
    return ds.get("ssd.cmd.cowSingle") + ds.get("ssd.cmd.cowMulti") +
           ds.get("ssd.cmd.checkpointRemap");
}

} // namespace

void
EngineCore::FanOut::complete(const CmdResult &r)
{
    last = std::max(last, r.require());
    assert(outstanding > 0);
    if (--outstanding == 0)
        done(last);
}

EngineCore::EngineCore(SimContext &ctx, Ssd &ssd,
                       const EngineConfig &cfg, const TraceNames &names)
    : eq_(ctx.events()),
      ssd_(ssd),
      cfg_(cfg),
      telem_(ctx.telemetry()),
      policy_(CheckpointPolicy::create(cfg_)),
      names_(names)
{
    obs::nameLane(obs::Cat::Engine, kCkptLane, names_.lane);
}

void
EngineCore::addProbes(std::initializer_list<Probe> gauges,
                      std::initializer_list<Probe> counters)
{
    if (telem_ == nullptr || !telem_->enabled())
        return;
    telem_->addGauge("engine.deferredOps", [this] {
        return std::uint64_t(deferred_.size());
    });
    // The keymap holds one entry per key.
    telem_->addGauge("engine.keymapSize",
                     [this] { return cfg_.recordCount; });
    telem_->addGauge("engine.ckptInProgress", [this] {
        return std::uint64_t(ckptInProgress_ ? 1 : 0);
    });
    for (const Probe &p : gauges)
        telem_->addGauge(p.first, p.second);
    telem_->addGauge("journal.fillRate", [this] {
        return std::uint64_t(policy_->fillRateBytesPerSec());
    });
    telem_->addCounter("engine.checkpoints", [this] {
        return stats_.get("engine.checkpoints");
    });
    for (const Probe &p : counters)
        telem_->addCounter(p.first, p.second);
}

// ----------------------------------------------------------------------
// Triggers
// ----------------------------------------------------------------------

void
EngineCore::start()
{
    if (policy_->timerPeriod() > 0)
        eq_.scheduleAfter(policy_->timerPeriod(),
                          [this] { onCheckpointTimer(); });
}

void
EngineCore::onCheckpointTimer()
{
    const PolicyDecision d = policy_->onTimer(policySignals());
    if (d.checkpoint)
        requestCheckpoint(d.trigger);
    if (policy_->timerPeriod() > 0)
        eq_.scheduleAfter(policy_->timerPeriod(),
                          [this] { onCheckpointTimer(); });
}

PolicySignals
EngineCore::policySignals() const
{
    PolicySignals sig;
    sig.now = eq_.now();
    sig.journalBytes = journalBytes();
    sig.journalCapacityBytes = cfg_.journalHalfBytes;
    sig.checkpointInProgress = ckptInProgress_;
    sig.checkpointStallTicks =
        obs::attrLiveStageTicks(obs::Stage::CheckpointStall);
    return sig;
}

void
EngineCore::noteJournalAppend()
{
    policy_->noteAppend(eq_.now(), journalBytes());
    if (ckptInProgress_)
        return;
    const PolicyDecision d = policy_->onAppend(policySignals());
    if (d.checkpoint)
        requestCheckpoint(d.trigger);
}

// ----------------------------------------------------------------------
// Query front
// ----------------------------------------------------------------------

bool
EngineCore::maybeDefer(InlineCallback &task)
{
    if (cfg_.lockQueriesDuringCheckpoint && ckptInProgress_) {
        deferred_.push_back(std::move(task));
        return true;
    }
    return false;
}

void
EngineCore::drainDeferred()
{
    while (!deferred_.empty()) {
        eq_.scheduleAfter(0, std::move(deferred_.front()));
        deferred_.pop_front();
    }
}

void
EngineCore::submitTask(obs::OpToken op, InlineCallback task)
{
    if (maybeDefer(task))
        return;
    obs::attrMark(op, obs::Stage::HostCpu,
                  eq_.now() + cfg_.hostCpuPerQuery);
    eq_.scheduleAfter(cfg_.hostCpuPerQuery, std::move(task));
}

void
EngineCore::get(std::uint64_t key, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    submitTask(op, [this, key, op, cb = std::move(cb)]() mutable {
        // A deferred task ran later than scheduled; the gap was spent
        // behind the checkpoint lock (monotone no-op otherwise).
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doGet(key, std::move(cb));
    });
}

void
EngineCore::update(std::uint64_t key, std::uint32_t value_bytes,
                   QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    submitTask(op, [this, key, value_bytes, op,
                    cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        assert(key < cfg_.recordCount);
        assert(value_bytes > 0 && value_bytes <= cfg_.maxValueBytes);
        doWrite(key, value_bytes, std::move(cb));
    });
}

void
EngineCore::readModifyWrite(std::uint64_t key,
                            std::uint32_t value_bytes, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    get(key, [this, key, value_bytes, op,
              cb = std::move(cb)](const QueryResult &r1) mutable {
        const bool first_during = r1.duringCheckpoint;
        // The continuation runs from a completion callback where the
        // ambient current op is gone; re-scope it so the update leg
        // attributes to the same op.
        obs::AttrOpScope attr_scope(op);
        update(key, value_bytes,
               [cb = std::move(cb),
                first_during](const QueryResult &r2) {
                   QueryResult res = r2;
                   res.duringCheckpoint |= first_during;
                   cb(res);
               });
    });
}

void
EngineCore::erase(std::uint64_t key, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    submitTask(op, [this, key, op, cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        assert(key < cfg_.recordCount);
        doWrite(key, 0, std::move(cb));
    });
}

void
EngineCore::updateBatch(std::vector<BatchOp> ops, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    submitTask(op, [this, ops = std::move(ops), op,
                    cb = std::move(cb)]() mutable {
        assert(!ops.empty());
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doUpdateBatch(std::move(ops), std::move(cb));
    });
}

void
EngineCore::scan(std::uint64_t start_key, std::uint32_t count,
                 QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    submitTask(op, [this, start_key, count, op,
                    cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        assert(start_key < cfg_.recordCount);
        doScan(start_key, count, std::move(cb));
    });
}

void
EngineCore::doGet(std::uint64_t key, QueryCb cb)
{
    assert(key < cfg_.recordCount);
    sGets_.add();
    const Located v = locate(key);
    const bool ckpt_at_submit = ckptInProgress_;
    if (v.version == 0 || v.chunks == 0) {
        // Never written, or deleted.
        sGetMisses_.add();
        eq_.scheduleAfter(0, [this, cb = std::move(cb),
                              ckpt_at_submit] {
            cb(QueryResult{eq_.now(), ckpt_at_submit, false});
        });
        return;
    }
    checkContent(key, v);
    if (v.inJournal)
        sGetsFromJournal_.add();
    const auto nsect = std::uint32_t(
        divCeil(v.shift + v.chunks, kChunksPerSector));
    ssd_.submit(Command::read(v.lba, nsect, IoCause::Query),
                [this, cb = std::move(cb),
                 ckpt_at_submit](const CmdResult &r) {
                    cb(QueryResult{
                        r.require(),
                        ckpt_at_submit || ckptInProgress_, true});
                });
}

void
EngineCore::writeDone(const QueryCb &cb, Tick done, bool ckpt_at_submit,
                      std::uint32_t value_bytes)
{
    if (value_bytes == 0) {
        sDeletes_.add();
    } else {
        sUpdates_.add();
        sUpdateBytes_.add(value_bytes);
    }
    acknowledge(cb, done, ckpt_at_submit);
}

void
EngineCore::acknowledge(const QueryCb &cb, Tick done,
                        bool ckpt_at_submit)
{
    noteJournalAppend();
    cb(QueryResult{done, ckpt_at_submit || ckptInProgress_, true});
}

std::shared_ptr<EngineCore::BatchJob>
EngineCore::beginBatch(std::size_t records, QueryCb cb)
{
    auto job = std::make_shared<BatchJob>();
    job->outstanding = records;
    job->ckptAtSubmit = ckptInProgress_;
    job->cb = std::move(cb);
    return job;
}

void
EngineCore::batchRecordDone(BatchJob &job, Tick done)
{
    job.last = std::max(job.last, done);
    if (--job.outstanding == 0) {
        sBatchCommits_.add();
        acknowledge(job.cb, job.last, job.ckptAtSubmit);
    }
}

std::shared_ptr<EngineCore::ScanJob>
EngineCore::beginScan(QueryCb cb)
{
    sScans_.add();
    auto job = std::make_shared<ScanJob>();
    job->ckptAtSubmit = ckptInProgress_;
    job->cb = std::move(cb);
    return job;
}

void
EngineCore::scanRead(const std::shared_ptr<ScanJob> &job, Lba lba,
                     std::uint64_t nsect)
{
    ++job->outstanding;
    ssd_.submit(Command::read(lba, nsect, IoCause::Query),
                [this, job](const CmdResult &r) {
        job->last = std::max(job->last, r.require());
        if (--job->outstanding == 0 && job->launched) {
            job->cb(QueryResult{job->last,
                                job->ckptAtSubmit || ckptInProgress_,
                                job->scanned > 0, job->scanned});
        }
    });
}

void
EngineCore::endScan(const std::shared_ptr<ScanJob> &job)
{
    job->launched = true;
    if (job->outstanding == 0) {
        // Nothing live in range: complete asynchronously.
        eq_.scheduleAfter(0, [this, job] {
            job->cb(QueryResult{eq_.now(),
                                job->ckptAtSubmit || ckptInProgress_,
                                false, 0});
        });
    }
}

std::vector<CowPair>
EngineCore::batch(const std::vector<CowPair> &pairs, std::size_t b) const
{
    const std::size_t first = b * cfg_.maxPairsPerCommand;
    const std::size_t end =
        std::min(pairs.size(), first + cfg_.maxPairsPerCommand);
    return {pairs.begin() + first, pairs.begin() + end};
}

// ----------------------------------------------------------------------
// Checkpoint lifecycle
// ----------------------------------------------------------------------

void
EngineCore::requestCheckpoint(obs::CkptTrigger reason)
{
    // A safety-bound trip is an anomaly even when the request
    // coalesces into a checkpoint already in flight.
    if (telem_ != nullptr && reason == obs::CkptTrigger::Safety) {
        telem_->noteEvent(obs::TelemetryEvent::SafetyTrip, eq_.now(),
                          journalBytes());
    }
    if (ckptInProgress_) {
        pendingCkptRequest_ = true;
        return;
    }
    if (nothingToCheckpoint())
        return;
    if (spareHalfBusy()) {
        pendingCkptRequest_ = true;
        return;
    }
    // The request that actually starts the checkpoint names it;
    // coalesced earlier requests re-fire as Backlog.
    ckptRec_.trigger = reason;
    startCheckpoint();
}

void
EngineCore::startCheckpoint()
{
    ckptInProgress_ = true;
    ckptStart_ = eq_.now();
    policy_->onCheckpointStart(ckptStart_);
    if (telem_ != nullptr)
        telem_->noteCheckpointStart(ckptStart_);
    stats_.add("engine.checkpoints");
    obs::instant(obs::Cat::Engine, kCkptLane, names_.start, ckptStart_,
                 {{names_.startArg, journalRecords()}});
    runCheckpoint();
}

obs::CheckpointStat *
EngineCore::noteSnapshot(std::uint64_t logs_seen, std::uint64_t entries)
{
    stats_.add("engine.ckptLogsSeen", logs_seen);
    stats_.add("engine.ckptLatestEntries", entries);
    if (!obs::attributionOn())
        return nullptr;
    const obs::CkptTrigger reason = ckptRec_.trigger;
    ckptRec_ = obs::CheckpointStat{};
    ckptRec_.trigger = reason;
    ckptRec_.seq = ckptSeq_;
    ckptRec_.startTick = ckptStart_;
    ckptRec_.entries = entries;
    // Device-counter baselines; finishCheckpoint() turns them into
    // per-checkpoint deltas.
    const StatRegistry &ds = ssd_.stats();
    ckptRec_.cowCommands = cowCommandCount(ds);
    ckptRec_.remappedPairs = ds.get("isce.remappedPairs");
    ckptRec_.remappedUnits = ds.get("isce.remappedUnits");
    ckptRec_.copiedPairs = ds.get("isce.copiedPairs");
    ckptRec_.copiedChunks = ds.get("isce.copiedChunks");
    ckptRec_.bufferedSmallRecords = ds.get("isce.bufferedSmallRecords");
    return &ckptRec_;
}

void
EngineCore::markDataDone(std::uint64_t records)
{
    // Phase accounting (paper Fig 4): data movement vs metadata vs
    // log deletion.
    ckptDataDone_ = std::max(eq_.now(), ckptStart_);
    stats_.add("engine.ckptDataTicks", ckptDataDone_ - ckptStart_);
    obs::span(obs::Cat::Engine, kCkptLane, names_.data, ckptStart_,
              ckptDataDone_, {{names_.dataArg, records}});
}

void
EngineCore::markMetaDone(Tick t)
{
    ckptMetaDone_ = std::max(t, ckptDataDone_);
    stats_.add("engine.ckptMetaTicks", ckptMetaDone_ - ckptDataDone_);
    obs::span(obs::Cat::Engine, kCkptLane, names_.meta, ckptDataDone_,
              ckptMetaDone_);
}

void
EngineCore::markDeleteDone(Tick t)
{
    stats_.add("engine.ckptDeleteTicks",
               t > ckptMetaDone_ ? t - ckptMetaDone_ : 0);
    obs::span(obs::Cat::Engine, kCkptLane, names_.del, ckptMetaDone_, t);
}

void
EngineCore::finishCheckpoint(Tick t, std::uint64_t whole_arg)
{
    ckptInProgress_ = false;
    ckptDurations_.push_back(t - ckptStart_);
    if (telem_ != nullptr)
        telem_->noteCheckpointEnd(t, t - ckptStart_);
    stats_.add("engine.ckptTicks", t - ckptStart_);
    if (names_.wholeArg != nullptr) {
        obs::span(obs::Cat::Engine, kCkptLane, names_.whole, ckptStart_,
                  t, {{names_.wholeArg, whole_arg}});
    } else {
        obs::span(obs::Cat::Engine, kCkptLane, names_.whole, ckptStart_,
                  t);
    }
    if (obs::attributionOn()) {
        ckptRec_.dataDoneTick = ckptDataDone_;
        ckptRec_.metaDoneTick = ckptMetaDone_;
        ckptRec_.endTick = t;
        const StatRegistry &ds = ssd_.stats();
        ckptRec_.cowCommands =
            cowCommandCount(ds) - ckptRec_.cowCommands;
        ckptRec_.remappedPairs =
            ds.get("isce.remappedPairs") - ckptRec_.remappedPairs;
        ckptRec_.remappedUnits =
            ds.get("isce.remappedUnits") - ckptRec_.remappedUnits;
        ckptRec_.copiedPairs =
            ds.get("isce.copiedPairs") - ckptRec_.copiedPairs;
        ckptRec_.copiedChunks =
            ds.get("isce.copiedChunks") - ckptRec_.copiedChunks;
        ckptRec_.bufferedSmallRecords =
            ds.get("isce.bufferedSmallRecords") -
            ckptRec_.bufferedSmallRecords;
        obs::attrNoteCheckpoint(ckptRec_);
    }
    ++ckptSeq_;
    policy_->onCheckpointEnd(t, t - ckptStart_);
    drainDeferred();
    afterDeferredReleased();
    const bool threshold_hit =
        policy_->onAppend(policySignals()).checkpoint;
    if (pendingCkptRequest_ || threshold_hit) {
        pendingCkptRequest_ = false;
        requestCheckpoint(obs::CkptTrigger::Backlog);
    }
}

// ----------------------------------------------------------------------
// Verification
// ----------------------------------------------------------------------

void
EngineCore::checkContent(std::uint64_t key, const Located &v) const
{
    if (v.version == 0 || v.lba == kInvalidAddr)
        return;
    // Compare sector by sector through one stack buffer: a get checks
    // its tokens without allocating.
    SectorData sector;
    if (v.chunks == 0) {
        ssd_.peek(v.lba, 1, &sector);
        if (sector.chunks[v.shift] != tombstoneToken(key, v.version)) {
            std::ostringstream os;
            os << "tombstone mismatch: key " << key << " version "
               << v.version << " at lba " << v.lba;
            throw std::runtime_error(os.str());
        }
        return;
    }
    for (std::uint32_t c = 0; c < v.chunks; ++c) {
        const std::uint32_t pos = v.shift + c;
        if (c == 0 || pos % kChunksPerSector == 0)
            ssd_.peek(v.lba + pos / kChunksPerSector, 1, &sector);
        const std::uint64_t got = sector.chunks[pos % kChunksPerSector];
        if (got != dataChunkToken(key, v.version, c)) {
            const DecodedToken d = decodeToken(got);
            std::ostringstream os;
            os << "content mismatch: key " << key << " version "
               << v.version << " chunk " << c << " at lba " << v.lba
               << (v.inJournal ? " (journal)" : " (data)")
               << " shift " << v.shift << " chunks " << v.chunks
               << ": got tag=" << int(d.tag) << " key=" << d.key
               << " ver=" << d.version << " aux=" << d.aux;
            throw std::runtime_error(os.str());
        }
    }
}

std::uint64_t
EngineCore::verifyAllKeys() const
{
    std::uint64_t verified = 0;
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const Located v = locate(key);
        if (v.version == 0)
            continue;
        checkContent(key, v);
        ++verified;
    }
    return verified;
}

} // namespace checkin
