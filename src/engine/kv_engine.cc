#include "engine/kv_engine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "engine/record.h"
#include "obs/attribution.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace checkin {

namespace {

/** Trace lane for checkpoint events (Cat::Engine). */
constexpr std::uint32_t kCkptLane = 1;

/** Sum of the device counters behind CheckpointStat::cowCommands. */
std::uint64_t
cowCommandCount(const StatRegistry &ds)
{
    return ds.get("ssd.cmd.cowSingle") + ds.get("ssd.cmd.cowMulti") +
           ds.get("ssd.cmd.checkpointRemap");
}

} // namespace

KvEngine::KvEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg)
    : eq_(ctx.events()),
      ssd_(ssd),
      cfg_(cfg),
      layout_(DiskLayout::compute(cfg, ssd.capacitySectors(),
                                  ssd.ftl().sectorsPerUnit())),
      keymap_(cfg.recordCount),
      journal_(ctx, ssd, layout_, cfg_, stats_),
      strategy_(CheckpointStrategy::create(ssd, layout_, cfg_,
                                           stats_)),
      policy_(CheckpointPolicy::create(cfg_))
{
    journal_.setPressureCallback([this] {
        requestCheckpoint(obs::CkptTrigger::SpacePressure);
    });
    obs::nameLane(obs::Cat::Engine, kCkptLane, "checkpoint");
    telem_ = ctx.telemetry();
    if (telem_ != nullptr && telem_->enabled()) {
        telem_->addGauge("engine.deferredOps", [this] {
            return std::uint64_t(deferred_.size());
        });
        telem_->addGauge("engine.keymapSize", [this] {
            return std::uint64_t(keymap_.size());
        });
        telem_->addGauge("engine.ckptInProgress", [this] {
            return std::uint64_t(ckptInProgress_ ? 1 : 0);
        });
        telem_->addGauge("journal.fillRate", [this] {
            return std::uint64_t(policy_->fillRateBytesPerSec());
        });
        telem_->addCounter("engine.checkpoints", [this] {
            return stats_.get("engine.checkpoints");
        });
    }
}

void
KvEngine::load(
    const std::function<std::uint32_t(std::uint64_t)> &size_of)
{
    // Populate the data area with version-1 values.
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const std::uint32_t bytes = size_of(key);
        const auto chunks =
            std::uint32_t(divCeil(bytes, kChunkBytes));
        const auto nsect =
            std::uint32_t(divCeil(chunks, kChunksPerSector));
        std::vector<SectorData> payload(nsect);
        for (std::uint32_t c = 0; c < chunks; ++c) {
            payload[c / kChunksPerSector]
                .chunks[c % kChunksPerSector] =
                dataChunkToken(key, 1, c);
        }
        ssd_.submitSync(Command::write(layout_.targetLba(key),
                                       std::move(payload),
                                       IoCause::Query, 1));
        KeyState &st = keymap_[key];
        st.version = 1;
        st.assignedVersion = 1;
        st.storedChunks = chunks;
        st.inJournal = false;
        st.catalogVersion = 1;
        st.catalogChunks = chunks;
    }
    // Persist the full catalog.
    const auto g = std::uint32_t(
        std::max<std::uint32_t>(1, ssd_.ftl().sectorsPerUnit()));
    for (Lba base = layout_.catalogStart;
         base < layout_.catalogStart + layout_.catalogSectors;
         base += g) {
        std::vector<SectorData> payload(g);
        for (std::uint32_t s = 0; s < g; ++s) {
            for (std::uint32_t c = 0; c < kChunksPerSector; ++c) {
                const std::uint64_t k =
                    (base - layout_.catalogStart + s) *
                        kCatalogEntriesPerSector +
                    c;
                if (k < cfg_.recordCount) {
                    payload[s].chunks[c] = catalogToken(
                        k, keymap_[k].catalogVersion,
                        keymap_[k].catalogChunks);
                }
            }
        }
        ssd_.submitSync(Command::write(base, std::move(payload),
                                       IoCause::Metadata));
    }
    stats_.add("engine.loadedKeys", cfg_.recordCount);
}

void
KvEngine::start()
{
    if (policy_->timerPeriod() > 0)
        eq_.scheduleAfter(policy_->timerPeriod(),
                          [this] { onCheckpointTimer(); });
}

void
KvEngine::onCheckpointTimer()
{
    const PolicyDecision d = policy_->onTimer(policySignals());
    if (d.checkpoint)
        requestCheckpoint(d.trigger);
    if (policy_->timerPeriod() > 0)
        eq_.scheduleAfter(policy_->timerPeriod(),
                          [this] { onCheckpointTimer(); });
}

PolicySignals
KvEngine::policySignals() const
{
    PolicySignals sig;
    sig.now = eq_.now();
    sig.journalBytes = journal_.activeJournalBytes();
    sig.journalCapacityBytes = cfg_.journalHalfBytes;
    sig.checkpointInProgress = ckptInProgress_;
    sig.checkpointStallTicks =
        obs::attrLiveStageTicks(obs::Stage::CheckpointStall);
    return sig;
}

void
KvEngine::noteJournalAppend()
{
    policy_->noteAppend(eq_.now(), journal_.activeJournalBytes());
    if (ckptInProgress_)
        return;
    const PolicyDecision d = policy_->onAppend(policySignals());
    if (d.checkpoint)
        requestCheckpoint(d.trigger);
}

bool
KvEngine::maybeDefer(InlineCallback &task)
{
    if (cfg_.lockQueriesDuringCheckpoint && ckptInProgress_) {
        deferred_.push_back(std::move(task));
        return true;
    }
    return false;
}

void
KvEngine::drainDeferred()
{
    while (!deferred_.empty()) {
        eq_.scheduleAfter(0, std::move(deferred_.front()));
        deferred_.pop_front();
    }
}

void
KvEngine::get(std::uint64_t key, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    InlineCallback task = [this, key, op, cb = std::move(cb)]() mutable {
        // A deferred task ran later than scheduled; the gap was spent
        // behind the checkpoint lock (monotone no-op otherwise).
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doGet(key, std::move(cb));
    };
    if (maybeDefer(task))
        return;
    obs::attrMark(op, obs::Stage::HostCpu,
                  eq_.now() + cfg_.hostCpuPerQuery);
    eq_.scheduleAfter(cfg_.hostCpuPerQuery, std::move(task));
}

void
KvEngine::update(std::uint64_t key, std::uint32_t value_bytes,
                 QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    InlineCallback task = [this, key, value_bytes, op,
                           cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doUpdate(key, value_bytes, std::move(cb));
    };
    if (maybeDefer(task))
        return;
    obs::attrMark(op, obs::Stage::HostCpu,
                  eq_.now() + cfg_.hostCpuPerQuery);
    eq_.scheduleAfter(cfg_.hostCpuPerQuery, std::move(task));
}

void
KvEngine::readModifyWrite(std::uint64_t key,
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
KvEngine::erase(std::uint64_t key, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    InlineCallback task = [this, key, op, cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doErase(key, std::move(cb));
    };
    if (maybeDefer(task))
        return;
    obs::attrMark(op, obs::Stage::HostCpu,
                  eq_.now() + cfg_.hostCpuPerQuery);
    eq_.scheduleAfter(cfg_.hostCpuPerQuery, std::move(task));
}

void
KvEngine::scan(std::uint64_t start_key, std::uint32_t count,
               QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    InlineCallback task = [this, start_key, count, op,
                           cb = std::move(cb)]() mutable {
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        doScan(start_key, count, std::move(cb));
    };
    if (maybeDefer(task))
        return;
    obs::attrMark(op, obs::Stage::HostCpu,
                  eq_.now() + cfg_.hostCpuPerQuery);
    eq_.scheduleAfter(cfg_.hostCpuPerQuery, std::move(task));
}

void
KvEngine::doGet(std::uint64_t key, QueryCb cb)
{
    assert(key < cfg_.recordCount);
    sGets_.add();
    const KeyState st = keymap_[key];
    const bool ckpt_at_submit = ckptInProgress_;
    if (st.version == 0 || st.storedChunks == 0) {
        // Never written, or deleted (tombstone / trimmed slot).
        sGetMisses_.add();
        eq_.scheduleAfter(0, [this, cb = std::move(cb),
                              ckpt_at_submit] {
            cb(QueryResult{eq_.now(), ckpt_at_submit, false});
        });
        return;
    }
    verifyKeyContent(key, st);
    Lba lba;
    std::uint32_t shift = 0;
    if (st.inJournal) {
        lba = layout_.journalChunkLba(st.half, st.journalChunk);
        shift = std::uint32_t(st.journalChunk % kChunksPerSector);
        sGetsFromJournal_.add();
    } else {
        lba = layout_.targetLba(key);
    }
    const auto nsect = std::uint32_t(
        divCeil(shift + st.storedChunks, kChunksPerSector));
    ssd_.submit(Command::read(lba, nsect, IoCause::Query),
                [this, cb = std::move(cb),
                 ckpt_at_submit](const CmdResult &r) {
                    cb(QueryResult{
                        r.require(),
                        ckpt_at_submit || ckptInProgress_, true});
                });
}

void
KvEngine::doUpdate(std::uint64_t key, std::uint32_t value_bytes,
                   QueryCb cb)
{
    assert(key < cfg_.recordCount);
    assert(value_bytes > 0 && value_bytes <= cfg_.maxValueBytes);
    const std::uint32_t version = ++keymap_[key].assignedVersion;
    const bool ckpt_at_submit = ckptInProgress_;
    journal_.append(
        key, version, value_bytes,
        [this, key, cb = std::move(cb),
         ckpt_at_submit](const JmtEntry &e, Tick done) {
            KeyState &st = keymap_[key];
            if (e.version > st.version) {
                st.version = e.version;
                st.storedChunks = e.chunks;
                st.inJournal = true;
                st.half = e.half;
                st.journalChunk = e.chunkOff;
            }
            sUpdates_.add();
            sUpdateBytes_.add(e.payloadBytes);
            noteJournalAppend();
            cb(QueryResult{done,
                           ckpt_at_submit || ckptInProgress_, true});
        });
}

void
KvEngine::updateBatch(std::vector<BatchOp> ops, QueryCb cb)
{
    const obs::OpToken op = obs::attrCurrentOp();
    InlineCallback task = [this, ops = std::move(ops), op,
                           cb = std::move(cb)]() mutable {
        assert(!ops.empty());
        obs::attrMark(op, obs::Stage::CheckpointStall, eq_.now());
        obs::AttrOpScope attr_scope(op);
        const bool ckpt_at_submit = ckptInProgress_;
        struct TxnState
        {
            std::size_t outstanding;
            Tick last = 0;
            QueryCb cb;
        };
        auto txn = std::make_shared<TxnState>();
        txn->outstanding = ops.size();
        txn->cb = std::move(cb);
        std::vector<JournalManager::BatchRecord> records;
        records.reserve(ops.size());
        for (const BatchOp &op : ops) {
            assert(op.key < cfg_.recordCount);
            const std::uint32_t version =
                ++keymap_[op.key].assignedVersion;
            records.push_back(JournalManager::BatchRecord{
                op.key, version, op.valueBytes,
                [this, txn, ckpt_at_submit](const JmtEntry &e,
                                            Tick done) {
                    KeyState &st = keymap_[e.key];
                    if (e.version > st.version) {
                        st.version = e.version;
                        st.storedChunks =
                            e.payloadBytes == 0 ? 0 : e.chunks;
                        st.inJournal = true;
                        st.half = e.half;
                        st.journalChunk = e.chunkOff;
                    }
                    txn->last = std::max(txn->last, done);
                    if (--txn->outstanding == 0) {
                        sBatchCommits_.add();
                        noteJournalAppend();
                        txn->cb(QueryResult{
                            txn->last,
                            ckpt_at_submit || ckptInProgress_,
                            true});
                    }
                }});
        }
        journal_.appendBatch(std::move(records));
    };
    if (maybeDefer(task))
        return;
    obs::attrMark(op, obs::Stage::HostCpu,
                  eq_.now() + cfg_.hostCpuPerQuery);
    eq_.scheduleAfter(cfg_.hostCpuPerQuery, std::move(task));
}

void
KvEngine::doErase(std::uint64_t key, QueryCb cb)
{
    assert(key < cfg_.recordCount);
    const std::uint32_t version = ++keymap_[key].assignedVersion;
    const bool ckpt_at_submit = ckptInProgress_;
    journal_.append(
        key, version, /*value_bytes=*/0,
        [this, key, cb = std::move(cb),
         ckpt_at_submit](const JmtEntry &e, Tick done) {
            KeyState &st = keymap_[key];
            if (e.version > st.version) {
                st.version = e.version;
                st.storedChunks = 0;
                st.inJournal = true;
                st.half = e.half;
                st.journalChunk = e.chunkOff;
            }
            sDeletes_.add();
            noteJournalAppend();
            cb(QueryResult{done,
                           ckpt_at_submit || ckptInProgress_, true});
        });
}

void
KvEngine::doScan(std::uint64_t start_key, std::uint32_t count,
                 QueryCb cb)
{
    assert(start_key < cfg_.recordCount);
    sScans_.add();
    const std::uint64_t end = std::min<std::uint64_t>(
        cfg_.recordCount, start_key + count);
    const bool ckpt_at_submit = ckptInProgress_;

    struct Job
    {
        std::size_t outstanding = 0;
        Tick last = 0;
        std::uint32_t scanned = 0;
        bool launched = false;
        QueryCb cb;
    };
    auto job = std::make_shared<Job>();
    job->cb = std::move(cb);
    auto complete = [this, job, ckpt_at_submit](const CmdResult &r) {
        job->last = std::max(job->last, r.require());
        if (--job->outstanding == 0 && job->launched) {
            job->cb(QueryResult{job->last,
                                ckpt_at_submit || ckptInProgress_,
                                job->scanned > 0, job->scanned});
        }
    };

    // Journal-resident keys are fetched individually; the data-area
    // residents coalesce into one sequential slot-range read.
    std::uint64_t data_first = kInvalidAddr;
    std::uint64_t data_last = 0;
    for (std::uint64_t key = start_key; key < end; ++key) {
        const KeyState st = keymap_[key];
        if (st.version == 0 || st.storedChunks == 0)
            continue;
        verifyKeyContent(key, st);
        ++job->scanned;
        if (st.inJournal) {
            const Lba lba =
                layout_.journalChunkLba(st.half, st.journalChunk);
            const auto shift = std::uint32_t(st.journalChunk %
                                             kChunksPerSector);
            const auto nsect = std::uint32_t(divCeil(
                shift + st.storedChunks, kChunksPerSector));
            ++job->outstanding;
            ssd_.submit(Command::read(lba, nsect, IoCause::Query),
                        complete);
        } else {
            data_first = std::min(data_first, key);
            data_last = std::max(data_last, key);
        }
    }
    if (data_first != kInvalidAddr) {
        const Lba lba = layout_.targetLba(data_first);
        const std::uint64_t nsect =
            (data_last - data_first + 1) * layout_.slotSectors;
        ++job->outstanding;
        sScanSequentialSectors_.add(nsect);
        ssd_.submit(Command::read(lba, nsect, IoCause::Query),
                    complete);
    }
    job->launched = true;
    if (job->outstanding == 0) {
        // Nothing live in range: complete asynchronously.
        eq_.scheduleAfter(0, [this, job, ckpt_at_submit] {
            job->cb(QueryResult{eq_.now(),
                                ckpt_at_submit || ckptInProgress_,
                                false, 0});
        });
    }
}

void
KvEngine::requestCheckpoint(obs::CkptTrigger reason)
{
    // A safety-bound trip is an anomaly even when the request
    // coalesces into a checkpoint already in flight.
    if (telem_ != nullptr && reason == obs::CkptTrigger::Safety) {
        telem_->noteEvent(obs::TelemetryEvent::SafetyTrip,
                          eq_.now(),
                          journal_.activeJournalBytes());
    }
    if (ckptInProgress_) {
        pendingCkptRequest_ = true;
        return;
    }
    if (journal_.jmtSize() == 0)
        return;
    if (!journal_.otherHalfFree()) {
        pendingCkptRequest_ = true;
        return;
    }
    // The request that actually starts the checkpoint names it;
    // coalesced earlier requests re-fire as Backlog.
    ckptRec_.trigger = reason;
    startCheckpoint();
}

void
KvEngine::startCheckpoint()
{
    ckptInProgress_ = true;
    ckptStart_ = eq_.now();
    policy_->onCheckpointStart(ckptStart_);
    if (telem_ != nullptr)
        telem_->noteCheckpointStart(ckptStart_);
    stats_.add("engine.checkpoints");
    obs::instant(obs::Cat::Engine, kCkptLane, "ckpt.start",
                 ckptStart_, {{"jmtEntries", journal_.jmtSize()}});
    // Wait for any in-flight group commit: its records belong to the
    // half being checkpointed and must be in the JMT snapshot.
    journal_.quiesce([this] {
        stats_.add("engine.ckptLogsSeen",
                   journal_.logsInActiveHalf());
        auto entries = std::make_shared<std::vector<JmtEntry>>(
            journal_.beginCheckpoint());
        stats_.add("engine.ckptLatestEntries", entries->size());
        if (obs::attributionOn()) {
            const obs::CkptTrigger reason = ckptRec_.trigger;
            ckptRec_ = obs::CheckpointStat{};
            ckptRec_.trigger = reason;
            ckptRec_.seq = ckptSeq_;
            ckptRec_.startTick = ckptStart_;
            for (const JmtEntry &e : *entries) {
                ++ckptRec_.entries;
                if (e.payloadBytes == 0)
                    ++ckptRec_.tombstones;
                switch (e.type) {
                  case LogType::Raw: ++ckptRec_.rawRecords; break;
                  case LogType::Full: ++ckptRec_.fullRecords; break;
                  case LogType::Partial:
                    ++ckptRec_.partialRecords;
                    break;
                  case LogType::Merged:
                    ++ckptRec_.mergedRecords;
                    break;
                }
            }
            // Device-counter baselines; finishCheckpoint() turns
            // them into per-checkpoint deltas.
            const StatRegistry &ds = ssd_.stats();
            ckptRec_.cowCommands = cowCommandCount(ds);
            ckptRec_.remappedPairs = ds.get("isce.remappedPairs");
            ckptRec_.remappedUnits = ds.get("isce.remappedUnits");
            ckptRec_.copiedPairs = ds.get("isce.copiedPairs");
            ckptRec_.copiedChunks = ds.get("isce.copiedChunks");
            ckptRec_.bufferedSmallRecords =
                ds.get("isce.bufferedSmallRecords");
        }
        const std::uint8_t half = journal_.activeHalf() ^ 1;
        // Tombstones do not move data; they trim their targets.
        auto values = std::make_shared<std::vector<JmtEntry>>();
        auto tombs = std::make_shared<std::vector<JmtEntry>>();
        for (const JmtEntry &e : *entries) {
            (e.payloadBytes == 0 ? *tombs : *values).push_back(e);
        }
        strategy_->run(*values,
                       [this, entries, tombs, half](Tick t) {
            trimTombstones(*tombs, [this, entries, half,
                                    t](Tick t2) {
                onStrategyDone(*entries, half, std::max(t, t2));
            });
        });
    });
}

void
KvEngine::trimTombstones(const std::vector<JmtEntry> &tombs,
                         std::function<void(Tick)> cb)
{
    if (tombs.empty()) {
        cb(eq_.now());
        return;
    }
    struct Job
    {
        std::size_t outstanding;
        Tick last = 0;
        std::function<void(Tick)> cb;
    };
    auto job = std::make_shared<Job>();
    job->outstanding = tombs.size();
    job->cb = std::move(cb);
    for (const JmtEntry &e : tombs) {
        sTombstoneTrims_.add();
        ssd_.submit(Command::trim(layout_.targetLba(e.key),
                                  layout_.slotSectors),
                    [job](const CmdResult &r) {
                        job->last = std::max(job->last, r.require());
                        if (--job->outstanding == 0)
                            job->cb(job->last);
                    });
    }
}

void
KvEngine::onStrategyDone(const std::vector<JmtEntry> &entries,
                         std::uint8_t half, Tick t)
{
    (void)t;
    for (const JmtEntry &e : entries) {
        KeyState &st = keymap_[e.key];
        // The data area now holds this version; reads of keys not
        // updated since switch back to the data area.
        if (st.inJournal && st.half == half &&
            st.version == e.version) {
            st.inJournal = false;
        }
        st.catalogVersion = e.version;
        st.catalogChunks = e.payloadBytes == 0 ? 0 : e.chunks;
    }
    // Phase accounting (paper Fig 4): data movement vs metadata vs
    // log deletion.
    ckptDataDone_ = std::max(eq_.now(), ckptStart_);
    stats_.add("engine.ckptDataTicks", ckptDataDone_ - ckptStart_);
    obs::span(obs::Cat::Engine, kCkptLane, "ckpt.data", ckptStart_,
              ckptDataDone_, {{"entries", entries.size()}});
    writeCatalog(entries, [this, half](Tick t2) {
        ckptMetaDone_ = std::max(t2, ckptDataDone_);
        stats_.add("engine.ckptMetaTicks",
                   ckptMetaDone_ - ckptDataDone_);
        obs::span(obs::Cat::Engine, kCkptLane, "ckpt.meta",
                  ckptDataDone_, ckptMetaDone_);
        deleteLogs(half, [this, half](Tick t3) {
            stats_.add("engine.ckptDeleteTicks",
                       t3 > ckptMetaDone_ ? t3 - ckptMetaDone_ : 0);
            obs::span(obs::Cat::Engine, kCkptLane, "ckpt.delete",
                      ckptMetaDone_, t3);
            finishCheckpoint(half, t3);
        });
    });
}

void
KvEngine::writeCatalog(const std::vector<JmtEntry> &entries,
                       std::function<void(Tick)> cb)
{
    if (entries.empty()) {
        cb(eq_.now());
        return;
    }
    const auto g = std::uint32_t(
        std::max<std::uint32_t>(1, ssd_.ftl().sectorsPerUnit()));
    std::vector<Lba> bases;
    bases.reserve(entries.size());
    for (const JmtEntry &e : entries) {
        const Lba rel = layout_.catalogLba(e.key) -
                        layout_.catalogStart;
        bases.push_back(layout_.catalogStart + alignDown(rel, g));
    }
    std::sort(bases.begin(), bases.end());
    bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
    struct Job
    {
        std::size_t outstanding;
        Tick last = 0;
        std::function<void(Tick)> cb;
    };
    auto job = std::make_shared<Job>();
    job->outstanding = bases.size();
    job->cb = std::move(cb);
    for (Lba base : bases) {
        std::vector<SectorData> payload = ssd_.takePayloadBuffer();
        payload.resize(g);
        for (std::uint32_t s = 0; s < g; ++s) {
            for (std::uint32_t c = 0; c < kChunksPerSector; ++c) {
                const std::uint64_t k =
                    (base - layout_.catalogStart + s) *
                        kCatalogEntriesPerSector +
                    c;
                if (k < cfg_.recordCount &&
                    keymap_[k].catalogVersion > 0) {
                    payload[s].chunks[c] = catalogToken(
                        k, keymap_[k].catalogVersion,
                        keymap_[k].catalogChunks);
                }
            }
        }
        sCatalogSectors_.add(g);
        ssd_.submit(Command::write(base, std::move(payload),
                                   IoCause::Metadata),
                    [job](const CmdResult &r) {
                        job->last = std::max(job->last, r.require());
                        if (--job->outstanding == 0)
                            job->cb(job->last);
                    });
    }
}

void
KvEngine::deleteLogs(std::uint8_t half, std::function<void(Tick)> cb)
{
    // Baseline has no vendor extension: plain trim of the half.
    Command c = cfg_.mode == CheckpointMode::Baseline
                    ? Command::trim(layout_.journalStart[half],
                                    layout_.journalSectors)
                    : Command::deleteLogs(layout_.journalStart[half],
                                          layout_.journalSectors);
    ssd_.submit(std::move(c),
                [cb = std::move(cb)](const CmdResult &r) {
                    cb(r.require());
                });
}

void
KvEngine::finishCheckpoint(std::uint8_t half, Tick t)
{
    journal_.onHalfFreed(half);
    ckptInProgress_ = false;
    ckptDurations_.push_back(t - ckptStart_);
    if (telem_ != nullptr)
        telem_->noteCheckpointEnd(t, t - ckptStart_);
    stats_.add("engine.ckptTicks", t - ckptStart_);
    obs::span(obs::Cat::Engine, kCkptLane, "checkpoint", ckptStart_,
              t, {{"half", half}});
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
    const bool threshold_hit =
        policy_->onAppend(policySignals()).checkpoint;
    if (pendingCkptRequest_ || threshold_hit) {
        pendingCkptRequest_ = false;
        requestCheckpoint(obs::CkptTrigger::Backlog);
    }
}

void
KvEngine::verifyKeyContent(std::uint64_t key,
                           const KeyState &st) const
{
    if (st.version == 0)
        return;
    if (st.storedChunks == 0) {
        // Deleted key: a journal-resident tombstone must read back;
        // a checkpointed deletion has no on-disk footprint.
        if (!st.inJournal)
            return;
        const Lba lba =
            layout_.journalChunkLba(st.half, st.journalChunk);
        const auto shift =
            std::uint32_t(st.journalChunk % kChunksPerSector);
        SectorData buf;
        ssd_.peek(lba, 1, &buf);
        if (buf.chunks[shift] != tombstoneToken(key, st.version)) {
            std::ostringstream os;
            os << "tombstone mismatch: key " << key << " version "
               << st.version;
            throw std::runtime_error(os.str());
        }
        return;
    }
    Lba lba;
    std::uint32_t shift = 0;
    if (st.inJournal) {
        lba = layout_.journalChunkLba(st.half, st.journalChunk);
        shift = std::uint32_t(st.journalChunk % kChunksPerSector);
    } else {
        lba = layout_.targetLba(key);
    }
    // Compare sector by sector through one stack buffer: a get
    // checks its tokens without allocating.
    SectorData sector;
    for (std::uint32_t c = 0; c < st.storedChunks; ++c) {
        const std::uint32_t pos = shift + c;
        if (c == 0 || pos % kChunksPerSector == 0)
            ssd_.peek(lba + pos / kChunksPerSector, 1, &sector);
        const std::uint64_t got = sector.chunks[pos % kChunksPerSector];
        const std::uint64_t want =
            dataChunkToken(key, st.version, c);
        if (got != want) {
            const DecodedToken d = decodeToken(got);
            std::ostringstream os;
            os << "content mismatch: key " << key << " version "
               << st.version << " chunk " << c << " at lba " << lba
               << (st.inJournal ? " (journal" : " (data")
               << " half=" << int(st.half)
               << " chunkOff=" << st.journalChunk
               << " storedChunks=" << st.storedChunks
               << ") got tag=" << int(d.tag) << " key=" << d.key
               << " ver=" << d.version << " aux=" << d.aux;
            throw std::runtime_error(os.str());
        }
    }
}

std::uint64_t
KvEngine::verifyAllKeys() const
{
    std::uint64_t verified = 0;
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const KeyState &st = keymap_[key];
        if (st.version == 0)
            continue;
        verifyKeyContent(key, st);
        ++verified;
    }
    return verified;
}

std::vector<KvEngine::ParsedLog>
KvEngine::parseJournalHalf(std::uint8_t half) const
{
    const std::uint64_t nchunks = layout_.journalChunks();
    std::vector<std::uint64_t> toks(nchunks, 0);
    const std::uint64_t nsect = layout_.journalSectors;
    std::vector<SectorData> buf(nsect);
    ssd_.peek(layout_.journalStart[half], std::uint32_t(nsect),
              buf.data());
    for (std::uint64_t s = 0; s < nsect; ++s) {
        for (std::uint32_t c = 0; c < kChunksPerSector; ++c)
            toks[s * kChunksPerSector + c] = buf[s].chunks[c];
    }
    std::vector<ParsedLog> logs;
    std::uint64_t pos = 0;
    while (pos < nchunks) {
        const DecodedToken d = decodeToken(toks[pos]);
        if (d.tag == TokenTag::Tombstone) {
            // chunks == 0 marks a deletion record.
            logs.push_back(ParsedLog{d.key,
                                     std::uint32_t(d.version), half,
                                     pos, 0});
            ++pos;
            continue;
        }
        if (d.tag != TokenTag::Data || d.aux != 0) {
            ++pos;
            continue;
        }
        std::uint64_t n = 1;
        while (pos + n < nchunks) {
            const DecodedToken dn = decodeToken(toks[pos + n]);
            if (dn.tag == TokenTag::Data && dn.key == d.key &&
                dn.version == d.version && dn.aux == n) {
                ++n;
            } else {
                break;
            }
        }
        logs.push_back(ParsedLog{d.key, std::uint32_t(d.version),
                                 half, pos, std::uint32_t(n)});
        pos += n;
    }
    return logs;
}

RecoveryInfo
KvEngine::recover()
{
    RecoveryInfo info;
    const Tick t0 = eq_.now();

    // 1. Restore the keymap from the on-disk catalog.
    ssd_.submitSync(Command::read(layout_.catalogStart,
                                  layout_.catalogSectors,
                                  IoCause::Metadata));
    std::vector<SectorData> cat(layout_.catalogSectors);
    ssd_.peek(layout_.catalogStart,
              std::uint32_t(layout_.catalogSectors), cat.data());
    for (std::uint64_t k = 0; k < cfg_.recordCount; ++k) {
        const std::uint64_t tok =
            cat[k / kCatalogEntriesPerSector]
                .chunks[k % kCatalogEntriesPerSector];
        const DecodedToken d = decodeToken(tok);
        if (d.tag != TokenTag::Catalog || d.key != k)
            continue;
        KeyState &st = keymap_[k];
        st.version = std::uint32_t(d.version);
        st.assignedVersion = st.version;
        st.storedChunks = std::uint32_t(d.aux);
        st.inJournal = false;
        st.catalogVersion = st.version;
        st.catalogChunks = st.storedChunks;
        ++info.catalogKeys;
    }

    // 2. Scan both journal halves (pre-read + parse, paper §III-G).
    std::vector<ParsedLog> latest_logs;
    {
        std::unordered_map<std::uint64_t, ParsedLog> latest;
        for (std::uint8_t half = 0; half < 2; ++half) {
            ssd_.submitSync(Command::read(layout_.journalStart[half],
                                          layout_.journalSectors,
                                          IoCause::Journal));
            for (const ParsedLog &log : parseJournalHalf(half)) {
                if (log.version <= keymap_[log.key].catalogVersion)
                    continue;
                auto it = latest.find(log.key);
                if (it == latest.end() ||
                    it->second.version < log.version) {
                    latest[log.key] = log;
                }
            }
        }
        latest_logs.reserve(latest.size());
        for (auto &[k, log] : latest)
            latest_logs.push_back(log);
    }
    info.replayedLogs = latest_logs.size();

    // 3. Apply replayed logs to the keymap and re-checkpoint them so
    //    the store restarts clean (data area authoritative).
    std::vector<JmtEntry> entries;
    entries.reserve(latest_logs.size());
    const std::uint32_t uc =
        ssd_.ftl().mappingUnitBytes() / kChunkBytes;
    for (const ParsedLog &log : latest_logs) {
        const bool tombstone = log.chunks == 0;
        KeyState &st = keymap_[log.key];
        st.version = log.version;
        st.assignedVersion = log.version;
        st.storedChunks = tombstone ? 0 : log.chunks;
        st.inJournal = true;
        st.half = log.half;
        st.journalChunk = log.chunkOff;
        JmtEntry e;
        e.key = log.key;
        e.version = log.version;
        e.half = log.half;
        e.chunkOff = log.chunkOff;
        e.chunks = tombstone ? 1 : log.chunks;
        e.payloadBytes = tombstone ? 0 : log.chunks * kChunkBytes;
        e.type = (!tombstone && log.chunkOff % uc == 0 &&
                  log.chunks % uc == 0)
                     ? LogType::Full
                     : LogType::Partial;
        entries.push_back(e);
    }

    std::vector<JmtEntry> values;
    std::vector<JmtEntry> tombs;
    for (const JmtEntry &e : entries)
        (e.payloadBytes == 0 ? tombs : values).push_back(e);

    bool finished = false;
    Tick end_tick = eq_.now();
    strategy_->run(values, [&](Tick t_values) {
        trimTombstones(tombs, [&, t_values](Tick t_tombs) {
            const Tick t = std::max(t_values, t_tombs);
            for (const JmtEntry &e : entries) {
                KeyState &st = keymap_[e.key];
                st.inJournal = false;
                st.catalogVersion = e.version;
                st.catalogChunks =
                    e.payloadBytes == 0 ? 0 : e.chunks;
            }
            writeCatalog(entries, [&, t](Tick t2) {
                deleteLogs(0, [&, t, t2](Tick t3) {
                    deleteLogs(1, [&, t, t2, t3](Tick t4) {
                        finished = true;
                        end_tick = std::max({t, t2, t3, t4});
                    });
                });
            });
        });
    });
    while (!finished && eq_.step()) {
    }
    if (!finished)
        throw std::logic_error("recovery did not converge");
    info.duration = end_tick - t0;
    stats_.add("engine.recoveries");
    stats_.add("engine.recoveredLogs", info.replayedLogs);
    return info;
}

} // namespace checkin
