#include "engine/kv_engine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "engine/record.h"

namespace checkin {

namespace {

constexpr EngineCore::TraceNames kTraceNames{
    .lane = "checkpoint",
    .start = "ckpt.start",
    .startArg = "jmtEntries",
    .data = "ckpt.data",
    .dataArg = "entries",
    .meta = "ckpt.meta",
    .del = "ckpt.delete",
    .whole = "checkpoint",
    .wholeArg = "half",
};

} // namespace

KvEngine::KvEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg)
    : EngineCore(ctx, ssd, cfg, kTraceNames),
      layout_(DiskLayout::compute(cfg, ssd.capacitySectors(),
                                  ssd.ftl().sectorsPerUnit())),
      keymap_(cfg.recordCount),
      journal_(ctx, ssd, layout_, cfg_, stats_),
      strategy_(CheckpointStrategy::create(ssd, layout_, cfg_,
                                           stats_))
{
    journal_.setPressureCallback([this] {
        requestCheckpoint(obs::CkptTrigger::SpacePressure);
    });
    addProbes({}, {});
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

EngineCore::Located
KvEngine::locate(std::uint64_t key) const
{
    const KeyState &st = keymap_[key];
    Located v{st.version, st.storedChunks, st.inJournal,
              layout_.targetLba(key), 0};
    if (st.inJournal) {
        v.lba = layout_.journalChunkLba(st.half, st.journalChunk);
        v.shift = std::uint32_t(st.journalChunk % kChunksPerSector);
    } else if (st.storedChunks == 0) {
        // A checkpointed deletion has no on-disk footprint.
        v.lba = kInvalidAddr;
    }
    return v;
}

void
KvEngine::applyCommit(const JmtEntry &e)
{
    KeyState &st = keymap_[e.key];
    if (e.version > st.version) {
        st.version = e.version;
        st.storedChunks = e.payloadBytes == 0 ? 0 : e.chunks;
        st.inJournal = true;
        st.half = e.half;
        st.journalChunk = e.chunkOff;
    }
}

void
KvEngine::doWrite(std::uint64_t key, std::uint32_t value_bytes,
                  QueryCb cb)
{
    const std::uint32_t version = ++keymap_[key].assignedVersion;
    const bool ckpt_at_submit = checkpointInProgress();
    journal_.append(key, version, value_bytes,
                    [this, cb = std::move(cb),
                     ckpt_at_submit](const JmtEntry &e, Tick done) {
                        applyCommit(e);
                        writeDone(cb, done, ckpt_at_submit,
                                  e.payloadBytes);
                    });
}

void
KvEngine::doUpdateBatch(std::vector<BatchOp> ops, QueryCb cb)
{
    auto txn = beginBatch(ops.size(), std::move(cb));
    std::vector<JournalManager::BatchRecord> records;
    records.reserve(ops.size());
    for (const BatchOp &op : ops) {
        assert(op.key < cfg_.recordCount);
        const std::uint32_t version = ++keymap_[op.key].assignedVersion;
        records.push_back(JournalManager::BatchRecord{
            op.key, version, op.valueBytes,
            [this, txn](const JmtEntry &e, Tick done) {
                applyCommit(e);
                batchRecordDone(*txn, done);
            }});
    }
    journal_.appendBatch(std::move(records));
}

void
KvEngine::doScan(std::uint64_t start_key, std::uint32_t count,
                 QueryCb cb)
{
    const std::uint64_t end = std::min<std::uint64_t>(
        cfg_.recordCount, start_key + count);
    auto job = beginScan(std::move(cb));
    // Journal-resident keys are fetched individually; the data-area
    // residents coalesce into one sequential slot-range read.
    std::uint64_t data_first = kInvalidAddr;
    std::uint64_t data_last = 0;
    for (std::uint64_t key = start_key; key < end; ++key) {
        const Located v = locate(key);
        if (v.version == 0 || v.chunks == 0)
            continue;
        checkContent(key, v);
        ++job->scanned;
        if (v.inJournal) {
            scanRead(job, v.lba,
                     divCeil(v.shift + v.chunks, kChunksPerSector));
        } else {
            data_first = std::min(data_first, key);
            data_last = std::max(data_last, key);
        }
    }
    if (data_first != kInvalidAddr) {
        const std::uint64_t nsect =
            (data_last - data_first + 1) * layout_.slotSectors;
        sScanSequentialSectors_.add(nsect);
        scanRead(job, layout_.targetLba(data_first), nsect);
    }
    endScan(job);
}

std::uint64_t
KvEngine::journalBytes() const
{
    return journal_.activeJournalBytes();
}

std::uint64_t
KvEngine::journalRecords() const
{
    return journal_.jmtSize();
}

bool
KvEngine::nothingToCheckpoint() const
{
    return journal_.jmtSize() == 0;
}

bool
KvEngine::spareHalfBusy() const
{
    return !journal_.otherHalfFree();
}

void
KvEngine::runCheckpoint()
{
    // Wait for any in-flight group commit: its records belong to the
    // half being checkpointed and must be in the JMT snapshot.
    journal_.quiesce([this] {
        const std::uint64_t logs_seen = journal_.logsInActiveHalf();
        auto entries = std::make_shared<std::vector<JmtEntry>>(
            journal_.beginCheckpoint());
        if (obs::CheckpointStat *rec =
                noteSnapshot(logs_seen, entries->size())) {
            for (const JmtEntry &e : *entries) {
                if (e.payloadBytes == 0)
                    ++rec->tombstones;
                switch (e.type) {
                  case LogType::Raw: ++rec->rawRecords; break;
                  case LogType::Full: ++rec->fullRecords; break;
                  case LogType::Partial: ++rec->partialRecords; break;
                  case LogType::Merged: ++rec->mergedRecords; break;
                }
            }
        }
        const std::uint8_t half = journal_.activeHalf() ^ 1;
        // Tombstones do not move data; they trim their targets.
        auto values = std::make_shared<std::vector<JmtEntry>>();
        auto tombs = std::make_shared<std::vector<JmtEntry>>();
        for (const JmtEntry &e : *entries) {
            (e.payloadBytes == 0 ? *tombs : *values).push_back(e);
        }
        strategy_->run(*values, [this, entries, tombs, half](Tick) {
            trimTombstones(*tombs, [this, entries, half](Tick) {
                onStrategyDone(*entries, half);
            });
        });
    });
}

void
KvEngine::trimTombstones(const std::vector<JmtEntry> &tombs,
                         std::function<void(Tick)> cb)
{
    std::vector<Command> trims;
    trims.reserve(tombs.size());
    for (const JmtEntry &e : tombs) {
        sTombstoneTrims_.add();
        trims.push_back(Command::trim(layout_.targetLba(e.key),
                                      layout_.slotSectors));
    }
    submitAll(std::move(trims), std::move(cb));
}

void
KvEngine::onStrategyDone(const std::vector<JmtEntry> &entries,
                         std::uint8_t half)
{
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
    markDataDone(entries.size());
    writeCatalog(entries, [this, half](Tick t2) {
        markMetaDone(t2);
        deleteLogs(half, [this, half](Tick t3) {
            markDeleteDone(t3);
            journal_.onHalfFreed(half);
            finishCheckpoint(t3, half);
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
    auto job = std::make_shared<FanOut>();
    job->outstanding = bases.size();
    job->done = std::move(cb);
    for (Lba base : bases) {
        // Build each payload just before its submit, so every write
        // reuses the buffer the last one handed back.
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
                    [job](const CmdResult &r) { job->complete(r); });
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
