#include "engine/kv_engine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <unordered_map>

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
      journal_(ctx, ssd, layout_, cfg_, stats_)
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
    for (Lba base = layout_.catalogStart;
         base < layout_.catalogStart + layout_.catalogSectors;
         base += catalogWriteSectors()) {
        ssd_.submitSync(catalogWrite(base, {}));
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
        fold(*entries, [this, entries, half](Tick) {
            noteFolded(*entries);
            markDataDone(entries->size());
            writeCatalog(*entries, [this, half](Tick t2) {
                markMetaDone(t2);
                deleteLogs(half, [this, half](Tick t3) {
                    markDeleteDone(t3);
                    journal_.onHalfFreed(half);
                    finishCheckpoint(t3, half);
                });
            });
        });
    });
}

CowPair
KvEngine::pairFor(const JmtEntry &e) const
{
    return CowPair::make(
        layout_.journalChunkLba(e.half, e.chunkOff),
        std::uint32_t(e.chunkOff % kChunksPerSector),
        layout_.targetLba(e.key), e.chunks, e.version,
        /*force_copy=*/e.type == LogType::Merged ||
            e.type == LogType::Partial);
}

void
KvEngine::fold(const std::vector<JmtEntry> &entries,
               std::function<void(Tick)> done)
{
    auto pairs = std::make_shared<std::vector<CowPair>>();
    auto tombs = std::make_shared<std::vector<Lba>>();
    for (const JmtEntry &e : entries) {
        if (e.payloadBytes == 0)
            tombs->push_back(layout_.targetLba(e.key));
        else
            pairs->push_back(pairFor(e));
    }
    // Tombstones move no data: they trim their slots once the values
    // have moved.
    auto trim = [this, tombs, done = std::move(done)](Tick moved) {
        auto make = [&](std::size_t i) {
            sTombstoneTrims_.add();
            return Command::trim((*tombs)[i], layout_.slotSectors);
        };
        submitAll(tombs->size(), make, [moved, done](Tick trimmed) {
            done(std::max(moved, trimmed));
        });
    };
    const std::size_t n = pairs->size();
    switch (cfg_.mode) {
      case CheckpointMode::Baseline: {
        // The host reads every record into a buffer of its own (paper
        // §II-B), then rewrites the data area from it. The image is
        // taken at submission, when the functional state is
        // consistent.
        using Images = std::vector<std::vector<SectorData>>;
        auto images = std::make_shared<Images>(n);
        auto read = [&](std::size_t i) {
            const CowPair &p = (*pairs)[i];
            std::vector<SectorData> src(p.srcSectors());
            ssd_.peek(p.src, p.srcSectors(), src.data());
            (*images)[i].resize(p.dstSectors());
            p.gather(src.data(), (*images)[i].data());
            sHostReadSectors_.add(p.srcSectors());
            return Command::read(p.src, p.srcSectors(),
                                 IoCause::Checkpoint);
        };
        submitAll(n, read, [this, pairs, images, trim](Tick) {
            auto write = [&](std::size_t i) {
                const CowPair &p = (*pairs)[i];
                sHostWriteSectors_.add(p.dstSectors());
                return Command::write(p.dst, std::move((*images)[i]),
                                      IoCause::Checkpoint, p.version);
            };
            submitAll(pairs->size(), write, trim);
        });
        return;
      }
      case CheckpointMode::IscA: {
        auto make = [&](std::size_t i) {
            sCowCommands_.add();
            return Command::cowSingle((*pairs)[i]);
        };
        submitAll(n, make, std::move(trim));
        return;
      }
      case CheckpointMode::IscB: {
        auto make = [&](std::size_t b) {
            sCowCommands_.add();
            return Command::cowMulti(batch(*pairs, b));
        };
        submitAll(batchCount(n), make, std::move(trim));
        return;
      }
      case CheckpointMode::IscC:
      case CheckpointMode::CheckIn: {
        auto make = [&](std::size_t b) {
            sRemapCommands_.add();
            return Command::checkpointRemap(batch(*pairs, b));
        };
        submitAll(batchCount(n), make, std::move(trim));
        return;
      }
    }
}

void
KvEngine::noteFolded(const std::vector<JmtEntry> &entries)
{
    for (const JmtEntry &e : entries) {
        KeyState &st = keymap_[e.key];
        if (st.inJournal && st.half == e.half &&
            st.version == e.version) {
            st.inJournal = false;
        }
        st.catalogVersion = e.version;
        st.catalogChunks = e.payloadBytes == 0 ? 0 : e.chunks;
    }
}

void
KvEngine::writeCatalog(const std::vector<JmtEntry> &entries,
                       std::function<void(Tick)> cb)
{
    const std::uint32_t g = catalogWriteSectors();
    std::vector<Lba> bases;
    bases.reserve(entries.size());
    for (const JmtEntry &e : entries) {
        const Lba rel = layout_.catalogLba(e.key) -
                        layout_.catalogStart;
        bases.push_back(layout_.catalogStart + alignDown(rel, g));
    }
    std::sort(bases.begin(), bases.end());
    bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
    // Each write reuses the buffer the last one handed back.
    auto make = [&](std::size_t i) {
        sCatalogSectors_.add(g);
        return catalogWrite(bases[i], ssd_.takePayloadBuffer());
    };
    submitAll(bases.size(), make, std::move(cb));
}

std::uint32_t
KvEngine::catalogWriteSectors() const
{
    return std::max<std::uint32_t>(1, ssd_.ftl().sectorsPerUnit());
}

Command
KvEngine::catalogWrite(Lba base, std::vector<SectorData> payload) const
{
    const std::uint32_t g = catalogWriteSectors();
    payload.resize(g);
    for (std::uint32_t s = 0; s < g; ++s) {
        for (std::uint32_t c = 0; c < kChunksPerSector; ++c) {
            const std::uint64_t k =
                (base - layout_.catalogStart + s) *
                    kCatalogEntriesPerSector +
                c;
            if (k < cfg_.recordCount && keymap_[k].catalogVersion > 0) {
                payload[s].chunks[c] =
                    catalogToken(k, keymap_[k].catalogVersion,
                                 keymap_[k].catalogChunks);
            }
        }
    }
    return Command::write(base, std::move(payload), IoCause::Metadata);
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

    // 2. Scan both journal halves (pre-read + parse, paper §III-G)
    //    for each key's newest record past the catalog.
    const std::uint32_t uc =
        ssd_.ftl().mappingUnitBytes() / kChunkBytes;
    std::unordered_map<std::uint64_t, JmtEntry> latest;
    std::vector<SectorData> buf(layout_.journalSectors);
    for (std::uint8_t half = 0; half < 2; ++half) {
        ssd_.submitSync(Command::read(layout_.journalStart[half],
                                      layout_.journalSectors,
                                      IoCause::Journal));
        ssd_.peek(layout_.journalStart[half], std::uint32_t(buf.size()),
                  buf.data());
        parseRecords(buf.data(), buf.size(), 1,
                     [&](const ParsedRecord &r) {
            if (r.version <= keymap_[r.key].catalogVersion)
                return;
            auto it = latest.find(r.key);
            if (it != latest.end() && it->second.version >= r.version)
                return;
            const bool tombstone = r.chunks == 0;
            JmtEntry e;
            e.key = r.key;
            e.version = r.version;
            e.half = half;
            e.chunkOff = r.chunkOff;
            e.chunks = tombstone ? 1 : r.chunks;
            e.payloadBytes = tombstone ? 0 : r.chunks * kChunkBytes;
            e.type = (!tombstone && r.chunkOff % uc == 0 &&
                      r.chunks % uc == 0)
                         ? LogType::Full
                         : LogType::Partial;
            latest[r.key] = e;
        });
    }
    info.replayedLogs = latest.size();

    // 3. Point the keymap at the replayed records and fold them like a
    //    checkpoint, so the store restarts clean (data area
    //    authoritative).
    std::vector<JmtEntry> entries;
    entries.reserve(latest.size());
    for (const auto &[key, e] : latest) {
        KeyState &st = keymap_[key];
        st.version = e.version;
        st.assignedVersion = e.version;
        st.storedChunks = e.payloadBytes == 0 ? 0 : e.chunks;
        st.inJournal = true;
        st.half = e.half;
        st.journalChunk = e.chunkOff;
        entries.push_back(e);
    }
    bool finished = false;
    Tick end_tick = eq_.now();
    fold(entries, [&](Tick t) {
        noteFolded(entries);
        writeCatalog(entries, [&, t](Tick t2) {
            deleteLogs(0, [&, t, t2](Tick t3) {
                deleteLogs(1, [&, t, t2, t3](Tick t4) {
                    finished = true;
                    end_tick = std::max({t, t2, t3, t4});
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
