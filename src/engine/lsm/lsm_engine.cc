#include "engine/lsm/lsm_engine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "engine/record.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace checkin {

namespace {

constexpr EngineCore::TraceNames kTraceNames{
    .lane = "flush",
    .start = "flush.start",
    .startArg = "walRecords",
    .data = "flush.data",
    .dataArg = "records",
    .meta = "flush.meta",
    .del = "flush.delete",
    .whole = "flush",
    .wholeArg = nullptr,
};

} // namespace

LsmEngine::LsmEngine(SimContext &ctx, Ssd &ssd,
                     const EngineConfig &cfg)
    : EngineCore(ctx, ssd, cfg, kTraceNames),
      layout_(LsmLayout::compute(cfg, ssd.capacitySectors(),
                                 ssd.ftl().sectorsPerUnit())),
      keymap_(cfg.recordCount)
{
    addProbes(
        {{"journal.bytes",
          [this] { return halfPayloadBytes_[activeHalf_]; }},
         {"journal.jmtSize",
          [this] {
              return std::uint64_t(halfRecords_[activeHalf_].size());
          }},
         {"journal.stalled",
          [this] { return std::uint64_t(walStalled_ ? 1 : 0); }}},
        {{"journal.stalls",
          [this] { return stats_.get("engine.journalStalls"); }}});
}

std::uint32_t
LsmEngine::recordUnits(std::uint32_t chunks) const
{
    // A tombstone is a single token alone in one unit; data records
    // are padded up to the next unit boundary.
    if (chunks == 0)
        return 1;
    return std::uint32_t(divCeil(chunks, layout_.unitChunks()));
}

Lba
LsmEngine::lbaOf(const Loc &loc) const
{
    switch (loc.area) {
      case Loc::Area::Wal:
        return layout_.walLba(loc.idx, loc.unitOff);
      case Loc::Area::L0:
        return layout_.l0Lba(loc.idx, loc.unitOff);
      case Loc::Area::L1:
        return layout_.l1Lba(loc.idx, loc.unitOff);
      case Loc::Area::None: break;
    }
    throw std::logic_error("lsm: record has no location");
}

CowPair
LsmEngine::unitPair(Lba src, Lba dst, std::uint32_t units,
                    bool force_copy)
{
    return CowPair::make(src, 0, dst, units * layout_.unitChunks(),
                         globalSeq_++, force_copy);
}

std::uint32_t
LsmEngine::reserveRegion()
{
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
        if (!regionBusy_[r]) {
            regionBusy_[r] = true;
            return r;
        }
    }
    throw std::logic_error("lsm: no free L0 region");
}

// ----------------------------------------------------------------------
// Load
// ----------------------------------------------------------------------

void
LsmEngine::load(
    const std::function<std::uint32_t(std::uint64_t)> &size_of)
{
    // Populate L1 ping 0 with version-1 records, packed in key order.
    std::uint64_t cursor = 0;
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const std::uint32_t bytes = size_of(key);
        const auto chunks =
            std::uint32_t(divCeil(bytes, kChunkBytes));
        const std::uint32_t units = recordUnits(chunks);
        std::vector<SectorData> payload(units * layout_.unitSectors);
        for (std::uint32_t c = 0; c < chunks; ++c) {
            payload[c / kChunksPerSector]
                .chunks[c % kChunksPerSector] =
                dataChunkToken(key, 1, c);
        }
        ssd_.submitSync(Command::write(layout_.l1Lba(0, cursor),
                                       std::move(payload),
                                       IoCause::Query, globalSeq_++));
        KeyState &st = keymap_[key];
        st.version = 1;
        st.assignedVersion = 1;
        st.chunks = chunks;
        st.loc = Loc{Loc::Area::L1, 0, cursor};
        st.dataVersion = 1;
        st.dataChunks = chunks;
        st.dataLoc = st.loc;
        cursor += units;
    }
    ping_ = 0;
    l1UsedUnits_[0] = cursor;
    ssd_.submitSync(buildManifestCommand());
    halfRegion_[0] = reserveRegion();
    halfRegionValid_[0] = true;
    stats_.add("engine.loadedKeys", cfg_.recordCount);
}

// ----------------------------------------------------------------------
// Queries
// ----------------------------------------------------------------------

EngineCore::Located
LsmEngine::locate(std::uint64_t key) const
{
    const KeyState &st = keymap_[key];
    if (st.version == 0)
        return {};
    return Located{st.version, st.chunks, st.loc.area == Loc::Area::Wal,
                   lbaOf(st.loc), 0};
}

void
LsmEngine::doWrite(std::uint64_t key, std::uint32_t value_bytes,
                   QueryCb cb)
{
    const bool ckpt_at_submit = checkpointInProgress();
    PendingRec rec;
    rec.key = key;
    rec.version = ++keymap_[key].assignedVersion;
    rec.valueBytes = value_bytes;
    rec.chunks = std::uint32_t(divCeil(value_bytes, kChunkBytes));
    rec.units = recordUnits(rec.chunks);
    rec.cb = [this, value_bytes, ckpt_at_submit,
              cb = std::move(cb)](const WalRec &w, Tick done) {
        applyWalAck(w);
        writeDone(cb, done, ckpt_at_submit, value_bytes);
    };
    std::vector<PendingRec> group;
    group.push_back(std::move(rec));
    enqueueGroup(std::move(group));
}

void
LsmEngine::doUpdateBatch(std::vector<BatchOp> ops, QueryCb cb)
{
    auto txn = beginBatch(ops.size(), std::move(cb));
    std::vector<PendingRec> group;
    group.reserve(ops.size());
    for (const BatchOp &o : ops) {
        assert(o.key < cfg_.recordCount);
        PendingRec rec;
        rec.key = o.key;
        rec.version = ++keymap_[o.key].assignedVersion;
        rec.valueBytes = o.valueBytes;
        rec.chunks = std::uint32_t(divCeil(o.valueBytes, kChunkBytes));
        rec.units = recordUnits(rec.chunks);
        rec.cb = [this, txn](const WalRec &w, Tick done) {
            applyWalAck(w);
            batchRecordDone(*txn, done);
        };
        group.push_back(std::move(rec));
    }
    enqueueGroup(std::move(group));
}

void
LsmEngine::doScan(std::uint64_t start_key, std::uint32_t count,
                  QueryCb cb)
{
    const std::uint64_t end = std::min<std::uint64_t>(
        cfg_.recordCount, start_key + count);
    auto job = beginScan(std::move(cb));
    std::uint64_t l1_first = kInvalidAddr;
    std::uint64_t l1_end = 0;
    for (std::uint64_t key = start_key; key < end; ++key) {
        const KeyState &st = keymap_[key];
        if (st.version == 0 || st.chunks == 0)
            continue;
        checkContent(key, locate(key));
        ++job->scanned;
        if (st.loc.area == Loc::Area::L1 && st.loc.idx == ping_) {
            l1_first = std::min(l1_first, st.loc.unitOff);
            l1_end = std::max(l1_end,
                              st.loc.unitOff + recordUnits(st.chunks));
        } else {
            scanRead(job, lbaOf(st.loc),
                     divCeil(st.chunks, kChunksPerSector));
        }
    }
    if (l1_first != kInvalidAddr) {
        const std::uint64_t nsect =
            (l1_end - l1_first) * layout_.unitSectors;
        sScanSequentialSectors_.add(nsect);
        scanRead(job, layout_.l1Lba(ping_, l1_first), nsect);
    }
    endScan(job);
}

std::uint64_t
LsmEngine::journalBytes() const
{
    return halfPayloadBytes_[activeHalf_];
}

std::uint64_t
LsmEngine::journalRecords() const
{
    return halfRecords_[activeHalf_].size();
}

bool
LsmEngine::nothingToCheckpoint() const
{
    return halfRecords_[activeHalf_].empty() && !walInFlight_;
}

bool
LsmEngine::spareHalfBusy() const
{
    return !halfClean_[activeHalf_ ^ 1];
}

void
LsmEngine::afterDeferredReleased()
{
    pumpWal();
}

// ----------------------------------------------------------------------
// WAL append path
// ----------------------------------------------------------------------

void
LsmEngine::applyWalAck(const WalRec &rec)
{
    KeyState &st = keymap_[rec.key];
    if (rec.version > st.version) {
        st.version = rec.version;
        st.chunks = rec.chunks;
        st.loc = Loc{Loc::Area::Wal, rec.half, rec.unitOff};
    }
}

void
LsmEngine::enqueueGroup(std::vector<PendingRec> group)
{
    std::uint64_t units = 0;
    for (const PendingRec &r : group)
        units += r.units;
    if (units > layout_.walUnits()) {
        throw std::invalid_argument(
            "lsm: transaction larger than a journal half");
    }
    pendingGroups_.push_back(std::move(group));
    pumpWal();
}

void
LsmEngine::pumpWal()
{
    if (walInFlight_ || pendingGroups_.empty())
        return;
    assert(halfRegionValid_[activeHalf_]);
    const std::uint8_t half = activeHalf_;
    const std::uint64_t wal_units = layout_.walUnits();
    auto group_units = [](const std::vector<PendingRec> &g) {
        std::uint64_t u = 0;
        for (const PendingRec &r : g)
            u += r.units;
        return u;
    };
    if (appendUnit_[half] + group_units(pendingGroups_.front()) >
        wal_units) {
        // Active half full: stall until a flush rotates the halves.
        if (!walStalled_) {
            walStalled_ = true;
            stats_.add("engine.journalStalls");
            if (telem_ != nullptr) {
                telem_->noteEvent(
                    obs::TelemetryEvent::JournalStall, eq_.now(),
                    pendingGroups_.size());
            }
        }
        requestCheckpoint(obs::CkptTrigger::SpacePressure);
        return;
    }
    walStalled_ = false;

    // Gather whole groups (a transaction never splits across write
    // commands: one command is atomic+durable at submission).
    std::vector<PendingRec> batch;
    std::uint64_t batch_units = 0;
    while (!pendingGroups_.empty()) {
        const std::vector<PendingRec> &g = pendingGroups_.front();
        if (!batch.empty() &&
            batch.size() + g.size() > cfg_.maxCommitGroup) {
            break;
        }
        if (appendUnit_[half] + batch_units + group_units(g) >
            wal_units) {
            break;
        }
        batch_units += group_units(g);
        for (PendingRec &r : pendingGroups_.front())
            batch.push_back(std::move(r));
        pendingGroups_.pop_front();
    }
    assert(!batch.empty());

    // Build the unit-aligned payload plus per-unit OOB annotations:
    // every WAL unit names its L0 destination so a remap promotion
    // stays durable across sudden power loss (paper §III-G).
    const std::uint64_t base_unit = appendUnit_[half];
    const std::uint32_t unit_chunks = layout_.unitChunks();
    const std::uint32_t region = halfRegion_[half];
    std::vector<SectorData> payload(batch_units *
                                    layout_.unitSectors);
    std::vector<OobEntry> oob(batch_units);
    auto acks = std::make_shared<std::vector<
        std::pair<WalRec, std::function<void(const WalRec &, Tick)>>>>();
    acks->reserve(batch.size());
    std::uint64_t rel = 0;
    std::uint64_t payload_bytes = 0;
    for (PendingRec &r : batch) {
        const std::uint64_t base_chunk = rel * unit_chunks;
        if (r.chunks == 0) {
            payload[base_chunk / kChunksPerSector]
                .chunks[base_chunk % kChunksPerSector] =
                tombstoneToken(r.key, r.version);
        } else {
            for (std::uint32_t c = 0; c < r.chunks; ++c) {
                const std::uint64_t pos = base_chunk + c;
                payload[pos / kChunksPerSector]
                    .chunks[pos % kChunksPerSector] =
                    dataChunkToken(r.key, r.version, c);
            }
        }
        for (std::uint32_t k = 0; k < r.units; ++k) {
            oob[rel + k].version = globalSeq_++;
            oob[rel + k].targetLpn =
                layout_.l0UnitLpn(region, base_unit + rel + k);
        }
        WalRec w;
        w.key = r.key;
        w.version = r.version;
        w.chunks = r.chunks;
        w.half = half;
        w.unitOff = base_unit + rel;
        w.units = r.units;
        halfRecords_[half].push_back(w);
        acks->emplace_back(w, std::move(r.cb));
        payload_bytes += r.valueBytes;
        rel += r.units;
    }
    appendUnit_[half] += batch_units;
    halfPayloadBytes_[half] += payload_bytes;
    halfClean_[half] = false;
    stats_.add("engine.groupCommits");
    stats_.add("engine.journalPayloadBytes", payload_bytes);
    stats_.add("engine.journalChunksStored",
               batch_units * unit_chunks);

    Command w = Command::write(layout_.walLba(half, base_unit),
                               std::move(payload), IoCause::Journal);
    w.unitOob = std::move(oob);
    walInFlight_ = true;
    ssd_.submit(std::move(w), [this, acks](const CmdResult &r) {
        const Tick done = r.require();
        walInFlight_ = false;
        for (auto &[rec, cb] : *acks)
            cb(rec, done);
        if (walQuiesceCb_) {
            auto fn = std::move(walQuiesceCb_);
            walQuiesceCb_ = nullptr;
            fn();
        } else {
            pumpWal();
        }
    });
}

// ----------------------------------------------------------------------
// Flush (checkpoint) path
// ----------------------------------------------------------------------

void
LsmEngine::runCheckpoint()
{
    // Wait for any in-flight group commit: its records belong to the
    // half being frozen and must be in the flush snapshot.
    quiesceWal([this] { onWalQuiesced(); });
}

void
LsmEngine::quiesceWal(std::function<void()> fn)
{
    if (!walInFlight_) {
        fn();
        return;
    }
    assert(!walQuiesceCb_);
    walQuiesceCb_ = std::move(fn);
}

void
LsmEngine::onWalQuiesced()
{
    const std::uint8_t half = activeHalf_;
    const std::uint32_t region = halfRegion_[half];
    // The run occupies the frozen half's written prefix 1:1.
    regionUsedUnits_[region] = appendUnit_[half];

    // Rotate to the other (clean) half so appends continue during
    // the flush; its activation gets a fresh L0 region assignment.
    activeHalf_ = half ^ 1;
    assert(halfClean_[activeHalf_]);
    appendUnit_[activeHalf_] = 0;
    halfPayloadBytes_[activeHalf_] = 0;
    halfRecords_[activeHalf_].clear();
    halfRegion_[activeHalf_] = reserveRegion();
    halfRegionValid_[activeHalf_] = true;

    auto recs = std::make_shared<std::vector<WalRec>>(
        std::move(halfRecords_[half]));
    halfRecords_[half].clear();
    if (obs::CheckpointStat *rec =
            noteSnapshot(recs->size(), recs->size())) {
        rec->fullRecords = recs->size();
        for (const WalRec &r : *recs) {
            if (r.chunks == 0)
                ++rec->tombstones;
        }
    }
    pumpWal();

    // Promote the frozen half with identity-offset remap pairs: WAL
    // unit i becomes region unit i, exactly what the append-time OOB
    // annotations already promise the device.
    std::vector<CowPair> pairs;
    pairs.reserve(recs->size());
    for (const WalRec &r : *recs) {
        pairs.push_back(unitPair(layout_.walLba(half, r.unitOff),
                                 layout_.l0Lba(region, r.unitOff),
                                 r.units, /*force_copy=*/false));
    }
    auto make = [&](std::size_t b) {
        stats_.add("engine.ckptRemapCommands");
        return Command::checkpointRemap(batch(pairs, b));
    };
    submitAll(batchCount(pairs.size()), make,
              [this, half, region, recs](Tick) {
                  onFlushDataDone(half, region, *recs);
              });
}

void
LsmEngine::onFlushDataDone(std::uint8_t half, std::uint32_t region,
                           const std::vector<WalRec> &recs)
{
    if (regionUsedUnits_[region] > 0)
        ++usedRuns_;
    for (const WalRec &r : recs) {
        KeyState &st = keymap_[r.key];
        const Loc nl{Loc::Area::L0, std::uint8_t(region), r.unitOff};
        if (st.version == r.version &&
            st.loc.area == Loc::Area::Wal) {
            st.loc = nl;
        }
        if (r.version > st.dataVersion) {
            st.dataVersion = r.version;
            st.dataChunks = r.chunks;
            st.dataLoc = nl;
        }
    }
    markDataDone(recs.size());
    // Manifest before the WAL trim: every crash window leaves either
    // the logs durable or the manifest naming the promoted run.
    ssd_.submit(buildManifestCommand(),
                [this, half](const CmdResult &r) {
        markMetaDone(r.require());
        ssd_.submit(Command::deleteLogs(layout_.walStart[half],
                                        layout_.walSectors),
                    [this, half](const CmdResult &r2) {
            const Tick t3 = r2.require();
            markDeleteDone(t3);
            halfClean_[half] = true;
            halfRegionValid_[half] = false;
            if (usedRuns_ >= kLsmCompactRuns)
                startCompaction();
            else
                finishCheckpoint(t3);
        });
    });
}

// ----------------------------------------------------------------------
// Compaction
// ----------------------------------------------------------------------

LsmEngine::Compaction
LsmEngine::planCompaction()
{
    // Fold every key's newest data-area copy — tombstones included,
    // so version ordering survives trimmed-WAL resurrection after a
    // power-loss rebuild — into the other L1 ping, packed in key
    // order. The merge itself runs inside the device (force-copy CoW
    // pairs); the host only names source and destination.
    stats_.add("engine.compactions");
    Compaction c;
    c.oldPing = ping_;
    c.oldL1Units = l1UsedUnits_[ping_];
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
        if (regionUsedUnits_[r] > 0)
            c.regions.push_back(r);
    }
    std::uint64_t cursor = 0;
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        const KeyState &st = keymap_[key];
        if (st.dataVersion == 0)
            continue;
        const CompactMove m{key, st.dataVersion, cursor,
                            recordUnits(st.dataChunks)};
        c.pairs.push_back(unitPair(lbaOf(st.dataLoc),
                                   layout_.l1Lba(c.oldPing ^ 1, cursor),
                                   m.units, /*force_copy=*/true));
        c.moves.push_back(m);
        cursor += m.units;
    }
    assert(cursor <= layout_.l1Units());
    return c;
}

Command
LsmEngine::compactionBatch(const Compaction &c, std::size_t b)
{
    stats_.add("engine.compactionCowCommands");
    return Command::checkpointRemap(batch(c.pairs, b));
}

void
LsmEngine::applyCompaction(const Compaction &c)
{
    const std::uint8_t new_ping = c.oldPing ^ 1;
    std::uint64_t cursor = 0;
    for (const CompactMove &m : c.moves) {
        KeyState &st = keymap_[m.key];
        const Loc nl{Loc::Area::L1, new_ping, m.dstUnitOff};
        if (st.version == m.version)
            st.loc = nl;
        st.dataLoc = nl;
        cursor = m.dstUnitOff + m.units;
    }
    ping_ = new_ping;
    l1UsedUnits_[new_ping] = cursor;
    l1UsedUnits_[c.oldPing] = 0;
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
        if (regionUsedUnits_[r] > 0) {
            regionUsedUnits_[r] = 0;
            regionBusy_[r] = false;
        }
    }
    usedRuns_ = 0;
    stats_.add("engine.compactedRecords", c.moves.size());
    stats_.add("engine.mergedUnits", cursor);
}

std::vector<Command>
LsmEngine::compactionTrims(const Compaction &c) const
{
    std::vector<Command> trims;
    for (std::uint32_t r : c.regions) {
        trims.push_back(
            Command::trim(layout_.l0Lba(r, 0), layout_.regionSectors));
    }
    if (c.oldL1Units > 0) {
        trims.push_back(Command::trim(layout_.l1Lba(c.oldPing, 0),
                                      layout_.l1Sectors));
    }
    return trims;
}

void
LsmEngine::startCompaction()
{
    auto c = std::make_shared<Compaction>(planCompaction());
    obs::instant(obs::Cat::Engine, kCkptLane, "compact.start",
                 eq_.now(), {{"records", c->moves.size()}});
    auto make = [&](std::size_t b) { return compactionBatch(*c, b); };
    submitAll(batchCount(c->pairs.size()), make, [this, c](Tick) {
        applyCompaction(*c);
        // Manifest (new ping, regions cleared) before the trims.
        ssd_.submit(buildManifestCommand(),
                    [this, c](const CmdResult &r) {
            r.require();
            std::vector<Command> trims = compactionTrims(*c);
            auto trim = [&](std::size_t i) { return std::move(trims[i]); };
            submitAll(trims.size(), trim,
                      [this](Tick t3) { finishCheckpoint(t3); });
        });
    });
}

// ----------------------------------------------------------------------
// Manifest
// ----------------------------------------------------------------------

Command
LsmEngine::buildManifestCommand()
{
    std::vector<SectorData> payload(layout_.manifestSectors);
    auto put = [&payload](std::uint64_t idx, std::uint64_t value) {
        payload[idx / kChunksPerSector]
            .chunks[idx % kChunksPerSector] =
            catalogToken(idx, value, 0);
    };
    put(0, 1); // format magic
    put(1, ping_);
    put(2, globalSeq_ & 0xffffff);
    put(3, (globalSeq_ >> 24) & 0xffffff);
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r)
        put(4 + r, regionUsedUnits_[r]);
    put(4 + kLsmL0Regions, l1UsedUnits_[0]);
    put(5 + kLsmL0Regions, l1UsedUnits_[1]);
    stats_.add("engine.manifestWrites");
    return Command::write(layout_.manifestStart, std::move(payload),
                          IoCause::Metadata, globalSeq_++);
}

LsmEngine::Manifest
LsmEngine::readManifest() const
{
    Manifest m;
    std::vector<SectorData> buf(layout_.manifestSectors);
    ssd_.peek(layout_.manifestStart,
              std::uint32_t(layout_.manifestSectors), buf.data());
    auto get = [&buf](std::uint64_t idx) -> DecodedToken {
        return decodeToken(buf[idx / kChunksPerSector]
                               .chunks[idx % kChunksPerSector]);
    };
    const DecodedToken magic = get(0);
    if (magic.tag != TokenTag::Catalog || magic.key != 0 ||
        magic.version != 1) {
        return m; // fresh / unformatted device
    }
    m.valid = true;
    m.ping = std::uint8_t(get(1).version);
    m.globalSeq = get(2).version | (get(3).version << 24);
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r)
        m.regionUsedUnits[r] = get(4 + r).version;
    m.l1UsedUnits[0] = get(4 + kLsmL0Regions).version;
    m.l1UsedUnits[1] = get(5 + kLsmL0Regions).version;
    return m;
}

// ----------------------------------------------------------------------
// Recovery
// ----------------------------------------------------------------------

RecoveryInfo
LsmEngine::recover()
{
    RecoveryInfo info;
    const Tick t0 = eq_.now();
    Tick tmax = t0;
    auto sync = [this, &tmax](Command cmd) {
        tmax = std::max(tmax, ssd_.submitSync(std::move(cmd)));
    };

    // 1. Manifest: which L1 ping and L0 regions are authoritative.
    sync(Command::read(layout_.manifestStart,
                       layout_.manifestSectors, IoCause::Metadata));
    const Manifest m = readManifest();
    ping_ = m.ping;
    l1UsedUnits_[0] = m.l1UsedUnits[0];
    l1UsedUnits_[1] = m.l1UsedUnits[1];
    usedRuns_ = 0;
    for (std::uint32_t r = 0; r < kLsmL0Regions; ++r) {
        regionUsedUnits_[r] = m.regionUsedUnits[r];
        regionBusy_[r] = m.regionUsedUnits[r] > 0;
        if (m.regionUsedUnits[r] > 0)
            ++usedRuns_;
    }
    // Fresh stamps must exceed every stamp the crashed run issued
    // after its last manifest write; slack covers the whole managed
    // area plus margin.
    globalSeq_ = m.globalSeq + 2 * layout_.walUnits() +
                 kLsmL0Regions * layout_.walUnits() +
                 2 * layout_.l1Units() + 1024;

    // Read @p units units at @p start and parse their records, each
    // unit-aligned.
    const std::uint32_t unit_chunks = layout_.unitChunks();
    std::vector<SectorData> buf;
    auto scan = [&](Lba start, std::uint64_t units, IoCause cause,
                    auto &&emit) {
        const std::uint64_t nsect = units * layout_.unitSectors;
        sync(Command::read(start, nsect, cause));
        buf.resize(nsect);
        ssd_.peek(start, std::uint32_t(nsect), buf.data());
        parseRecords(buf.data(), nsect, unit_chunks, emit);
    };

    // 2. Scan the authoritative data areas: L1 ping, then used L0
    //    regions (token versions arbitrate, so order is immaterial).
    auto apply_data = [this, unit_chunks](const ParsedRecord &r,
                                          Loc::Area area,
                                          std::uint8_t idx) {
        KeyState &st = keymap_[r.key];
        if (r.version > st.dataVersion) {
            st.dataVersion = r.version;
            st.dataChunks = r.chunks;
            st.dataLoc = Loc{area, idx, r.chunkOff / unit_chunks};
        }
    };
    if (l1UsedUnits_[ping_] > 0) {
        scan(layout_.l1Lba(ping_, 0), l1UsedUnits_[ping_],
             IoCause::Query, [&](const ParsedRecord &r) {
                 apply_data(r, Loc::Area::L1, ping_);
             });
    }
    for (std::uint32_t reg = 0; reg < kLsmL0Regions; ++reg) {
        if (regionUsedUnits_[reg] == 0)
            continue;
        scan(layout_.l0Lba(reg, 0), regionUsedUnits_[reg],
             IoCause::Query, [&](const ParsedRecord &r) {
                 apply_data(r, Loc::Area::L0, std::uint8_t(reg));
             });
    }
    for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
        KeyState &st = keymap_[key];
        if (st.dataVersion == 0)
            continue;
        st.version = st.dataVersion;
        st.assignedVersion = st.dataVersion;
        st.chunks = st.dataChunks;
        st.loc = st.dataLoc;
        ++info.catalogKeys;
    }

    // 3. Scan both WAL halves; records newer than a key's data copy
    //    form the replay set. The strict version filter also defuses
    //    trimmed-WAL resurrection: a half whose logs were deleted can
    //    reappear after a power-loss rebuild (trim leaves the OOB
    //    intact), but its records never out-version the promoted run.
    struct Replay
    {
        std::uint32_t version = 0;
        std::uint32_t chunks = 0;
        std::uint8_t half = 0;
        std::uint64_t unitOff = 0;
        std::uint32_t units = 0;
    };
    std::vector<Replay> best(cfg_.recordCount);
    for (std::uint8_t half = 0; half < 2; ++half) {
        scan(layout_.walStart[half], layout_.walUnits(),
             IoCause::Journal, [&](const ParsedRecord &r) {
                 if (r.key >= cfg_.recordCount ||
                     r.version <= keymap_[r.key].dataVersion) {
                     return;
                 }
                 Replay &b = best[r.key];
                 if (r.version > b.version) {
                     b.version = r.version;
                     b.chunks = r.chunks;
                     b.half = half;
                     b.unitOff = r.chunkOff / unit_chunks;
                     b.units = recordUnits(r.chunks);
                 }
             });
    }

    // 4. Re-flush the replay set into a free region. Force-copy, not
    //    remap: the replayed units' stale annotations may target a
    //    different region, so only a fresh durable write is safe.
    const auto replayed = std::uint64_t(std::count_if(
        best.begin(), best.end(),
        [](const Replay &b) { return b.version > 0; }));
    if (replayed > 0) {
        const std::uint32_t region = reserveRegion();
        std::uint64_t cursor = 0;
        std::vector<CowPair> pairs;
        for (std::uint64_t key = 0; key < cfg_.recordCount; ++key) {
            const Replay &b = best[key];
            if (b.version == 0)
                continue;
            pairs.push_back(unitPair(layout_.walLba(b.half, b.unitOff),
                                     layout_.l0Lba(region, cursor),
                                     b.units, /*force_copy=*/true));
            KeyState &st = keymap_[key];
            st.version = b.version;
            st.assignedVersion = b.version;
            st.chunks = b.chunks;
            st.loc = Loc{Loc::Area::L0, std::uint8_t(region),
                         cursor};
            st.dataVersion = b.version;
            st.dataChunks = b.chunks;
            st.dataLoc = st.loc;
            cursor += b.units;
        }
        for (std::size_t b = 0; b < batchCount(pairs.size()); ++b)
            sync(Command::checkpointRemap(batch(pairs, b)));
        regionUsedUnits_[region] = cursor;
        ++usedRuns_;
    }
    info.replayedLogs = replayed;

    // 5. Manifest (also persists the recovery stamp bump), then
    //    release the WAL and every non-authoritative area.
    sync(buildManifestCommand());
    for (std::uint8_t half = 0; half < 2; ++half) {
        sync(Command::deleteLogs(layout_.walStart[half],
                                 layout_.walSectors));
    }
    for (std::uint32_t reg = 0; reg < kLsmL0Regions; ++reg) {
        if (regionUsedUnits_[reg] == 0)
            sync(Command::trim(layout_.l0Lba(reg, 0),
                               layout_.regionSectors));
    }
    sync(Command::trim(layout_.l1Lba(ping_ ^ 1, 0),
                       layout_.l1Sectors));

    // 6. Compact synchronously if the replay pushed L0 to its limit,
    //    so the store restarts with compaction headroom.
    if (usedRuns_ >= kLsmCompactRuns) {
        const Compaction c = planCompaction();
        for (std::size_t b = 0; b < batchCount(c.pairs.size()); ++b)
            sync(compactionBatch(c, b));
        applyCompaction(c);
        sync(buildManifestCommand());
        for (const Command &trim : compactionTrims(c))
            sync(trim);
    }

    // 7. Reset the WAL and arm the active half.
    activeHalf_ = 0;
    for (std::uint8_t half = 0; half < 2; ++half) {
        appendUnit_[half] = 0;
        halfPayloadBytes_[half] = 0;
        halfRecords_[half].clear();
        halfClean_[half] = true;
        halfRegionValid_[half] = false;
    }
    halfRegion_[0] = reserveRegion();
    halfRegionValid_[0] = true;

    info.duration = tmax > t0 ? tmax - t0 : 0;
    stats_.add("engine.recoveries");
    stats_.add("engine.recoveredLogs", info.replayedLogs);
    return info;
}

} // namespace checkin
