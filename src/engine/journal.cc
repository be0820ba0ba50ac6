#include "engine/journal.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "engine/record.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace checkin {

namespace {

/** Trace lane for journal events (Cat::Engine). */
constexpr std::uint32_t kJournalLane = 0;

} // namespace

FormattedSize
formatLogSize(std::uint32_t value_bytes, std::uint32_t unit_bytes,
              bool aligned, double compress_ratio)
{
    FormattedSize f;
    if (value_bytes == 0) {
        // Deletion tombstone: one chunk, always sub-unit.
        f.chunks = 1;
        f.type = aligned ? LogType::Partial : LogType::Raw;
        return f;
    }
    if (!aligned) {
        f.chunks = std::uint32_t(divCeil(value_bytes, kChunkBytes));
        f.type = LogType::Raw;
        return f;
    }
    if (value_bytes > unit_bytes) {
        // Algorithm 2 lines 3-6: compress, then align to n units.
        const auto compressed = std::uint32_t(
            std::ceil(double(value_bytes) * compress_ratio));
        const std::uint64_t stored = alignUp(compressed, unit_bytes);
        f.chunks = std::uint32_t(stored / kChunkBytes);
        f.type = LogType::Full;
        return f;
    }
    // Lines 8-17: bucket to unit/4 steps.
    const std::uint32_t step = unit_bytes / 4;
    const std::uint64_t stored =
        std::max<std::uint64_t>(step, alignUp(value_bytes, step));
    f.chunks = std::uint32_t(stored / kChunkBytes);
    f.type = stored == unit_bytes ? LogType::Full : LogType::Partial;
    return f;
}

JournalManager::JournalManager(SimContext &ctx, Ssd &ssd,
                               const DiskLayout &layout,
                               const EngineConfig &cfg,
                               StatRegistry &stats)
    : eq_(ctx.events()),
      ssd_(ssd),
      layout_(layout),
      cfg_(cfg),
      stats_(stats)
{
    image_[0].assign(layout_.journalChunks(), 0);
    image_[1].assign(layout_.journalChunks(), 0);
    obs::nameLane(obs::Cat::Engine, kJournalLane, "journal");
    telem_ = ctx.telemetry();
    if (telem_ != nullptr && telem_->enabled()) {
        telem_->addGauge("journal.bytes", [this] {
            return activeJournalBytes();
        });
        telem_->addGauge("journal.jmtSize", [this] {
            return std::uint64_t(jmt_.size());
        });
        telem_->addGauge("journal.pending", [this] {
            return std::uint64_t(buffer_.size());
        });
        telem_->addGauge("journal.stalled", [this] {
            return std::uint64_t(stalledForSpace_ ? 1 : 0);
        });
        telem_->addCounter("journal.stalls", [this] {
            return stats_.get("engine.journalStalls");
        });
    }
}

std::uint32_t
JournalManager::unitChunks() const
{
    return ssd_.ftl().mappingUnitBytes() / kChunkBytes;
}

void
JournalManager::append(std::uint64_t key, std::uint32_t version,
                       std::uint32_t value_bytes, CommitCb cb)
{
    buffer_.push_back(Pending{key, version, value_bytes,
                              std::move(cb), 1,
                              obs::attrCurrentOp()});
    startFlush();
}

void
JournalManager::appendBatch(std::vector<BatchRecord> records)
{
    // Atomicity: the whole batch must land in one group commit.
    // startFlush() takes up to maxCommitGroup records in buffer
    // order, so as long as the batch fits the group bound and is
    // enqueued contiguously, it cannot be split.
    if (records.size() > cfg_.maxCommitGroup) {
        throw std::invalid_argument(
            "transaction exceeds the group-commit bound");
    }
    bool head = true;
    for (BatchRecord &r : records) {
        buffer_.push_back(Pending{
            r.key, r.version, r.valueBytes, std::move(r.cb),
            head ? std::uint32_t(records.size()) : 1u,
            obs::attrCurrentOp()});
        head = false;
    }
    sTransactions_.add();
    startFlush();
}

void
JournalManager::quiesce(std::function<void()> cb)
{
    assert(!quiesceCb_ && "quiesce already pending");
    if (!flushInFlight_) {
        cb();
        return;
    }
    quiesceCb_ = std::move(cb);
}

void
JournalManager::startFlush()
{
    if (flushInFlight_ || stalledForSpace_ || buffer_.empty() ||
        quiesceCb_) {
        return;
    }

    // Select the group without splitting transactions: walk from
    // batch head to batch head until the group bound is reached. A
    // batch always starts a jump, so it lands whole in one group.
    std::size_t n = 0;
    while (n < buffer_.size()) {
        const std::size_t take =
            std::max<std::uint32_t>(1, buffer_[n].batchLen);
        if (n > 0 && n + take > cfg_.maxCommitGroup)
            break;
        n += take;
        if (n >= cfg_.maxCommitGroup)
            break;
    }
    n = std::min(n, buffer_.size());

    std::uint64_t first_chunk = 0;
    std::uint64_t end_chunk = 0;
    if (!placeGroup(n, first_chunk, end_chunk)) {
        // Out of journal space: the group stays buffered; ask the
        // engine for a checkpoint.
        stalledForSpace_ = true;
        stallStart_ = eq_.now();
        sStalls_.add();
        obs::instant(obs::Cat::Engine, kJournalLane, "journal.stall",
                     eq_.now(), {{"bufferedLogs", buffer_.size()}});
        if (telem_ != nullptr) {
            telem_->noteEvent(obs::TelemetryEvent::JournalStall,
                              eq_.now(), buffer_.size());
        }
        if (onPressure_)
            onPressure_();
        return;
    }
    flushInFlight_ = true;
    submitGroup(first_chunk, end_chunk);
}

bool
JournalManager::placeGroup(std::size_t n, std::uint64_t &first_chunk,
                           std::uint64_t &end_chunk)
{
    const std::uint32_t uc = unitChunks();
    const bool aligned = cfg_.alignedJournaling();
    std::uint64_t off = appendChunk_[active_];
    first_chunk = aligned ? alignUp(off, uc) : off;
    std::uint64_t cursor = first_chunk;

    // Dry placement first: nothing leaves buffer_ until the whole
    // group is known to fit.
    slots_.clear();
    std::uint64_t merged_units = 0;
    std::uint64_t partial_units = 0;

    if (!aligned) {
        for (std::size_t i = 0; i < n; ++i) {
            const FormattedSize f = formatLogSize(
                buffer_[i].valueBytes, ssd_.ftl().mappingUnitBytes(),
                false, cfg_.compressRatio);
            slots_.push_back(Slot{i, cursor, f.chunks, f.type, 0});
            cursor += f.chunks;
        }
    } else {
        // FULL records first, each at a unit boundary.
        partials_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const FormattedSize f = formatLogSize(
                buffer_[i].valueBytes, ssd_.ftl().mappingUnitBytes(),
                true, cfg_.compressRatio);
            if (f.type == LogType::Full) {
                slots_.push_back(Slot{i, cursor, f.chunks, f.type, 0});
                cursor += f.chunks;
            } else {
                partials_.push_back({i, f});
            }
        }
        // First-fit-decreasing bin packing of PARTIALs into units
        // (Algorithm 2's MergePartialLogs).
        std::sort(partials_.begin(), partials_.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.chunks > b.second.chunks;
                  });
        bins_.clear();
        for (const auto &[index, f] : partials_) {
            std::size_t target = bins_.size();
            if (cfg_.mergePartials) {
                for (std::size_t b = 0; b < bins_.size(); ++b) {
                    if (bins_[b].fill + f.chunks <= uc) {
                        target = b;
                        break;
                    }
                }
            }
            if (target == bins_.size()) {
                bins_.push_back(Bin{cursor, 0, 0});
                cursor += uc;
            }
            Bin &bin = bins_[target];
            slots_.push_back(Slot{index, bin.base + bin.fill, f.chunks,
                                  LogType::Partial,
                                  std::uint32_t(target)});
            ++bin.members;
            bin.fill += f.chunks;
        }
        for (const Bin &b : bins_) {
            if (b.members > 1)
                ++merged_units;
            else
                ++partial_units;
        }
        for (Slot &slot : slots_) {
            if (slot.type == LogType::Partial &&
                bins_[slot.bin].members > 1) {
                slot.type = LogType::Merged;
            }
        }
    }
    end_chunk = cursor;
    if (end_chunk > layout_.journalChunks())
        return false;

    sMergedUnits_.add(merged_units);
    sPartialUnits_.add(partial_units);
    for (const Slot &slot : slots_) {
        inflight_.push_back(Placed{std::move(buffer_[slot.index]),
                                   slot.chunkOff, slot.chunks,
                                   slot.type});
    }
    for (std::size_t i = 0; i < n; ++i)
        buffer_.pop_front();
    return true;
}

void
JournalManager::submitGroup(std::uint64_t first_chunk,
                            std::uint64_t end_chunk)
{
    const std::uint8_t half = active_;
    std::vector<std::uint64_t> &image = image_[half];

    // Lay the records' chunk tokens into the half image.
    for (const Placed &pl : inflight_) {
        if (pl.pending.valueBytes == 0) {
            image[pl.chunkOff] = tombstoneToken(pl.pending.key,
                                                pl.pending.version);
            sTombstones_.add();
        } else {
            for (std::uint32_t c = 0; c < pl.chunks; ++c) {
                image[pl.chunkOff + c] = dataChunkToken(
                    pl.pending.key, pl.pending.version, c);
            }
        }
        sLogs_.add();
        sChunksStored_.add(pl.chunks);
        sPayloadBytes_.add(pl.pending.valueBytes);
    }
    appendChunk_[half] = end_chunk;
    logsAppended_[half] += inflight_.size();

    // The dirty sector range. Conventional packing re-writes the
    // partially filled first sector (tail rewrite); aligned mode
    // always starts on a fresh unit.
    const std::uint64_t s0 = first_chunk / kChunksPerSector;
    const std::uint64_t s1 =
        divCeil(end_chunk, kChunksPerSector); // exclusive
    std::vector<SectorData> payload = ssd_.takePayloadBuffer();
    payload.resize(s1 - s0);
    for (std::uint64_t s = s0; s < s1; ++s) {
        for (std::uint32_t c = 0; c < kChunksPerSector; ++c) {
            payload[s - s0].chunks[c] =
                image[s * kChunksPerSector + c];
        }
    }

    sFlushes_.add();
    sSectorsWritten_.add(payload.size());

    Command cmd = Command::write(layout_.journalStart[half] + s0,
                                 std::move(payload), IoCause::Journal);
    {
        // Annotate every mapping-unit-aligned record's units with its
        // checkpoint target + version so the device can rebuild
        // remaps after power loss (paper §III-G). The condition
        // matches exactly the records the ISCE may remap: Check-In
        // FULL records always qualify; conventional (byte-packed)
        // records qualify when they happen to align. Merged/partial
        // units carry no target (they are copied, not remapped).
        const std::uint32_t spu = ssd_.ftl().sectorsPerUnit();
        const std::uint32_t uc = unitChunks();
        const auto remappable = [uc](const Placed &pl) {
            return pl.pending.valueBytes != 0 &&
                   pl.chunkOff % uc == 0 && pl.chunks % uc == 0;
        };
        if (std::any_of(inflight_.begin(), inflight_.end(),
                        remappable)) {
            const std::uint64_t first_unit = first_chunk / uc;
            std::vector<OobEntry> unit_oob = ssd_.takeOobBuffer();
            unit_oob.resize(divCeil(end_chunk, uc) - first_unit);
            for (const Placed &pl : inflight_) {
                if (!remappable(pl))
                    continue;
                const Lpn target0 =
                    layout_.targetLba(pl.pending.key) / spu;
                const std::uint64_t base =
                    pl.chunkOff / uc - first_unit;
                for (std::uint32_t k = 0; k < pl.chunks / uc; ++k) {
                    unit_oob[base + k].version = pl.pending.version;
                    unit_oob[base + k].targetLpn = target0 + k;
                }
            }
            cmd.unitOob = std::move(unit_oob);
        }
    }
    const Tick submitted = eq_.now();
    const std::uint64_t group_sectors = s1 - s0;
    ssd_.submit(std::move(cmd),
                [this, half, submitted, group_sectors](const CmdResult &r) {
                    onGroupDone(half, submitted, group_sectors, r);
                });
    if (obs::attributionOn()) {
        // Every stage boundary of the flush is known once the
        // (synchronous) command processing above returned. Charge
        // each member op's buffered wait — split around any space
        // stall it sat through — then replay the device-stage
        // segments captured for this command. All marks are monotone,
        // so ops appended after the stall skip its window and a
        // multi-record op absorbs repeats as no-ops.
        obs::AttributionCollector *a = obs::installedAttribution();
        for (const Placed &pl : inflight_) {
            const obs::OpToken op = pl.pending.op;
            if (op == obs::kNoOpToken)
                continue;
            a->mark(op, obs::Stage::JournalWait, stallStart_);
            a->mark(op, obs::Stage::CheckpointStall, stallEnd_);
            a->mark(op, obs::Stage::JournalWait, submitted);
            a->applyCmdTo(op);
        }
    }
}

void
JournalManager::onGroupDone(std::uint8_t half, Tick submitted,
                            std::uint64_t sectors, const CmdResult &r)
{
    const Tick done = r.require();
    obs::span(obs::Cat::Engine, kJournalLane, "journal.groupCommit",
              submitted, done,
              {{"logs", inflight_.size()}, {"sectors", sectors}});
    for (Placed &pl : inflight_) {
        JmtEntry entry;
        entry.key = pl.pending.key;
        entry.version = pl.pending.version;
        entry.half = half;
        entry.chunkOff = pl.chunkOff;
        entry.chunks = pl.chunks;
        entry.payloadBytes = pl.pending.valueBytes;
        entry.type = pl.type;
        // Aligned placement reorders records within the group, so
        // guard against a same-key older version landing last.
        auto it = jmt_.find(entry.key);
        if (it == jmt_.end() || it->second.version < entry.version)
            jmt_[entry.key] = entry;
        if (pl.pending.cb)
            pl.pending.cb(entry, done);
    }
    inflight_.clear();
    flushInFlight_ = false;
    if (quiesceCb_) {
        // A checkpoint is waiting to switch halves; hold further
        // flushes until it has snapshotted the JMT.
        auto cb = std::move(quiesceCb_);
        quiesceCb_ = nullptr;
        cb();
    } else {
        startFlush();
    }
}

std::vector<JmtEntry>
JournalManager::beginCheckpoint()
{
    assert(otherHalfFree() && "both journal halves busy");
    std::vector<JmtEntry> snapshot;
    snapshot.reserve(jmt_.size());
    for (auto &[key, entry] : jmt_)
        snapshot.push_back(entry);
    jmt_.clear();
    halfBusy_[active_] = true;
    active_ ^= 1;
    assert(appendChunk_[active_] == 0);
    // Resume flushing: the switch both clears any space stall and
    // ends the quiesce window that held buffered appends back.
    if (stalledForSpace_)
        stallEnd_ = eq_.now();
    stalledForSpace_ = false;
    startFlush();
    return snapshot;
}

void
JournalManager::onHalfFreed(std::uint8_t half)
{
    assert(halfBusy_[half]);
    halfBusy_[half] = false;
    std::fill(image_[half].begin(), image_[half].end(), 0);
    appendChunk_[half] = 0;
    logsAppended_[half] = 0;
    if (stalledForSpace_ && onPressure_) {
        // Still wedged on the (full) active half: ask for another
        // checkpoint now that a switch target exists.
        onPressure_();
    }
}

} // namespace checkin
