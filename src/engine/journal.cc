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
    stats_.add("engine.transactions");
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
    std::vector<Pending> group;
    group.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        group.push_back(std::move(buffer_.front()));
        buffer_.pop_front();
    }

    std::vector<Placed> placed;
    std::uint64_t first_chunk = 0;
    std::uint64_t end_chunk = 0;
    if (!placeGroup(group, placed, first_chunk, end_chunk)) {
        // Out of journal space: put the group back (order preserved)
        // and ask the engine for a checkpoint.
        for (auto it = group.rbegin(); it != group.rend(); ++it)
            buffer_.push_front(std::move(*it));
        stalledForSpace_ = true;
        stallStart_ = eq_.now();
        stats_.add("engine.journalStalls");
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
    submitGroup(std::move(placed), first_chunk, end_chunk);
}

bool
JournalManager::placeGroup(std::vector<Pending> &group,
                           std::vector<Placed> &placed,
                           std::uint64_t &first_chunk,
                           std::uint64_t &end_chunk)
{
    const std::uint32_t uc = unitChunks();
    const bool aligned = cfg_.alignedJournaling();
    std::uint64_t off = appendChunk_[active_];
    first_chunk = aligned ? alignUp(off, uc) : off;
    std::uint64_t cursor = first_chunk;

    // Dry placement first: nothing is moved out of @p group until
    // the whole group is known to fit.
    struct Slot
    {
        std::size_t index;
        std::uint64_t chunkOff;
        std::uint32_t chunks;
        LogType type;
    };
    std::vector<Slot> slots;
    slots.reserve(group.size());
    std::uint64_t merged_units = 0;
    std::uint64_t partial_units = 0;

    if (!aligned) {
        for (std::size_t i = 0; i < group.size(); ++i) {
            const FormattedSize f = formatLogSize(
                group[i].valueBytes, ssd_.ftl().mappingUnitBytes(),
                false, cfg_.compressRatio);
            slots.push_back(Slot{i, cursor, f.chunks, f.type});
            cursor += f.chunks;
        }
    } else {
        // FULL records first, each at a unit boundary.
        std::vector<std::pair<std::size_t, FormattedSize>> partials;
        for (std::size_t i = 0; i < group.size(); ++i) {
            const FormattedSize f = formatLogSize(
                group[i].valueBytes, ssd_.ftl().mappingUnitBytes(),
                true, cfg_.compressRatio);
            if (f.type == LogType::Full) {
                slots.push_back(Slot{i, cursor, f.chunks, f.type});
                cursor += f.chunks;
            } else {
                partials.push_back({i, f});
            }
        }
        // First-fit-decreasing bin packing of PARTIALs into units
        // (Algorithm 2's MergePartialLogs).
        std::sort(partials.begin(), partials.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.chunks > b.second.chunks;
                  });
        struct Bin
        {
            std::uint64_t base;
            std::uint32_t fill = 0;
            std::vector<std::size_t> members; // indices into slots
        };
        std::vector<Bin> bins;
        for (const auto &[index, f] : partials) {
            Bin *target = nullptr;
            if (cfg_.mergePartials) {
                for (Bin &b : bins) {
                    if (b.fill + f.chunks <= uc) {
                        target = &b;
                        break;
                    }
                }
            }
            if (target == nullptr) {
                bins.push_back(Bin{cursor, 0, {}});
                cursor += uc;
                target = &bins.back();
            }
            slots.push_back(Slot{index, target->base + target->fill,
                                 f.chunks, LogType::Partial});
            target->members.push_back(slots.size() - 1);
            target->fill += f.chunks;
        }
        for (const Bin &b : bins) {
            if (b.members.size() > 1) {
                ++merged_units;
                for (std::size_t idx : b.members)
                    slots[idx].type = LogType::Merged;
            } else {
                ++partial_units;
            }
        }
    }
    end_chunk = cursor;
    if (end_chunk > layout_.journalChunks())
        return false;

    stats_.add("engine.mergedUnits", merged_units);
    stats_.add("engine.partialUnits", partial_units);
    placed.reserve(slots.size());
    for (const Slot &s : slots) {
        placed.push_back(Placed{std::move(group[s.index]), s.chunkOff,
                                s.chunks, s.type});
    }
    return true;
}

void
JournalManager::submitGroup(std::vector<Placed> placed,
                            std::uint64_t first_chunk,
                            std::uint64_t end_chunk)
{
    const std::uint8_t half = active_;
    std::vector<std::uint64_t> &image = image_[half];

    // Lay the records' chunk tokens into the half image.
    for (const Placed &pl : placed) {
        if (pl.pending.valueBytes == 0) {
            image[pl.chunkOff] = tombstoneToken(pl.pending.key,
                                                pl.pending.version);
            stats_.add("engine.tombstones");
        } else {
            for (std::uint32_t c = 0; c < pl.chunks; ++c) {
                image[pl.chunkOff + c] = dataChunkToken(
                    pl.pending.key, pl.pending.version, c);
            }
        }
        stats_.add("engine.journalLogs");
        stats_.add("engine.journalChunksStored", pl.chunks);
        stats_.add("engine.journalPayloadBytes",
                   pl.pending.valueBytes);
    }
    appendChunk_[half] = end_chunk;
    logsAppended_[half] += placed.size();

    // The dirty sector range. Conventional packing re-writes the
    // partially filled first sector (tail rewrite); aligned mode
    // always starts on a fresh unit.
    const std::uint64_t s0 = first_chunk / kChunksPerSector;
    const std::uint64_t s1 =
        divCeil(end_chunk, kChunksPerSector); // exclusive
    std::vector<SectorData> payload(s1 - s0);
    for (std::uint64_t s = s0; s < s1; ++s) {
        for (std::uint32_t c = 0; c < kChunksPerSector; ++c) {
            payload[s - s0].chunks[c] =
                image[s * kChunksPerSector + c];
        }
    }

    stats_.add("engine.journalFlushes");
    stats_.add("engine.journalSectorsWritten", payload.size());

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
        const std::uint64_t first_unit = first_chunk / uc;
        const std::uint64_t unit_count =
            divCeil(end_chunk, uc) - first_unit;
        bool any = false;
        std::vector<OobEntry> unit_oob(unit_count);
        for (const Placed &pl : placed) {
            if (pl.pending.valueBytes == 0 ||
                pl.chunkOff % uc != 0 || pl.chunks % uc != 0) {
                continue;
            }
            const Lpn target0 =
                layout_.targetLba(pl.pending.key) / spu;
            const std::uint64_t base =
                pl.chunkOff / uc - first_unit;
            for (std::uint32_t k = 0; k < pl.chunks / uc; ++k) {
                unit_oob[base + k].version = pl.pending.version;
                unit_oob[base + k].targetLpn = target0 + k;
            }
            any = true;
        }
        if (any)
            cmd.unitOob = std::move(unit_oob);
    }
    const Tick submitted = eq_.now();
    const std::uint64_t group_sectors = s1 - s0; // payload was moved
    // Latency attribution: the group members' ops are replayed after
    // the (synchronous) command processing below, so collect them now
    // before `placed` moves into the completion. The completion lambda
    // itself must not grow (Ssd::Completion inline-storage budget).
    std::vector<obs::OpToken> member_ops;
    if (obs::attributionOn()) {
        member_ops.reserve(placed.size());
        for (const Placed &pl : placed)
            member_ops.push_back(pl.pending.op);
    }
    ssd_.submit(std::move(cmd),
                [this, half, submitted, group_sectors,
                 placed = std::move(placed)](const CmdResult &r) {
        const Tick done = r.require();
        obs::span(obs::Cat::Engine, kJournalLane,
                  "journal.groupCommit", submitted, done,
                  {{"logs", placed.size()},
                   {"sectors", group_sectors}});
        for (const Placed &pl : placed) {
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
            if (it == jmt_.end() ||
                it->second.version < entry.version) {
                jmt_[entry.key] = entry;
            }
            if (pl.pending.cb)
                pl.pending.cb(entry, done);
        }
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
    });
    if (!member_ops.empty()) {
        // Every stage boundary of the flush is known once the
        // (synchronous) command processing above returned. Charge
        // each member op's buffered wait — split around any space
        // stall it sat through — then replay the device-stage
        // segments captured for this command. All marks are monotone,
        // so ops appended after the stall skip its window and a
        // multi-record op absorbs repeats as no-ops.
        obs::AttributionCollector *a = obs::installedAttribution();
        for (obs::OpToken op : member_ops) {
            if (op == obs::kNoOpToken)
                continue;
            a->mark(op, obs::Stage::JournalWait, stallStart_);
            a->mark(op, obs::Stage::CheckpointStall, stallEnd_);
            a->mark(op, obs::Stage::JournalWait, submitted);
            a->applyCmdTo(op);
        }
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
