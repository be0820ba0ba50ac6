#include "ftl/ftl.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/attribution.h"
#include "sim/rng.h"

namespace checkin {

const char *
ioCauseName(IoCause cause)
{
    switch (cause) {
      case IoCause::Query: return "query";
      case IoCause::Journal: return "journal";
      case IoCause::Checkpoint: return "checkpoint";
      case IoCause::Metadata: return "metadata";
      case IoCause::Gc: return "gc";
      case IoCause::MapFlush: return "mapflush";
    }
    return "unknown";
}

namespace {

Stream
streamFor(IoCause cause)
{
    switch (cause) {
      case IoCause::Journal: return Stream::Journal;
      case IoCause::Gc: return Stream::Gc;
      case IoCause::MapFlush: return Stream::Map;
      default: return Stream::Data;
    }
}

} // namespace

Ftl::Ftl(NandFlash &nand, const FtlConfig &cfg)
    : nand_(nand),
      cfg_(cfg),
      layout_(nand.config()),
      pageSeq_(nand.config().totalPages(), 0),
      bm_(nand.config().totalBlocks(),
          nand.config().pagesPerBlock *
              (nand.config().pageBytes / cfg.mappingUnitBytes),
          nand.config().dieCount())
{
    const NandConfig &nc = nand_.config();
    if (cfg_.mappingUnitBytes % kSectorBytes != 0 ||
        nc.pageBytes % cfg_.mappingUnitBytes != 0) {
        throw std::invalid_argument(
            "mapping unit must be a sector multiple dividing the page");
    }
    sectorsPerUnit_ =
        std::uint32_t(cfg_.mappingUnitBytes / kSectorBytes);
    slotsPerPage_ = nc.pageBytes / cfg_.mappingUnitBytes;
    logicalUnits_ = std::uint64_t(double(nc.totalBytes()) *
                                  cfg_.exportedRatio) /
                    cfg_.mappingUnitBytes;
    dataCache_.init(nc.totalPages(),
                    std::size_t(cfg_.dataCacheBytes / nc.pageBytes));
    if (cfg_.mapCacheBytes > 0) {
        const std::uint64_t seg_bytes =
            std::uint64_t(cfg_.mapEntriesPerFetch) *
            cfg_.mapEntryBytes;
        const std::uint64_t total_segs =
            divCeil(logicalUnits_, cfg_.mapEntriesPerFetch);
        const std::uint64_t cap = cfg_.mapCacheBytes / seg_bytes;
        // Capacity >= table: everything resident, no miss modeling.
        mapSegCapacity_ =
            cap >= total_segs ? 0 : std::size_t(cap);
        mapCache_.init(total_segs, mapSegCapacity_);
    }
    map_.assign(logicalUnits_, kInvalidAddr);
    badBlock_.assign(nc.totalBlocks(), 0);
    open_.assign(std::size_t(kStreamCount) * nc.dieCount(),
                 OpenPage{});
    const std::uint64_t total_slots = nc.totalPages() * slotsPerPage_;
    slotInfo_.assign(total_slots, SlotInfo{});
    sectors_.assign(total_slots * sectorsPerUnit_, SectorData{});
    slotOob_.assign(total_slots, OobEntry{});
    // Rare >2-reference CoW chains hash into refOverflow_; reserve a
    // geometry-derived bucket count so warmup never rehashes.
    refOverflow_.reserve(
        std::size_t(std::max<std::uint64_t>(64, total_slots / 1024)));

    // Intern the hot-path counters once; per-event updates are then
    // plain array indexing (no per-write string construction).
    sSlotWrites_ = stats_.intern("ftl.slotWrites");
    sPageReads_ = stats_.intern("ftl.pageReads");
    for (std::size_t c = 0; c < kIoCauseCount; ++c) {
        const char *cause = ioCauseName(static_cast<IoCause>(c));
        sSlotWritesBy_[c] =
            stats_.intern(std::string("ftl.slotWrites.") + cause);
        sPageReadsBy_[c] =
            stats_.intern(std::string("ftl.pageReads.") + cause);
    }
    sCacheHits_ = stats_.intern("ftl.cacheHits");
    sMapCacheHits_ = stats_.intern("ftl.mapCacheHits");
    sMapCacheMisses_ = stats_.intern("ftl.mapCacheMisses");
    sHostReadSectors_ = stats_.intern("ftl.hostReadSectors");
    sHostWriteSectors_ = stats_.intern("ftl.hostWriteSectors");
    sRmwReads_ = stats_.intern("ftl.rmwReads");
    sRemaps_ = stats_.intern("ftl.remaps");
    sInvalidatedSlots_ = stats_.intern("ftl.invalidatedSlots");
    sTrimmedUnits_ = stats_.intern("ftl.trimmedUnits");
    sGcPageReads_ = stats_.intern("gc.pageReads");
    sGcMigratedSlots_ = stats_.intern("gc.migratedSlots");

    obs::nameLane(obs::Cat::Ftl, kFtlLane, "ftl");
    for (std::uint32_t d = 0; d < bm_.dieCount(); ++d) {
        obs::nameLane(obs::Cat::Ftl, kFtlLane + 1 + d,
                      "ftl-die" + std::to_string(d));
    }
}

SlotId
Ftl::slotOf(Ppn ppn, std::uint32_t idx) const
{
    return ppn * slotsPerPage_ + idx;
}

Pbn
Ftl::blockOfSlot(SlotId slot) const
{
    return pageOfSlot(slot) / nand_.config().pagesPerBlock;
}

Ppn
Ftl::pageOfSlot(SlotId slot) const
{
    return slot / slotsPerPage_;
}

Tick
Ftl::mapAccess(Lpn lpn, Tick earliest)
{
    if (mapSegCapacity_ == 0)
        return earliest;
    const std::uint64_t seg = lpn / cfg_.mapEntriesPerFetch;
    if (mapCache_.touch(seg)) {
        stats_.add(sMapCacheHits_);
        return earliest;
    }
    stats_.add(sMapCacheMisses_);
    mapCache_.insert(seg);
    // Fetch the segment's translation page from flash; the die is
    // determined by where the map stream last persisted it — model
    // as a hash spread over the array.
    const auto die = std::uint32_t(mix64(seg) %
                                   nand_.config().dieCount());
    // The aux read's NAND occupancy is map-fetch time from the op's
    // point of view.
    obs::AttrStageScope attr_map(obs::Stage::FtlMap);
    return nand_.chargeAuxRead(die, earliest);
}

Tick
Ftl::mapAccessRange(Lpn first, Lpn last, Tick earliest)
{
    Tick done = earliest;
    for (Lpn u = first; u <= last; ++u)
        done = std::max(done, mapAccess(u, earliest));
    return done;
}

bool
Ftl::isCached(Ppn ppn) const
{
    return dataCache_.contains(ppn);
}

void
Ftl::cacheInsert(Ppn ppn)
{
    dataCache_.insert(ppn);
}

void
Ftl::cacheEvict(Ppn ppn)
{
    dataCache_.erase(ppn);
}

bool
Ftl::isBuffered(SlotId slot) const
{
    const Ppn page = pageOfSlot(slot);
    for (const OpenPage &op : open_) {
        if (op.ppn == page)
            return true;
    }
    return false;
}

void
Ftl::programOpenPage(Stream stream, std::uint32_t die, Tick earliest)
{
    OpenPage &op = open_[std::size_t(std::uint32_t(stream)) *
                             bm_.dieCount() +
                         die];
    assert(op.ppn != kInvalidAddr);
    const Ppn ppn = op.ppn;

    // The page's slots already hold what it programs (the image).
    pageSeq_[ppn] = nextProgramSeq_++;
    const NandResult done = nand_.program(ppn, earliest);
    // Request-to-completion view of sealing the open page (the die
    // lanes in Cat::Nand show the physical occupancy).
    obs::span(obs::Cat::Ftl, kFtlLane + 1 + die, "ftl.program",
              earliest, done.tick, {{"ppn", ppn}});
    if (onProgram_)
        onProgram_(done.tick);
    op.ppn = kInvalidAddr;
    op.nextSlot = 0;

    if (!done.ok()) {
        // tPROG failure. The page's data still sits in its slots,
        // the SPOR-protected buffer, for the rescue below; sequence
        // 0 marks the consumed page unreadable, and the whole block
        // leaves circulation.
        pageSeq_[ppn] = 0;
        stats_.add("ftl.programFails");
        handleProgramFail(ppn, done.tick);
        return;
    }
    cacheInsert(ppn);

    const NandConfig &nc = nand_.config();
    if (ppn % nc.pagesPerBlock == nc.pagesPerBlock - 1)
        bm_.closeActive(stream, die);
}

void
Ftl::handleProgramFail(Ppn failed_ppn, Tick now)
{
    const NandConfig &nc = nand_.config();
    const Pbn bad = failed_ppn / nc.pagesPerBlock;
    // Rescue migration is reclaim work on the op's critical path.
    obs::AttrStageScope attr_gc(obs::Stage::GcStall);
    badBlock_[bad] = 1;
    // Retire before migrating: the block must be out of the free
    // pool and detached from its stream before allocateSlot runs, or
    // migration could land new data back in it.
    bm_.retire(bad, nand_.eraseCount(bad));
    stats_.add("ftl.retiredBlocks");
    obs::instant(obs::Cat::Ftl, kFtlLane, "ftl.badBlock", now,
                 {{"pbn", bad}, {"ppn", failed_ppn}});

    // Rescue every live slot of the retired block. The slots still
    // hold what was (or was about to be) programmed, so the rewrite
    // sources from the SPOR-protected buffer; pages other than the
    // failed one charge a NAND read like GC migration. A nested
    // program failure during migration retires another block and
    // terminates the same way.
    const Ppn first = layout_.firstPpnOfBlock(bad);
    Tick last_read = now;
    for (std::uint32_t p = 0; p < nc.pagesPerBlock; ++p) {
        const Ppn ppn = first + p;
        bool any_valid = false;
        for (std::uint32_t s = 0; s < slotsPerPage_; ++s) {
            if (slotInfo_[slotOf(ppn, s)].nrefs > 0) {
                any_valid = true;
                break;
            }
        }
        if (!any_valid)
            continue;
        if (ppn != failed_ppn && nand_.isProgrammed(ppn) &&
            !isCached(ppn)) {
            const NandResult r = nand_.read(ppn, now);
            last_read = std::max(last_read, r.tick);
            if (!r.ok())
                stats_.add("ftl.internalReadErrors");
            stats_.add(sGcPageReads_);
        }
        for (std::uint32_t s = 0; s < slotsPerPage_; ++s) {
            const SlotId old_slot = slotOf(ppn, s);
            if (slotInfo_[old_slot].nrefs == 0)
                continue;
            std::vector<SectorData> payload(sectorsPerUnit_);
            for (std::uint32_t k = 0; k < sectorsPerUnit_; ++k)
                payload[k] = sectors_[old_slot * sectorsPerUnit_ + k];
            const OobEntry oob = slotOob_[old_slot];
            std::vector<Lpn> refs;
            refs.reserve(slotInfo_[old_slot].nrefs);
            forEachRef(old_slot,
                       [&refs](Lpn lpn) { refs.push_back(lpn); });

            const SlotId ns = allocateSlot(Stream::Gc, last_read);
            for (std::uint32_t k = 0; k < sectorsPerUnit_; ++k)
                sectors_[ns * sectorsPerUnit_ + k] = payload[k];
            slotOob_[ns] = oob;
            for (Lpn lpn : refs) {
                map_[lpn] = ns;
                addRef(ns, lpn);
                touchMapEntry(last_read);
            }
            slotInfo_[old_slot] = SlotInfo{};
            refOverflow_.erase(old_slot);
            bm_.invalidate(bad);
            stats_.add("ftl.badBlockMigratedSlots");
            stats_.add(sSlotWrites_);
            stats_.add(sSlotWritesBy_[std::size_t(IoCause::Gc)]);
        }
    }
    assert(bm_.validCount(bad) == 0);
    for (std::uint32_t p = 0; p < nc.pagesPerBlock; ++p)
        cacheEvict(first + p);
}

SlotId
Ftl::allocateSlot(Stream stream, Tick earliest)
{
    const std::uint32_t dies = bm_.dieCount();
    // Round-robin starting die (superblock-style write striping);
    // fall over to the next die when one runs out of blocks.
    const std::uint32_t start = rot_[std::uint32_t(stream)]++ % dies;
    for (std::uint32_t probe = 0; probe < dies; ++probe) {
        const std::uint32_t die = (start + probe) % dies;
        OpenPage &op =
            open_[std::size_t(std::uint32_t(stream)) * dies + die];
        if (op.ppn != kInvalidAddr && op.nextSlot == slotsPerPage_)
            programOpenPage(stream, die, earliest); // resets op
        if (op.ppn == kInvalidAddr) {
            Pbn active = bm_.activeBlock(stream, die);
            if (active == kInvalidAddr) {
                maybeGc(earliest);
                active = bm_.allocate(stream, die);
                if (active == kInvalidAddr)
                    continue; // this die is out of free blocks
            }
            op.ppn = layout_.firstPpnOfBlock(active) +
                     nand_.nextProgramPage(active);
            op.nextSlot = 0;
        }
        const SlotId slot = slotOf(op.ppn, op.nextSlot);
        ++op.nextSlot;
        // Fresh slot: wipe what it held before the erase.
        slotInfo_[slot] = SlotInfo{};
        refOverflow_.erase(slot);
        slotOob_[slot] = OobEntry{};
        for (std::uint32_t k = 0; k < sectorsPerUnit_; ++k)
            sectors_[slot * sectorsPerUnit_ + k] = SectorData{};
        return slot;
    }
    throw std::runtime_error("FTL: out of flash blocks");
}

void
Ftl::addRef(SlotId slot, Lpn lpn)
{
    SlotInfo &info = slotInfo_[slot];
    if (info.nrefs < kInlineRefs)
        info.refs[info.nrefs] = lpn;
    else
        refOverflow_[slot].push_back(lpn);
    ++info.nrefs;
    if (info.nrefs == 1) {
        bm_.addValid(blockOfSlot(slot));
        info.everValid = true;
    }
}

void
Ftl::deref(SlotId slot, Lpn lpn)
{
    SlotInfo &info = slotInfo_[slot];
    assert(info.nrefs > 0);
    const std::uint16_t inline_n =
        std::min<std::uint16_t>(info.nrefs, kInlineRefs);
    std::uint16_t i = 0;
    while (i < inline_n && info.refs[i] != lpn)
        ++i;
    if (i < inline_n) {
        // Backfill the inline hole, preferring an overflow entry.
        if (info.nrefs > kInlineRefs) {
            auto it = refOverflow_.find(slot);
            info.refs[i] = it->second.back();
            it->second.pop_back();
            if (it->second.empty())
                refOverflow_.erase(it);
        } else {
            info.refs[i] = info.refs[inline_n - 1];
            info.refs[inline_n - 1] = kInvalidAddr;
        }
    } else {
        auto it = refOverflow_.find(slot);
        assert(it != refOverflow_.end() &&
               "deref of non-referencing LPN");
        auto &v = it->second;
        auto pos = std::find(v.begin(), v.end(), lpn);
        assert(pos != v.end() && "deref of non-referencing LPN");
        *pos = v.back();
        v.pop_back();
        if (v.empty())
            refOverflow_.erase(it);
    }
    --info.nrefs;
    if (info.nrefs == 0) {
        bm_.invalidate(blockOfSlot(slot));
        stats_.add(sInvalidatedSlots_);
    }
}

void
Ftl::unmap(Lpn lpn)
{
    if (map_[lpn] == kInvalidAddr)
        return;
    deref(map_[lpn], lpn);
    map_[lpn] = kInvalidAddr;
}

void
Ftl::mapLpn(Lpn lpn, SlotId slot)
{
    unmap(lpn);
    map_[lpn] = slot;
    addRef(slot, lpn);
}

void
Ftl::touchMapEntry(Tick earliest)
{
    dirtyMapBytes_ += cfg_.mapEntryBytes;
    if (dirtyMapBytes_ < cfg_.mapFlushThresholdBytes)
        return;
    if (inMapFlush_)
        return;
    inMapFlush_ = true;
    // Persist one table page: dead-on-arrival slots in the map stream
    // (superseded table pages are garbage immediately).
    dirtyMapBytes_ = 0;
    for (std::uint32_t s = 0; s < slotsPerPage_; ++s) {
        allocateSlot(Stream::Map, earliest);
        stats_.add(sSlotWrites_);
        stats_.add(
            sSlotWritesBy_[std::size_t(IoCause::MapFlush)]);
    }
    sMapFlushes_.add();
    obs::instant(obs::Cat::Ftl, kFtlLane, "ftl.mapFlush", earliest,
                 {{"slots", slotsPerPage_}});
    inMapFlush_ = false;
}

Tick
Ftl::readSlotPages(const SlotId *slots, std::size_t n, IoCause cause,
                   Tick earliest)
{
    Tick done = earliest;
    std::vector<Ppn> &pages = readPages_;
    pages.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (isBuffered(slots[i]))
            continue;
        pages.push_back(pageOfSlot(slots[i]));
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    for (Ppn p : pages) {
        if (isCached(p)) {
            cacheInsert(p); // LRU touch
            stats_.add(sCacheHits_);
            continue;
        }
        const NandResult r = nand_.read(p, earliest);
        done = std::max(done, r.tick);
        if (r.ok()) {
            cacheInsert(p);
        } else {
            // Not cached on purpose: a front-end retry must re-read
            // the NAND (and may then succeed), not hit a cache
            // entry that was never filled.
            ++pendingReadErrors_;
            stats_.add("ftl.uncorrectableReads");
        }
        stats_.add(sPageReadsBy_[std::size_t(cause)]);
        stats_.add(sPageReads_);
    }
    return done;
}

Tick
Ftl::readSectors(Lba lba, std::uint32_t nsect, IoCause cause,
                 Tick earliest)
{
    assert(lba + nsect <= logicalSectors());
    stats_.add(sHostReadSectors_, nsect);
    std::vector<SlotId> &slots = readSlots_;
    slots.clear();
    const Lpn first = lba / sectorsPerUnit_;
    const Lpn last = (lba + nsect - 1) / sectorsPerUnit_;
    earliest = mapAccessRange(first, last, earliest);
    for (Lpn u = first; u <= last; ++u) {
        if (map_[u] != kInvalidAddr)
            slots.push_back(map_[u]);
    }
    return readSlotPages(slots.data(), slots.size(), cause, earliest);
}

Tick
Ftl::writeSectors(Lba lba, std::uint32_t nsect, const SectorData *data,
                  IoCause cause, Tick earliest, std::uint64_t version,
                  const OobEntry *unit_oob)
{
    assert(nsect > 0);
    assert(lba + nsect <= logicalSectors());
    stats_.add(sHostWriteSectors_, nsect);
    const Stream stream = streamFor(cause);
    const Lpn first = lba / sectorsPerUnit_;
    const Lpn last = (lba + nsect - 1) / sectorsPerUnit_;
    earliest = mapAccessRange(first, last, earliest);
    Tick ack = earliest;
    for (Lpn u = first; u <= last; ++u) {
        const Lba unit_start = u * sectorsPerUnit_;
        const std::uint32_t s0 = std::uint32_t(
            std::max<Lba>(lba, unit_start) - unit_start);
        const std::uint32_t s1 = std::uint32_t(
            std::min<Lba>(lba + nsect, unit_start + sectorsPerUnit_) -
            unit_start);
        const bool partial = (s1 - s0) != sectorsPerUnit_;

        // Read-modify-write: fetch the rest of the unit first.
        std::vector<SectorData> &merged = writeUnit_;
        merged.assign(sectorsPerUnit_, SectorData{});
        const SlotId old_slot = map_[u];
        if (partial && old_slot != kInvalidAddr) {
            ack = std::max(ack, readSlotPages(&old_slot, 1, cause,
                                              earliest));
            stats_.add(sRmwReads_);
            for (std::uint32_t k = 0; k < sectorsPerUnit_; ++k)
                merged[k] = sectors_[old_slot * sectorsPerUnit_ + k];
        }
        for (std::uint32_t k = s0; k < s1; ++k)
            merged[k] = data[(unit_start + k) - lba];

        const SlotId slot = allocateSlot(stream, earliest);
        for (std::uint32_t k = 0; k < sectorsPerUnit_; ++k)
            sectors_[slot * sectorsPerUnit_ + k] = merged[k];
        if (unit_oob != nullptr) {
            slotOob_[slot] = unit_oob[u - first];
            slotOob_[slot].lpn = u;
        } else {
            slotOob_[slot] = OobEntry{u, version, kInvalidAddr};
        }
        slotOob_[slot].writeSeq = nextWriteSeq_++;
        mapLpn(u, slot);
        touchMapEntry(earliest);
        stats_.add(sSlotWrites_);
        stats_.add(sSlotWritesBy_[std::size_t(cause)]);
    }
    return ack;
}

void
Ftl::peekSectors(Lba lba, std::uint32_t nsect, SectorData *out) const
{
    assert(lba + nsect <= logicalSectors());
    for (std::uint32_t i = 0; i < nsect; ++i) {
        const Lba cur = lba + i;
        const Lpn u = cur / sectorsPerUnit_;
        const SlotId slot = map_[u];
        if (slot == kInvalidAddr) {
            out[i] = SectorData{};
        } else {
            out[i] = sectors_[slot * sectorsPerUnit_ +
                              cur % sectorsPerUnit_];
        }
    }
}

void
Ftl::trimSectors(Lba lba, std::uint64_t nsect)
{
    const Lpn first = divCeil(lba, sectorsPerUnit_);
    const Lpn last_excl = (lba + nsect) / sectorsPerUnit_;
    for (Lpn u = first; u < last_excl; ++u) {
        if (map_[u] == kInvalidAddr)
            continue;
        unmap(u);
        touchMapEntry(0);
        stats_.add(sTrimmedUnits_);
    }
}

bool
Ftl::isUnitAligned(Lba lba, std::uint32_t nsect) const
{
    return lba % sectorsPerUnit_ == 0 && nsect % sectorsPerUnit_ == 0;
}

bool
Ftl::isMapped(Lpn lpn) const
{
    return lpn < map_.size() && map_[lpn] != kInvalidAddr;
}

Tick
Ftl::remapUnit(Lpn src, Lpn dst, Tick earliest)
{
    assert(isMapped(src));
    earliest = std::max(mapAccess(src, earliest),
                        mapAccess(dst, earliest));
    const SlotId slot = map_[src];
    if (map_[dst] == slot)
        return earliest;
    unmap(dst);
    map_[dst] = slot;
    addRef(slot, dst);
    touchMapEntry(earliest);
    stats_.add(sRemaps_);
    obs::instant(obs::Cat::Ftl, kFtlLane, "ftl.remap", earliest,
                 {{"src", src}, {"dst", dst}, {"slot", slot}});
    return earliest;
}

Tick
Ftl::copySectors(Lba src, Lba dst, std::uint32_t nsect, IoCause cause,
                 Tick earliest)
{
    std::vector<SectorData> buf(nsect);
    peekSectors(src, nsect, buf.data());

    std::vector<SlotId> slots;
    const Lpn first = src / sectorsPerUnit_;
    const Lpn last = (src + nsect - 1) / sectorsPerUnit_;
    for (Lpn u = first; u <= last; ++u) {
        if (map_[u] != kInvalidAddr)
            slots.push_back(map_[u]);
    }
    const Tick fetched =
        readSlotPages(slots.data(), slots.size(), cause, earliest);
    return writeSectors(dst, nsect, buf.data(), cause, fetched);
}

void
Ftl::maybeGc(Tick earliest)
{
    if (inGc_ || bm_.freeBlocks() >= cfg_.gcLowWaterBlocks)
        return;
    inGc_ = true;
    std::uint32_t guard = 0;
    const auto limit = std::uint32_t(nand_.config().totalBlocks());
    while (bm_.freeBlocks() < cfg_.gcHighWaterBlocks &&
           guard++ < limit) {
        if (!gcOnce(earliest, false))
            break;
    }
    inGc_ = false;
}

std::uint32_t
Ftl::runBackgroundGc(Tick now)
{
    if (inGc_)
        return 0;
    std::uint32_t reclaimed = 0;
    inGc_ = true;
    while (bm_.freeBlocks() < cfg_.gcBackgroundBlocks) {
        if (!gcOnce(now, true))
            break;
        ++reclaimed;
    }
    inGc_ = false;
    // Idle time is also when static wear leveling runs.
    wearLevelOnce(now);
    return reclaimed;
}

bool
Ftl::gcOnce(Tick earliest, bool background)
{
    const Pbn victim = bm_.pickGcVictim();
    if (victim == kInvalidAddr)
        return false;
    const std::uint32_t slots_per_block =
        nand_.config().pagesPerBlock * slotsPerPage_;
    // Refuse to "collect" a fully valid block: it frees nothing.
    if (bm_.validCount(victim) >= slots_per_block)
        return false;

    sGcInvocations_.add();
    (background ? sGcBackground_ : sGcInline_).add();
    // Inline GC inside a host command is a stall on that op's path;
    // background GC runs with no active command and marks nothing.
    obs::AttrStageScope attr_gc(obs::Stage::GcStall);
    obs::instant(obs::Cat::Ftl, kFtlLane, "gc.victim", earliest,
                 {{"victim", victim},
                  {"valid", bm_.validCount(victim)},
                  {"background", background ? 1u : 0u}});
    reclaimBlock(victim, earliest);
    return true;
}

void
Ftl::reclaimBlock(Pbn victim, Tick earliest)
{
    const Ppn first = layout_.firstPpnOfBlock(victim);
    Tick last_read = earliest;
    for (std::uint32_t p = 0; p < nand_.config().pagesPerBlock; ++p) {
        const Ppn ppn = first + p;
        if (!nand_.isProgrammed(ppn))
            continue;
        bool any_valid = false;
        for (std::uint32_t s = 0; s < slotsPerPage_; ++s) {
            if (slotInfo_[slotOf(ppn, s)].nrefs > 0) {
                any_valid = true;
                break;
            }
        }
        if (!any_valid)
            continue;
        if (!isCached(ppn)) {
            // Device-internal read: an uncorrectable result is
            // recovered from the slots (counted, not surfaced).
            const NandResult r = nand_.read(ppn, earliest);
            last_read = std::max(last_read, r.tick);
            if (!r.ok())
                stats_.add("ftl.internalReadErrors");
            stats_.add(sGcPageReads_);
        }
        for (std::uint32_t s = 0; s < slotsPerPage_; ++s) {
            const SlotId old_slot = slotOf(ppn, s);
            if (slotInfo_[old_slot].nrefs == 0)
                continue;
            // Snapshot payload + references before allocateSlot can
            // wipe slots.
            std::vector<SectorData> &payload = gcPayload_;
            payload.assign(sectors_.begin() + old_slot * sectorsPerUnit_,
                           sectors_.begin() +
                               (old_slot + 1) * sectorsPerUnit_);
            const OobEntry oob = slotOob_[old_slot];
            std::vector<Lpn> &refs = gcRefs_;
            refs.clear();
            forEachRef(old_slot,
                       [&refs](Lpn lpn) { refs.push_back(lpn); });

            const SlotId ns = allocateSlot(Stream::Gc, last_read);
            for (std::uint32_t k = 0; k < sectorsPerUnit_; ++k)
                sectors_[ns * sectorsPerUnit_ + k] = payload[k];
            slotOob_[ns] = oob;
            for (Lpn lpn : refs) {
                map_[lpn] = ns;
                addRef(ns, lpn);
                touchMapEntry(last_read);
            }
            // Retire the old copy.
            slotInfo_[old_slot] = SlotInfo{};
            refOverflow_.erase(old_slot);
            bm_.invalidate(victim);
            stats_.add(sGcMigratedSlots_);
            stats_.add(sSlotWrites_);
            stats_.add(sSlotWritesBy_[std::size_t(IoCause::Gc)]);
        }
    }
    assert(bm_.validCount(victim) == 0);
    // Valid data now sits in the SPOR-protected GC open page, so the
    // erase may proceed as soon as the reads are done.
    const NandResult erased = nand_.eraseBlock(victim, last_read);
    obs::span(obs::Cat::Ftl, kFtlLane, "ftl.gc", earliest,
              erased.tick, {{"victim", victim}});
    for (std::uint32_t p = 0; p < nand_.config().pagesPerBlock; ++p)
        cacheEvict(first + p);
    sGcErases_.add();
    if (erased.ok()) {
        bm_.release(victim, nand_.eraseCount(victim));
    } else {
        // tBERS failure: the stale contents stay in the cells and
        // the block leaves circulation. Every live slot was already
        // migrated, so no data consequence — the stale copies are
        // superseded by the migrated ones (newer program sequence)
        // should a power-loss rebuild ever scan them.
        badBlock_[victim] = 1;
        bm_.retire(victim, nand_.eraseCount(victim));
        stats_.add("ftl.retiredBlocks");
        obs::instant(obs::Cat::Ftl, kFtlLane, "ftl.badBlock",
                     erased.tick, {{"pbn", victim}});
    }
}

bool
Ftl::wearLevelOnce(Tick now)
{
    if (cfg_.wearLevelThreshold == 0 || inGc_)
        return false;
    // Find the coldest closed block and the overall wear spread.
    Pbn coldest = kInvalidAddr;
    std::uint32_t min_erase = ~std::uint32_t{0};
    const std::uint64_t total = nand_.config().totalBlocks();
    for (Pbn b = 0; b < total; ++b) {
        if (bm_.state(b) != BlockManager::State::Closed)
            continue;
        const std::uint32_t ec = nand_.eraseCount(b);
        if (ec < min_erase) {
            min_erase = ec;
            coldest = b;
        }
    }
    if (coldest == kInvalidAddr)
        return false;
    if (nand_.maxEraseCount() - min_erase < cfg_.wearLevelThreshold)
        return false;
    // Relocating the cold data frees the least-worn block back into
    // the (wear-ordered) pool, where it absorbs future writes.
    inGc_ = true;
    stats_.add("wl.migrations");
    reclaimBlock(coldest, now);
    inGc_ = false;
    return true;
}

void
Ftl::flushOpenPages(Tick now)
{
    // A failed program rescues its slots into fresh GC pages, which
    // may open on a die this sweep has passed: sweep until none is
    // left open.
    const std::uint32_t dies = bm_.dieCount();
    for (bool programmed = true; programmed;) {
        programmed = false;
        for (std::uint32_t s = 0; s < kStreamCount; ++s) {
            for (std::uint32_t d = 0; d < dies; ++d) {
                if (open_[std::size_t(s) * dies + d].ppn !=
                    kInvalidAddr) {
                    programOpenPage(Stream(s), d, now);
                    programmed = true;
                }
            }
        }
    }
}

Ftl::RebuildReport
Ftl::rebuildFromPowerLoss()
{
    RebuildReport report;
    const NandConfig &nc = nand_.config();

    // 1. All RAM state is gone. Unprogrammed open pages are lost.
    for (OpenPage &op : open_)
        op = OpenPage{};
    std::fill(map_.begin(), map_.end(), kInvalidAddr);
    slotInfo_.assign(slotInfo_.size(), SlotInfo{});
    refOverflow_.clear();
    dataCache_.clear();
    dirtyMapBytes_ = 0;
    // Suppress map-flush writes while replaying OOB.
    inMapFlush_ = true;

    // 2. Block states from the surviving flash facts, plus the
    //    firmware's persistent defect list (bad blocks stay bad).
    std::vector<std::uint32_t> erase_counts(nc.totalBlocks());
    std::vector<bool> closed(nc.totalBlocks());
    std::vector<bool> bad(nc.totalBlocks());
    for (Pbn b = 0; b < nc.totalBlocks(); ++b) {
        erase_counts[b] = nand_.eraseCount(b);
        closed[b] = nand_.nextProgramPage(b) > 0;
        bad[b] = badBlock_[b] != 0;
    }
    bm_.resetForRebuild(erase_counts, closed, bad);

    // 3. Read the image in place and collect every readable slot
    //    with its replay rank: host-write order first (program order
    //    lies across the power cut — the capacitor flush seals
    //    per-die open pages in die order, not write order), program
    //    order second so that after an erase failure the migrated
    //    copy of a write beats its stale original.
    struct Replay
    {
        std::uint64_t writeSeq;
        std::uint64_t pageSeq;
        SlotId slot;

        bool
        operator<(const Replay &o) const
        {
            if (writeSeq != o.writeSeq)
                return writeSeq < o.writeSeq;
            if (pageSeq != o.pageSeq)
                return pageSeq < o.pageSeq;
            return slot < o.slot;
        }
    };
    std::vector<Replay> ordered;
    for (Ppn p = 0; p < nc.totalPages(); ++p) {
        const SlotId first = slotOf(p, 0);
        if (!nand_.isProgrammed(p) || pageSeq_[p] == 0) {
            // Open pages lost their buffer with the power, and a
            // failed program left nothing readable: the slots read as
            // empty and contribute no mappings.
            std::fill_n(slotOob_.begin() + first, slotsPerPage_,
                        OobEntry{});
            std::fill_n(sectors_.begin() + first * sectorsPerUnit_,
                        slotsPerPage_ * sectorsPerUnit_, SectorData{});
            pageSeq_[p] = 0;
            continue;
        }
        for (SlotId slot = first; slot < first + slotsPerPage_;
             ++slot) {
            if (slotOob_[slot].lpn != kInvalidAddr) {
                ordered.push_back(
                    Replay{slotOob_[slot].writeSeq, pageSeq_[p], slot});
            }
        }
        nextProgramSeq_ = std::max(nextProgramSeq_, pageSeq_[p] + 1);
    }
    std::sort(ordered.begin(), ordered.end());

    // 4. Replay write-origin mappings in host-write order (newest
    //    version of an LPN wins) and collect checkpoint-target
    //    candidates from journal-slot annotations.
    struct Candidate
    {
        std::uint64_t version = 0;
        SlotId slot = kInvalidAddr;
    };
    std::unordered_map<Lpn, Candidate> targets;
    for (const Replay &r : ordered) {
        const OobEntry &oob = slotOob_[r.slot];
        mapLpn(oob.lpn, r.slot);
        ++report.slotsRecovered;
        nextWriteSeq_ = std::max(nextWriteSeq_, oob.writeSeq + 1);
        if (oob.targetLpn != kInvalidAddr &&
            oob.targetLpn != oob.lpn) {
            Candidate &c = targets[oob.targetLpn];
            if (oob.version >= c.version) {
                c.version = oob.version;
                c.slot = r.slot;
            }
        }
    }

    // 5. Re-apply checkpoint remaps: a journal slot annotated with a
    //    target beats whatever the data area holds if it is newer.
    //    (A slot superseded at its *origin* LPN can still carry the
    //    newest copy of its target, so zero-reference slots are
    //    revived here.)
    for (const auto &[target, cand] : targets) {
        if (cand.slot == kInvalidAddr)
            continue;
        const SlotId current = map_[target];
        const std::uint64_t current_version =
            current == kInvalidAddr ? 0 : slotOob_[current].version;
        if (cand.version < current_version)
            continue;
        unmap(target);
        map_[target] = cand.slot;
        addRef(cand.slot, target);
        ++report.remapsRecovered;
    }

    inMapFlush_ = false;
    stats_.add("ftl.powerLossRebuilds");
    stats_.add("ftl.rebuiltSlots", report.slotsRecovered);
    stats_.add("ftl.rebuiltRemaps", report.remapsRecovered);
    return report;
}

void
Ftl::checkInvariants() const
{
    auto fail = [](const std::string &what) {
        throw std::logic_error("FTL invariant violated: " + what);
    };
    // Forward map -> slot references.
    for (Lpn lpn = 0; lpn < map_.size(); ++lpn) {
        const SlotId slot = map_[lpn];
        if (slot == kInvalidAddr)
            continue;
        bool listed = false;
        forEachRef(slot,
                   [&](Lpn ref) { listed |= ref == lpn; });
        if (!listed) {
            fail("LPN " + std::to_string(lpn) +
                 " maps to a slot that does not reference it");
        }
    }
    // Slot references -> forward map, and per-block valid counts.
    std::vector<std::uint32_t> live(
        nand_.config().totalBlocks(), 0);
    std::uint64_t total_live = 0;
    for (SlotId slot = 0; slot < slotInfo_.size(); ++slot) {
        const SlotInfo &info = slotInfo_[slot];
        if (info.nrefs == 0)
            continue;
        std::uint16_t counted = 0;
        forEachRef(slot, [&](Lpn lpn) {
            ++counted;
            if (lpn >= map_.size() || map_[lpn] != slot) {
                fail("slot " + std::to_string(slot) +
                     " references LPN " + std::to_string(lpn) +
                     " which does not map back");
            }
        });
        if (counted != info.nrefs)
            fail("slot " + std::to_string(slot) +
                 " reference count mismatch");
        ++live[blockOfSlot(slot)];
        ++total_live;
    }
    for (Pbn b = 0; b < live.size(); ++b) {
        if (bm_.validCount(b) != live[b]) {
            fail("block " + std::to_string(b) + " valid count " +
                 std::to_string(bm_.validCount(b)) + " != live " +
                 std::to_string(live[b]));
        }
        if (bm_.state(b) == BlockManager::State::Free && live[b] != 0)
            fail("free block " + std::to_string(b) +
                 " has live slots");
    }
    if (bm_.totalValid() != total_live)
        fail("total valid mismatch");
}

} // namespace checkin
