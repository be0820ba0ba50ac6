#include "ssd/isce.h"

#include <algorithm>

namespace checkin {

bool
Isce::canRemap(const CowPair &pair) const
{
    if (pair.forceCopy || pair.srcChunkShift != 0)
        return false;
    const std::uint32_t spu = ftl_.sectorsPerUnit();
    const std::uint32_t chunks_per_unit = spu * kChunksPerSector;
    if (pair.src % spu != 0 || pair.dst % spu != 0 ||
        pair.chunks % chunks_per_unit != 0) {
        return false;
    }
    const Lpn first = pair.src / spu;
    const Lpn units = pair.chunks / chunks_per_unit;
    for (Lpn u = 0; u < units; ++u) {
        if (!ftl_.isMapped(first + u))
            return false;
    }
    return true;
}

Tick
Isce::copyRecord(const CowPair &pair, Tick start)
{
    // Chunk-exact gather: read the source pages, extract the record's
    // chunk run, and rewrite it at the destination (chunk 0 aligned).
    const std::uint32_t src_sectors = pair.srcSectors();
    const std::uint32_t dst_sectors = pair.dstSectors();
    std::vector<SectorData> &src_buf = srcBuf_;
    src_buf.resize(src_sectors);
    ftl_.peekSectors(pair.src, src_sectors, src_buf.data());
    const Tick fetched =
        ftl_.readSectors(pair.src, src_sectors, IoCause::Checkpoint,
                         start);
    std::vector<SectorData> &dst_buf = dstBuf_;
    dst_buf.assign(dst_sectors, SectorData{});
    pair.gather(src_buf.data(), dst_buf.data());
    return ftl_.writeSectors(pair.dst, dst_sectors, dst_buf.data(),
                             IoCause::Checkpoint, fetched,
                             pair.version);
}

Tick
Isce::bufferSmallRecord(const CowPair &pair, Tick start)
{
    // Gather the record's chunks from the journal into device DRAM.
    const std::uint32_t src_sectors = pair.srcSectors();
    std::vector<SectorData> &src_buf = srcBuf_;
    src_buf.resize(src_sectors);
    ftl_.peekSectors(pair.src, src_sectors, src_buf.data());
    // Sources may themselves sit in the buffer of a previous round
    // (they do not: sources are journal LBAs, never buffered).
    const Tick fetched = ftl_.readSectors(
        pair.src, src_sectors, IoCause::Checkpoint, start);
    const std::uint32_t dst_sectors = pair.dstSectors();
    std::vector<SectorData> &dst_buf = dstBuf_;
    dst_buf.assign(dst_sectors, SectorData{});
    pair.gather(src_buf.data(), dst_buf.data());
    for (std::uint32_t s = 0; s < dst_sectors; ++s) {
        // Replacing an existing entry elides the previous version's
        // flash write entirely.
        const BufferedSector entry{dst_buf[s], pair.version};
        auto it = smallBuf_.find(pair.dst + s);
        if (it != smallBuf_.end()) {
            it->second = entry;
            sElided_.add();
        } else {
            smallBuf_.emplace(pair.dst + s, entry);
        }
    }
    sBuffered_.add();
    if (obs::traceOn()) {
        obs::instant(obs::Cat::Ssd, kIsceLane, "isce.buffer",
                     fetched, {{"chunks", pair.chunks}});
        obs::counterSample(obs::Cat::Ssd, kIsceLane, "isce.smallBuf",
                           fetched, smallBuf_.size());
    }
    return fetched;
}

Tick
Isce::flushSmallBuffer(Tick start)
{
    // Aggregate: coalesce contiguous sectors into single writes so a
    // multi-sector record (or adjacent records) costs one pass
    // through the FTL instead of per-sector read-modify-writes.
    std::vector<Lba> &lbas = flushLbas_;
    lbas.clear();
    for (const auto &[lba, data] : smallBuf_)
        lbas.push_back(lba);
    std::sort(lbas.begin(), lbas.end());

    Tick done = start;
    std::size_t i = 0;
    const std::uint32_t spu = ftl_.sectorsPerUnit();
    while (i < lbas.size()) {
        std::size_t j = i + 1;
        while (j < lbas.size() && lbas[j] == lbas[j - 1] + 1)
            ++j;
        std::vector<SectorData> &run = flushRun_;
        run.clear();
        std::uint64_t run_version = 0;
        for (std::size_t k = i; k < j; ++k) {
            const BufferedSector &b = smallBuf_.at(lbas[k]);
            run.push_back(b.data);
            run_version = std::max(run_version, b.version);
        }
        // Per-unit OOB carries the buffered versions so a power-loss
        // rebuild ranks these writes correctly against journal
        // annotations.
        const Lpn first_unit = lbas[i] / spu;
        const std::uint64_t units =
            (lbas[i] + run.size() - 1) / spu - first_unit + 1;
        std::vector<OobEntry> &unit_oob = flushOob_;
        unit_oob.assign(units, OobEntry{});
        for (std::size_t k = i; k < j; ++k) {
            const std::uint64_t u = lbas[k] / spu - first_unit;
            unit_oob[u].version = std::max(
                unit_oob[u].version, smallBuf_.at(lbas[k]).version);
        }
        done = std::max(
            done, ftl_.writeSectors(lbas[i],
                                    std::uint32_t(run.size()),
                                    run.data(), IoCause::Checkpoint,
                                    start, run_version,
                                    unit_oob.data()));
        i = j;
    }
    stats_.add("isce.smallBufferFlushes");
    stats_.add("isce.flushedSmallSectors", smallBuf_.size());
    if (obs::traceOn()) {
        obs::span(obs::Cat::Ssd, kIsceLane, "isce.flush", start, done,
                  {{"sectors", smallBuf_.size()}});
        obs::counterSample(obs::Cat::Ssd, kIsceLane, "isce.smallBuf",
                           done, 0);
    }
    smallBuf_.clear();
    return done;
}

bool
Isce::overlay(Lba lba, SectorData *out) const
{
    const auto it = smallBuf_.find(lba);
    if (it == smallBuf_.end())
        return false;
    *out = it->second.data;
    return true;
}

void
Isce::invalidateRange(Lba lba, std::uint64_t nsect)
{
    if (smallBuf_.empty())
        return;
    // For large ranges (trims) iterating the buffer is cheaper.
    if (nsect > smallBuf_.size() * 4) {
        for (auto it = smallBuf_.begin(); it != smallBuf_.end();) {
            if (it->first >= lba && it->first < lba + nsect)
                it = smallBuf_.erase(it);
            else
                ++it;
        }
        return;
    }
    for (std::uint64_t s = 0; s < nsect; ++s)
        smallBuf_.erase(lba + s);
}

Tick
Isce::checkpoint(const std::vector<CowPair> &pairs, Tick start,
                 bool remap_allowed)
{
    Tick done = start;
    const std::uint32_t spu = ftl_.sectorsPerUnit();
    const std::uint32_t chunks_per_unit = spu * kChunksPerSector;
    for (const CowPair &pair : pairs) {
        // Per-entry embedded-CPU decode/lookup time (Algorithm 1's
        // JMT walk), serialized on the controller core.
        const Tick t = cpu_.reserve(start, cfg_.remapEntryTime);
        if (remap_allowed && canRemap(pair)) {
            // Newer than anything buffered for this destination.
            invalidateRange(pair.dst, pair.dstSectors());
            const Lpn src0 = pair.src / spu;
            const Lpn dst0 = pair.dst / spu;
            const Lpn units = pair.chunks / chunks_per_unit;
            Tick t_pair = t;
            for (Lpn u = 0; u < units; ++u) {
                t_pair = std::max(
                    t_pair, ftl_.remapUnit(src0 + u, dst0 + u, t));
            }
            sRemappedPairs_.add();
            sRemappedUnits_.add(units);
            obs::instant(obs::Cat::Ssd, kIsceLane, "isce.remap", t,
                         {{"units", units}});
            done = std::max(done, t_pair);
        } else if (remap_allowed && pair.forceCopy &&
                   cfg_.smallBufferSectors > 0 &&
                   pair.chunks < chunks_per_unit) {
            // PARTIAL/MERGED record flagged by a sector-aligning
            // engine: defer through the small-copy buffer
            // (paper §III-E). Unaligned raw records (ISC-C) take
            // the immediate copy path below.
            done = std::max(done, bufferSmallRecord(pair, t));
        } else {
            invalidateRange(pair.dst, pair.dstSectors());
            const Tick copied = copyRecord(pair, t);
            obs::span(obs::Cat::Ssd, kIsceLane, "isce.copy", t,
                      copied, {{"chunks", pair.chunks}});
            done = std::max(done, copied);
            sCopiedPairs_.add();
            sCopiedChunks_.add(pair.chunks);
        }
    }
    if (smallBuf_.size() >= cfg_.smallBufferSectors &&
        cfg_.smallBufferSectors > 0) {
        done = std::max(done, flushSmallBuffer(done));
    }
    return done;
}

std::uint32_t
Isce::onLogsDeleted(Tick now)
{
    sLogDeletions_.add();
    // The deallocator only steals the flash array for GC when it is
    // idle (paper §III-F): under load the reclaim is deferred.
    if (ftl_.nand().allIdleAt() > now)
        return 0;
    const std::uint32_t reclaimed = ftl_.runBackgroundGc(now);
    sIdleGcBlocks_.add(reclaimed);
    return reclaimed;
}

} // namespace checkin
