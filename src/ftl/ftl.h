/**
 * @file
 * Sub-page-mapping flash translation layer with CoW remapping.
 *
 * This is the device-side heart of the reproduction: a log-structured
 * FTL whose mapping unit can be smaller than the physical page, with
 * refcounted physical slots so a journal LPN and a data LPN can share
 * one slot after a checkpoint remap (paper §III-D), greedy GC, and
 * batched mapping-table persistence (SPOR-backed).
 */

#ifndef CHECKIN_FTL_FTL_H_
#define CHECKIN_FTL_FTL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ftl/block_manager.h"
#include "ftl/flat_lru.h"
#include "ftl/ftl_config.h"
#include "ftl/ftl_types.h"
#include "nand/nand_flash.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace checkin {

/** 128 B content grain; matches the paper's minimum value bucket. */
inline constexpr std::uint32_t kChunkBytes = 128;
/** Chunks per 512 B host sector. */
inline constexpr std::uint32_t kChunksPerSector = 4;

/**
 * Simulated content of one 512 B host sector — the "bytes on disk".
 *
 * The sector is modeled as four 128 B chunks, each holding an opaque
 * 64-bit token. Journal records are laid down as runs of chunk tokens
 * that *invertibly* encode (key, version, chunk index) — see
 * engine/record.h — so crash recovery can parse the journal area back
 * out of the device exactly like a real engine parses bytes. A zero
 * token is an empty chunk.
 */
struct SectorData
{
    std::array<std::uint64_t, kChunksPerSector> chunks{0, 0, 0, 0};

    bool
    operator==(const SectorData &o) const
    {
        return chunks == o.chunks;
    }
};

/** Log-structured sub-page-mapping FTL over a NandFlash array. */
class Ftl
{
  public:
    /** Observer invoked with the completion tick of every program. */
    using ProgramObserver = std::function<void(Tick)>;

    Ftl(NandFlash &nand, const FtlConfig &cfg);

    // ------------------------------------------------------------------
    // Geometry
    // ------------------------------------------------------------------
    std::uint32_t mappingUnitBytes() const
    {
        return cfg_.mappingUnitBytes;
    }
    std::uint32_t sectorsPerUnit() const { return sectorsPerUnit_; }
    std::uint32_t slotsPerPage() const { return slotsPerPage_; }
    /** Logical capacity in mapping units. */
    std::uint64_t logicalUnits() const { return logicalUnits_; }
    /** Logical capacity in 512 B sectors. */
    std::uint64_t
    logicalSectors() const
    {
        return logicalUnits_ * sectorsPerUnit_;
    }

    // ------------------------------------------------------------------
    // Host data path (sector granularity; timing + function)
    // ------------------------------------------------------------------
    /**
     * Read @p nsect sectors starting at @p lba.
     * @return completion tick (max over the flash pages touched).
     */
    Tick readSectors(Lba lba, std::uint32_t nsect, IoCause cause,
                     Tick earliest);

    /**
     * Write @p nsect sectors. Sub-unit writes trigger device-side
     * read-modify-write of the containing mapping unit.
     * @param data one SectorData per sector.
     * @param version recovery version recorded in the slots' OOB.
     * @param unit_oob optional per-mapping-unit OOB annotations (one
     *        entry per unit covered, in order): a journal write uses
     *        these to record each unit's checkpoint target + version
     *        for device-level power-loss rebuild (paper §III-G).
     * @return ack tick (data in SPOR-protected buffer; programs may
     *         complete later and are reported via the observer).
     */
    Tick writeSectors(Lba lba, std::uint32_t nsect,
                      const SectorData *data, IoCause cause,
                      Tick earliest, std::uint64_t version = 0,
                      const OobEntry *unit_oob = nullptr);

    /** Functional read: copy current sector contents, no timing. */
    void peekSectors(Lba lba, std::uint32_t nsect,
                     SectorData *out) const;

    /**
     * Discard whole mapping units covered by [lba, lba+nsect).
     * Partially covered units are left mapped.
     */
    void trimSectors(Lba lba, std::uint64_t nsect);

    // ------------------------------------------------------------------
    // Checkpoint support (mapping-unit granularity)
    // ------------------------------------------------------------------
    /** True when [lba, lba+nsect) is aligned to whole mapping units. */
    bool isUnitAligned(Lba lba, std::uint32_t nsect) const;

    /** True when LPN @p lpn currently maps to a slot. */
    bool isMapped(Lpn lpn) const;

    /**
     * CoW remap: make @p dst reference the physical slot of @p src.
     * Both LPNs stay readable; the slot is freed only when both are
     * trimmed/overwritten. Pure mapping update — no flash data ops.
     * @return ack tick.
     */
    Tick remapUnit(Lpn src, Lpn dst, Tick earliest);

    /**
     * Device-internal physical copy of @p nsect sectors (used by the
     * non-remapping in-storage checkpoints and by unaligned records):
     * reads the source pages and rewrites the destination through the
     * normal (possibly RMW) write path.
     * @return ack tick.
     */
    Tick copySectors(Lba src, Lba dst, std::uint32_t nsect,
                     IoCause cause, Tick earliest);

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------
    /**
     * Run GC passes while the device is below the background
     * free-block target; meant to be called from the deallocator when
     * the device is idle. @return blocks reclaimed.
     */
    std::uint32_t runBackgroundGc(Tick now);

    std::uint32_t freeBlocks() const { return bm_.freeBlocks(); }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------
    const StatRegistry &stats() const { return stats_; }
    const BlockManager &blockManager() const { return bm_; }
    NandFlash &nand() { return nand_; }

    /**
     * Uncorrectable host-path read errors since the last call, and
     * reset the counter. The SSD front-end drains this after every
     * command: a nonzero count on a host read triggers the
     * retry/backoff loop (the page is deliberately *not* cached, so
     * a retry re-reads the NAND and may succeed).
     */
    std::uint32_t
    takeReadErrors()
    {
        const std::uint32_t n = pendingReadErrors_;
        pendingReadErrors_ = 0;
        return n;
    }

    /** Register the program-completion observer (SSD backpressure). */
    void setProgramObserver(ProgramObserver obs)
    {
        onProgram_ = std::move(obs);
    }

    /** Force-program all partially-filled open pages (pads the rest). */
    void flushOpenPages(Tick now);

    /** Outcome of a device-level power-loss rebuild. */
    struct RebuildReport
    {
        /** Slots whose write-origin mapping was restored. */
        std::uint64_t slotsRecovered = 0;
        /** CoW (checkpoint-remap) mappings restored via OOB targets. */
        std::uint64_t remapsRecovered = 0;
    };

    /**
     * Device-level power-loss rebuild (paper §III-G): discard every
     * RAM structure (mapping table, block states, data cache) and
     * reconstruct them from the OOB of every programmed page of the
     * flash image, replayed in host-write order. Write-origin
     * mappings are restored directly; checkpoint remaps are restored
     * from the journal slots' target annotations, newest version
     * winning. Unprogrammed (open-page) data is lost — callers model
     * SPOR capacitors by calling flushOpenPages() first — and a page
     * whose program failed reads as empty.
     */
    RebuildReport rebuildFromPowerLoss();

    /**
     * Exhaustive consistency check of the mapping machinery:
     *  - every mapped LPN's slot lists that LPN among its references;
     *  - every referencing LPN maps back to the slot;
     *  - per-block valid counts equal the number of live slots;
     *  - free blocks contain no live slots.
     * @throws std::logic_error describing the first violation.
     */
    void checkInvariants() const;

  private:
    /** Inline reference capacity; the common case is one LPN, or a
     *  journal+data pair after a checkpoint remap. Longer CoW chains
     *  spill into refOverflow_. */
    static constexpr std::uint8_t kInlineRefs = 2;

    struct SlotInfo
    {
        std::array<Lpn, kInlineRefs> refs{kInvalidAddr, kInvalidAddr};
        std::uint16_t nrefs = 0;
        bool everValid = false;
    };

    struct OpenPage
    {
        Ppn ppn = kInvalidAddr;
        std::uint32_t nextSlot = 0;
    };

    SlotId slotOf(Ppn ppn, std::uint32_t idx) const;
    Pbn blockOfSlot(SlotId slot) const;
    Ppn pageOfSlot(SlotId slot) const;

    /** True when the slot's page is still an unprogrammed open page. */
    bool isBuffered(SlotId slot) const;

    /**
     * Map-cache access for the translation segment holding @p lpn:
     * a miss fetches the segment's map page from flash.
     * @return tick at which the translation is available.
     */
    Tick mapAccess(Lpn lpn, Tick earliest);

    /** Map accesses for every unit in [first, last]. */
    Tick mapAccessRange(Lpn first, Lpn last, Tick earliest);

    /** True when @p ppn is resident in the DRAM data cache. */
    bool isCached(Ppn ppn) const;

    /** Insert @p ppn into the data cache (LRU eviction). */
    void cacheInsert(Ppn ppn);

    /** Drop a page from the data cache (erase invalidation). */
    void cacheEvict(Ppn ppn);

    /**
     * Allocate the next slot of @p stream, striping consecutive
     * pages round-robin across dies and programming full pages.
     */
    SlotId allocateSlot(Stream stream, Tick earliest);

    /** Close + program the open page of (@p stream, @p die). */
    void programOpenPage(Stream stream, std::uint32_t die,
                         Tick earliest);

    /** Drop one reference; invalidates the slot at zero refs. */
    void deref(SlotId slot, Lpn lpn);

    /** Add a reference (spilling past the inline capacity). */
    void addRef(SlotId slot, Lpn lpn);

    /** Invoke @p fn on every LPN referencing @p slot. */
    template <typename Fn>
    void
    forEachRef(SlotId slot, Fn &&fn) const
    {
        const SlotInfo &info = slotInfo_[slot];
        const std::uint16_t inline_n =
            std::min<std::uint16_t>(info.nrefs, kInlineRefs);
        for (std::uint16_t r = 0; r < inline_n; ++r)
            fn(info.refs[r]);
        if (info.nrefs > kInlineRefs) {
            for (Lpn lpn : refOverflow_.at(slot))
                fn(lpn);
        }
    }

    /** Unmap @p lpn if mapped (dropping its slot reference). */
    void unmap(Lpn lpn);

    /** Point @p lpn at @p slot, releasing any previous mapping. */
    void mapLpn(Lpn lpn, SlotId slot);

    /** Account a dirty mapping entry; flush the table when due. */
    void touchMapEntry(Tick earliest);

    /** Read (timing) every distinct flash page backing the @p n
     *  slots at @p slots. */
    Tick readSlotPages(const SlotId *slots, std::size_t n,
                       IoCause cause, Tick earliest);

    /** Inline GC to keep free blocks above the low-water mark. */
    void maybeGc(Tick earliest);

    /** One greedy GC pass. @return true if a block was reclaimed. */
    bool gcOnce(Tick earliest, bool background);

    /** Migrate all valid slots out of @p victim, then erase it. */
    void reclaimBlock(Pbn victim, Tick earliest);

    /**
     * Consequence of a program (tPROG) failure on @p failed_ppn:
     * retire the whole block, migrate its live slots to fresh slots
     * (data comes from the slots, the SPOR-protected buffer, so
     * nothing is lost), and record it in the persistent defect list.
     */
    void handleProgramFail(Ppn failed_ppn, Tick now);

    /**
     * Static wear leveling: when the block-wear spread exceeds the
     * configured threshold, relocate the coldest (least-worn) closed
     * block so its underlying cells re-enter circulation.
     * @return true if a block was relocated.
     */
    bool wearLevelOnce(Tick now);

    NandFlash &nand_;
    FtlConfig cfg_;
    NandLayout layout_;
    std::uint32_t sectorsPerUnit_;
    std::uint32_t slotsPerPage_;
    std::uint64_t logicalUnits_;

    // What survives a power cut. The three arrays are the flash
    // image, the only copy of the simulated flash contents: the slots
    // of a programmed page are its cells, and the slots of an open
    // page are the SPOR-protected write buffer that flushOpenPages()
    // programs. A slot is written once, while its page is open, and
    // again only after its block's erase (allocateSlot()).
    std::vector<SectorData> sectors_;  // per physical sector
    std::vector<OobEntry> slotOob_;    // per physical slot
    /** Program sequence per page, read while NAND reports the page
     *  programmed; 0 there means the program failed: the page reads
     *  as empty, though its slots keep the buffered data that the
     *  bad-block rescue copies. */
    std::vector<std::uint64_t> pageSeq_;
    /** Firmware defect list (flash-resident in a real device): bad
     *  blocks survive power loss and stay retired across rebuilds. */
    std::vector<char> badBlock_;

    // Controller RAM from here on, which a power cut loses:
    // rebuildFromPowerLoss() discards the mapping, references, open
    // pages, block states and caches and rebuilds what the device
    // needs from the image. (Counters, the observer and the scratch
    // buffers are simulator bookkeeping.)
    BlockManager bm_;
    std::vector<SlotId> map_;          // LPN -> slot (or kInvalidAddr)
    std::vector<SlotInfo> slotInfo_;   // per physical slot
    /** Rare >2-reference CoW chains: slot -> extra referencing LPNs. */
    std::unordered_map<SlotId, std::vector<Lpn>> refOverflow_;
    // open_[stream * dieCount + die]; rot_ rotates the target die.
    std::vector<OpenPage> open_;
    std::array<std::uint32_t, kStreamCount> rot_{};

    std::uint64_t nextProgramSeq_ = 1;
    /** Host-write order counter stamped into slot OOB (see
     *  OobEntry::writeSeq); the power-loss rebuild replay order. */
    std::uint64_t nextWriteSeq_ = 1;
    std::uint64_t dirtyMapBytes_ = 0;
    bool inGc_ = false;
    bool inMapFlush_ = false;

    /** Uncorrectable host-path reads awaiting takeReadErrors(). */
    std::uint32_t pendingReadErrors_ = 0;

    // DRAM data cache: flat intrusive LRU over the PPN universe
    // (O(1) touch/insert/evict, no hashing on the event hot path).
    FlatLru dataCache_;

    // Map cache: flat intrusive LRU of translation segments (0
    // capacity = all resident, model disabled). Segment =
    // mapEntriesPerFetch consecutive LPNs.
    std::size_t mapSegCapacity_ = 0;
    FlatLru mapCache_;
    ProgramObserver onProgram_;
    StatRegistry stats_;

    // Per-call scratch, reused so the host data path does not
    // allocate. Each buffer has one owner: writeSectors() can run GC
    // (allocateSlot -> maybeGc -> reclaimBlock), so GC keeps its own.
    std::vector<SlotId> readSlots_;        //!< readSectors()
    std::vector<Ppn> readPages_;           //!< readSlotPages()
    std::vector<SectorData> writeUnit_;    //!< writeSectors()
    std::vector<SectorData> gcPayload_;    //!< reclaimBlock()
    std::vector<Lpn> gcRefs_;              //!< reclaimBlock()

    /** Single trace lane for FTL-level events (Cat::Ftl). */
    static constexpr std::uint32_t kFtlLane = 0;

    /** Interned hot-path counters (see sim/stats.h). */
    static constexpr std::size_t kIoCauseCount = 6;
    StatId sSlotWrites_;
    std::array<StatId, kIoCauseCount> sSlotWritesBy_;
    StatId sPageReads_;
    std::array<StatId, kIoCauseCount> sPageReadsBy_;
    StatId sCacheHits_;
    StatId sMapCacheHits_;
    StatId sMapCacheMisses_;
    StatId sHostReadSectors_;
    StatId sHostWriteSectors_;
    StatId sRmwReads_;
    StatId sRemaps_;
    StatId sInvalidatedSlots_;
    StatId sTrimmedUnits_;
    StatId sGcPageReads_;
    StatId sGcMigratedSlots_;
    // Counters that only exist once they fire (see StatHandle).
    StatHandle sMapFlushes_{stats_, "ftl.mapFlushes"};
    StatHandle sGcInvocations_{stats_, "gc.invocations"};
    StatHandle sGcBackground_{stats_, "gc.background"};
    StatHandle sGcInline_{stats_, "gc.inline"};
    StatHandle sGcErases_{stats_, "gc.erases"};
};

} // namespace checkin

#endif // CHECKIN_FTL_FTL_H_
