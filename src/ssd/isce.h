/**
 * @file
 * In-Storage Checkpointing Engine (paper §III-A, Fig 5).
 *
 * The ISCE sits in the SSD controller next to the FTL and implements:
 *  - the checkpoint processor (Algorithm 1): walk the CoW descriptors
 *    the host sent, remap journal slots to their data-area targets
 *    when the record is mapping-unit aligned, and fall back to a
 *    device-internal copy otherwise;
 *  - the deallocator: release journal mappings after checkpoints and
 *    invoke background GC when the device is idle.
 *
 * The log-manager role (acknowledging journal commits, batching
 * recovery metadata) is handled by the normal write path plus the
 * FTL's batched map persistence.
 */

#ifndef CHECKIN_SSD_ISCE_H_
#define CHECKIN_SSD_ISCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ftl/ftl.h"
#include "obs/trace.h"
#include "sim/resource.h"
#include "sim/stats.h"
#include "ssd/command.h"
#include "ssd/ssd_config.h"

namespace checkin {

/** Device-side checkpoint processor + deallocator. */
class Isce
{
  public:
    Isce(Ftl &ftl, Resource &cpu, const SsdConfig &cfg,
         StatRegistry &stats)
        : ftl_(ftl), cpu_(cpu), cfg_(cfg), stats_(stats)
    {
        obs::nameLane(obs::Cat::Ssd, kIsceLane, "isce");
    }

    /**
     * Process a batched checkpoint request (CheckpointRemap command).
     *
     * For every descriptor: if both address ranges are aligned to the
     * mapping unit, every source unit is mapped, and the host did not
     * flag the record as merged, update the flash mapping table so the
     * data-area LPNs reference the journal slots (CoW remap, no flash
     * data traffic). Otherwise perform a device-internal copy, which
     * reads the source pages and rewrites the destination (counted as
     * redundant checkpoint writes).
     *
     * @param remap_allowed false degrades every entry to the copy
     *        path (models ISC-A/ISC-B class devices without the
     *        modified mapping method).
     * @return completion tick.
     */
    Tick checkpoint(const std::vector<CowPair> &pairs, Tick start,
                    bool remap_allowed);

    /**
     * Deallocator notification that checkpointed journal logs were
     * deleted; flushes aged small-copy buffer entries and runs
     * background GC when the flash array is idle.
     * @return blocks reclaimed by background GC.
     */
    std::uint32_t onLogsDeleted(Tick now);

    // ------------------------------------------------------------------
    // Small-copy write-back buffer (paper §III-E)
    // ------------------------------------------------------------------
    // Sub-unit (PARTIAL/MERGED) checkpoint copies are not programmed
    // immediately: their content is gathered into capacitor-backed
    // device DRAM, where a hot key's next checkpoint simply replaces
    // the entry (eliding the flash write entirely) and survivors are
    // programmed aggregated once the buffer fills.

    /**
     * Overlay buffered content onto @p out if @p lba is buffered.
     * @retval true when the sector came from the buffer.
     */
    bool overlay(Lba lba, SectorData *out) const;

    /** Drop buffered entries covering [lba, lba+nsect) — a newer
     *  write, remap, or trim supersedes them. */
    void invalidateRange(Lba lba, std::uint64_t nsect);

    /** Buffered sectors currently held. */
    std::size_t bufferedSectors() const { return smallBuf_.size(); }

    /** Force the buffer out to flash (used by tests/teardown). */
    Tick flushSmallBuffer(Tick start);

  private:
    /** True when the descriptor qualifies for pure remapping. */
    bool canRemap(const CowPair &pair) const;

    /** Chunk-exact device-internal copy of one record. */
    Tick copyRecord(const CowPair &pair, Tick start);

    /** Gather a small record into the write-back buffer. */
    Tick bufferSmallRecord(const CowPair &pair, Tick start);

    struct BufferedSector
    {
        SectorData data;
        std::uint64_t version = 0;
    };

    /** Trace lane for checkpoint-engine events (Cat::Ssd). */
    static constexpr std::uint32_t kIsceLane = 1;

    Ftl &ftl_;
    Resource &cpu_;
    const SsdConfig &cfg_;
    StatRegistry &stats_;
    std::unordered_map<Lba, BufferedSector> smallBuf_;

    // Gather and flush scratch, reused by every record and flush.
    std::vector<SectorData> srcBuf_;
    std::vector<SectorData> dstBuf_;
    std::vector<Lba> flushLbas_;
    std::vector<SectorData> flushRun_;
    std::vector<OobEntry> flushOob_;

    // Per-record counters, interned on their first add.
    StatHandle sElided_{stats_, "isce.elidedSmallWrites"};
    StatHandle sBuffered_{stats_, "isce.bufferedSmallRecords"};
    StatHandle sRemappedPairs_{stats_, "isce.remappedPairs"};
    StatHandle sRemappedUnits_{stats_, "isce.remappedUnits"};
    StatHandle sCopiedPairs_{stats_, "isce.copiedPairs"};
    StatHandle sCopiedChunks_{stats_, "isce.copiedChunks"};
    StatHandle sLogDeletions_{stats_, "isce.logDeletions"};
    StatHandle sIdleGcBlocks_{stats_, "isce.idleGcBlocks"};
};

} // namespace checkin

#endif // CHECKIN_SSD_ISCE_H_
