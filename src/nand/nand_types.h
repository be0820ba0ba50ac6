/**
 * @file
 * Physical flash addressing and out-of-band metadata types.
 */

#ifndef CHECKIN_NAND_NAND_TYPES_H_
#define CHECKIN_NAND_NAND_TYPES_H_

#include <cstdint>

#include "nand/nand_config.h"
#include "sim/types.h"

namespace checkin {

/** Flat physical block number across the whole device. */
using Pbn = std::uint64_t;

/** Outcome of a NAND media operation (see FaultPlan). */
enum class NandStatus : std::uint8_t
{
    Ok = 0,
    /** Read failed ECC even after exhausting read retries. */
    Uncorrectable,
    /** Program (tPROG) failed; the page is consumed and unreadable. */
    ProgramFailed,
    /** Erase (tBERS) failed; the block must be retired. */
    EraseFailed,
};

/**
 * Completion tick + outcome of a NAND operation. Time is always
 * charged — a failed operation occupies the die just as long as a
 * successful one (longer for reads, which retry-sense first).
 */
struct NandResult
{
    Tick tick = 0;
    NandStatus status = NandStatus::Ok;

    bool ok() const { return status == NandStatus::Ok; }
};

/**
 * Out-of-band record stored alongside a programmed page.
 *
 * The Check-In SSD writes the target address (or key) and version of
 * every slot so device-side recovery can rebuild mappings after power
 * loss (paper §III-G): @p lpn is the write-origin LPN, and for
 * journal slots @p targetLpn names the data-area LPN the record will
 * be checkpoint-remapped to, which lets the rebuild restore CoW
 * mappings whose slots were never physically rewritten.
 */
struct OobEntry
{
    /** LPN the slot was written for; kInvalidAddr for unused slots. */
    Lpn lpn = kInvalidAddr;
    /** Monotonic version for recovery ordering. */
    std::uint64_t version = 0;
    /** Checkpoint target of a journal record (or kInvalidAddr). */
    Lpn targetLpn = kInvalidAddr;
    /**
     * Host-write order stamp. Page program sequence alone cannot
     * order slots after a power cut: the capacitor flush programs the
     * per-die open pages in die order, so an older write parked in a
     * higher die would be sequenced after a newer write to the same
     * LPN in a lower die, and the SPOR replay would resurrect the
     * stale copy. Rebuild therefore replays mappings in writeSeq
     * order; GC migration copies the stamp with the slot.
     */
    std::uint64_t writeSeq = 0;
};

/** Structured physical page address. */
struct PhysAddr
{
    std::uint32_t channel = 0;
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::uint32_t block = 0;
    std::uint32_t page = 0;

    bool
    operator==(const PhysAddr &o) const
    {
        return channel == o.channel && die == o.die &&
               plane == o.plane && block == o.block && page == o.page;
    }
};

/** Address arithmetic between flat PPNs/PBNs and structured form. */
class NandLayout
{
  public:
    explicit NandLayout(const NandConfig &cfg) : cfg_(cfg) {}

    Ppn
    flatten(const PhysAddr &a) const
    {
        return blockOf(a) * cfg_.pagesPerBlock + a.page;
    }

    Pbn
    blockOf(const PhysAddr &a) const
    {
        std::uint64_t die_index =
            std::uint64_t(a.channel) * cfg_.diesPerChannel + a.die;
        std::uint64_t plane_index =
            die_index * cfg_.planesPerDie + a.plane;
        return plane_index * cfg_.blocksPerPlane + a.block;
    }

    PhysAddr
    unflatten(Ppn ppn) const
    {
        PhysAddr a;
        a.page = std::uint32_t(ppn % cfg_.pagesPerBlock);
        Pbn pbn = ppn / cfg_.pagesPerBlock;
        a.block = std::uint32_t(pbn % cfg_.blocksPerPlane);
        std::uint64_t plane_index = pbn / cfg_.blocksPerPlane;
        a.plane = std::uint32_t(plane_index % cfg_.planesPerDie);
        std::uint64_t die_index = plane_index / cfg_.planesPerDie;
        a.die = std::uint32_t(die_index % cfg_.diesPerChannel);
        a.channel = std::uint32_t(die_index / cfg_.diesPerChannel);
        return a;
    }

    /** First PPN of block @p pbn. */
    Ppn
    firstPpnOfBlock(Pbn pbn) const
    {
        return pbn * cfg_.pagesPerBlock;
    }

    /** Die timing-unit index (0 .. dieCount-1) for a PPN. */
    std::uint32_t
    dieIndexOf(Ppn ppn) const
    {
        Pbn pbn = ppn / cfg_.pagesPerBlock;
        std::uint64_t plane_index = pbn / cfg_.blocksPerPlane;
        return std::uint32_t(plane_index / cfg_.planesPerDie);
    }

    /** Channel index for a PPN. */
    std::uint32_t
    channelIndexOf(Ppn ppn) const
    {
        return dieIndexOf(ppn) / cfg_.diesPerChannel;
    }

  private:
    NandConfig cfg_;
};

} // namespace checkin

#endif // CHECKIN_NAND_NAND_TYPES_H_
