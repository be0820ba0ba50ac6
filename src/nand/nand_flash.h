/**
 * @file
 * Timing and program-state model of a NAND flash array.
 *
 * The array enforces flash programming rules (erase-before-program,
 * in-order page programming within a block), tracks which pages are
 * programmed and how often each block was erased, decides fault
 * outcomes, and charges die/channel time for every operation. Page
 * contents live in the FTL's flash image (ftl/ftl.h).
 */

#ifndef CHECKIN_NAND_NAND_FLASH_H_
#define CHECKIN_NAND_NAND_FLASH_H_

#include <cstdint>
#include <vector>

#include "fault/fault_plan.h"
#include "nand/nand_config.h"
#include "nand/nand_types.h"
#include "obs/trace.h"
#include "sim/resource.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace checkin {

/**
 * The flash array. All addresses are flat PPNs/PBNs (see NandLayout).
 *
 * Timing contract: every operation takes the earliest tick the caller
 * could issue it and returns a NandResult — the completion tick plus
 * a status — reserving die and channel time in between. Contention
 * appears as later completion ticks; *faults* (injected by the run's
 * FaultPlan, if any) appear as non-Ok statuses whose time was still
 * charged: a failed program occupies the die for the full tPROG, a
 * retried read senses repeatedly before the data crosses the channel.
 */
class NandFlash
{
  public:
    explicit NandFlash(const NandConfig &cfg);

    const NandConfig &config() const { return cfg_; }
    const NandLayout &layout() const { return layout_; }

    /** Install the run's fault plan (nullptr: perfect hardware). */
    void setFaultPlan(FaultPlan *plan) { faults_ = plan; }

    /**
     * Read a page. Injected bit errors are retried within the ECC
     * retry budget (extra sensing time per retry); past the budget
     * the result is Uncorrectable and no data crosses the channel.
     * @param ppn page to read.
     * @param earliest earliest issue tick.
     * @return completion tick (data at host side of channel) + status.
     */
    NandResult read(Ppn ppn, Tick earliest);

    /**
     * Program a page. The page must be erased and must be the next
     * unprogrammed page of its block (NAND in-order rule). A failed
     * program consumes the page — it holds nothing readable until the
     * block is erased, and the block should be retired.
     * @return completion tick + status.
     */
    NandResult program(Ppn ppn, Tick earliest);

    /**
     * Erase a block. A failed erase leaves its pages programmed and
     * the block must be retired by the FTL.
     * @return completion tick + status.
     */
    NandResult eraseBlock(Pbn pbn, Tick earliest);

    /**
     * Charge the timing of an auxiliary page read on @p die_index
     * (e.g., a mapping-table page fetch) without touching any
     * functional page state.
     * @return completion tick.
     */
    Tick chargeAuxRead(std::uint32_t die_index, Tick earliest);

    /** True if the page has been programmed since last erase. */
    bool isProgrammed(Ppn ppn) const;

    /** Next page index to program in @p pbn (== pagesPerBlock: full). */
    std::uint32_t nextProgramPage(Pbn pbn) const;

    /** Erase count of a block. */
    std::uint32_t eraseCount(Pbn pbn) const;

    /** Sum of all block erase counts. */
    std::uint64_t totalEraseCount() const { return totalErases_; }

    /** Maximum erase count across blocks (wear skew metric). */
    std::uint32_t maxEraseCount() const;

    /** Minimum erase count across blocks (wear skew metric). */
    std::uint32_t minEraseCount() const;

    /** Operation counters: nand.reads / nand.programs / nand.erases,
     *  plus fault counters (nand.readRetries / nand.uncorrectable /
     *  nand.programFails / nand.eraseFails). */
    const StatRegistry &stats() const { return stats_; }

    /** Earliest tick at which every die and channel is idle. */
    Tick allIdleAt() const;

  private:
    struct Block
    {
        std::uint32_t nextPage = 0;
        std::uint32_t eraseCount = 0;
    };

    Resource &dieOf(Ppn ppn);
    Resource &channelOf(Ppn ppn);

    /** Trace lane of die @p d (die lanes precede channel lanes). */
    std::uint32_t dieLane(std::uint32_t d) const { return d; }
    /** Trace lane of channel @p c. */
    std::uint32_t
    channelLane(std::uint32_t c) const
    {
        return cfg_.dieCount() + c;
    }

    NandConfig cfg_;
    NandLayout layout_;
    std::vector<Block> blocks_;
    std::vector<Resource> dies_;
    std::vector<Resource> channels_;
    StatRegistry stats_;
    StatId sReads_;
    StatId sPrograms_;
    StatId sErases_;
    StatId sAuxReads_;
    StatId sReadRetries_;
    StatId sUncorrectable_;
    StatId sProgramFails_;
    StatId sEraseFails_;
    std::uint64_t totalErases_ = 0;
    FaultPlan *faults_ = nullptr;
};

} // namespace checkin

#endif // CHECKIN_NAND_NAND_FLASH_H_
