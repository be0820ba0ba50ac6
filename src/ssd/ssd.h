/**
 * @file
 * The simulated SSD: host interface + controller + FTL + NAND.
 *
 * Commands are processed with timeline semantics — the device
 * computes each command's completion tick from firmware, bus, and
 * flash resource reservations — and the completion callback is
 * delivered through the event queue at that tick, so hosts observe
 * realistic queueing under contention.
 */

#ifndef CHECKIN_SSD_SSD_H_
#define CHECKIN_SSD_SSD_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "ftl/ftl.h"
#include "ftl/ftl_config.h"
#include "nand/nand_config.h"
#include "nand/nand_flash.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/resource.h"
#include "sim/sim_context.h"
#include "sim/stats.h"
#include "ssd/command.h"
#include "ssd/isce.h"
#include "ssd/ssd_config.h"

namespace checkin {

/** A complete Check-In-capable SSD. */
class Ssd
{
  public:
    /**
     * Completion callback; receives the command's CmdResult
     * (completion tick + status + retry count). Inline-stored like
     * event callbacks, so a submission never heap-allocates for the
     * callback: the callable itself sits in a pooled pending slot
     * and the scheduled event captures only {this, slot index}.
     */
    using Completion = InlineFunction<void(const CmdResult &)>;

    Ssd(SimContext &ctx, const NandConfig &nand_cfg,
        const FtlConfig &ftl_cfg, const SsdConfig &ssd_cfg);

    /**
     * Submit a command; @p cb fires through the event queue at the
     * command's completion tick. Commands whose NAND reads stayed
     * uncorrectable past the retry budget complete with
     * CmdStatus::MediaError (see CmdResult::require()).
     * @throws std::invalid_argument on a zero-length Read or Write.
     */
    void submit(Command cmd, Completion cb);

    /**
     * Synchronous variant for tests and recovery paths: process the
     * command immediately and return the completion tick.
     * @throws std::runtime_error on CmdStatus::MediaError.
     * @throws std::invalid_argument on a zero-length Read or Write.
     */
    Tick submitSync(const Command &cmd);

    /**
     * An empty buffer for the next write command's payload. submit()
     * keeps the largest payload buffer a write handed in, so a stream
     * of writes reuses one allocation instead of making one each.
     */
    std::vector<SectorData>
    takePayloadBuffer()
    {
        std::vector<SectorData> buf = std::move(spentPayload_);
        buf.clear();
        return buf;
    }

    /** takePayloadBuffer() for the per-unit OOB annotations. */
    std::vector<OobEntry>
    takeOobBuffer()
    {
        std::vector<OobEntry> buf = std::move(spentOob_);
        buf.clear();
        return buf;
    }

    /**
     * Functional sector read with no timing (verification and
     * host-side read modeling). Content buffered in the ISCE's
     * small-copy buffer overlays the flash state, exactly as a
     * device read would serve it.
     */
    void
    peek(Lba lba, std::uint32_t nsect, SectorData *out) const
    {
        ftl_.peekSectors(lba, nsect, out);
        for (std::uint32_t i = 0; i < nsect; ++i)
            isce_.overlay(lba + i, &out[i]);
    }

    Ftl &ftl() { return ftl_; }
    const Ftl &ftl() const { return ftl_; }
    NandFlash &nand() { return nand_; }
    const NandFlash &nand() const { return nand_; }
    Isce &isce() { return isce_; }
    SimContext &context() { return ctx_; }
    EventQueue &eventQueue() { return eq_; }
    const SsdConfig &config() const { return cfg_; }

    /** Front-end stats (commands, bus, backpressure stalls). */
    const StatRegistry &stats() const { return stats_; }

    /** Logical capacity in 512 B sectors. */
    std::uint64_t capacitySectors() const
    {
        return ftl_.logicalSectors();
    }

    /** Give the deallocator an idle-time GC opportunity. */
    void idleTick();

    /**
     * Sudden power loss with SPOR (paper §III-D, §III-G): the
     * capacitors flush the device-side volatile state (small-copy
     * buffer, open flash pages), then the firmware rebuilds its RAM
     * mapping structures from the OOB area. After this returns, the
     * device serves the exact pre-loss state without any host help.
     */
    Ftl::RebuildReport suddenPowerLoss();

    /** Earliest tick at which every device resource is idle. */
    Tick
    quiesceTick() const
    {
        Tick t = nand_.allIdleAt();
        t = std::max(t, bus_.freeAt());
        return std::max(t, cpu_.freeAt());
    }

  private:
    CmdResult processCommand(const Command &cmd);
    Tick busTransfer(Tick earliest, std::uint64_t bytes);
    Tick applyWriteBackpressure(Tick ack);
    /** Queue-depth admission: tick at which the command may start. */
    Tick admitCommand(Tick now);

    /** Deliver and free pending completion slot @p idx. */
    void completePending(std::uint32_t idx);

    /** Trace lane for front-end events (Cat::Ssd). */
    static constexpr std::uint32_t kFrontendLane = 0;

    /** Interned hot-path counters (see sim/stats.h). */
    static constexpr std::size_t kCmdTypeCount = 8;

    SimContext &ctx_;
    EventQueue &eq_;
    SsdConfig cfg_;
    NandFlash nand_;
    Ftl ftl_;
    Resource bus_{"pcie"};
    Resource cpu_{"ssd-cpu"};
    StatRegistry stats_;
    std::array<StatId, kCmdTypeCount> sCmd_;
    StatId sWriteStalls_;
    StatId sQueueFullStalls_;
    StatId sCmdRetries_;
    StatId sCmdErrors_;
    /** Telemetry sampler of the run (nullptr: telemetry off). */
    obs::TelemetrySampler *telem_ = nullptr;
    Isce isce_;
    /** Completion ticks of in-flight programs and commands. Only the
     *  earliest tick and the count are read, and equal ticks are
     *  interchangeable, so a heap serves without a node per entry. */
    using TickHeap = std::priority_queue<Tick, std::vector<Tick>,
                                         std::greater<Tick>>;
    TickHeap inflightPrograms_;
    TickHeap inflightCommands_;
    /** Largest write buffers handed in (takePayloadBuffer()). */
    std::vector<SectorData> spentPayload_;
    std::vector<OobEntry> spentOob_;

    /** In-flight completion slot: pooled so the scheduled event only
     *  captures {this, index} and stays inline. */
    struct Pending
    {
        Completion cb;
        CmdResult res;
        std::uint32_t next = 0; //!< free-list link when unused
    };
    static constexpr std::uint32_t kNoPending = ~std::uint32_t{0};
    std::vector<Pending> pending_;
    std::uint32_t freePending_ = kNoPending;
};

} // namespace checkin

#endif // CHECKIN_SSD_SSD_H_
