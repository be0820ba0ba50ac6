#include "ssd/ssd.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/attribution.h"
#include "obs/telemetry.h"

namespace checkin {

const char *
cmdTypeName(CmdType type)
{
    switch (type) {
      case CmdType::Read: return "read";
      case CmdType::Write: return "write";
      case CmdType::Trim: return "trim";
      case CmdType::Flush: return "flush";
      case CmdType::CowSingle: return "cowSingle";
      case CmdType::CowMulti: return "cowMulti";
      case CmdType::CheckpointRemap: return "checkpointRemap";
      case CmdType::DeleteLogs: return "deleteLogs";
    }
    return "unknown";
}

Ssd::Ssd(SimContext &ctx, const NandConfig &nand_cfg,
         const FtlConfig &ftl_cfg, const SsdConfig &ssd_cfg)
    : ctx_(ctx),
      eq_(ctx.events()),
      cfg_(ssd_cfg),
      nand_(nand_cfg),
      ftl_(nand_, ftl_cfg),
      isce_(ftl_, cpu_, cfg_, stats_)
{
    // Hostile hardware, if this run has any, comes from the context.
    nand_.setFaultPlan(ctx.faults());
    ftl_.setProgramObserver([this](Tick done) {
        inflightPrograms_.push(done);
        // Bound the heap: fully drained entries are useless.
        while (inflightPrograms_.size() > 4 * cfg_.writeBufferPages)
            inflightPrograms_.pop();
    });
    for (std::size_t c = 0; c < kCmdTypeCount; ++c) {
        sCmd_[c] = stats_.intern(
            std::string("ssd.cmd.") +
            cmdTypeName(static_cast<CmdType>(c)));
    }
    sWriteStalls_ = stats_.intern("ssd.writeStalls");
    sQueueFullStalls_ = stats_.intern("ssd.queueFullStalls");
    sCmdRetries_ = stats_.intern("ssd.cmdRetries");
    sCmdErrors_ = stats_.intern("ssd.cmdErrors");
    obs::nameLane(obs::Cat::Ssd, kFrontendLane, "frontend");
    telem_ = ctx.telemetry();
    if (telem_ != nullptr && telem_->enabled()) {
        // Device-level probes: the SSD registers for the whole
        // device stack because the FTL/NAND have no SimContext of
        // their own. Counter probes read the stat registries by
        // name: a map lookup per sampling window, not per event.
        telem_->addGauge("ftl.freeBlocks", [this] {
            return std::uint64_t(ftl_.freeBlocks());
        });
        telem_->addCounter("ftl.retiredBlocks", [this] {
            return ftl_.stats().get("ftl.retiredBlocks");
        });
        telem_->addCounter("gc.invocations", [this] {
            return ftl_.stats().get("gc.invocations");
        });
        telem_->addCounter("gc.migratedSlots", [this] {
            return ftl_.stats().get("gc.migratedSlots");
        });
        telem_->addCounter("nand.reads", [this] {
            return nand_.stats().get("nand.reads");
        });
        telem_->addCounter("nand.programs", [this] {
            return nand_.stats().get("nand.programs");
        });
        telem_->addCounter("nand.erases", [this] {
            return nand_.stats().get("nand.erases");
        });
        telem_->addCounter("ssd.mediaErrors", [this] {
            return stats_.get(sCmdErrors_);
        });
    }
}

Tick
Ssd::busTransfer(Tick earliest, std::uint64_t bytes)
{
    if (bytes == 0)
        return earliest;
    const Tick duration =
        std::max<Tick>(1, bytes * kSec / cfg_.busBytesPerSec);
    return bus_.reserve(earliest, duration);
}

Tick
Ssd::applyWriteBackpressure(Tick ack)
{
    // Drop programs that have drained by the ack time.
    while (!inflightPrograms_.empty() && inflightPrograms_.top() <= ack)
        inflightPrograms_.pop();
    // If the buffer is over capacity, the ack waits for drains.
    while (inflightPrograms_.size() >= cfg_.writeBufferPages) {
        const Tick drain = inflightPrograms_.top();
        inflightPrograms_.pop();
        if (drain > ack) {
            ack = drain;
            stats_.add(sWriteStalls_);
        }
    }
    obs::counterSample(obs::Cat::Ssd, kFrontendLane, "ssd.writeBuf",
                       ack, inflightPrograms_.size());
    return ack;
}

Tick
Ssd::admitCommand(Tick now)
{
    // Retire completions that have drained by now.
    while (!inflightCommands_.empty() && inflightCommands_.top() <= now)
        inflightCommands_.pop();
    Tick admission = now;
    while (inflightCommands_.size() >= cfg_.queueDepth) {
        admission = std::max(admission, inflightCommands_.top());
        inflightCommands_.pop();
        stats_.add(sQueueFullStalls_);
    }
    if (admission > now) {
        obs::span(obs::Cat::Ssd, kFrontendLane, "ssd.qwait", now,
                  admission);
    }
    return admission;
}

CmdResult
Ssd::processCommand(const Command &cmd)
{
    if ((cmd.type == CmdType::Read || cmd.type == CmdType::Write) &&
        cmd.nsect == 0) {
        throw std::invalid_argument(std::string("zero-length ") +
                                    cmdTypeName(cmd.type));
    }
    stats_.add(sCmd_[std::size_t(cmd.type)]);
    const Tick now = eq_.now();
    // Stage-boundary capture for latency attribution: the FTL and
    // NAND layers append their own sub-stages while this command is
    // active, and the finished segment list is replayed onto the op
    // timeline (directly for query commands, per group member by the
    // journal).
    const bool attr = obs::attributionOn();
    if (attr)
        obs::installedAttribution()->cmdBegin();
    // cmdTypeName returns string literals, so the pointer is safe to
    // store in the trace buffer.
    obs::instant(obs::Cat::Ssd, kFrontendLane, cmdTypeName(cmd.type),
                 now, {{"lba", cmd.lba}, {"nsect", cmd.nsect}});
    const Tick admitted = admitCommand(now);
    obs::attrCmdMark(obs::Stage::SsdQueue, admitted);
    const Tick fw_start = std::max(admitted, cpu_.freeAt());
    Tick t = cpu_.reserve(admitted, cfg_.commandOverhead);
    if (cmd.type == CmdType::Read || cmd.type == CmdType::Write) {
        // Address translation cost scales with the mapping units the
        // request spans (finer mapping -> more metadata processing).
        const std::uint64_t units =
            divCeil(cmd.nsect, ftl_.sectorsPerUnit());
        t = cpu_.reserve(t, units * cfg_.perUnitCpuTime);
    }
    // Firmware occupancy of the controller core (decode + lookup).
    obs::span(obs::Cat::Ssd, kFrontendLane, "ssd.fw", fw_start, t);
    obs::attrCmdMark(obs::Stage::Firmware, t);

    CmdResult res;
    switch (cmd.type) {
      case CmdType::Read: {
        Tick data_ready = ftl_.readSectors(
            cmd.lba, std::uint32_t(cmd.nsect), cmd.cause, t);
        // Front-end retry/backoff for uncorrectable NAND reads: the
        // failed pages were not cached, so each retry re-reads the
        // media and may succeed where the last attempt did not.
        std::uint32_t errors = ftl_.takeReadErrors();
        while (errors > 0 && res.retries < cfg_.readRetryBudget) {
            ++res.retries;
            stats_.add(sCmdRetries_);
            const Tick backoff =
                data_ready + res.retries * cfg_.retryBackoff;
            data_ready = std::max(
                data_ready,
                ftl_.readSectors(cmd.lba, std::uint32_t(cmd.nsect),
                                 cmd.cause, backoff));
            errors = ftl_.takeReadErrors();
        }
        if (errors > 0) {
            stats_.add(sCmdErrors_);
            obs::instant(obs::Cat::Ssd, kFrontendLane,
                         "ssd.mediaError", data_ready,
                         {{"lba", cmd.lba},
                          {"retries", res.retries}});
            if (telem_ != nullptr) {
                // Stamped at submission time, not the completion
                // tick: black-box entries must never postdate a
                // later dump's trigger.
                telem_->noteEvent(obs::TelemetryEvent::MediaError,
                                  eq_.now(), cmd.lba);
            }
            res.tick = data_ready;
            res.status = CmdStatus::MediaError;
            break;
        }
        // DRAM-buffered data still pays a small device-side access.
        const Tick served =
            data_ready == t ? t + cfg_.dramAccessTime : data_ready;
        if (data_ready == t)
            obs::attrCmdMark(obs::Stage::DramCache, served);
        res.tick = busTransfer(served, cmd.nsect * kSectorBytes);
        obs::attrCmdMark(obs::Stage::Bus, res.tick);
        break;
      }
      case CmdType::Write: {
        assert(cmd.payload.size() == cmd.nsect);
        // Host data supersedes any buffered checkpoint copies.
        isce_.invalidateRange(cmd.lba, cmd.nsect);
        const Tick landed =
            busTransfer(t, cmd.nsect * kSectorBytes);
        obs::attrCmdMark(obs::Stage::Bus, landed);
        const Tick ack = ftl_.writeSectors(
            cmd.lba, std::uint32_t(cmd.nsect), cmd.payload.data(),
            cmd.cause, landed, cmd.version,
            cmd.unitOob.empty() ? nullptr : cmd.unitOob.data());
        res.tick = applyWriteBackpressure(ack);
        obs::attrCmdMark(obs::Stage::Backpressure, res.tick);
        break;
      }
      case CmdType::Trim: {
        isce_.invalidateRange(cmd.lba, cmd.nsect);
        ftl_.trimSectors(cmd.lba, cmd.nsect);
        res.tick = t;
        break;
      }
      case CmdType::Flush: {
        // Writes are durable at ack (capacitor-backed buffer), so
        // flush only costs the firmware round trip.
        res.tick = t;
        break;
      }
      case CmdType::CowSingle:
      case CmdType::CowMulti: {
        const Tick decoded = busTransfer(
            t, cmd.pairs.size() * cfg_.cowDescriptorBytes);
        // Copy-only in-storage checkpointing (no remapping).
        res.tick = isce_.checkpoint(cmd.pairs, decoded, false);
        break;
      }
      case CmdType::CheckpointRemap: {
        const Tick decoded = busTransfer(
            t, cmd.pairs.size() * cfg_.cowDescriptorBytes);
        res.tick = isce_.checkpoint(cmd.pairs, decoded, true);
        break;
      }
      case CmdType::DeleteLogs: {
        ftl_.trimSectors(cmd.lba, cmd.nsect);
        isce_.onLogsDeleted(t);
        res.tick = t;
        break;
      }
    }
    // Uncorrectable reads on device-internal paths (RMW, CoW copies,
    // GC inside this command) were recovered from the SPOR-protected
    // shadows; count them, they do not fail the command.
    const std::uint32_t internal = ftl_.takeReadErrors();
    if (internal > 0)
        stats_.add("ssd.internalReadErrors", internal);
    if (attr) {
        obs::AttributionCollector *a = obs::installedAttribution();
        // Close the segment list with the command's completion tick
        // so replay clamps to it (buffered writes ack before their
        // NAND programs finish). Query-caused commands belong to
        // exactly one op; replay the stage boundaries onto it now.
        // Journal group commits replay them per member instead
        // (engine/journal.cc).
        a->cmdEnd(res.tick);
        if (cmd.cause == IoCause::Query)
            a->applyCmdToCurrent();
    }
    return res;
}

void
Ssd::submit(Command cmd, Completion cb)
{
    const CmdResult res = processCommand(cmd);
    assert(res.tick >= eq_.now());
    inflightCommands_.push(res.tick);
    // Keep the larger buffers for takePayloadBuffer()/takeOobBuffer().
    if (cmd.payload.capacity() > spentPayload_.capacity())
        spentPayload_ = std::move(cmd.payload);
    if (cmd.unitOob.capacity() > spentOob_.capacity())
        spentOob_ = std::move(cmd.unitOob);
    // Park the callback in a pooled slot: the scheduled event then
    // captures {this, idx} (16 bytes), so neither the event nor the
    // completion ever heap-allocates in steady state.
    std::uint32_t idx;
    if (freePending_ != kNoPending) {
        idx = freePending_;
        freePending_ = pending_[idx].next;
    } else {
        idx = std::uint32_t(pending_.size());
        pending_.emplace_back();
    }
    pending_[idx].cb = std::move(cb);
    pending_[idx].res = res;
    eq_.schedule(res.tick,
                 [this, idx] { completePending(idx); });
}

void
Ssd::completePending(std::uint32_t idx)
{
    // Move out before invoking: the callback may submit again and
    // reuse the slot.
    Completion cb = std::move(pending_[idx].cb);
    const CmdResult res = pending_[idx].res;
    pending_[idx].next = freePending_;
    freePending_ = idx;
    cb(res);
}

Tick
Ssd::submitSync(const Command &cmd)
{
    const CmdResult res = processCommand(cmd);
    inflightCommands_.push(res.tick);
    return res.require();
}

void
Ssd::idleTick()
{
    isce_.onLogsDeleted(eq_.now());
}

Ftl::RebuildReport
Ssd::suddenPowerLoss()
{
    stats_.add("ssd.powerLosses");
    if (telem_ != nullptr)
        telem_->noteEvent(obs::TelemetryEvent::PowerCut, eq_.now());
    // Capacitor-backed flush of volatile device state (SPOR).
    isce_.flushSmallBuffer(eq_.now());
    ftl_.flushOpenPages(eq_.now());
    // Firmware RAM (map tables, queues, cache) is gone. In-flight
    // completions die with it (the caller clears the event queue, so
    // their scheduled deliveries are gone too).
    inflightPrograms_ = TickHeap();
    inflightCommands_ = TickHeap();
    pending_.clear();
    freePending_ = kNoPending;
    return ftl_.rebuildFromPowerLoss();
}

} // namespace checkin
