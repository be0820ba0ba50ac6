#include "nand/nand_flash.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/attribution.h"

namespace checkin {

NandFlash::NandFlash(const NandConfig &cfg)
    : cfg_(cfg),
      layout_(cfg),
      blocks_(cfg.totalBlocks())
{
    dies_.reserve(cfg_.dieCount());
    for (std::uint32_t d = 0; d < cfg_.dieCount(); ++d)
        dies_.emplace_back("die" + std::to_string(d));
    channels_.reserve(cfg_.channels);
    for (std::uint32_t c = 0; c < cfg_.channels; ++c)
        channels_.emplace_back("ch" + std::to_string(c));
    sReads_ = stats_.intern("nand.reads");
    sPrograms_ = stats_.intern("nand.programs");
    sErases_ = stats_.intern("nand.erases");
    sAuxReads_ = stats_.intern("nand.auxReads");
    sReadRetries_ = stats_.intern("nand.readRetries");
    sUncorrectable_ = stats_.intern("nand.uncorrectable");
    sProgramFails_ = stats_.intern("nand.programFails");
    sEraseFails_ = stats_.intern("nand.eraseFails");
    // Trace lanes: one per die, then one per channel.
    for (std::uint32_t d = 0; d < cfg_.dieCount(); ++d)
        obs::nameLane(obs::Cat::Nand, dieLane(d), dies_[d].name());
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        obs::nameLane(obs::Cat::Nand, channelLane(c),
                      channels_[c].name());
    }
}

Resource &
NandFlash::dieOf(Ppn ppn)
{
    return dies_[layout_.dieIndexOf(ppn)];
}

Resource &
NandFlash::channelOf(Ppn ppn)
{
    return channels_[layout_.channelIndexOf(ppn)];
}

NandResult
NandFlash::read(Ppn ppn, Tick earliest)
{
    const Pbn pbn = ppn / cfg_.pagesPerBlock;
    assert(pbn < blocks_.size());
    stats_.add(sReads_);
    // Fault decision up front: retries extend the sensing phase, so
    // the die reservation must cover them before the channel starts.
    std::uint32_t retries = 0;
    bool uncorrectable = false;
    if (faults_ != nullptr) {
        const std::uint32_t fails = faults_->readFaults(
            ppn, blocks_[pbn].eraseCount, cfg_.maxPeCycles);
        if (fails > faults_->config().readRetryMax) {
            retries = faults_->config().readRetryMax;
            uncorrectable = true;
        } else {
            retries = fails;
        }
        if (retries > 0)
            stats_.add(sReadRetries_, retries);
    }
    // Array sensing occupies the die, then the data crosses the
    // channel. The channel reservation can only start once sensing is
    // done.
    Resource &die = dieOf(ppn);
    Resource &ch = channelOf(ppn);
    const Tick sense_time =
        cfg_.readLatency +
        (faults_ != nullptr
             ? retries * faults_->config().readRetryLatency
             : 0);
    const Tick sense_start = std::max(earliest, die.freeAt());
    const Tick sensed = die.reserve(earliest, sense_time);
    obs::attrCmdMark(obs::Stage::NandWait, sense_start);
    obs::attrCmdMark(obs::Stage::NandMedia, sensed);
    if (uncorrectable) {
        // ECC gave up: nothing valid to move across the channel.
        stats_.add(sUncorrectable_);
        if (obs::traceOn()) {
            obs::span(obs::Cat::Nand, dieLane(layout_.dieIndexOf(ppn)),
                      "nand.senseFail", sense_start, sensed,
                      {{"ppn", ppn}, {"retries", retries}});
        }
        return {sensed, NandStatus::Uncorrectable};
    }
    const Tick xfer_start = std::max(sensed, ch.freeAt());
    const Tick done = ch.reserve(sensed, cfg_.pageTransferTime());
    obs::attrCmdMark(obs::Stage::NandWait, xfer_start);
    obs::attrCmdMark(obs::Stage::NandMedia, done);
    if (obs::traceOn()) {
        const auto d = layout_.dieIndexOf(ppn);
        const auto c = layout_.channelIndexOf(ppn);
        obs::span(obs::Cat::Nand, dieLane(d), "nand.sense",
                  sense_start, sensed, {{"ppn", ppn}});
        obs::span(obs::Cat::Nand, channelLane(c), "nand.xfer",
                  xfer_start, done, {{"ppn", ppn}});
    }
    return {done, NandStatus::Ok};
}

NandResult
NandFlash::program(Ppn ppn, Tick earliest)
{
    const Pbn pbn = ppn / cfg_.pagesPerBlock;
    assert(pbn < blocks_.size());
    const std::uint32_t page = std::uint32_t(ppn % cfg_.pagesPerBlock);
    Block &blk = blocks_[pbn];
    if (page != blk.nextPage) {
        throw std::logic_error(
            "NAND program order violation: block " +
            std::to_string(pbn) + " expects page " +
            std::to_string(blk.nextPage) + ", got " +
            std::to_string(page));
    }
    const bool failed =
        faults_ != nullptr &&
        faults_->programFails(ppn, blk.eraseCount, cfg_.maxPeCycles);
    // A failed program still consumes the page: the cells are in an
    // indeterminate state and in-order programming cannot reuse it.
    // Nothing on it is readable; the FTL records the failure, and its
    // SPOR rebuild skips the page.
    blk.nextPage = page + 1;
    stats_.add(sPrograms_);
    if (failed)
        stats_.add(sProgramFails_);
    // Data crosses the channel first, then the cell program occupies
    // the die.
    Resource &die = dieOf(ppn);
    Resource &ch = channelOf(ppn);
    const Tick xfer_start = std::max(earliest, ch.freeAt());
    const Tick loaded = ch.reserve(earliest, cfg_.pageTransferTime());
    const Tick prog_start = std::max(loaded, die.freeAt());
    const Tick done = die.reserve(loaded, cfg_.programLatency);
    obs::attrCmdMark(obs::Stage::NandWait, xfer_start);
    obs::attrCmdMark(obs::Stage::NandMedia, loaded);
    obs::attrCmdMark(obs::Stage::NandWait, prog_start);
    obs::attrCmdMark(obs::Stage::NandMedia, done);
    if (obs::traceOn()) {
        const auto d = layout_.dieIndexOf(ppn);
        const auto c = layout_.channelIndexOf(ppn);
        obs::span(obs::Cat::Nand, channelLane(c), "nand.xfer",
                  xfer_start, loaded, {{"ppn", ppn}});
        obs::span(obs::Cat::Nand, dieLane(d),
                  failed ? "nand.progFail" : "nand.prog", prog_start,
                  done, {{"ppn", ppn}});
    }
    return {done,
            failed ? NandStatus::ProgramFailed : NandStatus::Ok};
}

Tick
NandFlash::chargeAuxRead(std::uint32_t die_index, Tick earliest)
{
    assert(die_index < dies_.size());
    stats_.add(sAuxReads_);
    Resource &die = dies_[die_index];
    const std::uint32_t ch_index = die_index / cfg_.diesPerChannel;
    const Tick sense_start = std::max(earliest, die.freeAt());
    const Tick sensed = die.reserve(earliest, cfg_.readLatency);
    Resource &ch = channels_[ch_index];
    const Tick xfer_start = std::max(sensed, ch.freeAt());
    const Tick done = ch.reserve(sensed, cfg_.pageTransferTime());
    obs::attrCmdMark(obs::Stage::NandWait, sense_start);
    obs::attrCmdMark(obs::Stage::NandMedia, sensed);
    obs::attrCmdMark(obs::Stage::NandWait, xfer_start);
    obs::attrCmdMark(obs::Stage::NandMedia, done);
    if (obs::traceOn()) {
        obs::span(obs::Cat::Nand, dieLane(die_index), "nand.auxRead",
                  sense_start, sensed);
        obs::span(obs::Cat::Nand, channelLane(ch_index), "nand.xfer",
                  xfer_start, done);
    }
    return done;
}

NandResult
NandFlash::eraseBlock(Pbn pbn, Tick earliest)
{
    assert(pbn < blocks_.size());
    Block &blk = blocks_[pbn];
    const Ppn first = layout_.firstPpnOfBlock(pbn);
    const bool failed =
        faults_ != nullptr &&
        faults_->eraseFails(pbn, blk.eraseCount, cfg_.maxPeCycles);
    if (!failed)
        blk.nextPage = 0;
    // The erase attempt consumes a P/E cycle either way.
    ++blk.eraseCount;
    ++totalErases_;
    stats_.add(sErases_);
    if (failed)
        stats_.add(sEraseFails_);
    Resource &die = dieOf(first);
    const Tick erase_start = std::max(earliest, die.freeAt());
    const Tick done = die.reserve(earliest, cfg_.eraseLatency);
    obs::attrCmdMark(obs::Stage::NandWait, erase_start);
    obs::attrCmdMark(obs::Stage::NandMedia, done);
    if (obs::traceOn()) {
        obs::span(obs::Cat::Nand, dieLane(layout_.dieIndexOf(first)),
                  failed ? "nand.eraseFail" : "nand.erase",
                  erase_start, done,
                  {{"pbn", pbn}, {"eraseCount", blk.eraseCount}});
    }
    return {done, failed ? NandStatus::EraseFailed : NandStatus::Ok};
}

bool
NandFlash::isProgrammed(Ppn ppn) const
{
    const Pbn pbn = ppn / cfg_.pagesPerBlock;
    const std::uint32_t page = std::uint32_t(ppn % cfg_.pagesPerBlock);
    return page < blocks_[pbn].nextPage;
}

std::uint32_t
NandFlash::nextProgramPage(Pbn pbn) const
{
    assert(pbn < blocks_.size());
    return blocks_[pbn].nextPage;
}

std::uint32_t
NandFlash::eraseCount(Pbn pbn) const
{
    assert(pbn < blocks_.size());
    return blocks_[pbn].eraseCount;
}

std::uint32_t
NandFlash::maxEraseCount() const
{
    std::uint32_t m = 0;
    for (const Block &b : blocks_)
        m = std::max(m, b.eraseCount);
    return m;
}

std::uint32_t
NandFlash::minEraseCount() const
{
    std::uint32_t m = ~std::uint32_t{0};
    for (const Block &b : blocks_)
        m = std::min(m, b.eraseCount);
    return blocks_.empty() ? 0 : m;
}

Tick
NandFlash::allIdleAt() const
{
    Tick t = 0;
    for (const Resource &d : dies_)
        t = std::max(t, d.freeAt());
    for (const Resource &c : channels_)
        t = std::max(t, c.freeAt());
    return t;
}

} // namespace checkin
