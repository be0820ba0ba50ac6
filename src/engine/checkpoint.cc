#include "engine/checkpoint.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "engine/record.h"

namespace checkin {

const char *
checkpointModeName(CheckpointMode mode)
{
    switch (mode) {
      case CheckpointMode::Baseline: return "Baseline";
      case CheckpointMode::IscA: return "ISC-A";
      case CheckpointMode::IscB: return "ISC-B";
      case CheckpointMode::IscC: return "ISC-C";
      case CheckpointMode::CheckIn: return "Check-In";
    }
    return "?";
}

const char *
engineBackendName(EngineBackend backend)
{
    switch (backend) {
      case EngineBackend::CheckIn: return "checkin";
      case EngineBackend::Lsm: return "lsm";
    }
    return "?";
}

CowPair
CheckpointStrategy::pairFor(const JmtEntry &entry) const
{
    return CowPair::make(
        layout_.journalChunkLba(entry.half, entry.chunkOff),
        std::uint32_t(entry.chunkOff % kChunksPerSector),
        layout_.targetLba(entry.key), entry.chunks, entry.version,
        /*force_copy=*/entry.type == LogType::Merged ||
            entry.type == LogType::Partial);
}

std::unique_ptr<CheckpointStrategy>
CheckpointStrategy::create(Ssd &ssd, const DiskLayout &layout,
                           const EngineConfig &cfg,
                           StatRegistry &stats)
{
    switch (cfg.mode) {
      case CheckpointMode::Baseline:
        return std::make_unique<HostCheckpoint>(ssd, layout, cfg,
                                                stats);
      case CheckpointMode::IscA:
        return std::make_unique<SingleCowCheckpoint>(ssd, layout, cfg,
                                                     stats);
      case CheckpointMode::IscB:
        return std::make_unique<MultiCowCheckpoint>(ssd, layout, cfg,
                                                    stats);
      case CheckpointMode::IscC:
      case CheckpointMode::CheckIn:
        return std::make_unique<RemapCheckpoint>(ssd, layout, cfg,
                                                 stats);
    }
    return nullptr;
}

namespace {

/** Shared completion counter for a fan-out of commands. */
struct FanOut
{
    std::size_t outstanding = 0;
    Tick last = 0;
    CheckpointStrategy::DoneCb done;

    void
    complete(const CmdResult &r)
    {
        last = std::max(last, r.require());
        assert(outstanding > 0);
        if (--outstanding == 0)
            done(last);
    }
};

} // namespace

void
HostCheckpoint::run(const std::vector<JmtEntry> &entries, DoneCb done)
{
    if (entries.empty()) {
        done(ssd_.eventQueue().now());
        return;
    }
    // Phase 1: read every latest log into host memory (a read buffer
    // is allocated per log, paper §II-B). Content is captured at
    // submission, which is when the functional state is consistent.
    auto job = std::make_shared<FanOut>();
    auto payloads = std::make_shared<
        std::vector<std::vector<SectorData>>>();
    payloads->reserve(entries.size());
    auto self = this;
    auto phase2 = [self, entries, payloads, done](Tick reads_done) {
        (void)reads_done;
        auto wjob = std::make_shared<FanOut>();
        wjob->outstanding = entries.size();
        wjob->done = done;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const JmtEntry &e = entries[i];
            Command w = Command::write(
                self->layout_.targetLba(e.key),
                std::move((*payloads)[i]), IoCause::Checkpoint,
                e.version);
            self->sHostWriteSectors_.add(w.nsect);
            self->ssd_.submit(std::move(w),
                              [wjob](const CmdResult &r) {
                                  wjob->complete(r);
                              });
        }
    };
    job->outstanding = entries.size();
    job->done = phase2;
    for (const JmtEntry &e : entries) {
        const CowPair p = pairFor(e);
        // Host-side chunk extraction: journal sectors -> record image
        // placed at chunk 0 of the target.
        std::vector<SectorData> src(p.srcSectors());
        ssd_.peek(p.src, p.srcSectors(), src.data());
        std::vector<SectorData> dst(p.dstSectors());
        for (std::uint32_t c = 0; c < p.chunks; ++c) {
            const std::uint32_t s = p.srcChunkShift + c;
            dst[c / kChunksPerSector].chunks[c % kChunksPerSector] =
                src[s / kChunksPerSector].chunks[s % kChunksPerSector];
        }
        payloads->push_back(std::move(dst));
        Command r = Command::read(p.src, p.srcSectors(),
                                  IoCause::Checkpoint);
        sHostReadSectors_.add(r.nsect);
        ssd_.submit(std::move(r), [job](const CmdResult &res) {
            job->complete(res);
        });
    }
}

void
SingleCowCheckpoint::run(const std::vector<JmtEntry> &entries,
                         DoneCb done)
{
    if (entries.empty()) {
        done(ssd_.eventQueue().now());
        return;
    }
    auto job = std::make_shared<FanOut>();
    job->outstanding = entries.size();
    job->done = std::move(done);
    for (const JmtEntry &e : entries) {
        sCowCommands_.add();
        ssd_.submit(Command::cowSingle(pairFor(e)),
                    [job](const CmdResult &r) { job->complete(r); });
    }
}

void
MultiCowCheckpoint::run(const std::vector<JmtEntry> &entries,
                        DoneCb done)
{
    if (entries.empty()) {
        done(ssd_.eventQueue().now());
        return;
    }
    auto job = std::make_shared<FanOut>();
    job->done = std::move(done);
    std::vector<Command> cmds;
    for (std::size_t i = 0; i < entries.size();
         i += cfg_.maxPairsPerCommand) {
        const std::size_t end = std::min(
            entries.size(), i + cfg_.maxPairsPerCommand);
        std::vector<CowPair> pairs;
        pairs.reserve(end - i);
        for (std::size_t j = i; j < end; ++j)
            pairs.push_back(pairFor(entries[j]));
        cmds.push_back(Command::cowMulti(std::move(pairs)));
    }
    job->outstanding = cmds.size();
    for (Command &c : cmds) {
        sCowCommands_.add();
        ssd_.submit(std::move(c),
                    [job](const CmdResult &r) { job->complete(r); });
    }
}

void
RemapCheckpoint::run(const std::vector<JmtEntry> &entries, DoneCb done)
{
    if (entries.empty()) {
        done(ssd_.eventQueue().now());
        return;
    }
    auto job = std::make_shared<FanOut>();
    job->done = std::move(done);
    std::vector<Command> cmds;
    for (std::size_t i = 0; i < entries.size();
         i += cfg_.maxPairsPerCommand) {
        const std::size_t end = std::min(
            entries.size(), i + cfg_.maxPairsPerCommand);
        std::vector<CowPair> pairs;
        pairs.reserve(end - i);
        for (std::size_t j = i; j < end; ++j)
            pairs.push_back(pairFor(entries[j]));
        cmds.push_back(Command::checkpointRemap(std::move(pairs)));
    }
    job->outstanding = cmds.size();
    for (Command &c : cmds) {
        sRemapCommands_.add();
        ssd_.submit(std::move(c),
                    [job](const CmdResult &r) { job->complete(r); });
    }
}

} // namespace checkin
