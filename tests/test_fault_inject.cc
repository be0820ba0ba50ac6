/**
 * @file
 * Fault-injection tests: FaultPlan determinism, the NAND ECC
 * retry/uncorrectable model, FTL bad-block retirement, the SSD
 * front-end retry budget, the writeSeq power-loss replay order, and
 * the crash-consistency oracle + sweep-worker reproducibility.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "ftl/ftl.h"
#include "harness/crash_oracle.h"
#include "harness/presets.h"
#include "harness/sweep.h"
#include "nand/nand_flash.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"
#include "test_support.h"

namespace checkin {
namespace {

NandConfig
tinyNand()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 2;
    c.planesPerDie = 1;
    c.blocksPerPlane = 4;
    c.pagesPerBlock = 8;
    return c;
}

SectorData
sectorFor(std::uint64_t tag)
{
    SectorData d;
    for (std::uint32_t c = 0; c < kChunksPerSector; ++c)
        d.chunks[c] = mix64(tag * 4 + c + 1);
    return d;
}

// ---------------------------------------------------------------------
// FaultPlan: the seed-deterministic schedule itself
// ---------------------------------------------------------------------

FaultConfig
nominalConfig()
{
    FaultConfig fc;
    fc.enabled = true;
    fc.readBitErrorProb = 0.3;
    fc.programFailProb = 0.2;
    fc.eraseFailProb = 0.1;
    fc.wearFactor = 1.0;
    return fc;
}

TEST(FaultPlan, SameSeedAndConfigGiveIdenticalSchedule)
{
    const FaultConfig fc = nominalConfig();
    FaultPlan a(fc, 99);
    FaultPlan b(fc, 99);
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Ppn ppn = i * 7 + 1;
        const std::uint64_t ec = i % 5;
        EXPECT_EQ(a.readFaults(ppn, ec, 100),
                  b.readFaults(ppn, ec, 100));
        EXPECT_EQ(a.programFails(ppn, ec, 100),
                  b.programFails(ppn, ec, 100));
        EXPECT_EQ(a.eraseFails(i, ec, 100), b.eraseFails(i, ec, 100));
    }
    a.recordPowerLoss(123456);
    b.recordPowerLoss(123456);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.counters().faultyReads, b.counters().faultyReads);
    EXPECT_EQ(a.counters().readRetries, b.counters().readRetries);
    EXPECT_EQ(a.counters().uncorrectableReads,
              b.counters().uncorrectableReads);
    EXPECT_EQ(a.counters().programFails, b.counters().programFails);
    EXPECT_EQ(a.counters().eraseFails, b.counters().eraseFails);
    EXPECT_EQ(a.counters().powerLosses, b.counters().powerLosses);
}

TEST(FaultPlan, DifferentSeedsDiverge)
{
    const FaultConfig fc = nominalConfig();
    FaultPlan a(fc, 1);
    FaultPlan b(fc, 2);
    for (std::uint64_t i = 0; i < 200; ++i) {
        a.readFaults(i, 0, 100);
        b.readFaults(i, 0, 100);
    }
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FaultPlan, StreamsAreCounterBasedNotInterleaved)
{
    // Decision i of one fault class never depends on how many draws
    // the other classes made first: interleaving program draws must
    // not perturb the read-fault sequence.
    const FaultConfig fc = nominalConfig();
    FaultPlan reads_only(fc, 7);
    FaultPlan interleaved(fc, 7);
    for (std::uint64_t i = 0; i < 100; ++i) {
        const std::uint32_t want = reads_only.readFaults(i, 0, 100);
        interleaved.programFails(i, 0, 100);
        interleaved.eraseFails(i, 0, 100);
        EXPECT_EQ(interleaved.readFaults(i, 0, 100), want)
            << "read decision " << i;
    }
}

TEST(FaultPlan, CapsForceExactlyOneFault)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.readBitErrorProb = 1.0;
    fc.readRetryMax = 2;
    fc.programFailProb = 1.0;
    fc.eraseFailProb = 1.0;
    fc.maxReadFaults = 1;
    fc.maxProgramFails = 1;
    fc.maxEraseFails = 1;
    FaultPlan p(fc, 3);
    // p = 1 makes every sensing attempt fail, so the single allowed
    // read fault exhausts the whole ECC budget.
    EXPECT_EQ(p.readFaults(0, 0, 100), fc.readRetryMax + 1);
    EXPECT_EQ(p.readFaults(1, 0, 100), 0u);
    EXPECT_TRUE(p.programFails(0, 0, 100));
    EXPECT_FALSE(p.programFails(1, 0, 100));
    EXPECT_TRUE(p.eraseFails(0, 0, 100));
    EXPECT_FALSE(p.eraseFails(1, 0, 100));
    EXPECT_EQ(p.counters().faultyReads, 1u);
    EXPECT_EQ(p.counters().uncorrectableReads, 1u);
    EXPECT_EQ(p.counters().readRetries, fc.readRetryMax);
    EXPECT_EQ(p.counters().programFails, 1u);
    EXPECT_EQ(p.counters().eraseFails, 1u);
}

TEST(FaultPlan, WearScalingReachesCertaintyAtEndOfLife)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.programFailProb = 0.5;
    fc.wearFactor = 1.0;
    FaultPlan p(fc, 11);
    // scaled = 0.5 * (1 + 1.0 * maxPe/maxPe) = 1.0: certain failure.
    EXPECT_TRUE(p.programFails(0, 100, 100));
}

TEST(FaultPlan, DisabledPlanInjectsNothing)
{
    FaultConfig fc;
    fc.enabled = false;
    fc.readBitErrorProb = 1.0;
    fc.programFailProb = 1.0;
    fc.eraseFailProb = 1.0;
    FaultPlan p(fc, 5);
    for (std::uint64_t i = 0; i < 32; ++i) {
        EXPECT_EQ(p.readFaults(i, 0, 100), 0u);
        EXPECT_FALSE(p.programFails(i, 0, 100));
        EXPECT_FALSE(p.eraseFails(i, 0, 100));
    }
    EXPECT_EQ(p.counters().faultyReads, 0u);
    EXPECT_EQ(p.counters().programFails, 0u);
    EXPECT_EQ(p.counters().eraseFails, 0u);
}

TEST(FaultPlan, PowerLossFoldsIntoDigest)
{
    FaultConfig fc;
    fc.enabled = true;
    FaultPlan p(fc, 5);
    const std::uint64_t before = p.digest();
    p.recordPowerLoss(4242);
    EXPECT_NE(p.digest(), before);
    EXPECT_EQ(p.counters().powerLosses, 1u);
}

// ---------------------------------------------------------------------
// NAND: ECC retry timing, uncorrectable reads, program/erase fails
// ---------------------------------------------------------------------

TEST(NandFaults, RecoveredReadChargesRetrySenseTime)
{
    const NandConfig nc = tinyNand();
    FaultConfig fc;
    fc.enabled = true;
    fc.readBitErrorProb = 0.6;
    fc.readRetryMax = 4;
    // Probe for a seed whose first read recovers after >= 1 retry so
    // the timing assertion below exercises the retry path.
    std::uint64_t seed = 0;
    std::uint32_t fails = 0;
    for (std::uint64_t s = 0; s < 64 && fails == 0; ++s) {
        FaultPlan probe(fc, s);
        const std::uint32_t f = probe.readFaults(0, 0, nc.maxPeCycles);
        if (f >= 1 && f <= fc.readRetryMax) {
            seed = s;
            fails = f;
        }
    }
    ASSERT_GE(fails, 1u);
    ASSERT_LE(fails, fc.readRetryMax);

    NandFlash clean(nc);
    const Tick prog = clean.program(0, 0).tick;
    const NandResult clean_read = clean.read(0, prog);
    ASSERT_TRUE(clean_read.ok());

    NandFlash faulty(nc);
    FaultPlan plan(fc, seed);
    faulty.setFaultPlan(&plan);
    ASSERT_EQ(faulty.program(0, 0).tick, prog);
    const NandResult r = faulty.read(0, prog);
    EXPECT_TRUE(r.ok());
    // Each failed sensing attempt extends the die phase; the channel
    // transfer is unchanged.
    EXPECT_EQ(r.tick, clean_read.tick + fails * fc.readRetryLatency);
    EXPECT_EQ(plan.counters().faultyReads, 1u);
    EXPECT_EQ(plan.counters().readRetries, fails);
    EXPECT_EQ(faulty.stats().get("nand.readRetries"), fails);
}

TEST(NandFaults, UncorrectableReadSkipsChannelTransfer)
{
    const NandConfig nc = tinyNand();
    FaultConfig fc;
    fc.enabled = true;
    fc.readBitErrorProb = 1.0;
    fc.readRetryMax = 2;
    FaultPlan plan(fc, 1);
    NandFlash nand(nc);
    nand.setFaultPlan(&plan);
    const Tick prog = nand.program(0, 0).tick;
    const NandResult r = nand.read(0, prog);
    EXPECT_EQ(r.status, NandStatus::Uncorrectable);
    EXPECT_FALSE(r.ok());
    // ECC gave up after the full budget: sense time only, nothing
    // crosses the channel.
    EXPECT_EQ(r.tick, prog + nc.readLatency +
                          fc.readRetryMax * fc.readRetryLatency);
    EXPECT_EQ(plan.counters().uncorrectableReads, 1u);
    EXPECT_EQ(nand.stats().get("nand.uncorrectable"), 1u);
}

TEST(NandFaults, ProgramFailConsumesThePage)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.programFailProb = 1.0;
    fc.maxProgramFails = 1;
    FaultPlan plan(fc, 2);
    NandFlash nand(tinyNand());
    nand.setFaultPlan(&plan);
    const NandResult r1 = nand.program(0, 0);
    EXPECT_EQ(r1.status, NandStatus::ProgramFailed);
    // The page is consumed (in-order rule).
    EXPECT_EQ(nand.nextProgramPage(0), 1u);
    EXPECT_TRUE(nand.isProgrammed(0));
    // The cap is exhausted: the next program succeeds.
    const NandResult r2 = nand.program(1, r1.tick);
    EXPECT_TRUE(r2.ok());
    EXPECT_TRUE(nand.isProgrammed(1));
}

TEST(NandFaults, EraseFailLeavesContentsAndConsumesPeCycle)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.eraseFailProb = 1.0;
    fc.maxEraseFails = 1;
    FaultPlan plan(fc, 2);
    NandFlash nand(tinyNand());
    nand.setFaultPlan(&plan);
    const Tick prog = nand.program(0, 0).tick;
    const NandResult r1 = nand.eraseBlock(0, prog);
    EXPECT_EQ(r1.status, NandStatus::EraseFailed);
    EXPECT_TRUE(nand.isProgrammed(0));
    EXPECT_EQ(nand.nextProgramPage(0), 1u);
    EXPECT_EQ(nand.eraseCount(0), 1u);
    // Cap exhausted: the retry erase succeeds and clears the block.
    const NandResult r2 = nand.eraseBlock(0, r1.tick);
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(nand.nextProgramPage(0), 0u);
    EXPECT_EQ(nand.eraseCount(0), 2u);
}

// ---------------------------------------------------------------------
// FTL consequences: bad-block retirement with live-data rescue
// ---------------------------------------------------------------------

TEST(FtlFaults, ProgramFailRetiresBlockAndRescuesData)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.programFailProb = 1.0;
    fc.maxProgramFails = 1;
    FaultPlan plan(fc, 3);
    NandFlash nand(miniNand());
    nand.setFaultPlan(&plan);
    FtlConfig cfg;
    cfg.mappingUnitBytes = 512;
    Ftl ftl(nand, cfg);
    for (Lpn lpn = 0; lpn < 64; ++lpn) {
        const SectorData d = sectorFor(lpn + 1);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0, lpn + 1);
    }
    ftl.flushOpenPages(0);
    EXPECT_EQ(plan.counters().programFails, 1u);
    EXPECT_EQ(ftl.stats().get("ftl.retiredBlocks"), 1u);
    ftl.checkInvariants();
    for (Lpn lpn = 0; lpn < 64; ++lpn) {
        SectorData got;
        ftl.peekSectors(lpn, 1, &got);
        EXPECT_EQ(got, sectorFor(lpn + 1)) << "lpn " << lpn;
    }
}

TEST(FtlFaults, EraseFailDuringGcRetiresVictimBlock)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.eraseFailProb = 1.0;
    fc.maxEraseFails = 1;
    FaultPlan plan(fc, 4);
    NandFlash nand(miniNand());
    nand.setFaultPlan(&plan);
    FtlConfig cfg;
    cfg.mappingUnitBytes = 512;
    cfg.gcLowWaterBlocks = 3;
    cfg.gcHighWaterBlocks = 5;
    Ftl ftl(nand, cfg);
    // Hammer a small logical range so GC must erase victims; the one
    // allowed erase failure retires its block.
    const std::uint64_t lpns = 64;
    std::vector<std::uint64_t> generation(lpns, 0);
    std::uint64_t round = 0;
    for (int iter = 0; iter < 12000; ++iter) {
        const std::uint64_t lpn = iter % lpns;
        generation[lpn] = ++round;
        const SectorData d = sectorFor(round);
        ftl.writeSectors(lpn, 1, &d, IoCause::Query, 0, round);
    }
    EXPECT_EQ(plan.counters().eraseFails, 1u);
    EXPECT_GE(ftl.stats().get("ftl.retiredBlocks"), 1u);
    ftl.checkInvariants();
    for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
        SectorData got;
        ftl.peekSectors(lpn, 1, &got);
        EXPECT_EQ(got, sectorFor(generation[lpn])) << "lpn " << lpn;
    }
    EXPECT_GE(ftl.freeBlocks(), 2u);
}

// ---------------------------------------------------------------------
// SSD front end: timeout/retry/backoff against uncorrectable reads
// ---------------------------------------------------------------------

struct FaultySsd
{
    explicit FaultySsd(const FaultConfig &fc) : plan(fc, 7)
    {
        ctx.setFaults(&plan);
        FtlConfig fcfg;
        fcfg.mappingUnitBytes = 512;
        // One-page data cache: reads must really sense the NAND so
        // the injected bit errors reach the front end.
        fcfg.dataCacheBytes = 4096;
        ssd = std::make_unique<Ssd>(ctx, miniNand(), fcfg,
                                    SsdConfig{});
    }

    SimContext ctx;
    FaultPlan plan;
    std::unique_ptr<Ssd> ssd;
};

std::vector<SectorData>
sectorRange(std::uint64_t base, std::uint32_t n)
{
    std::vector<SectorData> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        v.push_back(sectorFor(base + i));
    return v;
}

TEST(SsdFaults, FrontEndRetryRecoversWithinBudget)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.readBitErrorProb = 1.0;
    fc.readRetryMax = 0; // first injected fault is uncorrectable
    fc.maxReadFaults = 1; // ... and the front-end retry read is clean
    FaultySsd dev(fc);
    // Enough writes that LBA 0's slot is programmed, not open-page
    // buffered, so the read really senses NAND.
    dev.ssd->submitSync(
        Command::write(0, sectorRange(1, 64), IoCause::Query, 1));
    bool done = false;
    CmdResult res;
    dev.ssd->submit(Command::read(0, 1), [&](const CmdResult &r) {
        done = true;
        res = r;
    });
    dev.ctx.events().run();
    ASSERT_TRUE(done);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.retries, 1u);
    SectorData got;
    dev.ssd->peek(0, 1, &got);
    EXPECT_EQ(got, sectorFor(1));
}

TEST(SsdFaults, ExhaustedRetryBudgetSurfacesMediaError)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.readBitErrorProb = 1.0;
    fc.readRetryMax = 0; // every read stays uncorrectable
    FaultySsd dev(fc);
    dev.ssd->submitSync(
        Command::write(0, sectorRange(1, 64), IoCause::Query, 1));
    bool done = false;
    CmdResult res;
    dev.ssd->submit(Command::read(0, 1), [&](const CmdResult &r) {
        done = true;
        res = r;
    });
    dev.ctx.events().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(res.status, CmdStatus::MediaError);
    EXPECT_EQ(res.retries, dev.ssd->config().readRetryBudget);
    EXPECT_THROW(res.require(), std::runtime_error);
    EXPECT_THROW(dev.ssd->submitSync(Command::read(0, 1)),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Power loss: host-write order beats die flush order (regression)
// ---------------------------------------------------------------------

TEST(PowerLossWriteSeq, NewestWriteWinsRegardlessOfDieParking)
{
    // The capacitor flush seals per-die open pages in die-index
    // order, so program sequence alone would replay an older write
    // parked in a higher die *after* a newer one in a lower die and
    // resurrect stale data. Sweep both parking offsets so every
    // die/page alignment of the two writes is exercised.
    for (int pre = 0; pre <= 3; ++pre) {
        for (int mid = 0; mid <= 12; ++mid) {
            NandFlash nand(tinyNand());
            FtlConfig cfg;
            cfg.mappingUnitBytes = 512;
            Ftl ftl(nand, cfg);
            Lpn filler = 100;
            for (int f = 0; f < pre; ++f) {
                const SectorData d = sectorFor(filler);
                ftl.writeSectors(filler++, 1, &d, IoCause::Query, 0,
                                 1);
            }
            const SectorData v1 = sectorFor(1000);
            const SectorData v2 = sectorFor(2000);
            ftl.writeSectors(0, 1, &v1, IoCause::Query, 0, 1);
            for (int f = 0; f < mid; ++f) {
                const SectorData d = sectorFor(filler);
                ftl.writeSectors(filler++, 1, &d, IoCause::Query, 0,
                                 1);
            }
            ftl.writeSectors(0, 1, &v2, IoCause::Query, 0, 2);
            ftl.flushOpenPages(0);
            ftl.rebuildFromPowerLoss();
            ftl.checkInvariants();
            SectorData got;
            ftl.peekSectors(0, 1, &got);
            EXPECT_EQ(got, v2)
                << "pre=" << pre << " mid=" << mid;
        }
    }
}

// ---------------------------------------------------------------------
// Crash oracle: reproducible and clean on a small campaign
// ---------------------------------------------------------------------

TEST(CrashOracle, DeterministicAndCleanAcrossRuns)
{
    OracleConfig oc;
    oc.base = presets::faulty();
    oc.base.engine.mode = CheckpointMode::CheckIn;
    oc.base.engine.recordCount = 200;
    oc.base.engine.journalHalfBytes = 2 * kMiB;
    oc.base.engine.checkpointJournalBytes = kMiB;
    oc.base.nand.blocksPerPlane = 32;
    oc.base.nand.pagesPerBlock = 32;
    oc.seed = 7;
    oc.crashPoints = 6;
    oc.ops = 240;
    const OracleReport a = runCrashOracle(oc);
    const OracleReport b = runCrashOracle(oc);
    EXPECT_TRUE(a.ok()) << "lost=" << a.lostWrites
                        << " torn=" << a.tornRecords;
    EXPECT_EQ(a.crashesRun, oc.crashPoints);
    EXPECT_GT(a.midCheckpointCrashes, 0u)
        << "no replay crashed inside a checkpoint window";
    EXPECT_GT(a.ackedWrites, 0u);
    // Same seed + config => byte-identical campaign.
    EXPECT_EQ(a.crashesRun, b.crashesRun);
    EXPECT_EQ(a.midCheckpointCrashes, b.midCheckpointCrashes);
    EXPECT_EQ(a.ackedWrites, b.ackedWrites);
    EXPECT_EQ(a.lostWrites, b.lostWrites);
    EXPECT_EQ(a.tornRecords, b.tornRecords);
    EXPECT_EQ(a.faultDigest, b.faultDigest);
}

// ---------------------------------------------------------------------
// Golden runs: fault-plan and oracle outputs pinned across commits
// (integers exact, doubles within 1.0). A change that moves them on
// purpose updates these constants and says why.
// ---------------------------------------------------------------------

TEST(FaultyPreset, GoldenRunIsBitIdentical)
{
    // Baseline mode and 100 k ops, so GC runs and every fault class
    // the preset enables fires at least once.
    ExperimentConfig cfg = presets::faulty();
    cfg.engine.mode = CheckpointMode::Baseline;
    cfg.workload.operationCount = 100'000;
    const RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.raw.at("fault.digest"), 761327256017165341u);
    EXPECT_EQ(r.raw.at("fault.readRetries"), 24u);
    EXPECT_EQ(r.raw.at("fault.programFails"), 13u);
    EXPECT_EQ(r.raw.at("fault.eraseFails"), 1u);
    EXPECT_EQ(r.raw.at("nand.eraseSkew"), 6u);
    EXPECT_EQ(r.raw.at("nand.reads"), 32886u);
    EXPECT_EQ(r.raw.at("nand.programs"), 82644u);
    EXPECT_EQ(r.raw.at("nand.erases"), 809u);
    EXPECT_EQ(r.raw.at("gc.pageReads"), 598u);
    EXPECT_EQ(r.nandReads, 32886u);
    EXPECT_EQ(r.nandPrograms, 78527u);
    EXPECT_EQ(r.nandErases, 809u);
    EXPECT_EQ(r.gcInvocations, 809u);
    EXPECT_EQ(r.gcMigratedSlots, 624u);
    EXPECT_EQ(r.checkpoints, 870u);
    EXPECT_NEAR(r.avgCheckpointMs, 18.5677, 1.0);
    EXPECT_NEAR(r.throughputOps, 5994.383, 1.0);
}

TEST(CrashOracle, GoldenCampaignIsBitIdentical)
{
    OracleConfig oc;
    oc.base = presets::faulty();
    oc.base.engine.recordCount = 200;
    oc.base.engine.journalHalfBytes = 2 * kMiB;
    oc.base.engine.checkpointJournalBytes = kMiB;
    oc.base.nand.blocksPerPlane = 32;
    oc.base.nand.pagesPerBlock = 32;
    oc.seed = 11;
    oc.crashPoints = 8;
    oc.ops = 300;
    const OracleReport r = runCrashOracle(oc);
    EXPECT_EQ(r.crashesRun, 8u);
    EXPECT_EQ(r.midCheckpointCrashes, 4u);
    EXPECT_EQ(r.ackedWrites, 829u);
    EXPECT_EQ(r.faultDigest, 15889715534029644928u);
    EXPECT_EQ(r.lostWrites, 0u);
    EXPECT_EQ(r.tornRecords, 0u);
}

// ---------------------------------------------------------------------
// Sweep: worker count must not perturb the fault schedule
// ---------------------------------------------------------------------

TEST(FaultSweep, WorkerCountDoesNotChangeScheduleOrOutcome)
{
    ExperimentConfig base = presets::faulty();
    base.workload.operationCount = 2000;
    SweepGrid grid(base);
    grid.axis({{"baseline",
                [](ExperimentConfig &c) {
                    c.engine.mode = CheckpointMode::Baseline;
                }},
               {"checkin",
                [](ExperimentConfig &c) {
                    c.engine.mode = CheckpointMode::CheckIn;
                }}});
    grid.axis({{"nominal", [](ExperimentConfig &) {}},
               {"eol", [](ExperimentConfig &c) {
                    c.faults.readBitErrorProb = 5e-3;
                    c.faults.programFailProb = 1e-3;
                    c.faults.eraseFailProb = 5e-3;
                    c.faults.wearFactor = 2.0;
                }}});
    const std::vector<SweepPoint> points = grid.points();
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions wide;
    wide.jobs = 4;
    const std::vector<SweepOutcome> a = runSweep(points, serial);
    const std::vector<SweepOutcome> b = runSweep(points, wide);
    ASSERT_EQ(a.size(), points.size());
    ASSERT_EQ(b.size(), points.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].label << ": " << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].label << ": " << b[i].error;
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_GT(a[i].result.raw.at("fault.digest"), 0u);
        EXPECT_EQ(a[i].result.raw.at("fault.digest"),
                  b[i].result.raw.at("fault.digest"))
            << a[i].label;
        // The whole counter map, not just the digest: 1 worker and 4
        // workers must produce bit-identical runs.
        EXPECT_EQ(a[i].result.raw, b[i].result.raw) << a[i].label;
    }
}

} // namespace
} // namespace checkin
