/**
 * @file
 * Full-stack integration tests through the experiment harness:
 * every mode x workload combination runs end-to-end, completes all
 * operations, and passes full content verification (done inside
 * runExperiment); cross-mode orderings match the paper's claims.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/presets.h"

namespace checkin {
namespace {

ExperimentConfig
tinyConfig(CheckpointMode mode, const WorkloadSpec &wl)
{
    ExperimentConfig c = presets::small();
    c.engine.mode = mode;
    c.engine.recordCount = 2000;
    c.workload = wl;
    c.workload.operationCount = 6'000;
    c.threads = 16;
    c.engine.checkpointInterval = 10 * kMsec;
    c.engine.checkpointJournalBytes = 512 * kKiB;
    c.engine.journalHalfBytes = 4 * kMiB;
    return c;
}

/** One matrix point: a checkpoint mode and a YCSB workload. */
struct ModeWorkload
{
    CheckpointMode mode;
    const char *workload; //!< "a", "f" or "wo"
};

/** The point's test name, such as IscA_wo. */
std::string
caseName(const ModeWorkload &p)
{
    std::string name;
    switch (p.mode) {
      case CheckpointMode::Baseline: name = "Baseline"; break;
      case CheckpointMode::IscA: name = "IscA"; break;
      case CheckpointMode::IscB: name = "IscB"; break;
      case CheckpointMode::IscC: name = "IscC"; break;
      case CheckpointMode::CheckIn: name = "CheckIn"; break;
    }
    return name + "_" + p.workload;
}

/** Test names print the point's name, not the workload string's
 *  address (which changes from build to build). */
void
PrintTo(const ModeWorkload &p, std::ostream *os)
{
    *os << caseName(p);
}

std::vector<ModeWorkload>
modeWorkloadPoints()
{
    std::vector<ModeWorkload> points;
    for (const CheckpointMode mode :
         {CheckpointMode::Baseline, CheckpointMode::IscA,
          CheckpointMode::IscB, CheckpointMode::IscC,
          CheckpointMode::CheckIn}) {
        for (const char *workload : {"a", "f", "wo"})
            points.push_back({mode, workload});
    }
    return points;
}

class ModeWorkloadMatrix
    : public ::testing::TestWithParam<ModeWorkload>
{
  protected:
    static WorkloadSpec
    workloadByName(const std::string &name)
    {
        if (name == "a")
            return WorkloadSpec::a();
        if (name == "f")
            return WorkloadSpec::f();
        return WorkloadSpec::wo();
    }
};

TEST_P(ModeWorkloadMatrix, RunsToCompletionAndVerifies)
{
    const ModeWorkload p = GetParam();
    const RunResult r =
        runExperiment(tinyConfig(p.mode, workloadByName(p.workload)));
    EXPECT_EQ(r.client.opsCompleted, 6'000u);
    EXPECT_GT(r.throughputOps, 0.0);
    EXPECT_GT(r.client.all.mean(), 0.0);
    EXPECT_GT(r.checkpoints, 0u);
    // Flash activity happened and was attributed.
    EXPECT_GT(r.nandPrograms, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ModeWorkloadMatrix, ::testing::ValuesIn(modeWorkloadPoints()),
    [](const ::testing::TestParamInfo<ModeWorkload> &info) {
        return caseName(info.param);
    });

TEST(PaperClaims, CheckInBeatsBaselineOnRedundantWrites)
{
    const RunResult base = runExperiment(
        tinyConfig(CheckpointMode::Baseline, WorkloadSpec::a()));
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::a()));
    // Paper: -94.3 %. Require at least a 4x reduction here.
    EXPECT_LT(ours.redundantBytes * 4, base.redundantBytes);
    // And overall flash programs must drop.
    EXPECT_LT(ours.nandPrograms, base.nandPrograms);
}

TEST(PaperClaims, CheckInShortensCheckpointTime)
{
    const RunResult base = runExperiment(
        tinyConfig(CheckpointMode::Baseline, WorkloadSpec::a()));
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::a()));
    EXPECT_LT(ours.avgCheckpointMs, base.avgCheckpointMs);
}

TEST(PaperClaims, CheckInImprovesTailLatency)
{
    const RunResult base = runExperiment(
        tinyConfig(CheckpointMode::Baseline, WorkloadSpec::a()));
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::a()));
    EXPECT_LT(ours.client.all.quantile(0.999),
              base.client.all.quantile(0.999));
}

TEST(PaperClaims, CheckInRemapsWhereIscCCopies)
{
    const RunResult iscc = runExperiment(
        tinyConfig(CheckpointMode::IscC, WorkloadSpec::a()));
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::a()));
    EXPECT_GT(ours.remaps, iscc.remaps);
    EXPECT_LT(ours.redundantBytes, iscc.redundantBytes);
}

TEST(PaperClaims, AlignedJournalingCostsBoundedSpace)
{
    const RunResult ours = runExperiment(
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::wo()));
    // Bucketing to unit/4 steps can cost at most 3x on pathological
    // inputs; for the default size mix it stays well under 40 %.
    EXPECT_GE(ours.journalSpaceOverhead(), 0.0);
    EXPECT_LT(ours.journalSpaceOverhead(), 0.40);
}

TEST(Harness, DeltaStatsExcludeLoad)
{
    ExperimentConfig cfg =
        tinyConfig(CheckpointMode::CheckIn, WorkloadSpec::c());
    cfg.workload.operationCount = 500;
    const RunResult r = runExperiment(cfg);
    // A read-only workload with no checkpoints writes almost nothing
    // (map flushes may still occur).
    EXPECT_EQ(r.redundantSlotWrites, 0u);
    EXPECT_EQ(r.client.opsCompleted, 500u);
    EXPECT_GT(r.hostReadSectors, 0u);
}

TEST(Harness, ResolvedMappingUnitFollowsMode)
{
    ExperimentConfig c;
    c.engine.mode = CheckpointMode::Baseline;
    EXPECT_EQ(c.resolvedMappingUnit(), c.nand.pageBytes);
    c.engine.mode = CheckpointMode::CheckIn;
    EXPECT_EQ(c.resolvedMappingUnit(), 512u);
    c.mappingUnitOverride = 2048;
    EXPECT_EQ(c.resolvedMappingUnit(), 2048u);
}

} // namespace
} // namespace checkin
