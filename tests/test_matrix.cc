/**
 * @file
 * Cross-configuration sweep tests: (mapping unit x mode) content
 * convergence and NAND geometry variations end-to-end.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "harness/experiment.h"
#include "harness/presets.h"

namespace checkin {
namespace {

ExperimentConfig
sweepConfig()
{
    ExperimentConfig c = presets::small();
    c.engine.recordCount = 1500;
    c.workload = WorkloadSpec::a();
    c.workload.operationCount = 4'000;
    c.threads = 16;
    c.engine.checkpointInterval = 10 * kMsec;
    c.engine.checkpointJournalBytes = 512 * kKiB;
    c.engine.journalHalfBytes = 4 * kMiB;
    return c;
}

using UnitMode = std::tuple<std::uint32_t, CheckpointMode>;

class UnitModeMatrix : public ::testing::TestWithParam<UnitMode>
{
};

TEST_P(UnitModeMatrix, RunsAndVerifiesAtEveryMappingUnit)
{
    const auto [unit, mode] = GetParam();
    ExperimentConfig c = sweepConfig();
    c.engine.mode = mode;
    c.mappingUnitOverride = unit;
    const RunResult r = runExperiment(c);
    EXPECT_EQ(r.client.opsCompleted, 4'000u);
    EXPECT_GT(r.checkpoints, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnitModeMatrix,
    ::testing::Combine(::testing::Values(512u, 1024u, 2048u, 4096u),
                       ::testing::Values(CheckpointMode::Baseline,
                                         CheckpointMode::IscC,
                                         CheckpointMode::CheckIn)),
    [](const ::testing::TestParamInfo<UnitMode> &info) {
        std::string name = "u" +
                           std::to_string(std::get<0>(info.param));
        switch (std::get<1>(info.param)) {
          case CheckpointMode::Baseline: name += "_Baseline"; break;
          case CheckpointMode::IscC: name += "_IscC"; break;
          case CheckpointMode::CheckIn: name += "_CheckIn"; break;
          default: name += "_Other"; break;
        }
        return name;
    });

struct Geometry
{
    std::uint32_t channels;
    std::uint32_t dies;
    std::uint32_t planes;
    const char *name;
};

/** Test names print the geometry's name, not its bytes (which hold a
 *  pointer and padding and so change from build to build). */
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.name;
}

class GeometrySweep : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(GeometrySweep, EndToEndOnDifferentArrays)
{
    const Geometry g = GetParam();
    ExperimentConfig c = sweepConfig();
    c.engine.mode = CheckpointMode::CheckIn;
    c.nand.channels = g.channels;
    c.nand.diesPerChannel = g.dies;
    c.nand.planesPerDie = g.planes;
    // Keep capacity roughly constant across geometries.
    c.nand.blocksPerPlane =
        512 / (g.channels * g.dies * g.planes);
    const RunResult r = runExperiment(c);
    EXPECT_EQ(r.client.opsCompleted, 4'000u);
    EXPECT_GT(r.nandPrograms, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Arrays, GeometrySweep,
    ::testing::Values(Geometry{1, 1, 1, "single"},
                      Geometry{2, 1, 1, "dualchan"},
                      Geometry{2, 2, 2, "planes"},
                      Geometry{8, 4, 1, "wide"},
                      Geometry{4, 2, 1, "default"}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.name);
    });

TEST(GeometryScaling, MoreDiesMeanMoreWriteBandwidth)
{
    // Write-heavy run on a 1-die vs 8-die array of equal capacity:
    // striping must scale throughput substantially.
    double ops_per_sec[2];
    int i = 0;
    for (std::uint32_t channels : {1u, 4u}) {
        ExperimentConfig c = sweepConfig();
        c.engine.mode = CheckpointMode::CheckIn;
        c.workload = WorkloadSpec::wo();
        c.workload.operationCount = 8'000;
        c.threads = 32;
        c.nand.channels = channels;
        c.nand.diesPerChannel = channels == 1 ? 1 : 2;
        c.nand.blocksPerPlane = 512 / (channels *
                                       c.nand.diesPerChannel);
        // Avoid cache effects dominating: writes only.
        ops_per_sec[i++] = runExperiment(c).throughputOps;
    }
    EXPECT_GT(ops_per_sec[1], ops_per_sec[0] * 2.0);
}

} // namespace
} // namespace checkin
