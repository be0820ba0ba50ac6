/**
 * @file
 * Artifact input from outside the program: the JSON parser's nesting
 * cap and number grammar, asU64's whole-number rule, and a seeded
 * mutation campaign over a real run's bundle that every report render
 * must survive by returning or throwing std::exception.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/experiment.h"
#include "harness/presets.h"
#include "harness/report.h"
#include "obs/json_parse.h"
#include "sim/rng.h"

namespace checkin {
namespace {

std::string
nested(int depth)
{
    return std::string(std::size_t(depth), '[') +
           std::string(std::size_t(depth), ']');
}

TEST(JsonParse, NestingIsCappedAt256Levels)
{
    EXPECT_NO_THROW(obs::parseJson(nested(256)));
    EXPECT_THROW(obs::parseJson(nested(257)), std::runtime_error);
    EXPECT_THROW(obs::parseJson("{\"a\":" + nested(256) + "}"),
                 std::runtime_error);
    // Deep enough to overflow the stack of an uncapped parser.
    EXPECT_THROW(obs::parseJson(std::string(30000, '[')),
                 std::runtime_error);
}

TEST(JsonParse, AsU64AcceptsOnlyUnsignedWholeNumbers)
{
    const obs::JsonValue v = obs::parseJson(
        "[0, 42, 18446744073709551615, -5, 1.5, 1e3, -0, "
        "18446744073709551616, \"7\", null]");
    EXPECT_EQ(v.at(0).asU64(), 0u);
    EXPECT_EQ(v.at(1).asU64(), 42u);
    EXPECT_EQ(v.at(2).asU64(), 18446744073709551615u);
    for (std::size_t i = 3; i < 8; ++i) {
        EXPECT_THROW(v.at(i).asU64(), std::runtime_error)
            << v.at(i).text;
    }
    // Not a number at all: the fallback, as before.
    EXPECT_EQ(v.at(8).asU64(9), 9u);
    EXPECT_EQ(v.at(9).asU64(9), 9u);
    EXPECT_EQ(v.at(10).asU64(9), 9u);
}

TEST(JsonParse, NumbersFollowTheJsonGrammar)
{
    const obs::JsonValue v = obs::parseJson(
        "[0, -0, 12, -3.25, 1e5, 2E-3, 6.5e+2, 0.5]");
    EXPECT_EQ(v.at(2).asDouble(), 12.0);
    EXPECT_EQ(v.at(3).asDouble(), -3.25);
    EXPECT_EQ(v.at(4).asDouble(), 1e5);
    EXPECT_EQ(v.at(5).asDouble(), 2e-3);
    EXPECT_EQ(v.at(6).asDouble(), 650.0);
    EXPECT_EQ(v.at(7).asDouble(), 0.5);
    for (const char *bad : {"12-34e5", "1e", "01", ".5", "1.", "+1", "-",
                            "1e+", "-.5", "0x1", "1.5.2"}) {
        EXPECT_THROW(obs::parseJson(std::string("{\"n\":") + bad + "}"),
                     std::runtime_error)
            << bad;
        EXPECT_THROW(obs::parseJson(bad), std::runtime_error) << bad;
    }
}

// ---------------------------------------------------------------------
// Mutated bundles
// ---------------------------------------------------------------------

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spill(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary) << text;
}

/** One random corruption of @p s: a flipped byte, a truncation, a
 *  duplicated span, a long run of '[', or an inserted '-'. */
std::string
mutate(std::string s, Rng &rng)
{
    const std::size_t at = rng.nextBounded(s.size() + 1);
    switch (rng.nextBounded(5)) {
      case 0:
        if (at < s.size())
            s[at] = char(rng.nextBounded(256));
        break;
      case 1:
        s.resize(at);
        break;
      case 2: {
        const std::size_t from = rng.nextBounded(s.size() + 1);
        const std::size_t len = rng.nextBounded(64);
        s.insert(at, s.substr(from, len));
        break;
      }
      case 3:
        s.insert(at, std::string(1 + rng.nextBounded(40000), '['));
        break;
      default:
        s.insert(at, "-");
        break;
    }
    return s;
}

TEST(ReportInput, MutatedBundlesRenderOrThrow)
{
    namespace fs = std::filesystem;
    const fs::path base =
        fs::path(::testing::TempDir()) / "checkin-report-mutation";
    ExperimentConfig cfg = presets::small();
    cfg.workload.operationCount = 2000;
    cfg.threads = 8;
    cfg.traffic.mode = LoopMode::Open;
    cfg.traffic.offeredOpsPerSec = 150'000;
    cfg.traffic.tenants.push_back(TenantSpec{});
    cfg.obs.telemetry.enabled = true;
    cfg.obs.attributionEnabled = true;
    cfg.obs.artifactDir = (base / "run").string();
    const RunResult r = runExperiment(cfg);
    const fs::path src = r.artifacts.dir;
    ASSERT_NO_THROW(renderRunReportHtml(src.string()));

    const fs::path dir = base / "mutated";
    fs::create_directories(dir);
    const char *names[] = {"telemetry.json", "summary.json",
                           "blackbox.json"};
    std::string originals[3];
    for (int f = 0; f < 3; ++f) {
        originals[f] = slurp(src / names[f]);
        ASSERT_FALSE(originals[f].empty()) << names[f];
        spill(dir / names[f], originals[f]);
    }
    Rng rng(2026);
    int rejected = 0;
    for (int i = 0; i < 300; ++i) {
        const auto f = int(rng.nextBounded(3));
        spill(dir / names[f], mutate(originals[f], rng));
        for (int text = 0; text < 2; ++text) {
            try {
                if (text == 0)
                    renderRunReportHtml(dir.string());
                else
                    renderRunReportText(dir.string());
            } catch (const std::exception &) {
                ++rejected;
            }
        }
        spill(dir / names[f], originals[f]);
    }
    // Most corruptions make the JSON malformed; a campaign that
    // rejects nothing corrupted nothing.
    EXPECT_GT(rejected, 100);
}

} // namespace
} // namespace checkin
