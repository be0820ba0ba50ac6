/**
 * @file
 * Engine-level fuzzing: randomized mixes of every operation (get,
 * update, RMW, scan, delete, multi-key transactions, checkpoints)
 * interleaved with crash/recovery cycles and device power losses,
 * checked against a committed-state oracle plus full content
 * verification and FTL invariants after every phase.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_context.h"
#include "test_support.h"

namespace checkin {
namespace {

NandConfig
fuzzNand()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 2;
    c.blocksPerPlane = 24;
    c.pagesPerBlock = 24;
    return c;
}

EngineConfig
engineCfg(CheckpointMode mode)
{
    EngineConfig c;
    c.mode = mode;
    c.recordCount = 200;
    c.maxValueBytes = 2048;
    c.journalHalfBytes = 1 * kMiB;
    c.checkpointJournalBytes = 512 * kKiB;
    c.checkpointInterval = 0;
    return c;
}

struct Oracle
{
    /**
     * Committed (acked) version floor per key; recovery may surface
     * newer durable versions but must never go below this. (The
     * deleted/live state of the *latest* version cannot be tracked
     * from commit callbacks alone: group commits may reorder same-key
     * callbacks. Content correctness is covered by verifyAllKeys.)
     */
    std::map<std::uint64_t, std::uint32_t> committed;
};

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void
    SetUp() override
    {
        ExperimentConfig cfg;
        cfg.nand = fuzzNand();
        cfg.ftl.exportedRatio = 0.8;
        cfg.engine = engineCfg(GetParam() % 2 == 0
                                   ? CheckpointMode::CheckIn
                                   : CheckpointMode::IscC);
        node_ = std::make_unique<StorageNode>(ctx_, cfg);
        node_->load([](std::uint64_t) { return 256u; });
        for (std::uint64_t k = 0; k < 200; ++k)
            oracle_.committed[k] = 1;
    }

    KvEngine &engine() { return kvEngine(*node_); }

    void
    noteCommit(std::uint64_t key)
    {
        oracle_.committed[key] = std::max(
            oracle_.committed[key], engine().keymap()[key].version);
    }

    void
    crashAndRecover(bool firmware_loss)
    {
        if (firmware_loss)
            node_->powerCut();
        else
            node_->restartHost();
        // Recovery may surface newer (unacked but durable) versions;
        // committed versions are the floor.
        for (auto &[key, version] : oracle_.committed) {
            ASSERT_GE(engine().keymap()[key].version, version)
                << "lost committed update for key " << key;
            version = engine().keymap()[key].version;
        }
        engine().verifyAllKeys();
    }

    SimContext ctx_;
    EventQueue &eq_ = ctx_.events();
    std::unique_ptr<StorageNode> node_;
    Oracle oracle_;
};

TEST_P(EngineFuzz, RandomLifetimeStaysConsistent)
{
    Rng rng(GetParam() * 6151 + 17);
    for (int phase = 0; phase < 6; ++phase) {
        const int ops = 150 + int(rng.nextBounded(250));
        for (int i = 0; i < ops; ++i) {
            const std::uint64_t key = rng.nextBounded(200);
            switch (rng.nextBounded(100)) {
              case 0 ... 39: { // update
                const auto bytes = std::uint32_t(
                    64 + rng.nextBounded(1984));
                engine().update(key, bytes,
                                [this, key](const QueryResult &) {
                                    noteCommit(key);
                                });
                break;
              }
              case 40 ... 64: { // get (miss allowed for deleted)
                engine().get(key, [](const QueryResult &) {});
                break;
              }
              case 65 ... 74: { // rmw
                engine().readModifyWrite(
                    key, std::uint32_t(128 + rng.nextBounded(512)),
                    [this, key](const QueryResult &) {
                        noteCommit(key);
                    });
                break;
              }
              case 75 ... 82: { // scan
                engine().scan(key,
                              std::uint32_t(
                                  1 + rng.nextBounded(16)),
                              [](const QueryResult &) {});
                break;
              }
              case 83 ... 89: { // delete
                engine().erase(key,
                               [this, key](const QueryResult &) {
                                   noteCommit(key);
                               });
                break;
              }
              case 90 ... 95: { // small transaction
                std::vector<KvEngine::BatchOp> batch;
                const std::uint64_t n = 2 + rng.nextBounded(4);
                for (std::uint64_t b = 0; b < n; ++b) {
                    batch.push_back(
                        {(key + b) % 200,
                         std::uint32_t(128 * (1 +
                                              rng.nextBounded(4)))});
                }
                auto keys = std::make_shared<
                    std::vector<std::uint64_t>>();
                for (const auto &op : batch)
                    keys->push_back(op.key);
                engine().updateBatch(
                    std::move(batch),
                    [this, keys](const QueryResult &) {
                        for (std::uint64_t k : *keys)
                            noteCommit(k);
                    });
                break;
              }
              default: { // checkpoint request
                engine().requestCheckpoint();
                break;
              }
            }
        }
        // Randomly drain partially or fully, then maybe crash.
        const std::uint64_t drain = rng.nextBounded(3);
        if (drain == 0) {
            eq_.run();
        } else {
            const int steps = int(rng.nextBounded(400));
            for (int s = 0; s < steps && eq_.step(); ++s) {
            }
        }
        if (rng.nextBounded(2) == 0) {
            crashAndRecover(rng.nextBounded(2) == 0);
        } else {
            eq_.run();
            engine().verifyAllKeys();
            node_->ssd().ftl().checkInvariants();
        }
    }
    // Final settle + full validation.
    eq_.run();
    engine().requestCheckpoint();
    eq_.run();
    engine().verifyAllKeys();
    node_->ssd().ftl().checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range<std::uint64_t>(0, 10));

} // namespace
} // namespace checkin
