/**
 * @file
 * Tests for the host-side value cache: unit behaviour (LRU,
 * version-keyed hits) and engine integration (hits avoid device
 * reads, stale versions miss, deletes evict).
 */

#include <gtest/gtest.h>

#include "engine/host_cache.h"
#include "sim/event_queue.h"
#include "sim/sim_context.h"
#include "test_support.h"

namespace checkin {
namespace {

TEST(HostCache, DisabledNeverHits)
{
    HostCache c(0);
    EXPECT_FALSE(c.enabled());
    c.insert(1, 1, 100);
    EXPECT_FALSE(c.lookup(1, 1));
    EXPECT_EQ(c.entries(), 0u);
}

TEST(HostCache, HitRequiresMatchingVersion)
{
    HostCache c(1024);
    c.insert(1, 3, 100);
    EXPECT_TRUE(c.lookup(1, 3));
    EXPECT_FALSE(c.lookup(1, 4)); // newer committed version
    EXPECT_FALSE(c.lookup(2, 3)); // other key
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(HostCache, InsertRefreshesVersionAndBytes)
{
    HostCache c(1024);
    c.insert(1, 1, 100);
    c.insert(1, 2, 200);
    EXPECT_FALSE(c.lookup(1, 1));
    EXPECT_TRUE(c.lookup(1, 2));
    EXPECT_EQ(c.usedBytes(), 200u);
    EXPECT_EQ(c.entries(), 1u);
}

TEST(HostCache, LruEvictionUnderPressure)
{
    HostCache c(300);
    c.insert(1, 1, 100);
    c.insert(2, 1, 100);
    c.insert(3, 1, 100);
    // Touch key 1 so key 2 is the LRU victim.
    EXPECT_TRUE(c.lookup(1, 1));
    c.insert(4, 1, 100);
    EXPECT_TRUE(c.lookup(1, 1));
    EXPECT_FALSE(c.lookup(2, 1));
    EXPECT_TRUE(c.lookup(3, 1));
    EXPECT_TRUE(c.lookup(4, 1));
    EXPECT_LE(c.usedBytes(), 300u);
}

TEST(HostCache, OversizedValueIsNotCached)
{
    HostCache c(100);
    c.insert(1, 1, 500);
    EXPECT_FALSE(c.lookup(1, 1));
    EXPECT_EQ(c.usedBytes(), 0u);
}

TEST(HostCache, EraseDropsEntry)
{
    HostCache c(1024);
    c.insert(1, 1, 100);
    c.erase(1);
    EXPECT_FALSE(c.lookup(1, 1));
    EXPECT_EQ(c.usedBytes(), 0u);
}

// ---------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------

EngineConfig
engineCfg(std::uint64_t cache_bytes)
{
    EngineConfig c;
    c.recordCount = 300;
    c.journalHalfBytes = 2 * kMiB;
    c.checkpointInterval = 0;
    c.hostCacheBytes = cache_bytes;
    return c;
}

struct Stack
{
    SimContext ctx;
    EventQueue &eq = ctx.events();
    StorageNode node;

    explicit Stack(std::uint64_t cache_bytes)
        : node(ctx, stackConfig(engineCfg(cache_bytes)))
    {
        node.load([](std::uint64_t) { return 256u; });
    }

    KvEngine &engine() { return kvEngine(node); }
};

TEST(HostCacheEngine, RepeatGetsHitAndSkipDevice)
{
    Stack s(64 * kKiB);
    // First GET misses (cold), second hits.
    s.engine().get(5, [](const QueryResult &) {});
    s.eq.run();
    const std::uint64_t reads_before =
        s.node.ssd().stats().get("ssd.cmd.read");
    s.engine().get(5, [](const QueryResult &) {});
    s.eq.run();
    EXPECT_EQ(s.node.ssd().stats().get("ssd.cmd.read"), reads_before);
    EXPECT_GE(s.engine().stats().get("engine.hostCacheHits"), 1u);
}

TEST(HostCacheEngine, UpdateInvalidatesOldVersion)
{
    Stack s(64 * kKiB);
    s.engine().get(5, [](const QueryResult &) {});
    s.eq.run();
    s.engine().update(5, 384, [](const QueryResult &) {});
    s.eq.run();
    // The update commits into the cache, so this GET still hits —
    // but at the *new* version (content verified internally).
    const std::uint64_t hits_before =
        s.engine().stats().get("engine.hostCacheHits");
    bool found = false;
    s.engine().get(5, [&](const QueryResult &r) { found = r.found; });
    s.eq.run();
    EXPECT_TRUE(found);
    EXPECT_GT(s.engine().stats().get("engine.hostCacheHits"),
              hits_before);
}

TEST(HostCacheEngine, DeleteEvicts)
{
    Stack s(64 * kKiB);
    s.engine().get(7, [](const QueryResult &) {});
    s.eq.run();
    s.engine().erase(7, [](const QueryResult &) {});
    s.eq.run();
    bool found = true;
    s.engine().get(7, [&](const QueryResult &r) { found = r.found; });
    s.eq.run();
    EXPECT_FALSE(found);
}

TEST(HostCacheEngine, CacheLatencyIsHostOnly)
{
    Stack s(64 * kKiB);
    s.engine().get(9, [](const QueryResult &) {});
    s.eq.run();
    const Tick start = s.eq.now();
    Tick done = 0;
    s.engine().get(9, [&](const QueryResult &r) { done = r.done; });
    s.eq.run();
    // Hit latency: host CPU only, far below a flash read.
    EXPECT_LT(done - start, 10 * kUsec);
}

TEST(HostCacheEngine, DisabledCacheAlwaysReads)
{
    Stack s(0);
    s.engine().get(5, [](const QueryResult &) {});
    s.engine().get(5, [](const QueryResult &) {});
    s.eq.run();
    EXPECT_EQ(s.engine().stats().get("engine.hostCacheHits"), 0u);
    EXPECT_GE(s.node.ssd().stats().get("ssd.cmd.read"), 2u);
}

} // namespace
} // namespace checkin
