/**
 * @file
 * Unit tests for the flat intrusive LRU used by the FTL hot caches,
 * including an equivalence check against a naive reference LRU.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>

#include "ftl/flat_lru.h"
#include "sim/rng.h"

namespace checkin {
namespace {

TEST(FlatLru, InsertTouchEvictOrder)
{
    FlatLru lru;
    lru.init(16, 3);
    EXPECT_EQ(lru.insert(1), kInvalidAddr);
    EXPECT_EQ(lru.insert(2), kInvalidAddr);
    EXPECT_EQ(lru.insert(3), kInvalidAddr);
    EXPECT_EQ(lru.size(), 3u);
    EXPECT_EQ(lru.lruKey(), 1u);

    // Touch the LRU entry; 2 becomes the eviction candidate.
    EXPECT_TRUE(lru.touch(1));
    EXPECT_EQ(lru.lruKey(), 2u);
    EXPECT_EQ(lru.insert(4), 2u);
    EXPECT_FALSE(lru.contains(2));
    EXPECT_TRUE(lru.contains(1));
    EXPECT_TRUE(lru.contains(3));
    EXPECT_TRUE(lru.contains(4));
}

TEST(FlatLru, TouchMissesAndReinsertion)
{
    FlatLru lru;
    lru.init(8, 2);
    EXPECT_FALSE(lru.touch(5));
    lru.insert(5);
    EXPECT_TRUE(lru.touch(5));
    // Re-insert of a resident key is a touch, not an eviction.
    lru.insert(6);
    EXPECT_EQ(lru.insert(5), kInvalidAddr);
    EXPECT_EQ(lru.lruKey(), 6u);
}

TEST(FlatLru, EraseUnlinksAnyPosition)
{
    FlatLru lru;
    lru.init(8, 4);
    for (std::uint64_t k = 0; k < 4; ++k)
        lru.insert(k);
    lru.erase(2); // middle
    lru.erase(0); // tail
    lru.erase(3); // head
    EXPECT_EQ(lru.size(), 1u);
    EXPECT_TRUE(lru.contains(1));
    lru.erase(1);
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_EQ(lru.lruKey(), kInvalidAddr);
    lru.erase(1); // erase of absent key is a no-op
    lru.insert(7);
    EXPECT_TRUE(lru.contains(7));
}

TEST(FlatLru, ZeroCapacityDisablesResidency)
{
    FlatLru lru;
    lru.init(8, 0);
    EXPECT_EQ(lru.insert(3), kInvalidAddr);
    EXPECT_FALSE(lru.contains(3));
    EXPECT_EQ(lru.size(), 0u);
}

TEST(FlatLru, ClearKeepsLinksReusable)
{
    FlatLru lru;
    lru.init(16, 4);
    for (std::uint64_t k = 0; k < 8; ++k)
        lru.insert(k);
    lru.clear();
    EXPECT_EQ(lru.size(), 0u);
    for (std::uint64_t k = 0; k < 16; ++k)
        EXPECT_FALSE(lru.contains(k));
    lru.insert(9);
    EXPECT_TRUE(lru.contains(9));
    EXPECT_EQ(lru.lruKey(), 9u);
}

/** Randomized equivalence against the list+map LRU it replaced. */
TEST(FlatLru, MatchesReferenceLruUnderRandomOps)
{
    constexpr std::uint64_t kUniverse = 64;
    constexpr std::size_t kCapacity = 8;

    FlatLru flat;
    flat.init(kUniverse, kCapacity);

    std::list<std::uint64_t> ref_list;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator>
        ref_index;
    auto ref_insert = [&](std::uint64_t key) {
        auto it = ref_index.find(key);
        if (it != ref_index.end()) {
            ref_list.splice(ref_list.begin(), ref_list, it->second);
            return;
        }
        ref_list.push_front(key);
        ref_index[key] = ref_list.begin();
        if (ref_list.size() > kCapacity) {
            ref_index.erase(ref_list.back());
            ref_list.pop_back();
        }
    };
    auto ref_erase = [&](std::uint64_t key) {
        auto it = ref_index.find(key);
        if (it == ref_index.end())
            return;
        ref_list.erase(it->second);
        ref_index.erase(it);
    };

    Rng rng(123);
    for (int op = 0; op < 20'000; ++op) {
        const std::uint64_t key = rng.nextBounded(kUniverse);
        switch (rng.nextBounded(4)) {
          case 0:
            flat.erase(key);
            ref_erase(key);
            break;
          default:
            flat.insert(key);
            ref_insert(key);
            break;
        }
        ASSERT_EQ(flat.size(), ref_list.size());
        ASSERT_EQ(flat.contains(key),
                  ref_index.find(key) != ref_index.end());
        if (!ref_list.empty()) {
            ASSERT_EQ(flat.lruKey(), ref_list.back());
        }
    }
}

} // namespace
} // namespace checkin
