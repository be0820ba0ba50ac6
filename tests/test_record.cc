/**
 * @file
 * Tests for the invertible chunk-token encoding and the parser that
 * reads records back out of it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "engine/record.h"
#include "sim/rng.h"

namespace checkin {
namespace {

TEST(Token, ZeroDecodesInvalid)
{
    const DecodedToken d = decodeToken(0);
    EXPECT_FALSE(d.valid());
    EXPECT_EQ(d.tag, TokenTag::Invalid);
}

TEST(Token, DataRoundTrip)
{
    const std::uint64_t t = dataChunkToken(12345, 678, 9);
    const DecodedToken d = decodeToken(t);
    EXPECT_EQ(d.tag, TokenTag::Data);
    EXPECT_EQ(d.key, 12345u);
    EXPECT_EQ(d.version, 678u);
    EXPECT_EQ(d.aux, 9u);
}

TEST(Token, CatalogRoundTrip)
{
    const std::uint64_t t = catalogToken(999, 12, 32);
    const DecodedToken d = decodeToken(t);
    EXPECT_EQ(d.tag, TokenTag::Catalog);
    EXPECT_EQ(d.key, 999u);
    EXPECT_EQ(d.version, 12u);
    EXPECT_EQ(d.aux, 32u);
}

TEST(Token, DistinctInputsDistinctTokens)
{
    EXPECT_NE(dataChunkToken(1, 1, 0), dataChunkToken(1, 1, 1));
    EXPECT_NE(dataChunkToken(1, 1, 0), dataChunkToken(1, 2, 0));
    EXPECT_NE(dataChunkToken(1, 1, 0), dataChunkToken(2, 1, 0));
    EXPECT_NE(dataChunkToken(1, 1, 0), catalogToken(1, 1, 0));
}

struct TokenCase
{
    std::uint64_t key;
    std::uint64_t version;
    std::uint64_t aux;
};

class TokenRoundTrip : public ::testing::TestWithParam<TokenCase>
{
};

TEST_P(TokenRoundTrip, FieldLimits)
{
    const TokenCase c = GetParam();
    const DecodedToken d = decodeToken(
        dataChunkToken(c.key, c.version, c.aux));
    EXPECT_EQ(d.key, c.key);
    EXPECT_EQ(d.version, c.version);
    EXPECT_EQ(d.aux, c.aux);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, TokenRoundTrip,
    ::testing::Values(TokenCase{0, 0, 0}, TokenCase{1, 1, 1},
                      TokenCase{(1ULL << 24) - 1, 0, 0},
                      TokenCase{0, (1ULL << 24) - 1, 0},
                      TokenCase{0, 0, (1ULL << 12) - 1},
                      TokenCase{(1ULL << 24) - 1, (1ULL << 24) - 1,
                                (1ULL << 12) - 1},
                      TokenCase{123456, 99999, 31}));

TEST(Token, RandomSweepRoundTrips)
{
    Rng r(77);
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t key = r.nextBounded(1ULL << 24);
        const std::uint64_t ver = r.nextBounded(1ULL << 24);
        const std::uint64_t aux = r.nextBounded(1ULL << 12);
        const DecodedToken d =
            decodeToken(dataChunkToken(key, ver, aux));
        ASSERT_EQ(d.tag, TokenTag::Data);
        ASSERT_EQ(d.key, key);
        ASSERT_EQ(d.version, ver);
        ASSERT_EQ(d.aux, aux);
    }
}

TEST(Token, GarbageDecodesInvalidMostly)
{
    // Random 64-bit values decode as Invalid unless their unmixed tag
    // nibble happens to be 0xC/0xD/0xE (3/16 chance) — the decoder
    // must never crash on them.
    Rng r(78);
    int valid = 0;
    const int n = 10'000;
    for (int i = 0; i < n; ++i)
        valid += decodeToken(r.next()).valid();
    EXPECT_NEAR(double(valid) / n, 3.0 / 16.0, 0.02);
}

TEST(Token, TombstoneRoundTrip)
{
    const DecodedToken d = decodeToken(tombstoneToken(777, 42));
    EXPECT_EQ(d.tag, TokenTag::Tombstone);
    EXPECT_EQ(d.key, 777u);
    EXPECT_EQ(d.version, 42u);
    EXPECT_NE(tombstoneToken(777, 42), dataChunkToken(777, 42, 0));
}

/** Two sectors: a 3-chunk record of key 7 at chunk 0, a stray
 *  catalog token at 3, a tombstone of key 9 at 4, chunk 0 of key 8
 *  version 3 at 5, then a chunk 1 of version 4 (which ends that
 *  record) and a stray chunk 1 of version 3. */
std::vector<SectorData>
mixedArea()
{
    std::vector<SectorData> area(2);
    auto put = [&area](std::uint64_t pos, std::uint64_t token) {
        area[pos / kChunksPerSector].chunks[pos % kChunksPerSector] =
            token;
    };
    for (std::uint64_t c = 0; c < 3; ++c)
        put(c, dataChunkToken(7, 2, c));
    put(3, catalogToken(1, 1, 1));
    put(4, tombstoneToken(9, 5));
    put(5, dataChunkToken(8, 3, 0));
    put(6, dataChunkToken(8, 4, 1));
    put(7, dataChunkToken(8, 3, 1));
    return area;
}

std::vector<ParsedRecord>
parse(const std::vector<SectorData> &area, std::uint32_t stride)
{
    std::vector<ParsedRecord> out;
    parseRecords(area.data(), area.size(), stride,
                 [&out](const ParsedRecord &r) { out.push_back(r); });
    return out;
}

TEST(ParseRecords, ChunkStrideFindsEveryRecord)
{
    const std::vector<ParsedRecord> r = parse(mixedArea(), 1);
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].key, 7u);
    EXPECT_EQ(r[0].version, 2u);
    EXPECT_EQ(r[0].chunkOff, 0u);
    EXPECT_EQ(r[0].chunks, 3u);
    EXPECT_EQ(r[1].key, 9u);
    EXPECT_EQ(r[1].chunkOff, 4u);
    EXPECT_EQ(r[1].chunks, 0u); // tombstone
    EXPECT_EQ(r[2].key, 8u);
    EXPECT_EQ(r[2].chunkOff, 5u);
    EXPECT_EQ(r[2].chunks, 1u); // the next chunk is another version
}

TEST(ParseRecords, UnitStrideLooksOnlyAtUnitStarts)
{
    // Records start at chunks 0 and 4 only: the 3-chunk record takes
    // one unit, the tombstone another.
    const std::vector<ParsedRecord> r = parse(mixedArea(), 4);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].key, 7u);
    EXPECT_EQ(r[0].chunks, 3u);
    EXPECT_EQ(r[1].key, 9u);
    EXPECT_EQ(r[1].chunkOff, 4u);
}

} // namespace
} // namespace checkin
