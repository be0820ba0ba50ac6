/**
 * @file
 * On-disk content encoding for the simulated key-value store.
 *
 * Every 128 B chunk the engine writes carries a 64-bit token that
 * *invertibly* encodes what a real engine would serialize as bytes:
 * a tag (data chunk vs catalog entry), the key, the version, and an
 * auxiliary field (chunk index within the record, or stored-chunk
 * count for catalog entries). Tokens are bit-mixed so they look like
 * opaque data, and unmixed on read — recovery literally parses the
 * journal back out of the device (parseRecords()).
 */

#ifndef CHECKIN_ENGINE_RECORD_H_
#define CHECKIN_ENGINE_RECORD_H_

#include <cstdint>

#include "ftl/ftl.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace checkin {

/** What a chunk token represents. */
enum class TokenTag : std::uint8_t
{
    Invalid = 0x0,
    Data = 0xC,      //!< chunk @p aux of record (key, version)
    Catalog = 0xD,   //!< catalog entry: key at version with aux chunks
    Tombstone = 0xE, //!< deletion record for key at version
};

/** Inverse of mix64 (MurmurHash3 finalizer inverse). */
constexpr std::uint64_t
unmix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0x9cb4b2f8129337dbULL;
    x ^= x >> 33;
    x *= 0x4f74430c22a54005ULL;
    x ^= x >> 33;
    return x;
}

/** Field widths of the packed token layout. */
inline constexpr std::uint64_t kTokenKeyBits = 24;
inline constexpr std::uint64_t kTokenVersionBits = 24;
inline constexpr std::uint64_t kTokenAuxBits = 12;

/** Decoded view of a chunk token. */
struct DecodedToken
{
    TokenTag tag = TokenTag::Invalid;
    std::uint64_t key = 0;
    std::uint64_t version = 0;
    std::uint64_t aux = 0;

    bool valid() const { return tag != TokenTag::Invalid; }
};

/** Pack + mix a token. */
constexpr std::uint64_t
packToken(TokenTag tag, std::uint64_t key, std::uint64_t version,
          std::uint64_t aux)
{
    const std::uint64_t raw =
        (std::uint64_t(tag) << 60) |
        ((key & ((1ULL << kTokenKeyBits) - 1)) << 36) |
        ((version & ((1ULL << kTokenVersionBits) - 1)) << 12) |
        (aux & ((1ULL << kTokenAuxBits) - 1));
    return mix64(raw);
}

/** Unmix + unpack; zero tokens decode as Invalid (empty chunk). */
constexpr DecodedToken
decodeToken(std::uint64_t token)
{
    DecodedToken d;
    if (token == 0)
        return d;
    const std::uint64_t raw = unmix64(token);
    const auto tag = std::uint8_t(raw >> 60);
    if (tag != std::uint8_t(TokenTag::Data) &&
        tag != std::uint8_t(TokenTag::Catalog) &&
        tag != std::uint8_t(TokenTag::Tombstone)) {
        return d; // garbage / padding
    }
    d.tag = TokenTag(tag);
    d.key = (raw >> 36) & ((1ULL << kTokenKeyBits) - 1);
    d.version = (raw >> 12) & ((1ULL << kTokenVersionBits) - 1);
    d.aux = raw & ((1ULL << kTokenAuxBits) - 1);
    return d;
}

/** Token of chunk @p chunk_idx of record (key, version). */
constexpr std::uint64_t
dataChunkToken(std::uint64_t key, std::uint64_t version,
               std::uint64_t chunk_idx)
{
    return packToken(TokenTag::Data, key, version, chunk_idx);
}

/** Catalog-entry token: key is at @p version with @p chunks chunks.
 *  Zero chunks records a deletion. */
constexpr std::uint64_t
catalogToken(std::uint64_t key, std::uint64_t version,
             std::uint64_t chunks)
{
    return packToken(TokenTag::Catalog, key, version, chunks);
}

/** Journal tombstone token: key deleted at @p version. */
constexpr std::uint64_t
tombstoneToken(std::uint64_t key, std::uint64_t version)
{
    return packToken(TokenTag::Tombstone, key, version, 0);
}

/** A record parsed back out of the device (recovery). */
struct ParsedRecord
{
    std::uint64_t key = 0;
    std::uint32_t version = 0;
    std::uint64_t chunkOff = 0; //!< first chunk, from the area's start
    std::uint32_t chunks = 0;   //!< data chunks; 0 = tombstone
};

/**
 * Parse the records out of @p nsect sectors of an area, as recovery
 * reads them back: a record is a tombstone token, or the data tokens
 * of chunks 0, 1, ... of one (key, version). Records start only at
 * multiples of @p stride chunks (1 for the chunk-packed journal, a
 * mapping unit for unit-aligned areas); anything else is skipped one
 * stride at a time. Calls @p emit(const ParsedRecord &) per record,
 * in area order.
 */
template <typename Emit>
void
parseRecords(const SectorData *sectors, std::uint64_t nsect,
             std::uint32_t stride, Emit emit)
{
    const std::uint64_t nchunks = nsect * kChunksPerSector;
    auto token = [sectors](std::uint64_t pos) {
        return decodeToken(
            sectors[pos / kChunksPerSector].chunks[pos % kChunksPerSector]);
    };
    std::uint64_t pos = 0;
    while (pos < nchunks) {
        const DecodedToken d = token(pos);
        std::uint64_t n = 0; // data chunks of the record at pos
        if (d.tag == TokenTag::Tombstone) {
            emit(ParsedRecord{d.key, std::uint32_t(d.version), pos, 0});
        } else if (d.tag == TokenTag::Data && d.aux == 0) {
            n = 1;
            while (pos + n < nchunks) {
                const DecodedToken dn = token(pos + n);
                if (dn.tag != TokenTag::Data || dn.key != d.key ||
                    dn.version != d.version || dn.aux != n) {
                    break;
                }
                ++n;
            }
            emit(ParsedRecord{d.key, std::uint32_t(d.version), pos,
                              std::uint32_t(n)});
        }
        pos += (n == 0 ? 1 : divCeil(n, stride)) * stride;
    }
}

} // namespace checkin

#endif // CHECKIN_ENGINE_RECORD_H_
