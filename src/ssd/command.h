/**
 * @file
 * Block-interface command set of the Check-In SSD.
 *
 * Read/Write/Trim/Flush are the standard NVMe set; CowSingle,
 * CowMulti, CheckpointRemap, and DeleteLogs are the vendor-specific
 * extensions the paper introduces (§III-C): CoW copy commands for
 * in-storage checkpointing, the batched checkpoint request, and the
 * journal-log deletion notice consumed by the ISCE deallocator.
 */

#ifndef CHECKIN_SSD_COMMAND_H_
#define CHECKIN_SSD_COMMAND_H_

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ftl/ftl.h"
#include "ftl/ftl_types.h"
#include "nand/nand_types.h"
#include "sim/types.h"

namespace checkin {

/** Host-visible outcome of a command. */
enum class CmdStatus : std::uint8_t
{
    Ok = 0,
    /** Media error the front-end could not retry away (the NAND
     *  read stayed uncorrectable past the retry budget). */
    MediaError,
};

/** Completion record delivered to a command's submitter. */
struct CmdResult
{
    /** Completion tick (error completions report when the device
     *  gave up, time for all retries included). */
    Tick tick = 0;
    CmdStatus status = CmdStatus::Ok;
    /** Front-end retry attempts this command consumed. */
    std::uint32_t retries = 0;

    bool ok() const { return status == CmdStatus::Ok; }

    /** Completion tick; throws when the command failed. */
    Tick
    require() const
    {
        if (status != CmdStatus::Ok) {
            throw std::runtime_error(
                "SSD command failed: unrecoverable media error");
        }
        return tick;
    }
};

/**
 * One source -> destination copy/remap descriptor.
 *
 * Addresses are chunk-precise: the record starts @p srcChunkShift
 * 128 B chunks into sector @p src and is @p chunks chunks long; it is
 * delivered to sector @p dst starting at chunk 0 (data-area targets
 * are always sector aligned).
 */
struct CowPair
{
    /** First source sector (journal area). */
    Lba src = 0;
    /** Record start chunk within the first source sector (0..3). */
    std::uint32_t srcChunkShift = 0;
    /** First destination sector (data area). */
    Lba dst = 0;
    /** Record length in 128 B chunks. */
    std::uint32_t chunks = 0;
    /**
     * Force the physical-copy path even if remapping would be
     * possible; the Check-In engine sets this for PARTIAL/MERGED
     * records whose journal unit holds more than one record.
     */
    bool forceCopy = false;
    /** Recovery version recorded with the destination. */
    std::uint64_t version = 0;

    /** Source sectors touched. */
    std::uint32_t
    srcSectors() const
    {
        return std::uint32_t(
            divCeil(srcChunkShift + chunks, kChunksPerSector));
    }

    /** Destination sectors written. */
    std::uint32_t
    dstSectors() const
    {
        return std::uint32_t(divCeil(chunks, kChunksPerSector));
    }

    /**
     * Gather the record's chunk run out of its srcSectors() source
     * sectors @p src into its dstSectors() destination sectors @p dst,
     * chunk 0 first. Chunks of @p dst past the record keep their
     * value.
     */
    void
    gather(const SectorData *src, SectorData *dst) const
    {
        for (std::uint32_t c = 0; c < chunks; ++c) {
            const std::uint32_t s = srcChunkShift + c;
            dst[c / kChunksPerSector].chunks[c % kChunksPerSector] =
                src[s / kChunksPerSector].chunks[s % kChunksPerSector];
        }
    }

    static CowPair
    make(Lba src, std::uint32_t src_chunk_shift, Lba dst,
         std::uint32_t chunks, std::uint64_t version = 0,
         bool force_copy = false)
    {
        CowPair p;
        p.src = src;
        p.srcChunkShift = src_chunk_shift;
        p.dst = dst;
        p.chunks = chunks;
        p.version = version;
        p.forceCopy = force_copy;
        return p;
    }
};

enum class CmdType : std::uint8_t
{
    Read,
    Write,
    Trim,
    Flush,
    CowSingle,       //!< one CoW copy per command (ISC-A)
    CowMulti,        //!< batched CoW copies (ISC-B)
    CheckpointRemap, //!< batched CoW with remapping (ISC-C, Check-In)
    DeleteLogs,      //!< trim checkpointed journal logs (deallocator)
};

/** Name for stats keys. */
const char *cmdTypeName(CmdType type);

/** A host command. Fields beyond the type's needs are ignored. */
struct Command
{
    CmdType type = CmdType::Read;
    IoCause cause = IoCause::Query;

    /** Read/Write/Trim/DeleteLogs: start sector. */
    Lba lba = 0;
    /** Read/Write/Trim/DeleteLogs: sector count. */
    std::uint64_t nsect = 0;
    /** Write: payload, one entry per sector. */
    std::vector<SectorData> payload;
    /** Write: recovery version for the OOB area. */
    std::uint64_t version = 0;
    /**
     * Write: optional per-mapping-unit OOB annotations (checkpoint
     * target + version), one per unit covered; empty = defaults.
     * Used by the sector-aligning engine's journal writes so the
     * device can rebuild remaps after power loss (paper §III-G).
     */
    std::vector<OobEntry> unitOob;

    /** CowSingle/CowMulti/CheckpointRemap: copy descriptors. */
    std::vector<CowPair> pairs;

    static Command
    read(Lba lba, std::uint64_t nsect, IoCause cause = IoCause::Query)
    {
        Command c;
        c.type = CmdType::Read;
        c.cause = cause;
        c.lba = lba;
        c.nsect = nsect;
        return c;
    }

    static Command
    write(Lba lba, std::vector<SectorData> payload, IoCause cause,
          std::uint64_t version = 0)
    {
        Command c;
        c.type = CmdType::Write;
        c.cause = cause;
        c.lba = lba;
        c.nsect = payload.size();
        c.payload = std::move(payload);
        c.version = version;
        return c;
    }

    static Command
    trim(Lba lba, std::uint64_t nsect)
    {
        Command c;
        c.type = CmdType::Trim;
        c.lba = lba;
        c.nsect = nsect;
        return c;
    }

    static Command
    flush()
    {
        Command c;
        c.type = CmdType::Flush;
        return c;
    }

    static Command
    cowSingle(CowPair pair)
    {
        Command c;
        c.type = CmdType::CowSingle;
        c.cause = IoCause::Checkpoint;
        c.pairs.push_back(pair);
        return c;
    }

    static Command
    cowMulti(std::vector<CowPair> pairs)
    {
        Command c;
        c.type = CmdType::CowMulti;
        c.cause = IoCause::Checkpoint;
        c.pairs = std::move(pairs);
        return c;
    }

    static Command
    checkpointRemap(std::vector<CowPair> pairs)
    {
        Command c;
        c.type = CmdType::CheckpointRemap;
        c.cause = IoCause::Checkpoint;
        c.pairs = std::move(pairs);
        return c;
    }

    static Command
    deleteLogs(Lba lba, std::uint64_t nsect)
    {
        Command c;
        c.type = CmdType::DeleteLogs;
        c.cause = IoCause::Metadata;
        c.lba = lba;
        c.nsect = nsect;
        return c;
    }
};

} // namespace checkin

#endif // CHECKIN_SSD_COMMAND_H_
