/**
 * @file
 * The Check-In storage engine: key-value mapping, journaling, the
 * checkpoint body, and crash recovery over EngineCore.
 */

#ifndef CHECKIN_ENGINE_KV_ENGINE_H_
#define CHECKIN_ENGINE_KV_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/engine_config.h"
#include "engine/engine_core.h"
#include "engine/journal.h"
#include "engine/keymap.h"
#include "engine/layout.h"
#include "sim/sim_context.h"
#include "sim/stats.h"
#include "ssd/ssd.h"

namespace checkin {

/**
 * The checkpoint-journal storage engine (paper Fig 5 host side) —
 * the `checkin` StorageEngine backend. Its journal, data-area layout,
 * keymap, catalog, checkpoint body and recovery sit on EngineCore's
 * query front and checkpoint lifecycle.
 *
 * Construct, then call either load() (fresh store) or recover()
 * (rebuild from an existing device after a crash), then start() to
 * arm the checkpoint timer, then issue queries.
 */
class KvEngine final : public EngineCore
{
  public:
    KvEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg);

    /**
     * Populate the data area and catalog with initial values
     * (version 1). @p size_of gives each key's value size.
     */
    void load(const std::function<std::uint32_t(std::uint64_t)>
                  &size_of) override;

    /**
     * Rebuild the engine state from the device: restore the keymap
     * from the catalog, replay journal logs newer than the catalog,
     * checkpoint them, and leave a clean store.
     */
    RecoveryInfo recover() override;

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------
    const DiskLayout &layout() const { return layout_; }
    const Keymap &keymap() const { return keymap_; }
    JournalManager &journal() { return journal_; }

  private:
    // EngineCore hooks.
    Located locate(std::uint64_t key) const override;
    /** A delete journals a tombstone; the next checkpoint trims the
     *  data-area slot and records the deletion in the catalog. */
    void doWrite(std::uint64_t key, std::uint32_t value_bytes,
                 QueryCb cb) override;
    /**
     * Atomic multi-key transaction (paper Fig 7: the engine groups
     * journal logs into a transaction): every operation journals in
     * one group commit, so a crash persists all of them or none.
     */
    void doUpdateBatch(std::vector<BatchOp> ops, QueryCb cb) override;
    /** Data-area resident keys are fetched as one sequential read;
     *  journal-resident keys are fetched individually. */
    void doScan(std::uint64_t start_key, std::uint32_t count,
                QueryCb cb) override;
    std::uint64_t journalBytes() const override;
    std::uint64_t journalRecords() const override;
    bool nothingToCheckpoint() const override;
    bool spareHalfBusy() const override;
    void runCheckpoint() override;

    /** Point @p e's key at its journal record, if newer. */
    void applyCommit(const JmtEntry &e);
    /** The chunk-precise CoW descriptor of @p e's record. */
    CowPair pairFor(const JmtEntry &e) const;
    /**
     * Move the records of @p entries from the journal to their
     * data-area slots with the mode's command (paper §IV-A): Baseline
     * reads them to the host and writes them back, ISC-A sends one
     * CowSingle per record, ISC-B batched CowMulti, and ISC-C and
     * Check-In batched CheckpointRemap. Tombstones then trim their
     * slots. @p done fires with the last completion tick.
     */
    void fold(const std::vector<JmtEntry> &entries,
              std::function<void(Tick)> done);
    /** The data area now holds @p entries: reads of keys not updated
     *  since switch back to it, and the catalog entries follow. */
    void noteFolded(const std::vector<JmtEntry> &entries);
    /**
     * Persist catalog entries for @p entries (their data-area state
     * changed) and fire @p cb when all metadata writes completed.
     */
    void writeCatalog(const std::vector<JmtEntry> &entries,
                      std::function<void(Tick)> cb);
    /** Sectors per catalog write: one mapping unit. */
    std::uint32_t catalogWriteSectors() const;
    /** The catalog write at @p base, built from the keymap into
     *  @p payload's storage. */
    Command catalogWrite(Lba base, std::vector<SectorData> payload) const;
    void deleteLogs(std::uint8_t half, std::function<void(Tick)> cb);

    DiskLayout layout_;
    Keymap keymap_;
    JournalManager journal_;

    // Per-entry and per-command counters, interned on their first add.
    StatHandle sHostReadSectors_{stats_, "engine.ckptHostReadSectors"};
    StatHandle sHostWriteSectors_{stats_,
                                  "engine.ckptHostWriteSectors"};
    StatHandle sCowCommands_{stats_, "engine.ckptCowCommands"};
    StatHandle sRemapCommands_{stats_, "engine.ckptRemapCommands"};
    StatHandle sTombstoneTrims_{stats_, "engine.ckptTombstoneTrims"};
    StatHandle sCatalogSectors_{stats_,
                                "engine.catalogSectorsWritten"};
};

} // namespace checkin

#endif // CHECKIN_ENGINE_KV_ENGINE_H_
