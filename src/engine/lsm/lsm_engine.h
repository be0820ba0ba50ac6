/**
 * @file
 * LSM StorageEngine backend: memtable index + WAL over the journal
 * area, immutable runs in the data area, and leveled compaction whose
 * merges are offloaded to the ISCE.
 */

#ifndef CHECKIN_ENGINE_LSM_LSM_ENGINE_H_
#define CHECKIN_ENGINE_LSM_LSM_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "engine/engine_config.h"
#include "engine/engine_core.h"
#include "engine/lsm/lsm_layout.h"
#include "sim/sim_context.h"
#include "ssd/ssd.h"

namespace checkin {

/**
 * The LSM StorageEngine backend (`lsm` behind EngineConfig::backend).
 *
 * Write path: updates append unit-aligned records to the active WAL
 * half (group commit, one write in flight); every WAL unit carries an
 * OOB annotation naming its L0 destination so remap promotions stay
 * durable across power loss. A "checkpoint" is a memtable flush: the
 * frozen half is promoted wholesale into its pre-assigned L0 region
 * with identity-offset CheckpointRemap pairs (zero data movement),
 * the manifest is persisted, and the half is released. Once
 * kLsmCompactRuns runs accumulate, a compaction folds L0 plus the
 * current L1 into the other L1 ping using force-copy CoW pairs — the
 * merge runs entirely inside the device.
 *
 * Read path: every key has at most one serving location (WAL, L0, or
 * L1); GETs issue a single read there. Tombstones are carried into L1
 * so version ordering survives trimmed-WAL resurrection after a
 * sudden power loss rebuild.
 */
class LsmEngine final : public EngineCore
{
  public:
    LsmEngine(SimContext &ctx, Ssd &ssd, const EngineConfig &cfg);

    void load(const std::function<std::uint32_t(std::uint64_t)>
                  &size_of) override;
    RecoveryInfo recover() override;

    const LsmLayout &layout() const { return layout_; }

  private:
    /** Where a record copy lives. */
    struct Loc
    {
        enum class Area : std::uint8_t
        {
            None,
            Wal, //!< idx = half
            L0,  //!< idx = region
            L1,  //!< idx = ping
        };
        Area area = Area::None;
        std::uint8_t idx = 0;
        std::uint64_t unitOff = 0;
    };

    /** Per-key memtable/index state. */
    struct KeyState
    {
        std::uint32_t version = 0; //!< committed (ack-durable)
        std::uint32_t assignedVersion = 0;
        std::uint32_t chunks = 0; //!< 0 = deleted
        Loc loc;                  //!< serving copy
        /** Newest data-area (L0/L1) copy — the compaction input;
         *  dataChunks == 0 marks a tombstone copy. */
        std::uint32_t dataVersion = 0;
        std::uint32_t dataChunks = 0;
        Loc dataLoc;
    };

    /** A record durably appended to a WAL half. */
    struct WalRec
    {
        std::uint64_t key = 0;
        std::uint32_t version = 0;
        std::uint32_t chunks = 0; //!< data chunks; 0 = tombstone
        std::uint8_t half = 0;
        std::uint64_t unitOff = 0;
        std::uint32_t units = 0;
    };

    /** An append waiting for its group commit. */
    struct PendingRec
    {
        std::uint64_t key = 0;
        std::uint32_t version = 0;
        std::uint32_t valueBytes = 0;
        std::uint32_t chunks = 0;
        std::uint32_t units = 0;
        std::function<void(const WalRec &, Tick)> cb;
    };

    /** One record movement of a compaction plan. */
    struct CompactMove
    {
        std::uint64_t key = 0;
        std::uint32_t version = 0;
        std::uint64_t dstUnitOff = 0;
        std::uint32_t units = 0;
    };

    /** One compaction: L0's runs and the current L1 ping, folded into
     *  the other ping. */
    struct Compaction
    {
        std::uint8_t oldPing = 0;
        std::uint64_t oldL1Units = 0;
        std::vector<std::uint32_t> regions; //!< the L0 runs folded
        std::vector<CompactMove> moves;
        std::vector<CowPair> pairs; //!< moves[i] as a CoW pair
    };

    /** Decoded manifest state. */
    struct Manifest
    {
        bool valid = false;
        std::uint8_t ping = 0;
        std::uint64_t globalSeq = 0;
        std::uint64_t regionUsedUnits[kLsmL0Regions] = {};
        std::uint64_t l1UsedUnits[2] = {};
    };

    std::uint32_t recordUnits(std::uint32_t chunks) const;
    Lba lbaOf(const Loc &loc) const;
    /** A CoW pair moving @p units whole units from @p src to @p dst,
     *  stamped with the next global sequence number. */
    CowPair unitPair(Lba src, Lba dst, std::uint32_t units,
                     bool force_copy);

    // EngineCore hooks.
    Located locate(std::uint64_t key) const override;
    void doWrite(std::uint64_t key, std::uint32_t value_bytes,
                 QueryCb cb) override;
    void doUpdateBatch(std::vector<BatchOp> ops, QueryCb cb) override;
    /** L1 residents are fetched as one sequential read (L1 is packed
     *  in key order); WAL and L0 residents individually. */
    void doScan(std::uint64_t start_key, std::uint32_t count,
                QueryCb cb) override;
    std::uint64_t journalBytes() const override;
    std::uint64_t journalRecords() const override;
    bool nothingToCheckpoint() const override;
    bool spareHalfBusy() const override;
    /** The memtable flush. */
    void runCheckpoint() override;
    void afterDeferredReleased() override;

    // WAL append path.
    void enqueueGroup(std::vector<PendingRec> group);
    void pumpWal();
    void applyWalAck(const WalRec &rec);

    // Flush (checkpoint) path.
    void quiesceWal(std::function<void()> fn);
    void onWalQuiesced();
    void onFlushDataDone(std::uint8_t half, std::uint32_t region,
                         const std::vector<WalRec> &recs);
    std::uint32_t reserveRegion();

    // Compaction: planCompaction(), its batches, applyCompaction(),
    // the manifest, then its trims. startCompaction() submits them
    // asynchronously, recover() synchronously.
    Compaction planCompaction();
    void startCompaction();
    /** Command @p b of @p c's batched CoW pairs. */
    Command compactionBatch(const Compaction &c, std::size_t b);
    void applyCompaction(const Compaction &c);
    /** Trims of the folded L0 regions and the old L1 ping. */
    std::vector<Command> compactionTrims(const Compaction &c) const;

    // Manifest + recovery.
    Command buildManifestCommand();
    Manifest readManifest() const;

    LsmLayout layout_;
    std::vector<KeyState> keymap_;

    /** Device-durable OOB version stamps: a single monotone counter
     *  shared by every write/copy so the SPOR rebuild's newest-wins
     *  arbitration orders slots across keys. Token content still
     *  carries per-key versions. */
    std::uint64_t globalSeq_ = 1;

    // WAL state.
    std::uint8_t activeHalf_ = 0;
    std::uint64_t appendUnit_[2] = {0, 0};
    std::uint64_t halfPayloadBytes_[2] = {0, 0};
    std::vector<WalRec> halfRecords_[2];
    bool halfClean_[2] = {true, true};
    std::uint32_t halfRegion_[2] = {0, 0};
    bool halfRegionValid_[2] = {false, false};
    std::deque<std::vector<PendingRec>> pendingGroups_;
    bool walInFlight_ = false;
    bool walStalled_ = false;
    std::function<void()> walQuiesceCb_;

    // L0 / L1 state.
    bool regionBusy_[kLsmL0Regions] = {};
    std::uint64_t regionUsedUnits_[kLsmL0Regions] = {};
    std::uint32_t usedRuns_ = 0;
    std::uint8_t ping_ = 0;
    std::uint64_t l1UsedUnits_[2] = {0, 0};
};

} // namespace checkin

#endif // CHECKIN_ENGINE_LSM_LSM_ENGINE_H_
