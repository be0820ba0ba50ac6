/**
 * @file
 * Helpers shared by the test files: the two small NAND geometries the
 * tests run on, the storage-node config built on the larger one, and
 * white-box access to a storage node's Check-In engine.
 */

#ifndef CHECKIN_TESTS_TEST_SUPPORT_H_
#define CHECKIN_TESTS_TEST_SUPPORT_H_

#include "engine/kv_engine.h"
#include "harness/experiment.h"
#include "harness/node.h"
#include "nand/nand_config.h"

namespace checkin {

/** 2 channels x 2 dies x 32 blocks x 32 pages (16 MiB): the device
 *  of the engine and full-stack tests. */
inline NandConfig
smallNand()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 2;
    c.blocksPerPlane = 32;
    c.pagesPerBlock = 32;
    return c;
}

/** 2 channels x 1 die x 16 blocks x 16 pages (2 MiB): the device of
 *  the FTL, SSD and command-level tests. */
inline NandConfig
miniNand()
{
    NandConfig c;
    c.channels = 2;
    c.diesPerChannel = 1;
    c.blocksPerPlane = 16;
    c.pagesPerBlock = 16;
    return c;
}

/** A storage node on smallNand() running @p engine, with default
 *  FTL and SSD settings and the mode's mapping unit. */
inline ExperimentConfig
stackConfig(const EngineConfig &engine)
{
    ExperimentConfig c;
    c.nand = smallNand();
    c.engine = engine;
    return c;
}

/** The node's engine as the Check-In KvEngine, for white-box checks
 *  (keymap, journal). */
inline KvEngine &
kvEngine(StorageNode &node)
{
    return dynamic_cast<KvEngine &>(node.engine());
}

inline const KvEngine &
kvEngine(const StorageNode &node)
{
    return dynamic_cast<const KvEngine &>(node.engine());
}

} // namespace checkin

#endif // CHECKIN_TESTS_TEST_SUPPORT_H_
