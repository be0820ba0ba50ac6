/**
 * @file
 * Conservative time-window synchronizer: parallel DES inside one run.
 *
 * The classic conservative parallel-DES argument: every cross-node
 * message takes at least `lookahead` ticks of simulated link latency,
 * so events a node executes inside the window [W, W + lookahead)
 * cannot affect any other node within that same window. The
 * synchronizer therefore repeats
 *
 *   1. deliver all outbox messages into destination event queues
 *      (canonical order: source node id, then send order — delivery
 *      is barrier-side, so ordering never depends on which worker
 *      ran which node);
 *   2. stop when the run predicate says the workload is done;
 *   3. open the next window at m = min over nodes of nextEventTick
 *      (idle gaps are skipped wholesale, so windows are dense in
 *      event time, not wall time);
 *   4. advance every node with events due in [m, m + lookahead),
 *      each wrapped in its own SimContextScope. With T threads, node
 *      i runs on thread i mod T for the whole run (thread 0 is the
 *      caller, so the router stays there); threads hand windows off
 *      through two atomic counters, spinning briefly, then yielding,
 *      then parking.
 *
 * Determinism contract: a node's window execution is ordinary
 * single-threaded DES over its private SimContext, message delivery
 * order is canonical, and the thread count only decides *which
 * thread* runs a node — never the order of anything observable.
 * Results are byte-identical for 1 and K threads
 * (tests/test_cluster.cc).
 */

#ifndef CHECKIN_CLUSTER_SYNCHRONIZER_H_
#define CHECKIN_CLUSTER_SYNCHRONIZER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/node.h"
#include "sim/types.h"

namespace checkin {

/** Outcome counters of a synchronizer run. */
struct SyncStats
{
    std::uint64_t windows = 0;  //!< non-empty windows executed
    std::uint64_t messages = 0; //!< cross-node messages delivered
};

/**
 * Advance @p nodes in conservative windows of @p lookahead ticks on
 * @p threads threads (1 = serial on the calling thread; 0 resolves
 * through resolveJobs; never more than one per node) until @p done
 * returns true at a barrier, or no node has a pending event.
 *
 * @p done is evaluated after message delivery, so a predicate like
 * "router completed all ops" observes a fully drained system.
 * Lookahead must be positive and no message may be sent with a
 * delivery tick closer than one lookahead (asserted in debug builds).
 */
SyncStats runWindows(const std::vector<ClusterNode *> &nodes,
                     Tick lookahead, unsigned threads,
                     const std::function<bool()> &done);

/**
 * Run @p fn(i) for every i in [0, count) on @p threads threads, each
 * call wrapped however @p fn wishes (it receives only the index).
 * Used for the embarrassingly parallel build/load and teardown phases
 * around the windowed run; deterministic because the work items are
 * fully independent.
 */
void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

} // namespace checkin

#endif // CHECKIN_CLUSTER_SYNCHRONIZER_H_
