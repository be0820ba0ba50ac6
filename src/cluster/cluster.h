/**
 * @file
 * Sharded cluster simulation entry point.
 *
 * runCluster() builds N engine shards behind a front-end router,
 * loads them in parallel, advances the whole cluster under the
 * conservative time-window synchronizer, drains in-flight
 * checkpoints, verifies every shard's store, and assembles a
 * deterministic result. clusterResultJson() serializes it with
 * byte-stable output (no wall-clock fields), so artifacts are
 * identical for any synchronizer thread count.
 */

#ifndef CHECKIN_CLUSTER_CLUSTER_H_
#define CHECKIN_CLUSTER_CLUSTER_H_

#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "cluster/synchronizer.h"
#include "obs/artifacts.h"
#include "obs/telemetry.h"

namespace checkin {

/** Outcome of one cluster run. */
struct ClusterResult
{
    /** Client-visible (router-side) latency and routing totals. */
    RouterStats router;
    /** Per-shard summaries, indexed by shard id. */
    std::vector<ShardSummary> shards;
    SyncStats sync;

    /** Measurement start (max shard load-quiesce tick + margin). */
    Tick startTick = 0;
    /** firstIssue -> lastCompletion, in ticks. */
    Tick simSpan = 0;
    /** Completed ops per simulated second. */
    double throughputOps = 0.0;
    /** DES events dispatched across all nodes (router + shards). */
    std::uint64_t totalEvents = 0;
    /** Keys verified across all shards post-run. */
    std::uint64_t verifiedKeys = 0;
    /** Past-tick schedules clamped to now(), summed over the router
     *  and the shards; nonzero means a message or event broke the
     *  conservative-window invariant. Not part of cluster.json. */
    std::uint64_t clampedSchedules = 0;

    /** Cluster-wide telemetry rollup (probes/samples/events/anomalies
     *  summed over shards; enabled per cfg.shard.obs.telemetry). */
    obs::TelemetrySummary telemetry;

    /** cluster.json location when cfg.artifactDir was set. */
    obs::ArtifactBundle artifacts;
};

/** Run one cluster simulation to completion. */
ClusterResult runCluster(const ClusterConfig &cfg);

/** Deterministic JSON serialization of a cluster run (the bytes of
 *  the cluster.json artifact; excludes wall-clock measurements). */
std::string clusterResultJson(const ClusterConfig &cfg,
                              const ClusterResult &r);

namespace presets {

/** Small 4-shard cluster sized for fast simulation (tests, CLI). */
ClusterConfig cluster();

} // namespace presets

} // namespace checkin

#endif // CHECKIN_CLUSTER_CLUSTER_H_
