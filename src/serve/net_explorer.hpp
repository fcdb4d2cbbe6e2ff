/**
 * @file
 * Deterministic link-fault exploration for the networked fleet.
 *
 * The crash-point explorer (serve/crash_explorer.hpp) proved the
 * crash-anywhere contract by sweeping host-crash boundaries; this is
 * its sibling for the link fault domain. A fixed multi-node serving
 * scenario (controller + two replicas on a star topology) runs once
 * fault-free to learn its completion set and simulated end time, then
 * re-runs with a link-down window cutting the controller->replica
 * link at swept start instants. For every explored instant t the
 * invariants are:
 *
 *  1. no admitted High-class request is lost: every High admit
 *     completes despite the partition;
 *  2. post-heal completions are bitwise identical to the fault-free
 *     run (same ids, same float bits), with no id completed twice --
 *     the epoch fence makes a healed partition unable to
 *     double-complete;
 *  3. dispatch accounting reconciles:
 *     routed == completed + failed_over + hedge_cancelled + fenced
 *             + lost.
 *
 * Down windows are clock-keyed (never RNG), so a fault point is a
 * plain microsecond and a violation replays exactly. Exploration is
 * the shared fault-point sweep (serve/fault_explorer.hpp) over
 * [0, baseline end]: a budgeted stratified sweep whose first
 * violation is shrunk by bisection to a minimal failing instant. The
 * Rig, arrival trace and baseline comparison are shared with the
 * crash explorer too.
 *
 * The same scenario machinery backs bench/partition_tolerance:
 * measurePartition() prices goodput under a mid-trace partition, and
 * measurePromotion() prices a rack-local vs a cross-rack standby
 * promotion (parameter ship over the links).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/fault_explorer.hpp"

namespace serve {

/** Scenario + sweep knobs. Defaults are the tier-1 configuration. */
struct NetExplorerConfig
{
    /** Host interpreter threads for every handle in the scenario. */
    int host_threads = 1;

    /** Arrival count (deadlines effectively unbounded so the
     *  fault-free completion set is exactly the admit set). */
    std::size_t n_requests = 24;

    /** Low-class fraction of the arrival mix. */
    double low_fraction = 0.25;

    /** Length of the swept link-down window, us. */
    double down_for_us = 3'000.0;

    /** Seeded message-loss rate armed on every link of the scenario
     *  (0 = loss off; the sweep then exercises pure partitions). */
    double loss_rate = 0.0;

    /** Seed of the dedicated link-loss stream. */
    std::uint64_t link_seed = 11;

    /** In-flight dispatch timeout (<= 0 auto-derives 20x service). */
    double inflight_timeout_us = -1.0;

    /** Sweep budget: down-window start instants tested across
     *  [0, baseline end], evenly spaced, endpoints included. */
    std::size_t max_points = 12;

    /** Shrink each violation to a minimal failing microsecond. */
    bool bisect = true;
};

/** The link-down sweep: points are down-window starts in
 *  [0, baseline_end_us], whole microseconds. */
struct NetExploreReport : FaultSweep
{
    /** Simulated end of the fault-free run. */
    std::uint64_t baseline_end_us = 0;

    /** Completions in the fault-free run. */
    std::uint64_t baseline_completed = 0;
};

/**
 * Check one link-down instant: run the scenario with the
 * controller->replica link down over [down_at_us, down_at_us +
 * down_for_us) and return every violated invariant (empty = all
 * hold).
 */
std::vector<std::string>
checkLinkDownPoint(const NetExplorerConfig& cfg,
                   std::uint64_t down_at_us);

/** Run the full stratified sweep (plus bisection shrink). */
NetExploreReport exploreLinkDownPoints(const NetExplorerConfig& cfg);

/**
 * One measured mid-trace partition episode (the
 * bench/partition_tolerance unit): the link cuts at a fixed fraction
 * of the fault-free end time and heals after down_for_us.
 */
struct PartitionMeasurement
{
    std::uint64_t baseline_end_us = 0;
    std::uint64_t down_at_us = 0;

    /** Fault-free vs partitioned run ends and completions. */
    double faulted_end_us = 0.0;
    std::uint64_t completed = 0;

    /** Goodput (completions per simulated second). */
    double baseline_goodput = 0.0;
    double faulted_goodput = 0.0;

    /** Partition bookkeeping from the faulted run. */
    std::uint64_t fenced = 0;
    std::uint64_t fence_drops = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t sends_blocked = 0;
    std::uint64_t unreachable_skips = 0;
    std::uint64_t link_downs = 0;

    /** Invariant check against the fault-free baseline. */
    std::vector<std::string> violations;
};

/** Partition at `at_fraction * baseline_end_us` (clamped to [0, 1])
 *  and measure the episode. */
PartitionMeasurement measurePartition(const NetExplorerConfig& cfg,
                                      double at_fraction);

/**
 * One measured standby promotion over the links: a replica's device
 * wedges mid-trace and the fleet ships the parameter blob to a warm
 * standby -- rack-local (fast same-rack link) or cross-rack (slow
 * inter-rack link) -- before the re-JIT.
 */
struct PromotionMeasurement
{
    bool joined = false;           //!< the standby entered rotation
    bool rack_local = false;       //!< standby shared the lost rack
    std::uint64_t ship_bytes = 0;  //!< parameter bytes shipped
    std::uint64_t ship_chunks = 0; //!< chunks delivered
    std::uint64_t ship_retries = 0;
    std::uint64_t ship_us = 0;     //!< ship wall time, whole us
    std::uint64_t completed = 0;
    std::vector<std::string> violations;
};

/** Measure a promotion with the standby placed rack-local to the
 *  lost replica (@p rack_local) or across racks. */
PromotionMeasurement measurePromotion(const NetExplorerConfig& cfg,
                                      bool rack_local);

} // namespace serve
