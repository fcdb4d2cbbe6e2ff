/**
 * @file
 * Deterministic crash-point exploration for the durable fleet.
 *
 * The explorer proves the crash-anywhere contract by construction:
 * run a fixed serving scenario once without a crash to learn its
 * event count E and its completion set, then re-run it with the host
 * fault domain set to halt the event loop at boundary k, restart the
 * (crashed) stable store, recover a fresh fleet from it, and finish
 * the arrival stream. For every explored k the invariants are:
 *
 *  1. no admitted High-class request is lost: the recovered run's
 *     completion set covers every request the baseline completed;
 *  2. completions are bitwise identical to the no-crash run (same
 *     ids, same float bits), with no id completed twice;
 *  3. counters reconcile across the crash boundary (the three
 *     FleetCounters identities hold on the recovered fleet).
 *
 * Everything is simulated and seeded, so a crash point is a plain
 * integer and a violation replays exactly. Exploration is the shared
 * fault-point sweep (serve/fault_explorer.hpp) over [0, E]: a
 * budgeted stratified sweep whose first violation is shrunk by
 * bisection to a minimal failing boundary.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/fault_explorer.hpp"

namespace serve {

/** Scenario + sweep knobs. Defaults are the tier-1 configuration. */
struct CrashExplorerConfig
{
    /** Host interpreter threads for every handle in the scenario. */
    int host_threads = 1;

    /** Arrival count. Deadlines are effectively unbounded so every
     *  arrival admits and completes in the no-crash run; this is
     *  what makes the completion-set comparison exact. */
    std::size_t n_requests = 28;

    /** Low-class fraction of the arrival mix. */
    double low_fraction = 0.25;

    /** Fleet WAL group-commit batch (1 = sync every record). */
    std::size_t wal_sync_batch = 1;

    /** Checkpoint cadence in completions (0 = initial/recovery
     *  checkpoints only). */
    std::uint64_t checkpoint_every_completions = 8;

    /** Stable-store crash severity: probability an unsynced file
     *  keeps a torn prefix instead of its full pending tail. */
    double torn_write_rate = 0.75;

    /** Stable-store short-write (partial sync) injection rate. */
    double short_write_rate = 0.05;

    /** Stable-store fault seed. */
    std::uint64_t store_seed = 7;

    /** Sweep budget: crash boundaries tested across [0, E], evenly
     *  spaced, endpoints included (0 = every boundary). */
    std::size_t max_points = 16;

    /** Shrink each violation to a minimal failing boundary. */
    bool bisect = true;
};

/** The crash sweep: points are event boundaries in [0, E]. */
struct CrashExploreReport : FaultSweep
{
    /** Event count E of the no-crash run. */
    std::uint64_t baseline_events = 0;

    /** Completions in the no-crash run. */
    std::uint64_t baseline_completed = 0;
};

/**
 * Check one crash boundary: run the scenario crashing at event
 * @p crash_event, recover, finish, and return every violated
 * invariant ("" -free strings; empty vector = all hold).
 */
std::vector<std::string>
checkCrashPoint(const CrashExplorerConfig& cfg,
                std::uint64_t crash_event);

/** Run the full stratified sweep (plus bisection shrink). */
CrashExploreReport
exploreCrashPoints(const CrashExplorerConfig& cfg);

/**
 * One measured crash + recovery episode (the bench/crash_recovery
 * unit): the scenario crashes at a fixed fraction of the baseline's
 * event count, recovers, and finishes the arrival stream.
 */
struct RecoveryMeasurement
{
    std::uint64_t baseline_events = 0;
    std::uint64_t crash_event = 0;

    /** Durability cost on the pre-crash leg. */
    std::uint64_t wal_syncs = 0;
    std::uint64_t checkpoints = 0;

    /** Recovery cost (simulated): total, store replay, re-JIT. */
    double recovery_us = 0.0;
    double re_jit_us = 0.0;
    std::uint64_t replayed_records = 0;

    /** Lost work: completions the crash un-finalized (they re-run
     *  after recovery) plus arrivals re-delivered because their
     *  admit record died in the WAL group buffer. */
    std::uint64_t in_doubt = 0;
    std::uint64_t redelivered_arrivals = 0;

    /** Final completion count and invariant check of the recovered
     *  run against the no-crash baseline. */
    std::uint64_t completed = 0;
    std::vector<std::string> violations;
};

/** Crash at `crash_fraction * baseline_events` and measure the
 *  recovery (crash_fraction clamped to [0, 1]). */
RecoveryMeasurement
measureRecovery(const CrashExplorerConfig& cfg,
                double crash_fraction);

} // namespace serve
