/**
 * @file
 * The fault-point explorer shared by the crash sweep
 * (serve/crash_explorer.hpp) and the link-down sweep
 * (serve/net_explorer.hpp).
 *
 * Both prove a serving contract the same way: run a fixed, fully
 * seeded fleet scenario once fault-free to learn its extent (event
 * count or simulated end time) and its completion set, then re-run it
 * with one fault injected at point k and compare against that
 * baseline. A fault point is a plain integer and a violation replays
 * exactly. sweepFaultPoints() tests evenly spaced points over
 * [0, extent], endpoints included, and shrinks the first failure by
 * bisection against the passing point just below it.
 *
 * The rest of this header is the scenario scaffolding both explorers
 * run: the fixed-seed replica Rig, the sized arrival trace, the
 * per-run collection of completion bits and counters, and the
 * baseline comparison. Each explorer keeps only its fleet
 * configuration, its runScenario and its measure* functions.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "gpusim/faults.hpp"
#include "models/tree_lstm.hpp"
#include "serve/fleet.hpp"
#include "vpps/handle.hpp"

namespace serve {

/** One tested fault point that violated an invariant. */
struct FaultPointResult
{
    std::uint64_t point = 0;
    std::vector<std::string> violations;
};

/** What one stratified sweep (plus bisection shrink) found. */
struct FaultSweep
{
    /** Fault points actually tested, in test order: the sweep, then
     *  any bisection midpoints. */
    std::vector<std::uint64_t> points_tested;

    /** Every failing sweep point, in sweep order (empty = contract
     *  holds). Bisection midpoints are not listed here. */
    std::vector<FaultPointResult> failures;

    /** Smallest failing point after bisection shrink (only
     *  meaningful when failures is non-empty). */
    std::uint64_t min_failing_point = 0;

    bool passed() const { return failures.empty(); }
};

/** Check one fault point; returns every violated invariant (empty =
 *  all hold). */
using FaultCheck =
    std::function<std::vector<std::string>(std::uint64_t point)>;

/**
 * Test up to @p max_points evenly spaced points over [0, extent],
 * endpoints included (0 = every point). If any fails and @p bisect is
 * set, bisect between the first failure and the passing point just
 * below it down to the minimal failing point. A failure at point 0
 * has nothing below it and is reported as is.
 */
FaultSweep sweepFaultPoints(std::uint64_t extent,
                            std::size_t max_points, bool bisect,
                            const FaultCheck& check);

/** One replica built from fixed seeds: every Rig in every run holds
 *  bitwise-identical parameters and dataset, which is what makes a
 *  faulted fleet's completions comparable to the baseline's. */
struct Rig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    std::unique_ptr<vpps::Handle> handle; //!< null for a standby

    explicit Rig(int host_threads, bool standby = false);

    /** The fleet slot; @p node places it on a topology node. */
    FleetReplica slot(const char* name,
                      std::size_t node = static_cast<std::size_t>(-1));
};

/** The fleet configuration both scenarios start from: admission
 *  sized so all @p n_requests arrivals admit (and, with the unbounded
 *  deadlines of buildArrivals, complete), which makes the completion
 *  set the arrival set and the baseline comparison total; standbys
 *  are built with a Rig's handle options. */
FleetConfig rigFleetConfig(std::size_t n_requests, int host_threads);

/**
 * The open-loop arrival trace both scenarios serve: @p n_requests
 * arrivals at 1.5x the two-replica capacity, sized by one probe
 * inference on a fresh Rig, so faults catch requests queued and in
 * flight. Deadlines are effectively unbounded so every arrival admits
 * and completes; the contract is completion-set equality, not
 * latency.
 */
std::vector<Request> buildArrivals(int host_threads,
                                   std::size_t n_requests,
                                   double low_fraction);

/** What one fleet run (or run fragment) produced. */
struct ScenarioRun
{
    std::map<std::uint64_t, std::uint32_t> responses; //!< id -> bits
    bool duplicate_completion = false;
    FleetCounters counters;
    bool reconciled = false;
    double end_us = 0.0;
    std::uint64_t events = 0;
    std::uint64_t consumed = 0;
    std::uint64_t generation = 0;
    std::size_t resumed_from = 0; //!< arrival index the leg started at
    bool crashed = false;
    std::optional<RecoveryInfo> recovery;
    NetStats net;
    gpusim::FaultLog link_log;
};

/** Snapshot a finished (or crashed) fleet's completions and
 *  counters. */
ScenarioRun collect(const Fleet& fleet);

/** The arrival trace and the fault-free ground truth one sweep
 *  shares. */
struct FaultContext
{
    std::vector<Request> arrivals;
    ScenarioRun baseline;
};

/**
 * Append every way @p run breaks the contract against @p baseline to
 * @p out: counters reconcile, no id completes twice, no admitted High
 * request is lost, and the completion set and its bits equal the
 * baseline's. Each violation names @p fault, the fault injected (for
 * example "crash at event 12").
 */
void compareToBaseline(const ScenarioRun& baseline,
                       const ScenarioRun& run, const std::string& fault,
                       std::vector<std::string>& out);

} // namespace serve
