/** @file Crash-point exploration: the durable fleet scenario. */
#include "serve/crash_explorer.hpp"

#include <algorithm>

#include "durable/stable_store.hpp"

namespace serve {

namespace {

durable::StorePlan
storePlan(const CrashExplorerConfig& cfg)
{
    return {.seed = cfg.store_seed,
            .torn_write_rate = cfg.torn_write_rate,
            .short_write_rate = cfg.short_write_rate};
}

FleetConfig
fleetConfig(const CrashExplorerConfig& cfg,
            durable::StableStore& store, long long crash_at)
{
    FleetConfig fc = rigFleetConfig(cfg.n_requests, cfg.host_threads);
    fc.max_failovers_high = 2;
    fc.max_failovers_low = 1;
    fc.durability.store = &store;
    fc.durability.dir = "fleet";
    fc.durability.wal_sync_batch = cfg.wal_sync_batch;
    fc.durability.checkpoint_every_completions =
        cfg.checkpoint_every_completions;
    fc.durability.host_faults.host_crash_at_event = crash_at;
    return fc;
}

/** Run the two-replica scenario over @p store, optionally crashing
 *  at @p crash_at. A store that already holds an installed
 *  generation makes the fleet recover first (that is the post-crash
 *  leg), and the arrival source then resumes from the *durable*
 *  acknowledgment point -- the recovered fleet's replayed arrival
 *  count. An arrival consumed in memory whose admit record was still
 *  in the WAL group buffer at the crash was never acknowledged and
 *  must be re-delivered; the torn-tail prefix property (no synced
 *  outcome without its synced admit) guarantees re-delivery can
 *  never double-complete a request. */
ScenarioRun
runScenario(const CrashExplorerConfig& cfg,
            durable::StableStore& store, long long crash_at,
            const std::vector<Request>& arrivals)
{
    Rig r0(cfg.host_threads), r1(cfg.host_threads);
    Fleet fleet({r0.slot("r0"), r1.slot("r1")},
                fleetConfig(cfg, store, crash_at));
    const std::size_t from =
        fleet.recovery().has_value()
            ? std::min(static_cast<std::size_t>(
                           fleet.arrivalsConsumed()),
                       arrivals.size())
            : 0;
    fleet.run(std::vector<Request>(
        arrivals.begin() + static_cast<std::ptrdiff_t>(from),
        arrivals.end()));
    ScenarioRun out = collect(fleet);
    out.resumed_from = from;
    return out;
}

FaultContext
makeContext(const CrashExplorerConfig& cfg)
{
    FaultContext ctx{buildArrivals(cfg.host_threads, cfg.n_requests,
                                   cfg.low_fraction),
                     {}};
    durable::StableStore store(storePlan(cfg));
    ctx.baseline = runScenario(cfg, store, -1, ctx.arrivals);
    return ctx;
}

std::string
crashLabel(std::uint64_t k)
{
    return "crash at event " + std::to_string(k);
}

std::vector<std::string>
checkPoint(const CrashExplorerConfig& cfg, const FaultContext& ctx,
           std::uint64_t k)
{
    std::vector<std::string> violations;
    durable::StableStore store(storePlan(cfg));
    ScenarioRun run = runScenario(cfg, store, static_cast<long long>(k),
                                  ctx.arrivals);
    // A run that finished before boundary k must simply match the
    // baseline (and serves as a determinism cross-check).
    if (run.crashed) {
        store.restart();
        run = runScenario(cfg, store, -1, ctx.arrivals);
    }
    compareToBaseline(ctx.baseline, run, crashLabel(k), violations);
    return violations;
}

} // namespace

std::vector<std::string>
checkCrashPoint(const CrashExplorerConfig& cfg,
                std::uint64_t crash_event)
{
    return checkPoint(cfg, makeContext(cfg), crash_event);
}

CrashExploreReport
exploreCrashPoints(const CrashExplorerConfig& cfg)
{
    const FaultContext ctx = makeContext(cfg);
    return CrashExploreReport{
        sweepFaultPoints(
            ctx.baseline.events, cfg.max_points, cfg.bisect,
            [&](std::uint64_t k) { return checkPoint(cfg, ctx, k); }),
        ctx.baseline.events, ctx.baseline.counters.completed};
}

RecoveryMeasurement
measureRecovery(const CrashExplorerConfig& cfg,
                double crash_fraction)
{
    const FaultContext ctx = makeContext(cfg);
    RecoveryMeasurement m;
    m.baseline_events = ctx.baseline.events;
    const double f =
        std::min(1.0, std::max(0.0, crash_fraction));
    m.crash_event = static_cast<std::uint64_t>(
        f * static_cast<double>(ctx.baseline.events));

    durable::StableStore store(storePlan(cfg));
    const ScenarioRun pre =
        runScenario(cfg, store, static_cast<long long>(m.crash_event),
                    ctx.arrivals);
    m.wal_syncs = store.stats().syncs;
    m.checkpoints = pre.generation;
    // A boundary past the run's end under this config's durability
    // timing leaves nothing to recover; the run is just validated.
    ScenarioRun run = pre;
    if (pre.crashed) {
        store.restart();
        run = runScenario(cfg, store, -1, ctx.arrivals);
        if (run.recovery.has_value()) {
            m.recovery_us = run.recovery->recovery_us;
            m.re_jit_us = run.recovery->re_jit_us;
            m.replayed_records = run.recovery->replayed_records;
            m.in_doubt = run.recovery->in_doubt;
        }
        // Arrivals the crashed instance consumed in memory whose
        // admit records never became durable: the source re-delivers
        // them.
        m.redelivered_arrivals =
            pre.consumed > run.resumed_from
                ? pre.consumed - run.resumed_from
                : 0;
    }
    m.completed = run.counters.completed;
    compareToBaseline(ctx.baseline, run, crashLabel(m.crash_event),
                      m.violations);
    return m;
}

} // namespace serve
