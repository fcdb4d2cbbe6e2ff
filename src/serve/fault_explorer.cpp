/** @file Shared fault-point sweep and scenario scaffolding. */
#include "serve/fault_explorer.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "serve/arrival.hpp"

namespace serve {

FaultSweep
sweepFaultPoints(std::uint64_t extent, std::size_t max_points,
                 bool bisect, const FaultCheck& check)
{
    // Clamping the budget to extent + 1 makes the spacing at least 1,
    // so the evenly spaced points are strictly increasing.
    const std::size_t all = static_cast<std::size_t>(extent) + 1;
    const std::size_t budget =
        max_points == 0 ? all : std::min(max_points, all);
    FaultSweep out;
    std::uint64_t good = 0; //!< last passing point before a failure
    for (std::size_t i = 0; i < budget; ++i) {
        const std::uint64_t k =
            budget == 1 ? 0
                        : (extent * static_cast<std::uint64_t>(i)) /
                              static_cast<std::uint64_t>(budget - 1);
        out.points_tested.push_back(k);
        auto v = check(k);
        if (!v.empty())
            out.failures.push_back(FaultPointResult{k, std::move(v)});
        else if (out.failures.empty())
            good = k;
    }
    if (out.failures.empty())
        return out;

    // Point 0 is tested first, so a failure there leaves good == bad
    // and nothing to shrink.
    std::uint64_t bad = out.failures.front().point;
    while (bisect && bad - good > 1) {
        const std::uint64_t mid = good + (bad - good) / 2;
        out.points_tested.push_back(mid);
        if (!check(mid).empty())
            bad = mid;
        else
            good = mid;
    }
    out.min_failing_point = bad;
    return out;
}

namespace {

vpps::VppsOptions
rigOpts(int host_threads)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.degrade_on_failure = false;
    opts.host_threads = host_threads;
    opts.max_relaunch_attempts = 2;
    return opts;
}

} // namespace

Rig::Rig(int host_threads, bool standby)
{
    // An inherited soak environment must not perturb the
    // deterministic scenario.
    unsetenv("VPPS_FAULT_RATE");
    unsetenv("VPPS_FAULT_SEED");
    bm = std::make_unique<models::TreeLstmModel>(bank, vocab, 16, 32,
                                                 device, param_rng);
    if (!standby)
        handle = std::make_unique<vpps::Handle>(
            bm->model(), device, rigOpts(host_threads));
}

FleetReplica
Rig::slot(const char* name, std::size_t node)
{
    FleetReplica r{name, &device, bm.get(), handle.get()};
    r.node = node;
    return r;
}

FleetConfig
rigFleetConfig(std::size_t n_requests, int host_threads)
{
    FleetConfig fc;
    fc.admission.queue_capacity = n_requests + 8;
    fc.admission.shrink_watermark = n_requests + 8;
    fc.admission.shed_watermark = n_requests + 8;
    fc.standby_opts = rigOpts(host_threads);
    return fc;
}

std::vector<Request>
buildArrivals(int host_threads, std::size_t n_requests,
              double low_fraction)
{
    Rig sizing(host_threads);
    graph::ComputationGraph cg;
    auto loss = sizing.bm->buildLoss(cg, 0);
    const double before = sizing.handle->stats().wall_us;
    auto res = sizing.handle->inferTry(sizing.bm->model(), cg, loss);
    const double req_us =
        std::max(1.0, sizing.handle->stats().wall_us - before);
    if (!res.ok())
        common::panic("fault explorer: sizing probe failed: ",
                      res.takeStatus().toString());

    ArrivalConfig ac;
    ac.rate_per_sec = 1.5 * 2.0e6 / req_us;
    ac.count = n_requests;
    // Deadlines must absorb a full recovery (store replay plus a
    // re-JIT measured in simulated seconds) or a fence timeout plus a
    // whole down window.
    ac.deadline_slack_us = 1.0e9;
    ac.low_deadline_slack_us = 1.0e9;
    ac.low_fraction = low_fraction;
    ac.seed = 5;
    return generateOpenLoopArrivals(ac, req_us,
                                    sizing.bm->datasetSize());
}

ScenarioRun
collect(const Fleet& fleet)
{
    ScenarioRun out;
    out.counters = fleet.counters();
    out.reconciled = fleet.counters().reconciled();
    out.end_us = fleet.nowUs();
    out.events = fleet.eventsProcessed();
    out.consumed = fleet.arrivalsConsumed();
    out.generation = fleet.generation();
    out.crashed = fleet.crashed();
    out.recovery = fleet.recovery();
    out.net = fleet.netStats();
    out.link_log = fleet.net().faultLog();
    for (const auto& [id, v] : fleet.responses()) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, 4);
        if (!out.responses.emplace(id, bits).second)
            out.duplicate_completion = true;
    }
    return out;
}

void
compareToBaseline(const ScenarioRun& baseline, const ScenarioRun& run,
                  const std::string& fault,
                  std::vector<std::string>& out)
{
    const auto at = [&](const std::string& what) {
        return what + " (" + fault + ")";
    };
    const auto request = [&](std::uint64_t id, const char* what) {
        out.push_back(at("request " + std::to_string(id) + what));
    };
    if (!run.reconciled)
        out.push_back(at("counters failed to reconcile"));
    if (run.duplicate_completion)
        out.push_back(at("a request id completed twice"));
    const FleetCounters& c = run.counters;
    if (c.admitted_high != c.completed_high || c.timed_out_high != 0 ||
        c.failed_high != 0)
        out.push_back(at("an admitted High-class request was lost"));
    if (run.responses.size() != baseline.responses.size())
        out.push_back(
            at("completion count differs from the fault-free run: " +
               std::to_string(run.responses.size()) + " vs " +
               std::to_string(baseline.responses.size())));
    for (const auto& [id, bits] : baseline.responses) {
        const auto it = run.responses.find(id);
        if (it == run.responses.end())
            request(id, " completed in the fault-free run but not in "
                        "the faulted one");
        else if (it->second != bits)
            request(id, " response bits diverged from the fault-free "
                        "run");
    }
    for (const auto& [id, bits] : run.responses)
        if (baseline.responses.find(id) == baseline.responses.end())
            request(id, " completed in the faulted run but not in the "
                        "fault-free one");
}

} // namespace serve
