/** @file Link-fault exploration: the networked fleet scenario. */
#include "serve/net_explorer.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace serve {

namespace {

/** The sweep scenario's node graph: controller on node 0, replicas
 *  on 1 (fast same-rack link) and 2 (slower cross-rack link). The
 *  swept fault cuts the 0-1 link. */
const char* const kSweepTopology = "devices 3\n"
                                   "link 0 1 nvlink\n"
                                   "link 0 2 pcie\n"
                                   "rack 1 2\n";

gpusim::Topology
parseTopo(const char* text)
{
    auto t = gpusim::Topology::parse(text);
    if (!t.ok())
        common::panic("net explorer: topology parse failed: ",
                      t.takeStatus().toString());
    return std::move(t).value();
}

NetConfig
netConfig(const NetExplorerConfig& cfg, gpusim::Topology topo,
          double down_at_us)
{
    NetConfig nc;
    nc.topology = std::move(topo);
    nc.controller_node = 0;
    nc.inflight_timeout_us = cfg.inflight_timeout_us;
    nc.faults.link_seed = cfg.link_seed;
    if (down_at_us >= 0.0)
        nc.faults.link_faults.push_back(
            {.a = 0, .b = 1, .down_at_us = down_at_us,
             .down_for_us = cfg.down_for_us});
    if (cfg.loss_rate > 0.0)
        for (std::size_t d = 1; d < nc.topology.numDevices(); ++d)
            nc.faults.link_faults.push_back(
                {.a = 0, .b = d, .loss_rate = cfg.loss_rate});
    return nc;
}

FleetConfig
fleetConfig(const NetExplorerConfig& cfg, NetConfig nc)
{
    FleetConfig fc = rigFleetConfig(cfg.n_requests, cfg.host_threads);
    // Budgets sized for fence-and-reroute plus a residual failure.
    fc.max_failovers_high = 3;
    fc.max_failovers_low = 2;
    fc.net = std::move(nc);
    return fc;
}

/** Run the two-replica star scenario; @p down_at_us < 0 runs it
 *  fault-free. */
ScenarioRun
runScenario(const NetExplorerConfig& cfg, double down_at_us,
            const std::vector<Request>& arrivals)
{
    Rig r0(cfg.host_threads), r1(cfg.host_threads);
    Fleet fleet({r0.slot("r0", 1), r1.slot("r1", 2)},
                fleetConfig(cfg, netConfig(cfg,
                                           parseTopo(kSweepTopology),
                                           down_at_us)));
    fleet.run(arrivals);
    return collect(fleet);
}

FaultContext
makeContext(const NetExplorerConfig& cfg)
{
    FaultContext ctx{buildArrivals(cfg.host_threads, cfg.n_requests,
                                   cfg.low_fraction),
                     {}};
    ctx.baseline = runScenario(cfg, -1.0, ctx.arrivals);
    return ctx;
}

std::string
linkDownLabel(std::uint64_t t)
{
    return "link down at " + std::to_string(t) + "us";
}

std::vector<std::string>
checkPoint(const NetExplorerConfig& cfg, const FaultContext& ctx,
           std::uint64_t t)
{
    std::vector<std::string> violations;
    compareToBaseline(
        ctx.baseline,
        runScenario(cfg, static_cast<double>(t), ctx.arrivals),
        linkDownLabel(t), violations);
    return violations;
}

} // namespace

std::vector<std::string>
checkLinkDownPoint(const NetExplorerConfig& cfg,
                   std::uint64_t down_at_us)
{
    return checkPoint(cfg, makeContext(cfg), down_at_us);
}

NetExploreReport
exploreLinkDownPoints(const NetExplorerConfig& cfg)
{
    const FaultContext ctx = makeContext(cfg);
    const auto end_us =
        static_cast<std::uint64_t>(ctx.baseline.end_us);
    return NetExploreReport{
        sweepFaultPoints(
            end_us, cfg.max_points, cfg.bisect,
            [&](std::uint64_t t) { return checkPoint(cfg, ctx, t); }),
        end_us, ctx.baseline.counters.completed};
}

PartitionMeasurement
measurePartition(const NetExplorerConfig& cfg, double at_fraction)
{
    const FaultContext ctx = makeContext(cfg);
    PartitionMeasurement m;
    m.baseline_end_us =
        static_cast<std::uint64_t>(ctx.baseline.end_us);
    const double f = std::min(1.0, std::max(0.0, at_fraction));
    m.down_at_us = static_cast<std::uint64_t>(
        f * ctx.baseline.end_us);

    const ScenarioRun run = runScenario(
        cfg, static_cast<double>(m.down_at_us), ctx.arrivals);
    m.faulted_end_us = run.end_us;
    m.completed = run.counters.completed;
    const auto goodput = [](const ScenarioRun& r) {
        return r.end_us > 0.0
                   ? static_cast<double>(r.counters.completed) * 1e6 /
                         r.end_us
                   : 0.0;
    };
    m.baseline_goodput = goodput(ctx.baseline);
    m.faulted_goodput = goodput(run);
    m.fenced = run.counters.fenced;
    m.fence_drops = run.net.fence_drops;
    m.timeouts = run.net.timeouts;
    m.retransmits = run.net.retransmits;
    m.sends_blocked = run.net.sends_blocked;
    m.unreachable_skips = run.net.unreachable_skips;
    m.link_downs = run.link_log.link_downs;
    compareToBaseline(ctx.baseline, run, linkDownLabel(m.down_at_us),
                      m.violations);
    return m;
}

PromotionMeasurement
measurePromotion(const NetExplorerConfig& cfg, bool rack_local)
{
    // Controller 0 and the to-be-lost replica (node 1) sit in rack
    // 0; the surviving replica (node 2) in rack 1. The standby is
    // either rack-local to the loss (node 3, fast nvlink) or across
    // racks (node 4, slow nic) -- same blob, different wire.
    const char* const topo_text = "devices 5\n"
                                  "link 0 1 nvlink\n"
                                  "link 0 2 pcie\n"
                                  "link 0 3 nvlink\n"
                                  "link 0 4 nic\n"
                                  // The binomial-tree broadcast for
                                  // 5 ranks prices a (2,3) hop; the
                                  // star routes it through the hub.
                                  "route 2 3 via 0\n"
                                  "rack 1 2 4\n";
    PromotionMeasurement m;
    m.rack_local = rack_local;
    const std::size_t standby_node = rack_local ? 3 : 4;

    const std::vector<Request> arrivals = buildArrivals(
        cfg.host_threads, cfg.n_requests, cfg.low_fraction);

    const auto run = [&](double wedge_at_us) -> ScenarioRun {
        Rig r0(cfg.host_threads), r1(cfg.host_threads);
        Rig sb(cfg.host_threads, /*standby=*/true);
        if (wedge_at_us >= 0.0) {
            gpusim::FaultPlan wedge;
            wedge.wedge_at_us = wedge_at_us;
            r0.device.installFaults(wedge);
        }
        Fleet fleet({r0.slot("r0", 1), r1.slot("r1", 2),
                     sb.slot("sb", standby_node)},
                    fleetConfig(cfg, netConfig(cfg,
                                               parseTopo(topo_text),
                                               -1.0)));
        fleet.run(arrivals);
        return collect(fleet);
    };

    const ScenarioRun baseline = run(-1.0);
    const double wedge_at_us = 0.4 * baseline.end_us;
    const ScenarioRun faulted = run(wedge_at_us);
    m.joined = faulted.counters.standby_joins > 0;
    m.ship_bytes = faulted.net.ship_bytes;
    m.ship_chunks = faulted.net.ship_chunks;
    m.ship_retries = faulted.net.ship_retries;
    m.ship_us = faulted.net.ship_us_total;
    m.completed = faulted.counters.completed;
    compareToBaseline(
        baseline, faulted,
        "r0 wedged at " +
            std::to_string(static_cast<std::uint64_t>(wedge_at_us)) +
            "us",
        m.violations);
    return m;
}

} // namespace serve
