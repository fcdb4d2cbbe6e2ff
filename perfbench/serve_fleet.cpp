/**
 * @file
 * serve_fleet: a serve::Fleet of two timing-only Tree-LSTM replicas
 * (hidden = embed = 256, rpw 2) on a gpusim::Topology NVLink pair,
 * with WAL journaling on a durable::StableStore (group commit, forced
 * sync on admitted High requests).
 *
 * Arrivals are an open-loop Poisson trace on the simulated clock,
 * 75% High and 25% Low, offered at a fixed multiple of the fleet's
 * calibrated capacity so that the admission controller sheds: it is
 * the only workload that runs the fleet event loop, admission, the
 * network model and the WAL, and it runs VPPS at serving batch size
 * 1. Latency runs from each arrival's due time on the simulated
 * clock, so the generator is never late. The seed drives the arrival
 * trace.
 *
 * A Fleet advances its replicas' clocks, so a pass consumes its
 * set-up: one pass per set-up.
 */
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "durable/stable_store.hpp"
#include "gpusim/topology.hpp"
#include "layers.hpp"
#include "models/tree_lstm.hpp"
#include "references.hpp"
#include "serve/arrival.hpp"
#include "serve/fleet.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kReplicas = 2;
constexpr std::size_t kRequests = 1400;
/** Offered load over calibrated capacity: enough that the backlog
 *  reaches the shed watermark and Low requests are shed. */
constexpr double kLoad = 1.15;
constexpr std::size_t kCalibrationInputs = 32;
constexpr std::size_t kWalSyncBatch = 8;
constexpr int kThreads = 1;

using Kind = HostSpans::Kind;

vpps::VppsOptions
servingOptions(vpps::ScriptCache* cache)
{
    vpps::VppsOptions opts = vppsOptions(kThreads, cache);
    opts.async = false;
    opts.degrade_on_failure = false;
    return opts;
}

struct Replica
{
    std::unique_ptr<gpusim::Device> device;
    std::unique_ptr<models::TreeLstmModel> bm;
    std::unique_ptr<vpps::ScriptCache> cache;
    std::unique_ptr<vpps::Handle> handle;
};

/** What one fleet pass produced (simulated, must repeat exactly). */
struct ServeRecord
{
    serve::FleetCounters counters;
    std::vector<double> latencies;
    double sim_span_us = 0.0;
    double busy_us = 0.0; //!< summed replica device busy time
    serve::NetStats net;
    durable::StoreStats store;
    std::uint64_t dispatches = 0;
    vpps::ScriptCache::Stats cache;

    bool
    sameSim(const ServeRecord& o) const
    {
        return latencies == o.latencies && sim_span_us == o.sim_span_us &&
               busy_us == o.busy_us &&
               counters.completed == o.counters.completed &&
               counters.shed == o.counters.shed &&
               net.bytes_on_wire == o.net.bytes_on_wire &&
               store.bytes_synced == o.store.bytes_synced &&
               store.sim_us == o.store.sim_us;
    }
};

class ServeFleet : public Workload
{
  public:
    explicit ServeFleet(const Config& cfg) : cfg_(cfg) {}

    void
    setup(HostSpans& spans) override
    {
        {
            SpanScope s(spans, "data");
            vocab_ = std::make_unique<data::Vocab>(10000);
            common::Rng rng(kCorpusSeed);
            bank_ = std::make_unique<data::Treebank>(*vocab_, 256, rng,
                                                     19.0, 4, 36);
        }
        replicas_.resize(kReplicas);
        for (Replica& r : replicas_) {
            {
                SpanScope s(spans, "gpusim");
                r.device = std::make_unique<gpusim::Device>(
                    gpusim::DeviceSpec{}, kPoolFloats);
                r.device->setFunctional(false);
            }
            {
                // Identical seeds: replicas hold identical parameters.
                SpanScope s(spans, "models");
                common::Rng prng(kParamSeed);
                r.bm = std::make_unique<models::TreeLstmModel>(
                    *bank_, *vocab_, 256, 256, *r.device, prng);
            }
            SpanScope s(spans, "vpps.jit");
            r.cache = std::make_unique<vpps::ScriptCache>();
            r.handle = std::make_unique<vpps::Handle>(
                r.bm->model(), *r.device, servingOptions(r.cache.get()));
        }
        {
            // Capacity calibration: mean simulated service time of
            // one request on replica 0.
            SpanScope s(spans, "serve");
            Replica& r0 = replicas_[0];
            const double before = r0.handle->stats().wall_us;
            for (std::size_t i = 0; i < kCalibrationInputs; ++i) {
                graph::ComputationGraph cg;
                auto loss = r0.bm->buildLoss(cg, i);
                auto res = r0.handle->inferTry(r0.bm->model(), cg, loss);
                if (!res.ok())
                    throw std::runtime_error("calibration: " +
                                             res.status().toString());
            }
            req_us_ = (r0.handle->stats().wall_us - before) /
                      static_cast<double>(kCalibrationInputs);
        }
        store_ = std::make_unique<durable::StableStore>();
        busy_before_ = 0.0;
        for (const Replica& r : replicas_)
            busy_before_ += r.device->busyUs();
        {
            SpanScope s(spans, "serve");
            serve::FleetConfig fc;
            fc.standby_opts = servingOptions(nullptr);
            fc.durability.store = store_.get();
            fc.durability.wal_sync_batch = kWalSyncBatch;
            fc.durability.sync_high_admits = true;
            fc.net.topology = gpusim::Topology::uniform(
                kReplicas, gpusim::LinkType::NVLink);
            fc.net.controller_node = 0;
            std::vector<serve::FleetReplica> slots;
            for (std::size_t i = 0; i < kReplicas; ++i) {
                Replica& r = replicas_[i];
                serve::FleetReplica slot{"r" + std::to_string(i),
                                         r.device.get(), r.bm.get(),
                                         r.handle.get()};
                slot.node = i;
                slots.push_back(slot);
            }
            fleet_ = std::make_unique<serve::Fleet>(std::move(slots), fc);
        }
        {
            SpanScope s(spans, "data");
            serve::ArrivalConfig ac;
            ac.rate_per_sec = kLoad * static_cast<double>(kReplicas) *
                              1e6 / req_us_;
            ac.count = kRequests;
            ac.deadline_slack_us = 40.0 * req_us_;
            ac.low_deadline_slack_us = 60.0 * req_us_;
            ac.low_fraction = 0.25;
            ac.seed = cfg_.seed;
            arrivals_ = serve::generateOpenLoopArrivals(
                ac, fleet_->nowUs() + req_us_, bank_->size());
        }
    }

    void
    teardown() override
    {
        fleet_.reset();
        store_.reset();
        replicas_.clear();
        bank_.reset();
        vocab_.reset();
    }

    bool repeatable() const override { return false; }

    int hostThreads() const override { return kThreads; }

    PassOut
    pass(HostSpans& spans, int index) override
    {
        SpanScope frame(spans, "pass", Kind::Frame, index);
        double host_s = 0.0;
        {
            SpanScope s(spans, "serve");
            const double t0 = nowSeconds();
            fleet_->run(arrivals_);
            host_s = nowSeconds() - t0;
        }
        SpanScope check(spans, "check", Kind::Frame);
        ServeRecord rec;
        const serve::FleetReport rep = fleet_->report();
        rec.counters = rep.counters;
        rec.latencies = fleet_->latencies();
        rec.sim_span_us = rep.sim_end_us - arrivals_.front().arrival_us;
        for (const Replica& r : replicas_) {
            rec.busy_us += r.device->busyUs();
            const auto cs = r.cache->stats();
            rec.cache.hits += cs.hits;
            rec.cache.misses += cs.misses;
        }
        rec.busy_us -= busy_before_;
        for (const serve::ReplicaReport& rr : rep.replicas)
            rec.dispatches += rr.dispatches;
        rec.net = fleet_->netStats();
        rec.store = store_->stats();
        if (!first_)
            first_ = std::make_unique<ServeRecord>(rec);
        else if (!rec.sameSim(*first_))
            mismatch_ = true;
        last_host_s_ = host_s;
        return {static_cast<double>(rec.counters.completed), host_s};
    }

    void
    finish(HostSpans& spans, Report& report) override
    {
        const ServeRecord& r = *first_;
        const serve::FleetCounters& c = r.counters;
        const ServeOutcomes outcomes{
            c.arrivals, c.completed, c.shed,
            c.rejected_queue_full + c.rejected_infeasible, c.timed_out,
            c.failed};
        report.attempted = c.arrivals;
        report.failed = c.failed;
        report.check(!mismatch_, "a pass did not repeat pass 0's "
                                 "simulated results bit for bit");
        report.check(c.arrivals == kRequests, "not every arrival was seen");
        report.check(c.reconciled(),
                     "fleet identities arrivals/admitted/routed do not "
                     "reconcile");
        report.check(c.failed == 0 && c.failed_high == 0,
                     "an admitted request failed");
        report.check(c.shed > 0, "the load did not make admission shed");
        const Percentile p50 = percentile(r.latencies, 50.0);
        const Percentile p99 = percentile(r.latencies, 99.0);
        report.check(p99.reportable,
                     "fewer than 10 latency samples lie beyond p99");

        // VPPS and the baselines at the serving batch size (1) on the
        // first Fig 8 point's inputs, replayed on replica 0's device.
        Replica& r0 = replicas_[0];
        const std::size_t n = pointInputs(1);
        {
            SpanScope frame(spans, "replay", Kind::Frame);
            replay_vpps_ = std::make_unique<VppsRun>(
                runVpps(spans, *r0.device, *r0.bm, r0.bm->model(), n, 1,
                        kThreads));
            for (auto which : {Baseline::DB, Baseline::AB, Baseline::Fold})
                baselines_.push_back(runBaseline(spans, which, *r0.device,
                                                 *r0.bm, r0.bm->model(), n,
                                                 1));
        }
        const VppsRun& v = *replay_vpps_;
        const double speedup =
            static_cast<double>(n) / (v.stats.wall_us * 1e-6) /
            std::max(baselines_[0].inputs_per_s, baselines_[1].inputs_per_s);
        const double table1 =
            tableIMb(v.weight_bytes / static_cast<double>(v.stats.batches), 1);
        const double rel_err = meanRelErr({{table1, kPaperTableIMbBatch1}});
        const double goodput =
            static_cast<double>(c.completed) / (r.sim_span_us * 1e-6);

        report.metric("sim_inputs_per_s", goodput, "1/s");
        report.metric("sim_vpps_speedup", speedup, "x");
        report.metric("sim_paper_rel_err", rel_err, "ratio");
        report.metric("ok_frac", 1.0 - errorFrac(serveErrors(outcomes),
                                                 c.arrivals),
                      "ratio");
        // The fleet's request and dispatch dispositions ("lost" are
        // dispatches that completed past their deadline).
        const std::pair<const char*, std::uint64_t> counts[] = {
            {"arrivals", c.arrivals},
            {"admitted", c.admitted},
            {"completed", c.completed},
            {"shed", c.shed},
            {"rejected_queue_full", c.rejected_queue_full},
            {"rejected_infeasible", c.rejected_infeasible},
            {"timed_out", c.timed_out},
            {"failed", c.failed},
            {"routed", c.routed},
            {"failed_over", c.failed_over},
            {"fenced", c.fenced},
            {"lost", c.lost},
            {"expired_in_queue", c.expired_in_queue},
            {"probes", c.probes},
        };
        for (const auto& [name, value] : counts)
            report.detail(name, static_cast<double>(value));
        report.detail("offered_load_x_capacity", kLoad);
        report.detail("calibrated_request_us", req_us_);
        report.detail("sim_latency_p50_us", p50.value);
        report.detail("sim_latency_p99_us", p99.value);
        report.detail("latency_samples", static_cast<double>(p99.count));
        report.detail("latency_samples_beyond_p99",
                      static_cast<double>(p99.beyond));

        if (cfg_.seed == kDefaultSeed) {
            const ServeFleetRef& ref = kServeFleetRef;
            report.exact("sim_inputs_per_s", goodput, ref.sim_inputs_per_s);
            report.exact("sim_vpps_speedup", speedup, ref.sim_vpps_speedup);
            report.exact("sim_paper_rel_err", rel_err,
                         ref.sim_paper_rel_err);
            report.exact("sim_latency_p50_us", p50.value,
                         ref.latency_p50_us);
            report.exact("sim_latency_p99_us", p99.value,
                         ref.latency_p99_us);
        }
    }

    ProbeShapes
    kernelShapes() const override
    {
        return replay_vpps_->shapes;
    }

    void
    layerMetrics(const HostSpans& spans, Report& report) override
    {
        const ServeRecord& r = *first_;
        const serve::FleetCounters& c = r.counters;
        // The VPPS layers as the batch-1 replay exercised them; the
        // decode cache as the replicas used it (requests cycle through
        // the corpus, so repeated inputs hit).
        VppsTotals t;
        t.add(*replay_vpps_, pointInputs(1));
        reportVppsLayers(spans, report, t, 1.0, r.cache,
                         baselines_[1].weight_bytes, kReplicas);
        reportBaselines(report, baselines_);

        const Percentile p50 = percentile(r.latencies, 50.0);
        const Percentile p99 = percentile(r.latencies, 99.0);
        report.metric("serve.run_ms_per_request",
                      last_host_s_ * 1e3 / static_cast<double>(c.arrivals),
                      "ms");
        report.metric("serve.admitted", static_cast<double>(c.admitted),
                      "count");
        report.metric("serve.shed", static_cast<double>(c.shed), "count");
        report.metric("serve.rejected",
                      static_cast<double>(c.rejected_queue_full +
                                          c.rejected_infeasible),
                      "count");
        report.metric("serve.timed_out", static_cast<double>(c.timed_out),
                      "count");
        report.metric("serve.routed", static_cast<double>(c.routed),
                      "count");
        report.metric("serve.completed_per_routed",
                      static_cast<double>(c.completed) /
                          static_cast<double>(c.routed),
                      "ratio");
        // The fleet routes requests individually (one input each).
        report.metric("serve.inputs_per_dispatch",
                      static_cast<double>(c.routed) /
                          static_cast<double>(r.dispatches),
                      "count");
        report.metric("serve.replica_busy_frac",
                      r.busy_us / (static_cast<double>(kReplicas) *
                                   r.sim_span_us),
                      "ratio");
        report.metric("serve.latency_p50_us", p50.value, "us");
        report.metric("serve.latency_p99_us", p99.value, "us");
        report.metric("serve.latency_samples",
                      static_cast<double>(p99.count), "count");
        report.metric("net.messages", static_cast<double>(r.net.messages),
                      "count");
        report.metric("net.bytes_on_wire",
                      static_cast<double>(r.net.bytes_on_wire), "bytes");
        report.metric("net.retransmits",
                      static_cast<double>(r.net.retransmits), "count");
        report.metric("durable.syncs", static_cast<double>(r.store.syncs),
                      "count");
        report.metric("durable.bytes_synced",
                      static_cast<double>(r.store.bytes_synced), "bytes");
        report.metric("durable.sim_us", r.store.sim_us, "us");
    }

  private:
    Config cfg_;
    std::unique_ptr<data::Vocab> vocab_;
    std::unique_ptr<data::Treebank> bank_;
    std::vector<Replica> replicas_;
    std::unique_ptr<durable::StableStore> store_;
    std::unique_ptr<serve::Fleet> fleet_;
    std::vector<serve::Request> arrivals_;
    double req_us_ = 0.0;
    double busy_before_ = 0.0;

    /** @name Kept across set-ups: every pass must match pass 0 @{ */
    std::unique_ptr<ServeRecord> first_;
    bool mismatch_ = false;
    double last_host_s_ = 0.0;
    /** @} */
    std::unique_ptr<VppsRun> replay_vpps_;
    std::vector<BaselineRun> baselines_;
};

} // namespace

std::unique_ptr<Workload>
makeServeFleet(const Config& cfg)
{
    return std::make_unique<ServeFleet>(cfg);
}

} // namespace perfbench
