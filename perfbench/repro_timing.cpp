/**
 * @file
 * repro_timing: the timing-only reproduction of the paper points
 * EXPERIMENTS.md quotes -- VPPS, DyNet-DB, DyNet-AB and TF-Fold on
 * Tree-LSTM at batch 2, 8 and 128 (Fig 8, Table I) and on BiLSTM at
 * batch 2 (Fig 12) -- each point on a fresh handle or executor, as in
 * the figure benches.
 *
 * No float math runs, so graph build, script generation, decode,
 * interpreter bookkeeping and the baseline schedulers carry the host
 * time; a tensor-kernel speedup must not move this workload. The
 * corpora, models and point sizes are the figure benches'; the seed
 * shuffles the order inputs are batched in.
 */
#include <memory>

#include "common.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "layers.hpp"
#include "models/bilstm_tagger.hpp"
#include "models/tree_lstm.hpp"
#include "references.hpp"

namespace perfbench {

namespace {

constexpr int kThreads = 1;

using Kind = HostSpans::Kind;

struct Point
{
    bool bilstm = false;
    std::size_t batch = 0;
};

constexpr Point kPoints[] = {
    {false, 2}, {false, 8}, {false, 128}, {true, 2}};
constexpr std::size_t kNumPoints = sizeof kPoints / sizeof kPoints[0];

/** One point's four systems. */
struct PointRecord
{
    VppsRun vpps;
    std::vector<BaselineRun> baselines; //!< DB, AB, Fold

    double
    speedup(std::size_t inputs) const
    {
        const double vpps_rate = static_cast<double>(inputs) /
                                 (vpps.stats.wall_us * 1e-6);
        return vpps_rate / std::max(baselines[0].inputs_per_s,
                                    baselines[1].inputs_per_s);
    }

    bool
    sameSim(const PointRecord& o) const
    {
        if (!vpps.sameSim(o.vpps))
            return false;
        for (std::size_t i = 0; i < baselines.size(); ++i)
            if (baselines[i].stats.totalUs() !=
                    o.baselines[i].stats.totalUs() ||
                baselines[i].weight_bytes != o.baselines[i].weight_bytes)
                return false;
        return true;
    }
};

class ReproTiming : public Workload
{
  public:
    explicit ReproTiming(const Config& cfg) : cfg_(cfg) {}

    void
    setup(HostSpans& spans) override
    {
        {
            SpanScope s(spans, "data");
            vocab_ = std::make_unique<data::Vocab>(10000);
            common::Rng rng(kCorpusSeed);
            bank_ = std::make_unique<data::Treebank>(*vocab_, 256, rng,
                                                     19.0, 4, 36);
            ner_ = std::make_unique<data::NerCorpus>(*vocab_, 256, rng,
                                                     24.0, 5, 40);
        }
        {
            SpanScope s(spans, "gpusim");
            device_ = std::make_unique<gpusim::Device>(
                gpusim::DeviceSpec{}, kPoolFloats);
            device_->setFunctional(false);
        }
        {
            SpanScope s(spans, "models");
            common::Rng tree_rng(kParamSeed), bilstm_rng(kParamSeed);
            tree_ = std::make_unique<models::TreeLstmModel>(
                *bank_, *vocab_, 256, 256, *device_, tree_rng);
            bilstm_ = std::make_unique<models::BiLstmTagger>(
                *ner_, *vocab_, 256, 256, 256, *device_, bilstm_rng);
        }
        tree_view_ = std::make_unique<PermutedView>(
            *tree_, seededPermutation(bank_->size(), cfg_.seed));
        bilstm_view_ = std::make_unique<PermutedView>(
            *bilstm_, seededPermutation(ner_->size(), ~cfg_.seed));
    }

    void
    teardown() override
    {
        tree_view_.reset();
        bilstm_view_.reset();
        tree_.reset();
        bilstm_.reset();
        device_.reset();
        ner_.reset();
        bank_.reset();
        vocab_.reset();
    }

    bool repeatable() const override { return true; }

    int hostThreads() const override { return kThreads; }

    PassOut
    pass(HostSpans& spans, int index) override
    {
        SpanScope frame(spans, "pass", Kind::Frame, index);
        std::vector<PointRecord> records;
        PassOut out;
        for (std::size_t p = 0; p < kNumPoints; ++p) {
            const Point& pt = kPoints[p];
            SpanScope point(spans, "point", Kind::Frame,
                            static_cast<std::int64_t>(p));
            PermutedView& view = pt.bilstm ? *bilstm_view_ : *tree_view_;
            graph::Model& params = view.inner().model();
            const std::size_t n = pointInputs(pt.batch);
            PointRecord rec;
            rec.vpps = runVpps(spans, *device_, view, params, n, pt.batch,
                               kThreads);
            out.host_s += rec.vpps.host_s;
            for (auto which : {Baseline::DB, Baseline::AB, Baseline::Fold}) {
                const double t0 = nowSeconds();
                rec.baselines.push_back(runBaseline(
                    spans, which, *device_, view, params, n, pt.batch));
                out.host_s += nowSeconds() - t0;
            }
            out.inputs += 4.0 * static_cast<double>(n);
            records.push_back(std::move(rec));
        }
        SpanScope check(spans, "check", Kind::Frame);
        if (first_.empty())
            first_ = records;
        else
            for (std::size_t p = 0; p < kNumPoints; ++p)
                mismatch_ = mismatch_ || !records[p].sameSim(first_[p]);
        last_ = std::move(records);
        ++passes_;
        if (spans.enabled())
            ++traced_passes_;
        return out;
    }

    void
    finish(HostSpans& /*spans*/, Report& report) override
    {
        report.check(!mismatch_, "a pass did not repeat pass 0's "
                                 "simulated results bit for bit");
        std::vector<double> speedups;
        double vpps_inputs = 0.0, vpps_s = 0.0;
        std::uint64_t batches = 0;
        for (std::size_t p = 0; p < kNumPoints; ++p) {
            const Point& pt = kPoints[p];
            const PointRecord& r = first_[p];
            const std::size_t n = pointInputs(pt.batch);
            const double s = r.speedup(n);
            speedups.push_back(s);
            vpps_inputs += static_cast<double>(n);
            vpps_s += r.vpps.stats.wall_us * 1e-6;
            batches += r.vpps.stats.batches;
            for (const BaselineRun& b : r.baselines)
                batches += b.stats.batches;
            const graph::Model& params =
                pt.bilstm ? bilstm_->model() : tree_->model();
            const std::string where =
                std::string(pt.bilstm ? "BiLSTM" : "Tree-LSTM") +
                " batch " + std::to_string(pt.batch);
            report.check(s > 1.0, "VPPS does not beat the best DyNet at " +
                                      where);
            // Table I's identity; BiLSTM's gradients do not fit in the
            // register file, so its update kernel reloads the weights.
            if (!pt.bilstm)
                report.check(r.vpps.weight_bytes ==
                                 params.totalWeightMatrixBytes() *
                                     static_cast<double>(
                                         r.vpps.stats.batches),
                             "VPPS weight bytes != total weight bytes x "
                             "batches at " + where);
            report.detail(std::string(pt.bilstm ? "bilstm" : "treelstm") +
                              "_b" + std::to_string(pt.batch) + "_speedup",
                          s);
        }
        report.attempted = batches * passes_;

        const auto tableI = [&](std::size_t p) {
            const VppsRun& v = first_[p].vpps;
            return tableIMb(v.weight_bytes /
                                static_cast<double>(v.stats.batches),
                            kPoints[p].batch);
        };
        // Fig 8 VPPS/best at batch 2 and 128, Table I VPPS MB at batch
        // 8 and 128, Fig 12 BiLSTM VPPS/best at batch 2.
        const double rel_err = meanRelErr({{speedups[0], 2.92},
                                           {speedups[2], 1.16},
                                           {tableI(1), 44.07},
                                           {tableI(2), 2.75},
                                           {speedups[3], 6.08}});
        const double speedup = geomean(speedups);
        const double vpps_rate = vpps_inputs / vpps_s;

        report.metric("sim_inputs_per_s", vpps_rate, "1/s");
        report.metric("sim_vpps_speedup", speedup, "x");
        report.metric("sim_paper_rel_err", rel_err, "ratio");
        report.metric("ok_frac", 1.0 - errorFrac(0, report.attempted),
                      "ratio");
        report.detail("inputs_per_pass", 4.0 * vpps_inputs);
        report.detail("table1_vpps_mb_b8", tableI(1));
        report.detail("table1_vpps_mb_b128", tableI(2));

        if (cfg_.seed == kDefaultSeed) {
            const ReproTimingRef& ref = kReproTimingRef;
            report.exact("sim_inputs_per_s", vpps_rate,
                         ref.sim_inputs_per_s);
            report.exact("sim_vpps_speedup", speedup, ref.sim_vpps_speedup);
            report.exact("sim_paper_rel_err", rel_err,
                         ref.sim_paper_rel_err);
        }
    }

    ProbeShapes
    kernelShapes() const override
    {
        return first_[0].vpps.shapes;
    }

    void
    layerMetrics(const HostSpans& spans, Report& report) override
    {
        // Simulated counts of one pass (every pass repeats them); the
        // baselines' host times from the last (traced) pass.
        VppsTotals t;
        vpps::ScriptCache::Stats cache;
        double ab_weight = 0.0;
        std::vector<BaselineRun> baselines;
        for (std::size_t p = 0; p < kNumPoints; ++p) {
            const VppsRun& v = first_[p].vpps;
            t.add(v, pointInputs(kPoints[p].batch));
            cache.hits += v.cache.hits;
            cache.misses += v.cache.misses;
            ab_weight += first_[p].baselines[1].weight_bytes;
            baselines.insert(baselines.end(), last_[p].baselines.begin(),
                             last_[p].baselines.end());
        }
        reportVppsLayers(spans, report, t, traced_passes_, cache, ab_weight,
                         1);
        reportBaselines(report, baselines);
    }

  private:
    Config cfg_;
    std::unique_ptr<data::Vocab> vocab_;
    std::unique_ptr<data::Treebank> bank_;
    std::unique_ptr<data::NerCorpus> ner_;
    std::unique_ptr<gpusim::Device> device_;
    std::unique_ptr<models::TreeLstmModel> tree_;
    std::unique_ptr<models::BiLstmTagger> bilstm_;
    std::unique_ptr<PermutedView> tree_view_;
    std::unique_ptr<PermutedView> bilstm_view_;

    /** @name Kept across set-ups: every pass must match pass 0 @{ */
    std::vector<PointRecord> first_;
    std::vector<PointRecord> last_;
    bool mismatch_ = false;
    std::uint64_t passes_ = 0;
    double traced_passes_ = 0.0;
    /** @} */
};

} // namespace

std::unique_ptr<Workload>
makeReproTiming(const Config& cfg)
{
    return std::make_unique<ReproTiming>(cfg);
}

} // namespace perfbench
