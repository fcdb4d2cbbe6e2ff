/**
 * @file
 * train_functional: functional VPPS training of Tree-LSTM (hidden =
 * embed = 256, rpw 2) at batch 16 with 2 interpreter threads.
 *
 * Batch 16 is where Fig 10's bottleneck flips from GPU to CPU, and
 * with the float math on, the kernels, interpreter, thread pool and
 * memory churn carry almost all host time: this is the workload a
 * host hot-path change must move.
 *
 * A pass trains one epoch of a fixed 64-sentence corpus (the first 64
 * of the figure benches' treebank) from the same initial parameters
 * with a fresh handle, so every pass repeats the same arithmetic and
 * its parameter/loss digest must repeat bit for bit. The seed picks
 * the batch composition (a shuffle of the corpus) and the parameter
 * initialisation; every seed trains the same multiset of sentences,
 * so host work hardly varies with it.
 */
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "layers.hpp"
#include "models/tree_lstm.hpp"
#include "references.hpp"
#include "train/harness.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCorpus = 64;
constexpr std::size_t kBatch = 16;
constexpr std::uint64_t kBatches = kCorpus / kBatch;
constexpr int kThreads = 2;

using Kind = HostSpans::Kind;

class TrainFunctional : public Workload
{
  public:
    explicit TrainFunctional(const Config& cfg) : cfg_(cfg) {}

    void
    setup(HostSpans& spans) override
    {
        {
            SpanScope s(spans, "data");
            vocab_ = std::make_unique<data::Vocab>(10000);
            common::Rng rng(kCorpusSeed);
            bank_ = std::make_unique<data::Treebank>(*vocab_, kCorpus,
                                                     rng, 19.0, 4, 36);
        }
        {
            SpanScope s(spans, "gpusim");
            device_ = std::make_unique<gpusim::Device>(
                gpusim::DeviceSpec{}, kPoolFloats);
            device_->setFunctional(true);
        }
        {
            SpanScope s(spans, "models");
            common::Rng prng(cfg_.seed * 0x9E3779B97F4A7C15ull +
                             kParamSeed);
            bm_ = std::make_unique<models::TreeLstmModel>(
                *bank_, *vocab_, 256, 256, *device_, prng);
        }
        {
            SpanScope s(spans, "train");
            init_ = train::captureCheckpoint(bm_->model(), *device_, 0);
        }
        view_ = std::make_unique<PermutedView>(
            *bm_, seededPermutation(kCorpus, cfg_.seed));
    }

    void
    teardown() override
    {
        view_.reset();
        bm_.reset();
        device_.reset();
        bank_.reset();
        vocab_.reset();
    }

    bool repeatable() const override { return true; }

    int hostThreads() const override { return kThreads; }

    PassOut
    pass(HostSpans& spans, int index) override
    {
        SpanScope frame(spans, "pass", Kind::Frame, index);
        graph::Model& model = bm_->model();
        {
            SpanScope s(spans, "train");
            if (auto st = train::restoreCheckpoint(init_, model, *device_);
                !st.ok())
                throw std::runtime_error(st.toString());
        }
        VppsRun run = runVpps(spans, *device_, *view_, model, kCorpus,
                              kBatch, kThreads);
        SpanScope check(spans, "check", Kind::Frame);
        const train::TrainCheckpoint end =
            train::captureCheckpoint(model, *device_, kCorpus);
        const std::uint64_t digest =
            fnv1aFloats(run.losses, fnv1aFloats(end.params));
        for (float l : run.losses)
            finite_ = finite_ && std::isfinite(l);
        if (!first_) {
            first_ = std::make_unique<VppsRun>(run);
            digest_ = digest;
        } else if (!run.sameSim(*first_) || digest != digest_) {
            pass_mismatch_ = true;
        }
        ++passes_;
        if (spans.enabled())
            ++traced_passes_;
        return {static_cast<double>(kCorpus), run.host_s};
    }

    void
    finish(HostSpans& spans, Report& report) override
    {
        const VppsRun& r = *first_;
        const double inputs = static_cast<double>(kCorpus);
        report.attempted = kBatches * passes_;
        report.check(!pass_mismatch_,
                     "a pass did not repeat pass 0's simulated results "
                     "and parameter/loss digest bit for bit");
        report.check(finite_, "a training loss is not finite");
        report.check(r.losses.size() == kBatches &&
                         r.stats.batches == kBatches &&
                         r.stats.recovery.skipped_batches == 0,
                     "VPPS skipped or lost a batch");
        report.check(r.weight_bytes ==
                         bm_->model().totalWeightMatrixBytes() *
                             static_cast<double>(r.stats.batches),
                     "VPPS weight bytes != total weight bytes x batches");

        // The baselines on the same batches, timing-only: no float
        // math, so the trained parameters are not touched.
        device_->setFunctional(false);
        {
            SpanScope frame(spans, "replay", Kind::Frame);
            for (auto which : {Baseline::DB, Baseline::AB, Baseline::Fold})
                baselines_.push_back(runBaseline(spans, which, *device_,
                                                 *view_, bm_->model(),
                                                 kCorpus, kBatch));
        }
        device_->setFunctional(true);

        const double vpps_rate = inputs / (r.stats.wall_us * 1e-6);
        const double speedup =
            vpps_rate / std::max(baselines_[0].inputs_per_s,
                                 baselines_[1].inputs_per_s);
        const double table1 = tableIMb(
            r.weight_bytes / static_cast<double>(kBatches), kBatch);
        const double rel_err = meanRelErr(
            {{table1, kPaperTableIMbBatch1 / static_cast<double>(kBatch)}});
        report.check(speedup > 1.0, "VPPS does not beat the best DyNet");

        report.metric("sim_inputs_per_s", vpps_rate, "1/s");
        report.metric("sim_vpps_speedup", speedup, "x");
        report.metric("sim_paper_rel_err", rel_err, "ratio");
        report.metric("ok_frac", 1.0 - errorFrac(0, report.attempted),
                      "ratio");
        report.detail("batch", kBatch);
        report.detail("inputs_per_pass", inputs);
        report.detail("sim_dynet_db_inputs_per_s",
                      baselines_[0].inputs_per_s);
        report.detail("sim_dynet_ab_inputs_per_s",
                      baselines_[1].inputs_per_s);
        report.detail("sim_tf_fold_inputs_per_s",
                      baselines_[2].inputs_per_s);
        report.detail("table1_vpps_mb", table1);
        report.detailText("digest", std::to_string(digest_));

        if (cfg_.seed == kDefaultSeed) {
            const TrainFunctionalRef& ref = kTrainFunctionalRef;
            if (digest_ != ref.digest)
                report.check(false, "parameter/loss digest " +
                                        std::to_string(digest_) +
                                        " differs from the pinned " +
                                        std::to_string(ref.digest));
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
        return first_->shapes;
    }

    void
    layerMetrics(const HostSpans& spans, Report& report) override
    {
        VppsTotals t;
        t.add(*first_, kCorpus);
        reportVppsLayers(spans, report, t, traced_passes_, first_->cache,
                         baselines_[1].weight_bytes, 1);
        reportBaselines(report, baselines_);
    }

  private:
    Config cfg_;
    std::unique_ptr<data::Vocab> vocab_;
    std::unique_ptr<data::Treebank> bank_;
    std::unique_ptr<gpusim::Device> device_;
    std::unique_ptr<models::TreeLstmModel> bm_;
    std::unique_ptr<PermutedView> view_;
    train::TrainCheckpoint init_;

    /** @name Kept across set-ups: every pass must match pass 0 @{ */
    std::unique_ptr<VppsRun> first_;
    std::uint64_t digest_ = 0;
    bool pass_mismatch_ = false;
    bool finite_ = true;
    std::uint64_t passes_ = 0;
    double traced_passes_ = 0.0;
    /** @} */
    std::vector<BaselineRun> baselines_;
};

} // namespace

std::unique_ptr<Workload>
makeTrainFunctional(const Config& cfg)
{
    return std::make_unique<TrainFunctional>(cfg);
}

} // namespace perfbench
