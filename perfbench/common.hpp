/**
 * @file
 * Shared pieces of the repository benchmark: run configuration, the
 * report every run prints, the workload interface the runner drives,
 * and the small rig helpers the three workloads have in common.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arith.hpp"
#include "common/rng.hpp"
#include "graph/expr.hpp"
#include "models/benchmark_model.hpp"
#include "spans.hpp"
#include "vpps/handle.hpp"

namespace perfbench {

/** The seed the exact references are pinned for, and the one held
 *  back for checking later claims (BENCHMARK.json names both). */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2;

/** Device pool per simulated GPU, the size the figure benches use:
 *  its eager allocation is most of set-up time and resident memory. */
constexpr std::size_t kPoolFloats = 704ull << 20;

/** Seeds of the fixed corpora and parameters (the figure benches'
 *  values, so the paper points are the published configuration). */
constexpr std::uint64_t kCorpusSeed = 2024;
constexpr std::uint64_t kParamSeed = 99;

struct Config
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    std::string trace_out; //!< Chrome-trace file for --trace 1
    std::string source_id; //!< commit or source digest, for context
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a run prints: checks, counts and metrics. */
class Report
{
  public:
    /** Record a correctness check; a failed one makes the run
     *  incorrect and suppresses the metrics. */
    void check(bool ok, const std::string& what);

    /** Check that @p got equals the pinned @p want bit for bit. */
    void exact(const std::string& name, double got, double want);

    void metric(std::string name, double value, std::string unit);

    /** A value printed in the detail line, not a declared metric. */
    void detail(std::string name, double value);

    /** A string value for the detail line. */
    void detailText(std::string name, const std::string& text);

    /** Turn every metric reported so far into a detail value. */
    void moveMetricsToDetails();

    bool correct() const { return failures_.empty(); }
    const std::vector<std::string>& failures() const { return failures_; }
    const std::vector<Metric>& metrics() const { return metrics_; }
    /** (name, JSON literal) pairs for the detail line. */
    const std::vector<std::pair<std::string, std::string>>&
    details() const
    {
        return details_;
    }

    /** Operations attempted and operations that errored. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::vector<std::string> failures_;
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> details_;
};

/** The row-slice shapes the kernel's interpreter feeds the tensor
 *  kernels: the most frequent (rows, cols) among forward slices and
 *  among gradient slices. */
struct ProbeShapes
{
    std::size_t fwd_rows = 0, fwd_cols = 0;
    std::size_t grad_rows = 0, grad_cols = 0;
};

/**
 * A benchmark workload. The runner calls setup() (several times, for
 * the set-up time median), then pass() repeatedly for the measured
 * host time, then finish() for the simulated metrics and the output
 * checks. Every pass does the same fixed work, so its simulated
 * results must repeat exactly; pass 0's are the ones checked.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build corpora, devices, models and handles. */
    virtual void setup(HostSpans& spans) = 0;

    /** Release everything setup() built. */
    virtual void teardown() = 0;

    /** Inputs one pass processed and the host seconds its measured
     *  part took (restores and output checks excluded). */
    struct PassOut
    {
        double inputs = 0.0;
        double host_s = 0.0;
    };

    /** One unit of measured work. */
    virtual PassOut pass(HostSpans& spans, int index) = 0;

    /** False when a pass consumes its set-up (one pass per set-up). */
    virtual bool repeatable() const = 0;

    /** VPPS interpreter threads the workload passes explicitly. */
    virtual int hostThreads() const = 0;

    /** Simulated end-to-end metrics, ok_frac and output checks
     *  (untimed; may replay baselines on the set-up's devices). */
    virtual void finish(HostSpans& spans, Report& report) = 0;

    /** Per-layer metrics from the traced passes in @p spans. */
    virtual void layerMetrics(const HostSpans& spans,
                              Report& report) = 0;

    /** Row-slice shapes of the workload's Tree-LSTM kernel (valid
     *  after finish()), for the tensor-kernel probe. */
    virtual ProbeShapes kernelShapes() const = 0;
};

std::unique_ptr<Workload> makeTrainFunctional(const Config& cfg);
std::unique_ptr<Workload> makeReproTiming(const Config& cfg);
std::unique_ptr<Workload> makeServeFleet(const Config& cfg);

/** A seeded permutation of [0, n). */
std::vector<std::size_t> seededPermutation(std::size_t n,
                                           std::uint64_t seed);

/**
 * Dataset view that serves item i as the wrapped model's item
 * perm[i], so train::buildSuperGraph batches a seeded shuffle of a
 * fixed corpus: every seed trains the same multiset of inputs in a
 * different batch composition. The parameters stay in the wrapped
 * model; pass inner().model() to handles and executors.
 */
class PermutedView : public models::BenchmarkModel
{
  public:
    PermutedView(models::BenchmarkModel& inner,
                 std::vector<std::size_t> perm)
        : inner_(inner), perm_(std::move(perm))
    {
    }

    const char* name() const override { return inner_.name(); }

    graph::Expr
    buildLoss(graph::ComputationGraph& cg, std::size_t index) override
    {
        return inner_.buildLoss(cg, perm_.at(index));
    }

    std::size_t datasetSize() const override { return perm_.size(); }

    models::BenchmarkModel& inner() { return inner_; }

  private:
    models::BenchmarkModel& inner_;
    std::vector<std::size_t> perm_;
};

/** The paper's VPPS knobs (rpw 2) with an explicit thread count, so
 *  VPPS_HOST_THREADS cannot change a run. */
vpps::VppsOptions vppsOptions(int host_threads,
                              vpps::ScriptCache* cache);

/** Inputs per Fig 8 measurement point, as the figure benches use. */
inline std::size_t
pointInputs(std::size_t batch)
{
    return std::max<std::size_t>(48, 6 * batch);
}

/** Table I's unit: MB of weights loaded training 128 inputs. */
double tableIMb(double weight_bytes_per_batch, std::size_t batch);

/** Paper Table I, VPPS MB at batch 1; it halves exactly with every
 *  batch-size doubling. */
constexpr double kPaperTableIMbBatch1 = 352.62;

/** Steady-clock seconds since an arbitrary origin. */
double nowSeconds();

/** Peak resident set size of this process, MB. */
double peakRssMb();

} // namespace perfbench
