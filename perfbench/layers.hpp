/**
 * @file
 * Measurements of single layers shared by the workloads: the DyNet /
 * TF-Fold baselines run on a workload's own batches, the tensor
 * kernel probe, and the per-layer metrics derived from the spans.
 */
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "exec/executor.hpp"
#include "vpps/script_cache.hpp"

namespace perfbench {

enum class Baseline
{
    DB,   //!< DyNet depth-based batching
    AB,   //!< DyNet agenda-based batching
    Fold, //!< TensorFlow Fold
};

/** A fresh baseline executor on @p device. */
std::unique_ptr<exec::Executor> makeBaseline(Baseline which,
                                             gpusim::Device& device);

/** One baseline's simulated result on a set of batches. */
struct BaselineRun
{
    Baseline which = Baseline::DB;
    double inputs_per_s = 0.0; //!< simulated
    double weight_bytes = 0.0; //!< weight-matrix DRAM loads
    exec::ExecStats stats;
    double host_s = 0.0; //!< host time inside trainBatch
};

/**
 * Train @p inputs inputs of @p bm in batches of @p batch through a
 * fresh @p which executor on @p device (its stats reset first),
 * recording "graph" and "exec" spans per batch. Baselines run in the
 * device's current mode; the workloads use timing-only.
 */
BaselineRun runBaseline(HostSpans& spans, Baseline which,
                        gpusim::Device& device,
                        models::BenchmarkModel& bm,
                        graph::Model& params, std::size_t inputs,
                        std::size_t batch);

/** One VPPS measurement: a fresh handle trained over a batch run. */
struct VppsRun
{
    vpps::VppsStats stats;
    double weight_bytes = 0.0; //!< weight-matrix DRAM loads
    double dram_bytes = 0.0;   //!< all DRAM loads and stores
    std::uint64_t launches = 0;
    std::uint64_t nodes = 0; //!< computation-graph nodes built
    vpps::ScriptCache::Stats cache;
    double jit_sim_s = 0.0;
    std::vector<float> losses; //!< one per batch, in order
    ProbeShapes shapes;
    double host_s = 0.0; //!< JIT through the final sync

    /** Simulated results that must repeat exactly across passes. */
    bool sameSim(const VppsRun& o) const;
};

/**
 * Train @p inputs inputs of @p bm in batches of @p batch through a
 * fresh VPPS handle (rpw 2, @p threads interpreter threads, its own
 * decoded-script cache) on @p device, whose stats are reset first.
 * Records "vpps.jit", "graph" and "vpps.fb" spans.
 */
VppsRun runVpps(HostSpans& spans, gpusim::Device& device,
                models::BenchmarkModel& bm, graph::Model& params,
                std::size_t inputs, std::size_t batch, int threads);

/** exec.* metrics: host ms per batch of each baseline, and launches
 *  and groups per batch over all of them. */
void reportBaselines(Report& report, const std::vector<BaselineRun>& runs);

/** VPPS work of one pass, summed over its runs. */
struct VppsTotals
{
    double inputs = 0.0;
    double batches = 0.0;
    double nodes = 0.0;
    double instructions = 0.0;
    double cpu_us = 0.0; //!< simulated host side
    double gpu_us = 0.0; //!< simulated device side
    double handles = 0.0;
    double jit_sim_s = 0.0;
    double weight_bytes = 0.0;
    double dram_bytes = 0.0;
    double launches = 0.0;

    void add(const VppsRun& run, std::size_t run_inputs);
};

/**
 * The set-up, graph, vpps and gpusim per-layer metrics. Simulated
 * counts come from @p t; host times from the traced spans, in which
 * t's work ran @p traced_passes times ("vpps.jit" spans are averaged
 * per handle, "graph" spans per graph, baseline builds included).
 * @p devices pools were allocated per set-up; @p ab_weight_bytes is
 * DyNet-AB's weight traffic on the same inputs as t.
 */
void reportVppsLayers(const HostSpans& spans, Report& report,
                      const VppsTotals& t, double traced_passes,
                      const vpps::ScriptCache::Stats& cache,
                      double ab_weight_bytes, std::size_t devices);

ProbeShapes probeShapes(const vpps::CompiledKernel& kernel,
                        const graph::Model& model);

/** Time tensor::gemvRows, gemvTransposedAccumRows and outerAccumRows
 *  at @p shapes (median ns per call) under a "tensor" span. */
void probeTensorKernels(HostSpans& spans, const ProbeShapes& shapes,
                        std::uint64_t seed, Report& report);

} // namespace perfbench
