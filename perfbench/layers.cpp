#include "layers.hpp"

#include <map>
#include <tuple>
#include <utility>

#include "exec/agenda_batch_executor.hpp"
#include "exec/depth_batch_executor.hpp"
#include "exec/fold_executor.hpp"
#include "tensor/host_math.hpp"
#include "train/harness.hpp"

namespace perfbench {

namespace {

/** Hits over lookups of a decoded-script cache (0 with no lookups). */
double
hitRatio(const vpps::ScriptCache::Stats& s)
{
    const double lookups = static_cast<double>(s.hits + s.misses);
    return lookups > 0.0 ? static_cast<double>(s.hits) / lookups : 0.0;
}

} // namespace

std::unique_ptr<exec::Executor>
makeBaseline(Baseline which, gpusim::Device& device)
{
    const gpusim::HostSpec host;
    switch (which) {
      case Baseline::DB:
        return std::make_unique<exec::DepthBatchExecutor>(device, host);
      case Baseline::AB:
        return std::make_unique<exec::AgendaBatchExecutor>(device, host);
      case Baseline::Fold:
        break;
    }
    return std::make_unique<exec::FoldExecutor>(device, host);
}

BaselineRun
runBaseline(HostSpans& spans, Baseline which, gpusim::Device& device,
            models::BenchmarkModel& bm, graph::Model& params,
            std::size_t inputs, std::size_t batch)
{
    device.resetStats();
    auto executor = makeBaseline(which, device);
    BaselineRun run;
    run.which = which;
    for (std::size_t done = 0; done < inputs; done += batch) {
        const auto id = static_cast<std::int64_t>(done / batch);
        graph::ComputationGraph cg;
        graph::Expr loss;
        {
            SpanScope s(spans, "graph", HostSpans::Kind::Layer, id);
            loss = train::buildSuperGraph(bm, cg, done, batch);
        }
        SpanScope s(spans, "exec", HostSpans::Kind::Layer, id);
        const double t0 = nowSeconds();
        executor->trainBatch(params, cg, loss);
        run.host_s += nowSeconds() - t0;
    }
    run.stats = executor->stats();
    run.inputs_per_s =
        static_cast<double>(inputs) / (run.stats.totalUs() * 1e-6);
    run.weight_bytes =
        device.traffic().loadBytes(gpusim::MemSpace::Weights);
    return run;
}

bool
VppsRun::sameSim(const VppsRun& o) const
{
    return stats.wall_us == o.stats.wall_us &&
           stats.cpuUs() == o.stats.cpuUs() &&
           stats.gpuUs() == o.stats.gpuUs() &&
           stats.instructions == o.stats.instructions &&
           stats.batches == o.stats.batches &&
           weight_bytes == o.weight_bytes && dram_bytes == o.dram_bytes &&
           launches == o.launches && nodes == o.nodes &&
           jit_sim_s == o.jit_sim_s;
}

VppsRun
runVpps(HostSpans& spans, gpusim::Device& device,
        models::BenchmarkModel& bm, graph::Model& params,
        std::size_t inputs, std::size_t batch, int threads)
{
    device.resetStats();
    VppsRun run;
    vpps::ScriptCache cache;
    const double t0 = nowSeconds();
    std::unique_ptr<vpps::Handle> handle;
    {
        SpanScope s(spans, "vpps.jit");
        handle = std::make_unique<vpps::Handle>(
            params, device, vppsOptions(threads, &cache));
    }
    for (std::size_t done = 0; done < inputs; done += batch) {
        const auto id = static_cast<std::int64_t>(done / batch);
        graph::ComputationGraph cg;
        graph::Expr loss;
        {
            SpanScope s(spans, "graph", HostSpans::Kind::Layer, id);
            loss = train::buildSuperGraph(bm, cg, done, batch);
        }
        run.nodes += cg.size();
        SpanScope s(spans, "vpps.fb", HostSpans::Kind::Layer, id);
        const float stale = handle->fb(params, cg, loss);
        if (done > 0)
            run.losses.push_back(stale); // fb returns the previous loss
    }
    {
        SpanScope s(spans, "vpps.fb");
        run.losses.push_back(handle->sync_get_latest_loss());
    }
    run.host_s = nowSeconds() - t0;
    run.stats = handle->stats();
    run.cache = cache.stats();
    run.jit_sim_s = handle->jitSeconds();
    run.weight_bytes =
        device.traffic().loadBytes(gpusim::MemSpace::Weights);
    run.dram_bytes = device.traffic().totalLoadBytes() +
                     device.traffic().totalStoreBytes();
    run.launches = device.numLaunches();
    run.shapes = probeShapes(handle->kernel(), params);
    return run;
}

void
reportBaselines(Report& report, const std::vector<BaselineRun>& runs)
{
    static const std::pair<Baseline, const char*> kNames[] = {
        {Baseline::DB, "exec.db_ms"},
        {Baseline::AB, "exec.ab_ms"},
        {Baseline::Fold, "exec.fold_ms"},
    };
    double launches = 0.0, groups = 0.0, batches = 0.0;
    for (const auto& [which, name] : kNames) {
        double host_s = 0.0, n = 0.0;
        for (const BaselineRun& r : runs)
            if (r.which == which) {
                host_s += r.host_s;
                n += static_cast<double>(r.stats.batches);
            }
        report.metric(name, n > 0.0 ? host_s * 1e3 / n : 0.0, "ms");
    }
    for (const BaselineRun& r : runs) {
        launches += static_cast<double>(r.stats.launches);
        groups += static_cast<double>(r.stats.groups);
        batches += static_cast<double>(r.stats.batches);
    }
    report.metric("exec.launches", batches > 0.0 ? launches / batches : 0.0,
                  "count");
    report.metric("exec.groups", batches > 0.0 ? groups / batches : 0.0,
                  "count");
}

void
VppsTotals::add(const VppsRun& run, std::size_t run_inputs)
{
    inputs += static_cast<double>(run_inputs);
    batches += static_cast<double>(run.stats.batches);
    nodes += static_cast<double>(run.nodes);
    instructions += static_cast<double>(run.stats.instructions);
    cpu_us += run.stats.cpuUs();
    gpu_us += run.stats.gpuUs();
    handles += 1.0;
    jit_sim_s += run.jit_sim_s;
    weight_bytes += run.weight_bytes;
    dram_bytes += run.dram_bytes;
    launches += static_cast<double>(run.launches);
}

void
reportVppsLayers(const HostSpans& spans, Report& report,
                 const VppsTotals& t, double traced_passes,
                 const vpps::ScriptCache::Stats& cache,
                 double ab_weight_bytes, std::size_t devices)
{
    constexpr double kMiB = 1024.0 * 1024.0;
    auto ms = [&](const char* name) {
        return static_cast<double>(spans.totalNs(name)) * 1e-6;
    };
    std::size_t n_graph = 0, n_jit = 0;
    const double graph_ns =
        static_cast<double>(spans.totalNs("graph", &n_graph));
    const double jit_ns =
        static_cast<double>(spans.totalNs("vpps.jit", &n_jit));
    const double fb_ns = static_cast<double>(spans.totalNs("vpps.fb"));

    report.metric("data.corpus_ms", ms("data"), "ms");
    report.metric("gpusim.device_init_ms", ms("gpusim"), "ms");
    report.metric("gpusim.pool_mb",
                  static_cast<double>(devices * kPoolFloats) * 4.0 / kMiB,
                  "MB");
    report.metric("models.init_ms", ms("models"), "ms");
    report.metric("vpps.jit_host_ms",
                  jit_ns * 1e-6 / static_cast<double>(n_jit), "ms");
    report.metric("vpps.jit_sim_s", t.jit_sim_s / t.handles, "s");
    report.metric("graph.build_ms",
                  graph_ns * 1e-6 / static_cast<double>(n_graph), "ms");
    report.metric("graph.nodes", t.nodes / t.batches, "count");
    report.metric("vpps.fb_ms", fb_ns * 1e-6 / (t.batches * traced_passes),
                  "ms");
    report.metric("vpps.instructions", t.instructions / t.batches, "count");
    report.metric("vpps.fb_ns_per_instr",
                  fb_ns / (t.instructions * traced_passes), "ns");
    report.metric("vpps.decode_cache_hit_ratio", hitRatio(cache), "ratio");
    report.metric("vpps.sim_cpu_us", t.cpu_us / t.inputs, "us");
    report.metric("vpps.sim_gpu_us", t.gpu_us / t.inputs, "us");
    report.metric("gpusim.weight_mb_per_input",
                  t.weight_bytes / t.inputs / kMiB, "MB");
    report.metric("gpusim.dram_mb_per_input", t.dram_bytes / t.inputs / kMiB,
                  "MB");
    report.metric("gpusim.launches_per_input", t.launches / t.inputs,
                  "count");
    report.metric("gpusim.weight_mb_saved_vs_ab",
                  (ab_weight_bytes - t.weight_bytes) / t.inputs / kMiB, "MB");
}

namespace {

std::pair<std::size_t, std::size_t>
dominantShape(const vpps::DistributionPlan& plan, const graph::Model& model,
              bool gradient)
{
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> count;
    for (graph::ParamId m : model.weightMatrices()) {
        const std::size_t cols = model.param(m).shape.cols();
        for (int vpp : plan.vppsOf(m, gradient))
            for (const vpps::RowSlice& s : plan.slices(vpp, m, gradient))
                ++count[{s.num_rows, cols}];
    }
    std::pair<std::size_t, std::size_t> best{0, 0};
    std::size_t best_n = 0;
    for (const auto& [shape, n] : count)
        if (n > best_n) {
            best = shape;
            best_n = n;
        }
    return best;
}

/** Median ns per call of @p call over repeated timed blocks. */
template <class F>
double
nsPerCall(F&& call)
{
    constexpr int kCalls = 4000;
    constexpr int kBlocks = 15;
    std::vector<double> per_call;
    for (int b = 0; b < kBlocks; ++b) {
        const double t0 = nowSeconds();
        for (int i = 0; i < kCalls; ++i)
            call();
        per_call.push_back((nowSeconds() - t0) * 1e9 / kCalls);
    }
    return median(per_call);
}

} // namespace

ProbeShapes
probeShapes(const vpps::CompiledKernel& kernel, const graph::Model& model)
{
    ProbeShapes out;
    std::tie(out.fwd_rows, out.fwd_cols) =
        dominantShape(kernel.plan, model, false);
    std::tie(out.grad_rows, out.grad_cols) =
        dominantShape(kernel.plan, model, true);
    return out;
}

void
probeTensorKernels(HostSpans& spans, const ProbeShapes& shapes,
                   std::uint64_t seed, Report& report)
{
    SpanScope span(spans, "tensor");
    common::Rng rng(seed);
    auto filled = [&](std::size_t n) {
        std::vector<float> v(n);
        for (float& x : v)
            x = rng.nextFloat(-0.01f, 0.01f);
        return v;
    };
    const std::size_t fr = shapes.fwd_rows, fc = shapes.fwd_cols;
    const std::size_t gr = shapes.grad_rows, gc = shapes.grad_cols;
    const std::vector<float> w = filled(fr * fc), x = filled(fc),
                             dy = filled(fr);
    std::vector<float> y(fr), dx(fc);
    const std::vector<float> gdy = filled(gr), gx = filled(gc);
    std::vector<float> dw(gr * gc);

    const double gemv = nsPerCall([&] {
        tensor::gemvRows(w.data(), x.data(), y.data(), 0, fr, fc);
    });
    const double gemv_t = nsPerCall([&] {
        tensor::gemvTransposedAccumRows(w.data(), dy.data(), dx.data(), 0,
                                        fr, fc);
    });
    const double outer = nsPerCall([&] {
        tensor::outerAccumRows(dw.data(), gdy.data(), gx.data(), 0, gr,
                               gc);
    });
    report.metric("tensor.gemv_rows_ns", gemv, "ns");
    report.metric("tensor.gemv_t_accum_rows_ns", gemv_t, "ns");
    report.metric("tensor.outer_accum_rows_ns", outer, "ns");
    report.metric("tensor.probe_rows", static_cast<double>(fr), "count");
    report.metric("tensor.probe_cols", static_cast<double>(fc), "count");
}

} // namespace perfbench
