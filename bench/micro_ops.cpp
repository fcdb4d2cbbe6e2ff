/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot simulator paths: the
 * functional math kernels, the batching schedulers, script generation
 * and interpretation. These bound the wall-clock cost of the figure
 * benches and catch performance regressions in the simulator itself.
 */
#include <benchmark/benchmark.h>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "exec/agenda_batch_executor.hpp"
#include "models/tree_lstm.hpp"
#include "tensor/host_math.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"

namespace {

void
BM_Gemv(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<float> w(n * n, 0.5f), x(n, 1.0f), y(n);
    for (auto _ : state) {
        tensor::gemv(w.data(), x.data(), y.data(), n, n);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Gemv)->Arg(128)->Arg(256)->Arg(512);

void
BM_OuterAccum(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<float> dw(n * n, 0.0f), dy(n, 0.1f), x(n, 1.0f);
    for (auto _ : state) {
        tensor::outerAccum(dw.data(), dy.data(), x.data(), n, n);
        benchmark::DoNotOptimize(dw.data());
    }
}
BENCHMARK(BM_OuterAccum)->Arg(256);

/**
 * The interpreter's row-slice kernels at the shapes one VPP sees per
 * instruction: rpw rows of a 256-wide matrix (state.range(0) rows,
 * state.range(1) columns), starting past row 0 as real slices do.
 */
struct RowSliceData
{
    std::size_t rows, cols, row_begin;
    std::vector<float> w, x, y, dy, dx;

    explicit RowSliceData(const benchmark::State& state)
        : rows(static_cast<std::size_t>(state.range(0))),
          cols(static_cast<std::size_t>(state.range(1))), row_begin(rows)
    {
        common::Rng rng(7);
        auto filled = [&](std::size_t n) {
            std::vector<float> v(n);
            for (float& f : v)
                f = rng.nextFloat(-0.01f, 0.01f);
            return v;
        };
        w = filled(2 * rows * cols);
        x = filled(cols);
        y.assign(2 * rows, 0.0f);
        dy = filled(2 * rows);
        dx.assign(cols, 0.0f);
    }

    void
    count(benchmark::State& state) const
    {
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) *
            static_cast<std::int64_t>(rows * cols));
    }
};

void
BM_GemvRows(benchmark::State& state)
{
    RowSliceData d(state);
    for (auto _ : state) {
        tensor::gemvRows(d.w.data(), d.x.data(), d.y.data(), d.row_begin,
                         d.row_begin + d.rows, d.cols);
        benchmark::DoNotOptimize(d.y.data());
        benchmark::ClobberMemory();
    }
    d.count(state);
}
BENCHMARK(BM_GemvRows)->Args({2, 256})->Args({4, 256});

void
BM_GemvTransposedAccumRows(benchmark::State& state)
{
    RowSliceData d(state);
    for (auto _ : state) {
        tensor::gemvTransposedAccumRows(d.w.data(), d.dy.data(),
                                        d.dx.data(), d.row_begin,
                                        d.row_begin + d.rows, d.cols);
        benchmark::DoNotOptimize(d.dx.data());
        benchmark::ClobberMemory();
    }
    d.count(state);
}
BENCHMARK(BM_GemvTransposedAccumRows)->Args({2, 256})->Args({4, 256});

void
BM_OuterAccumRows(benchmark::State& state)
{
    RowSliceData d(state);
    for (auto _ : state) {
        tensor::outerAccumRows(d.w.data(), d.dy.data(), d.x.data(),
                               d.row_begin, d.row_begin + d.rows, d.cols);
        benchmark::DoNotOptimize(d.w.data());
        benchmark::ClobberMemory();
    }
    d.count(state);
}
BENCHMARK(BM_OuterAccumRows)->Args({2, 256})->Args({4, 256});

void
BM_PickNegLogSoftmax(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<float> logits(n, 0.5f), probs(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::pickNegLogSoftmax(
            logits.data(), 0, probs.data(), n));
    }
}
BENCHMARK(BM_PickNegLogSoftmax)->Arg(5)->Arg(256);

/** Full timing-only VPPS training step (script gen + interpret). */
void
BM_VppsTrainBatch(benchmark::State& state)
{
    common::setVerbose(false);
    gpusim::Device device(gpusim::DeviceSpec{}, 64u << 20);
    device.setFunctional(false);
    common::Rng rng(1);
    data::Vocab vocab(1000);
    data::Treebank bank(vocab, 32, rng, 12.0, 4, 20);
    common::Rng prng(2);
    models::TreeLstmModel model(bank, vocab, 64, 64, device, prng);
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(model.model(), device, opts);
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    std::size_t start = 0;
    for (auto _ : state) {
        graph::ComputationGraph cg;
        auto loss = train::buildSuperGraph(model, cg, start, batch);
        handle.fb(model.model(), cg, loss);
        start += batch;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_VppsTrainBatch)->Arg(1)->Arg(8);

/** Full timing-only agenda-batched baseline training step. */
void
BM_AgendaTrainBatch(benchmark::State& state)
{
    common::setVerbose(false);
    gpusim::Device device(gpusim::DeviceSpec{}, 64u << 20);
    device.setFunctional(false);
    common::Rng rng(1);
    data::Vocab vocab(1000);
    data::Treebank bank(vocab, 32, rng, 12.0, 4, 20);
    common::Rng prng(2);
    models::TreeLstmModel model(bank, vocab, 64, 64, device, prng);
    exec::AgendaBatchExecutor executor(device, gpusim::HostSpec{});
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    std::size_t start = 0;
    for (auto _ : state) {
        graph::ComputationGraph cg;
        auto loss = train::buildSuperGraph(model, cg, start, batch);
        executor.trainBatch(model.model(), cg, loss);
        start += batch;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_AgendaTrainBatch)->Arg(1)->Arg(8);

} // namespace

BENCHMARK_MAIN();
