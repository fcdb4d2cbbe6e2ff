/**
 * @file
 * Direct unit tests of the VPP interpreter: hand-encoded scripts are
 * executed through ScriptExecutor and the resulting memory contents,
 * timings, and barrier behaviour are checked opcode by opcode --
 * independent of the script generator.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/tree_lstm.hpp"
#include "train/harness.hpp"
#include "vpps/script_cache.hpp"
#include "vpps/script_exec.hpp"
#include "vpps/script_gen.hpp"

namespace {

using gpusim::DeviceMemory;

/** Fixture: a device, a 2-matrix model, and a compiled kernel. */
struct InterpRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 4u << 20};
    graph::Model model;
    graph::ParamId w;
    vpps::CompiledKernel kernel;
    graph::ComputationGraph cg;
    graph::NodeId loss_node;

    InterpRig()
    {
        w = model.addWeightMatrix("W", 8, 4);
        common::Rng rng(111);
        model.allocate(device, rng);
        vpps::VppsOptions opts;
        auto plan = vpps::DistributionPlan::buildAuto(
            model, device.spec(), opts, 2);
        const vpps::KernelSpecializer specializer(device.spec());
        kernel = specializer.specialize(model, plan);
        // A placeholder loss node so RunResult.loss has a source.
        loss_node = cg.addInput({0.0f});
        cg.node(loss_node).fwd =
            device.memory().allocate(1, gpusim::MemSpace::Activations);
    }

    /** Allocate a vector and fill it with the given values. */
    DeviceMemory::Offset
    vec(std::initializer_list<float> values)
    {
        auto off = device.memory().allocate(
            values.size(), gpusim::MemSpace::Activations);
        float* p = device.memory().data(off);
        std::size_t i = 0;
        for (float v : values)
            p[i++] = v;
        return off;
    }

    const float* at(DeviceMemory::Offset off)
    {
        return device.memory().data(off);
    }

    common::Result<vpps::RunResult>
    tryRun(vpps::GeneratedBatch& batch)
    {
        batch.loss_node = loss_node;
        batch.script.seal();
        vpps::ScriptExecutor executor(device);
        return executor.run(kernel, batch, model, cg);
    }

    vpps::RunResult
    run(vpps::GeneratedBatch& batch)
    {
        return tryRun(batch).value();
    }

    vpps::GeneratedBatch
    fresh()
    {
        return vpps::GeneratedBatch(kernel.plan.numVpps());
    }
};

TEST(Interpreter, CopyAndAccum)
{
    InterpRig rig;
    const auto src = rig.vec({1, 2, 3});
    const auto dst = rig.vec({0, 0, 0});
    const auto acc = rig.vec({10, 20, 30});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Copy, 3, {dst, src});
    batch.script.emit(1, vpps::Opcode::Accum, 3, {acc, src});
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(dst)[0], 1.0f);
    EXPECT_FLOAT_EQ(rig.at(dst)[2], 3.0f);
    EXPECT_FLOAT_EQ(rig.at(acc)[0], 11.0f);
    EXPECT_FLOAT_EQ(rig.at(acc)[2], 33.0f);
}

TEST(Interpreter, AddsAndMuls)
{
    InterpRig rig;
    const auto a = rig.vec({1, 2});
    const auto b = rig.vec({10, 20});
    const auto c = rig.vec({100, 200});
    const auto sum2 = rig.vec({0, 0});
    const auto sum3 = rig.vec({0, 0});
    const auto prod = rig.vec({0, 0});
    const auto fma = rig.vec({5, 5});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Add2, 2, {sum2, a, b});
    batch.script.emit(0, vpps::Opcode::Add3, 2, {sum3, a, b, c});
    batch.script.emit(0, vpps::Opcode::Mul, 2, {prod, a, b});
    batch.script.emit(0, vpps::Opcode::MulAccum, 2, {fma, a, b});
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(sum2)[1], 22.0f);
    EXPECT_FLOAT_EQ(rig.at(sum3)[1], 222.0f);
    EXPECT_FLOAT_EQ(rig.at(prod)[1], 40.0f);
    EXPECT_FLOAT_EQ(rig.at(fma)[0], 15.0f);
}

TEST(Interpreter, ActivationsForwardAndBackward)
{
    InterpRig rig;
    const auto in = rig.vec({0.5f, -0.5f});
    const auto y_tanh = rig.vec({0, 0});
    const auto y_sig = rig.vec({0, 0});
    const auto y_relu = rig.vec({0, 0});
    const auto dout = rig.vec({1, 1});
    const auto din = rig.vec({0, 0});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Tanh, 2, {y_tanh, in});
    batch.script.emit(0, vpps::Opcode::Sigmoid, 2, {y_sig, in});
    batch.script.emit(0, vpps::Opcode::Relu, 2, {y_relu, in});
    batch.script.emit(0, vpps::Opcode::TanhBack, 2,
                      {din, y_tanh, dout});
    rig.run(batch);
    EXPECT_NEAR(rig.at(y_tanh)[0], std::tanh(0.5f), 1e-6);
    EXPECT_NEAR(rig.at(y_sig)[1], 1.0f / (1.0f + std::exp(0.5f)),
                1e-6);
    EXPECT_FLOAT_EQ(rig.at(y_relu)[0], 0.5f);
    EXPECT_FLOAT_EQ(rig.at(y_relu)[1], 0.0f);
    const float t = std::tanh(0.5f);
    EXPECT_NEAR(rig.at(din)[0], 1.0f - t * t, 1e-6);
}

TEST(Interpreter, ScaleUsesOperandFloatBits)
{
    InterpRig rig;
    const auto in = rig.vec({2, 4});
    const auto out = rig.vec({0, 0});
    const float factor = -1.5f;
    std::uint32_t bits;
    std::memcpy(&bits, &factor, sizeof(bits));
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Scale, 2, {out, in, bits});
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(out)[0], -3.0f);
    EXPECT_FLOAT_EQ(rig.at(out)[1], -6.0f);
}

TEST(Interpreter, MatVecUsesPerVppRowSlices)
{
    InterpRig rig;
    // W is 8x4; fill it with a known pattern: W[r][c] = r + 1.
    float* wdata = rig.device.memory().data(rig.model.param(rig.w).value);
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 4; ++c)
            wdata[r * 4 + c] = static_cast<float>(r + 1);
    const auto x = rig.vec({1, 1, 1, 1});
    const auto y = rig.vec({0, 0, 0, 0, 0, 0, 0, 0});
    auto batch = rig.fresh();
    // Emit the matvec on every VPP holding rows, as the generator
    // would; rows not held by a VPP must be left for the others.
    for (int vpp : rig.kernel.plan.vppsOf(rig.w, false))
        batch.script.emit(vpp, vpps::Opcode::MatVec, rig.w, {x, y});
    rig.run(batch);
    for (int r = 0; r < 8; ++r)
        EXPECT_FLOAT_EQ(rig.at(y)[r], 4.0f * (r + 1))
            << "row " << r;
}

TEST(Interpreter, SignalWaitOrdersCrossVppDataflow)
{
    InterpRig rig;
    const auto a = rig.vec({7, 7});
    const auto b = rig.vec({0, 0});
    const auto c = rig.vec({0, 0});
    auto batch = rig.fresh();
    // VPP 5 produces b from a, signals; VPP 9 waits, consumes b.
    batch.script.emit(5, vpps::Opcode::Copy, 2, {b, a});
    batch.script.emit(5, vpps::Opcode::Signal, 0, {});
    batch.script.emit(9, vpps::Opcode::Wait, 0, {});
    batch.script.emit(9, vpps::Opcode::Add2, 2, {c, b, b});
    batch.script.setExpectedSignals(0, 1);
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(c)[0], 14.0f);
}

TEST(Interpreter, WaitingVppResumesAfterSignaler)
{
    InterpRig rig;
    const auto big_src = rig.device.memory().allocate(
        4096, gpusim::MemSpace::Activations);
    const auto big_dst = rig.device.memory().allocate(
        4096, gpusim::MemSpace::Activations);
    auto batch = rig.fresh();
    // VPP 0 does a slow copy then signals; VPP 1 only waits.
    batch.script.emit(0, vpps::Opcode::Copy, 4096,
                      {big_dst, big_src});
    batch.script.emit(0, vpps::Opcode::Signal, 0, {});
    batch.script.emit(1, vpps::Opcode::Wait, 0, {});
    batch.script.setExpectedSignals(0, 1);
    const auto result = rig.run(batch);
    // The makespan includes VPP 1's wait past VPP 0's work.
    EXPECT_GT(result.makespan_us,
              rig.device.spec().barrier_wait_us);
}

TEST(Interpreter, UpdateVecAppliesSgdInKernel)
{
    InterpRig rig;
    rig.model.learning_rate = 0.5f;
    rig.model.weight_decay = 0.0f;
    const auto p = rig.vec({1.0f, 2.0f});
    const auto g = rig.vec({0.2f, 0.4f});
    auto batch = rig.fresh();
    batch.script.emit(3, vpps::Opcode::UpdateVec, 2, {p, g});
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(p)[0], 0.9f);
    EXPECT_FLOAT_EQ(rig.at(p)[1], 1.8f);
    EXPECT_FLOAT_EQ(rig.at(g)[0], 0.0f) << "gradient cleared";
}

TEST(Interpreter, PickNlsRoundTrip)
{
    InterpRig rig;
    const auto logits = rig.vec({0.0f, 1.0f, 0.0f});
    const auto probs = rig.vec({0, 0, 0});
    const auto loss = rig.vec({0});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::PickNLS, 3,
                      {logits, probs, loss, 1});
    rig.run(batch);
    EXPECT_GT(rig.at(probs)[1], rig.at(probs)[0]);
    EXPECT_NEAR(rig.at(probs)[0] + rig.at(probs)[1] +
                    rig.at(probs)[2],
                1.0f, 1e-5);
    EXPECT_NEAR(rig.at(loss)[0], -std::log(rig.at(probs)[1]), 1e-5);
}

TEST(Interpreter, UnreadyWaitIsAStructuredErrorNotAHang)
{
    // A Wait on a barrier that can never be satisfied (the script
    // emits zero of the two declared signals) used to panic the
    // process; decode-time validation now rejects it with full
    // diagnostics and the interpreter never runs.
    InterpRig rig;
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Wait, 0, {});
    batch.script.setExpectedSignals(0, 2); // never satisfied
    const auto result = rig.tryRun(batch);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              common::ErrorCode::MalformedScript);
    EXPECT_EQ(result.error().barrier, 0);
    EXPECT_NE(result.error().message.find("expects 2 signal"),
              std::string::npos)
        << result.error().toString();
}

TEST(Interpreter, InstructionCountAndTimingAreReported)
{
    InterpRig rig;
    const auto a = rig.vec({1, 2});
    const auto b = rig.vec({0, 0});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Copy, 2, {b, a});
    batch.script.emit(7, vpps::Opcode::Copy, 2, {b, a});
    const auto result = rig.run(batch);
    EXPECT_EQ(result.instructions, 2u);
    EXPECT_GT(result.kernel_us, rig.device.spec().kernel_launch_us);
    EXPECT_GE(result.makespan_us, result.mean_vpp_us);
}

// -- In-place Outer rule (DESIGN.md section 4.4). A matrix's dW rows
// are accumulated in place only when the plan gives each row a single
// writer and no other instruction touches the gradient region.

/** Outcome of one run of the in-place fixture script. */
struct OuterRun
{
    std::vector<float> grad;   //!< W's gradient after the run
    std::vector<float> copied; //!< what the reader saw of dW row 2
    bool exclusive = false;    //!< decoded grad_exclusive flag for W
};

/**
 * Every gradient-holding VPP emits Outer for W. With @p conflict, VPP 0
 * (ordered before every dW owner) also AccumParams into dW row 0 and
 * the last VPP (ordered after them) copies dW row 2 out. 64 Nops on a
 * spare VPP push the round over the parallel-dispatch threshold so
 * @p threads > 1 really interprets concurrently.
 */
OuterRun
runOuterScript(bool conflict, int threads)
{
    InterpRig rig;
    auto& mem = rig.device.memory();
    const auto& p = rig.model.param(rig.w);
    common::Rng rng(4242);
    float* g = mem.data(p.grad);
    for (std::size_t i = 0; i < p.shape.size(); ++i)
        g[i] = rng.nextFloat(-1.0f, 1.0f);
    const auto dy = rig.vec({0.3f, -1.7f, 0.9f, 2.1f, -0.4f, 1.3f,
                             -2.2f, 0.6f});
    const auto x = rig.vec({1.1f, -0.7f, 0.35f, 1.9f});
    const auto addend = rig.vec({0.123f, -0.456f, 0.789f, -0.321f});
    const auto copied = rig.vec({0, 0, 0, 0});

    auto batch = rig.fresh();
    const int last = rig.kernel.plan.numVpps() - 1;
    if (conflict)
        batch.script.emit(0, vpps::Opcode::AccumParam, 4,
                          {p.grad, addend});
    for (int vpp : rig.kernel.plan.vppsOf(rig.w, true))
        batch.script.emit(vpp, vpps::Opcode::Outer, rig.w, {dy, x});
    if (conflict)
        batch.script.emit(last, vpps::Opcode::Copy, 4,
                          {copied, p.grad + 8});
    for (int i = 0; i < 64; ++i)
        batch.script.emit(last - 1, vpps::Opcode::Nop, 0, {});
    batch.loss_node = rig.loss_node;
    batch.script.seal();

    // Gradient-only: the epilogue's SGD step would zero dW.
    vpps::ScriptCache cache;
    vpps::ScriptExecutor executor(rig.device, threads, &cache);
    EXPECT_TRUE(
        executor.run(rig.kernel, batch, rig.model, rig.cg, false).ok());
    OuterRun out;
    out.grad.assign(g, g + p.shape.size());
    out.copied.assign(rig.at(copied), rig.at(copied) + 4);
    const auto prog = cache.find(vpps::ScriptCache::key(
        batch.script.checksum(), rig.model, mem.capacity()));
    EXPECT_NE(prog, nullptr);
    if (prog)
        out.exclusive = prog->grad_exclusive[rig.w] != 0;
    return out;
}

bool
sameBits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(InterpreterInPlaceOuter, PlanGivesEveryGradRowOneWriter)
{
    InterpRig rig;
    ASSERT_TRUE(rig.kernel.plan.gradientsCached());
    EXPECT_TRUE(rig.kernel.plan.gradRowsSingleWriter(rig.w));
    // Two owners at least, or the single-writer rule is vacuous here.
    EXPECT_GE(rig.kernel.plan.vppsOf(rig.w, true).size(), 2u);
}

TEST(InterpreterInPlaceOuter, ExclusiveGradientIsWrittenInPlace)
{
    const OuterRun one = runOuterScript(false, 1);
    const OuterRun eight = runOuterScript(false, 8);
    EXPECT_TRUE(one.exclusive);
    EXPECT_TRUE(sameBits(one.grad, eight.grad));
}

TEST(InterpreterInPlaceOuter, TouchedGradientStaysDeferred)
{
    const OuterRun one = runOuterScript(true, 1);
    const OuterRun eight = runOuterScript(true, 8);
    EXPECT_FALSE(one.exclusive)
        << "AccumParam/Copy operands overlap W's gradient";
    EXPECT_TRUE(sameBits(one.grad, eight.grad));
    EXPECT_TRUE(sameBits(one.copied, eight.copied));

    // Deferred semantics, recomputed by hand: the reader sees dW as it
    // was when the phase began, and the phase-boundary reduction adds
    // the contributions in VPP order -- VPP 0's AccumParam onto row 0
    // before its owner's Outer. In-place Outer would add them the
    // other way round and let the reader see the update.
    const OuterRun clean = runOuterScript(false, 1);
    common::Rng rng(4242); // the fixture's initial dW
    std::vector<float> g0(32);
    for (float& v : g0)
        v = rng.nextFloat(-1.0f, 1.0f);
    const float addend[4] = {0.123f, -0.456f, 0.789f, -0.321f};
    std::vector<float> deferred = clean.grad;
    const float x[4] = {1.1f, -0.7f, 0.35f, 1.9f};
    bool orders_differ = false;
    for (int c = 0; c < 4; ++c) {
        const float dyx = 0.3f * x[c]; // row 0's Outer term, dy[0] * x
        deferred[c] = (g0[c] + addend[c]) + dyx;
        orders_differ |= deferred[c] != (g0[c] + dyx) + addend[c];
    }
    ASSERT_TRUE(orders_differ)
        << "fixture data must make the two orders distinguishable";
    EXPECT_TRUE(sameBits(one.grad, deferred));
    EXPECT_TRUE(sameBits(one.copied,
                         std::vector<float>(g0.begin() + 8,
                                            g0.begin() + 12)));
}

// -- Whole training steps: a Tree-LSTM batch generated by the real
// script generator exercises every deferred accumulation (MatVecT's
// dx, the Accum family) and, without register-cached gradients, the
// staged GEMMs and dense updates.

/** A Tree-LSTM driven straight through the generator and executor. */
struct TrainRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 32u << 20};
    common::Rng data_rng{21};
    data::Vocab vocab{200};
    data::Treebank bank{vocab, 8, data_rng, 8.0, 4, 12};
    common::Rng param_rng{22};
    models::TreeLstmModel model{bank, vocab, 32, 48, device,
                                param_rng};
    gpusim::HostSpec host;
    vpps::CompiledKernel kernel;
    graph::ComputationGraph cg;

    explicit TrainRig(bool cache_gradients = true,
                      bool functional = true)
    {
        device.setFunctional(functional);
        vpps::VppsOptions opts;
        opts.cache_gradients = cache_gradients;
        auto plan = vpps::DistributionPlan::buildAuto(
            model.model(), device.spec(), opts, 2);
        const vpps::KernelSpecializer specializer(device.spec());
        kernel = specializer.specialize(model.model(), plan);
    }
};

/** What one training step saw and left behind. */
struct StepOutcome
{
    bool ok = false;
    std::vector<float> before; //!< pool [0, used) entering the kernel
    std::vector<float> pool;   //!< pool [0, used) after the step
    vpps::RunResult result;
    double busy_us = 0.0;
    gpusim::TrafficStats traffic; //!< this step's DRAM traffic only
};

/**
 * Train sentences [first, first + 4) on @p executor. A failed run
 * rolls the pool back, as vpps::Handle does before a replay, so only
 * the executor can carry anything into the next step. With @p stale
 * the batch's region is filled with nonzero floats first, as a
 * recycled region is left in timing-only mode (no zero fill).
 */
StepOutcome
trainStep(TrainRig& rig, vpps::ScriptExecutor& executor,
          std::size_t first, bool stale = false)
{
    auto& mem = rig.device.memory();
    const auto mark = mem.mark();
    rig.cg.clear();
    const auto loss =
        train::buildSuperGraph(rig.model, rig.cg, first, 4);
    const vpps::ScriptGenerator gen(rig.kernel, rig.host);
    auto batch =
        gen.generate(rig.device, rig.model.model(), rig.cg, loss);
    if (stale)
        std::fill(mem.data(mark), mem.data(mark) + (mem.used() - mark),
                  1.5f);
    StepOutcome out;
    out.before.assign(mem.data(0), mem.data(0) + mem.used());
    rig.device.traffic().reset();
    auto run =
        executor.run(rig.kernel, batch, rig.model.model(), rig.cg);
    out.ok = run.ok();
    if (out.ok)
        out.result = run.value();
    else
        std::memcpy(mem.data(0), out.before.data(),
                    out.before.size() * sizeof(float));
    out.pool.assign(mem.data(0), mem.data(0) + mem.used());
    out.busy_us = rig.device.busyUs();
    out.traffic = rig.device.traffic();
    mem.resetTo(mark);
    return out;
}

/** Simulated results and traffic must match exactly. */
void
expectSameCost(const StepOutcome& a, const StepOutcome& b)
{
    EXPECT_EQ(a.result.kernel_us, b.result.kernel_us);
    EXPECT_EQ(a.result.extra_kernel_us, b.result.extra_kernel_us);
    EXPECT_EQ(a.result.makespan_us, b.result.makespan_us);
    EXPECT_EQ(a.result.mean_vpp_us, b.result.mean_vpp_us);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    for (std::size_t i = 0; i < gpusim::TrafficStats::kNumSpaces; ++i) {
        const auto space = static_cast<gpusim::MemSpace>(i);
        EXPECT_EQ(a.traffic.loadBytes(space), b.traffic.loadBytes(space))
            << gpusim::memSpaceName(space);
        EXPECT_EQ(a.traffic.storeBytes(space),
                  b.traffic.storeBytes(space))
            << gpusim::memSpaceName(space);
    }
    EXPECT_EQ(a.traffic.atomicOps(), b.traffic.atomicOps());
}

/** Parameters, loss, simulated time and traffic are bitwise equal. */
void
expectSameStep(const StepOutcome& a, const StepOutcome& b)
{
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_TRUE(sameBits(a.pool, b.pool));
    EXPECT_EQ(std::memcmp(&a.result.loss, &b.result.loss, sizeof(float)),
              0);
    expectSameCost(a, b);
}

class InterpreterScratchReuse : public testing::TestWithParam<int>
{
};

TEST_P(InterpreterScratchReuse, SecondBatchMatchesAFreshExecutor)
{
    TrainRig reused_rig, fresh_rig;
    vpps::ScriptExecutor reused(reused_rig.device, GetParam());
    ASSERT_TRUE(trainStep(reused_rig, reused, 0).ok);
    const StepOutcome second = trainStep(reused_rig, reused, 4);

    {
        vpps::ScriptExecutor first(fresh_rig.device, GetParam());
        ASSERT_TRUE(trainStep(fresh_rig, first, 0).ok);
    }
    vpps::ScriptExecutor fresh(fresh_rig.device, GetParam());
    const StepOutcome baseline = trainStep(fresh_rig, fresh, 4);
    expectSameStep(second, baseline);
    EXPECT_EQ(second.busy_us, baseline.busy_us);
}

TEST_P(InterpreterScratchReuse, RunAfterAFailedRunMatchesAFreshExecutor)
{
    // The hung run stops part-way with its sinks holding that run's
    // traffic, instruction counts and scratch; none of it may reach
    // the replay.
    TrainRig hung_rig, fresh_rig;
    vpps::ScriptExecutor executor(hung_rig.device, GetParam());
    gpusim::FaultPlan plan;
    plan.hang_rate = 1.0;
    hung_rig.device.installFaults(plan);
    const StepOutcome hung = trainStep(hung_rig, executor, 0);
    ASSERT_FALSE(hung.ok);
    EXPECT_GT(hung.traffic.totalLoadBytes(), 0.0);
    hung_rig.device.clearFaults();
    const StepOutcome replay = trainStep(hung_rig, executor, 0);

    vpps::ScriptExecutor fresh(fresh_rig.device, GetParam());
    expectSameStep(replay, trainStep(fresh_rig, fresh, 0));
}

INSTANTIATE_TEST_SUITE_P(Threads, InterpreterScratchReuse,
                         testing::Values(1, 8));

class InterpreterTimingOnly : public testing::TestWithParam<bool>
{
};

TEST_P(InterpreterTimingOnly, StepWritesNothingAndCostsTheSame)
{
    TrainRig timing(GetParam(), false), functional(GetParam(), true);
    for (TrainRig* rig : {&timing, &functional}) {
        rig->model.model().learning_rate = 0.25f;
        rig->model.model().weight_decay = 0.125f;
    }
    ASSERT_EQ(timing.kernel.plan.gradientsCached(), GetParam());
    vpps::ScriptExecutor timing_exec(timing.device, 1);
    vpps::ScriptExecutor functional_exec(functional.device, 1);
    const StepOutcome t = trainStep(timing, timing_exec, 0, true);
    const StepOutcome f = trainStep(functional, functional_exec, 0);
    ASSERT_TRUE(t.ok);
    ASSERT_TRUE(f.ok);
    EXPECT_TRUE(sameBits(t.before, t.pool))
        << "a timing-only step changed parameter or gradient bytes";
    EXPECT_FALSE(sameBits(f.before, f.pool))
        << "the functional step must train, or the check is vacuous";
    expectSameCost(t, f);
    EXPECT_EQ(t.busy_us, f.busy_us);
}

INSTANTIATE_TEST_SUITE_P(
    GradientCaching, InterpreterTimingOnly, testing::Bool(),
    [](const testing::TestParamInfo<bool>& info) {
        return info.param ? "cached" : "uncached";
    });

} // namespace
