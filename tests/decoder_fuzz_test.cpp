/**
 * @file
 * Fuzz-style hardening of the script decoder: seeded random word
 * streams and bit-flipped mutations of real generated scripts go
 * through ScriptExecutor's decode + execute path, and every outcome
 * must be a structured Status -- never an abort, a hang, or an
 * out-of-bounds access (the ASan/UBSan pass in tools/check.sh runs
 * this suite under sanitizers). Decode-time validation is the
 * load-bearing wall: a script that decodes cleanly can be
 * interpreted without further bounds checks.
 */
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/rvnn.hpp"
#include "train/harness.hpp"
#include "vpps/script_exec.hpp"

namespace {

using common::ErrorCode;

/** A rejected stream must carry a diagnosable, structured error. */
void
expectStructuredOutcome(const common::Result<vpps::RunResult>& r,
                        const std::string& what)
{
    if (r.ok())
        return; // a harmless stream is a legal outcome
    EXPECT_NE(r.status().code(), ErrorCode::Ok) << what;
    EXPECT_FALSE(r.error().message.empty()) << what;
    EXPECT_FALSE(r.status().toString().empty()) << what;
}

/** Fixture: a tiny allocated model + kernel to fuzz against. */
struct FuzzRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 8u << 20};
    graph::Model model;
    vpps::CompiledKernel kernel;
    graph::ComputationGraph cg;
    graph::NodeId loss_node;

    FuzzRig()
    {
        model.addWeightMatrix("W", 8, 4);
        model.addWeightMatrix("U", 8, 8);
        common::Rng rng(333);
        model.allocate(device, rng);
        vpps::VppsOptions opts;
        auto plan = vpps::DistributionPlan::buildAuto(
            model, device.spec(), opts, 2);
        const vpps::KernelSpecializer specializer(device.spec());
        kernel = specializer.specialize(model, plan);
        loss_node = cg.addInput({0.0f});
        cg.node(loss_node).fwd = device.memory().allocate(
            1, gpusim::MemSpace::Activations);
    }
};

class DecoderFuzzTest : public testing::TestWithParam<int>
{
};

TEST_P(DecoderFuzzTest, RandomWordStreamsNeverAbort)
{
    FuzzRig rig;
    vpps::ScriptExecutor executor(rig.device, GetParam());
    const auto mark = rig.device.memory().mark();

    for (std::uint64_t seed = 0; seed < 48; ++seed) {
        common::Rng rng(1000 + seed);
        vpps::GeneratedBatch batch(rig.kernel.plan.numVpps());
        // Declare a few barriers so Signal/Wait words can resolve.
        for (std::size_t b = 0; b < 4; ++b)
            batch.script.setExpectedSignals(
                b, static_cast<int>(rng.nextBelow(3)));
        const int streams =
            1 + static_cast<int>(rng.nextBelow(4));
        for (int vpp = 0; vpp < streams; ++vpp) {
            const std::size_t n = rng.nextBelow(24);
            for (std::size_t i = 0; i < n; ++i)
                batch.script.appendRawWord(
                    vpp, static_cast<std::uint32_t>(rng.next()));
        }
        batch.loss_node = rig.loss_node;
        batch.script.seal();
        const auto r =
            executor.run(rig.kernel, batch, rig.model, rig.cg);
        expectStructuredOutcome(r, "random stream seed " +
                                       std::to_string(seed));
        rig.device.memory().resetTo(mark);
    }
}

TEST_P(DecoderFuzzTest, MutatedGeneratedScriptsNeverAbort)
{
    // A real model so the donor scripts exercise the full ISA:
    // matrix ops, barriers, staging, updates.
    gpusim::Device device(gpusim::DeviceSpec{}, 48u << 20);
    common::Rng data_rng(121);
    data::Vocab vocab(300, 10000);
    data::Treebank bank(vocab, 8, data_rng, 7.0, 4, 10);
    common::Rng param_rng(122);
    models::RvnnModel bm(bank, vocab, 32, device, param_rng);

    vpps::VppsOptions opts;
    auto plan = vpps::DistributionPlan::buildAuto(
        bm.model(), device.spec(), opts, 2);
    const vpps::KernelSpecializer specializer(device.spec());
    const auto kernel = specializer.specialize(bm.model(), plan);

    graph::ComputationGraph cg;
    auto loss = train::buildSuperGraph(bm, cg, 0, 2);
    // ScriptGenerator keeps a reference to its HostSpec.
    const gpusim::HostSpec host;
    const vpps::ScriptGenerator gen(kernel, host);
    const auto mark = device.memory().mark();
    auto donor = gen.generate(device, bm.model(), cg, loss);

    vpps::ScriptExecutor executor(device, GetParam());
    common::Rng rng(77);
    int rejected = 0;
    for (int trial = 0; trial < 32; ++trial) {
        vpps::GeneratedBatch mutated(donor.script.numVpps());
        mutated.gemm_staging = donor.gemm_staging;
        mutated.loss_node = donor.loss_node;
        for (std::size_t b = 0;
             b < donor.script.expectedSignals().size(); ++b)
            mutated.script.setExpectedSignals(
                b, static_cast<int>(
                       donor.script.expectedSignals()[b]));
        // Copy the donor streams, flipping ~1 bit per 16 words.
        for (int vpp = 0; vpp < donor.script.numVpps(); ++vpp) {
            auto [begin, end] = donor.script.vppStream(vpp);
            for (const std::uint32_t* w = begin; w != end; ++w) {
                std::uint32_t word = *w;
                if (rng.nextBernoulli(1.0 / 16.0))
                    word ^= 1u << rng.nextBelow(32);
                mutated.script.appendRawWord(vpp, word);
            }
        }
        mutated.script.seal();
        const auto r =
            executor.run(kernel, mutated, bm.model(), cg);
        expectStructuredOutcome(
            r, "mutation trial " + std::to_string(trial));
        if (!r.ok())
            ++rejected;
    }
    EXPECT_GT(rejected, 0)
        << "no mutation was ever rejected -- the fuzzer is inert";

    // The decode cache and device survive the abuse: the pristine
    // donor script still runs.
    device.memory().resetTo(mark);
    graph::ComputationGraph cg2;
    auto loss2 = train::buildSuperGraph(bm, cg2, 0, 2);
    auto good = gen.generate(device, bm.model(), cg2, loss2);
    const auto r = executor.run(kernel, good, bm.model(), cg2);
    EXPECT_TRUE(r.ok()) << r.status().toString();
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, DecoderFuzzTest,
                         testing::Values(1, 8),
                         [](const testing::TestParamInfo<int>& info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

} // namespace
