/** @file Unit tests for the GPU simulator substrate. */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <optional>

#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/persistent_sim.hpp"

namespace {

using gpusim::DeviceSpec;
using gpusim::KernelCost;
using gpusim::MemSpace;

TEST(DeviceMemory, BumpAllocatesSequentially)
{
    gpusim::DeviceMemory mem(1024);
    const auto a = mem.allocate(100, MemSpace::Weights);
    const auto b = mem.allocate(50, MemSpace::Activations);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 100u);
    EXPECT_EQ(mem.used(), 150u);
}

TEST(DeviceMemory, AllocationsAreZeroed)
{
    gpusim::DeviceMemory mem(256);
    const auto a = mem.allocate(64, MemSpace::Activations);
    mem.data(a)[3] = 7.0f;
    mem.resetTo(a);
    const auto b = mem.allocate(64, MemSpace::Activations);
    EXPECT_EQ(b, a);
    EXPECT_EQ(mem.data(b)[3], 0.0f)
        << "recycled region must be re-zeroed";
}

TEST(DeviceMemory, ResetToRollsBackFrontier)
{
    gpusim::DeviceMemory mem(256);
    mem.allocate(10, MemSpace::Weights);
    const auto mark = mem.mark();
    mem.allocate(100, MemSpace::Activations);
    mem.resetTo(mark);
    EXPECT_EQ(mem.used(), 10u);
}

TEST(DeviceMemory, ExhaustionIsFatal)
{
    gpusim::DeviceMemory mem(100);
    EXPECT_EXIT(mem.allocate(101, MemSpace::Weights),
                testing::ExitedWithCode(1), "exhausted");
}

/** Resident set size in bytes from /proc/self/statm; nullopt when
 *  /proc is absent. */
std::optional<long long>
residentBytes()
{
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return std::nullopt;
    long long size = 0, resident = 0;
    const bool ok = std::fscanf(f, "%lld %lld", &size, &resident) == 2;
    std::fclose(f);
    if (!ok)
        return std::nullopt;
    return resident * static_cast<long long>(sysconf(_SC_PAGESIZE));
}

/** Sanitizer runtimes may fill or shadow large allocations, so the
 *  resident-memory bound only holds in plain builds. */
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(DeviceMemory, PoolCommitsHostPagesOnFirstTouch)
{
    constexpr std::size_t kFloats = std::size_t{1} << 28; // 1 GiB
    constexpr long long kBound = 32ll << 20;
    const auto rss_before = residentBytes();
    gpusim::DeviceMemory mem(kFloats);
    auto expectSmallFootprint = [&](const char* when) {
        const auto rss = residentBytes();
        if (kSanitized || !rss_before || !rss)
            return;
        EXPECT_LT(*rss - *rss_before, kBound) << when;
    };
    expectSmallFootprint("after reserving the pool");
    EXPECT_EQ(mem.capacity(), kFloats);

    // Fresh allocations, and pages nothing has touched, read zero.
    const auto a = mem.allocate(4096, MemSpace::Activations);
    for (std::size_t i = 0; i < 4096; ++i)
        ASSERT_EQ(mem.data(a)[i], 0.0f) << i;
    EXPECT_EQ(mem.data(static_cast<gpusim::DeviceMemory::Offset>(
                  kFloats - 1))[0],
              0.0f);

    // Functional mode re-zeroes a recycled region.
    for (std::size_t i = 0; i < 4096; ++i)
        mem.data(a)[i] = 3.5f;
    mem.resetTo(a);
    EXPECT_EQ(mem.allocate(4096, MemSpace::Activations), a);
    for (std::size_t i = 0; i < 4096; ++i)
        ASSERT_EQ(mem.data(a)[i], 0.0f) << i;

    // Timing mode leaves the old contents in place.
    mem.setZeroFill(false);
    mem.data(a)[17] = -2.0f;
    mem.resetTo(a);
    mem.allocate(4096, MemSpace::Activations);
    EXPECT_EQ(mem.data(a)[17], -2.0f);

    // tryAllocate fits exactly up to capacity() and not one float past.
    const auto mark = mem.mark();
    const std::size_t room = kFloats - mem.used();
    EXPECT_FALSE(mem.tryAllocate(room + 1, MemSpace::Workspace));
    EXPECT_EQ(mem.used(), mark);
    const auto tail = mem.tryAllocate(room, MemSpace::Workspace);
    ASSERT_TRUE(tail.has_value());
    EXPECT_EQ(*tail, mark);
    EXPECT_EQ(mem.used(), kFloats);
    EXPECT_FALSE(mem.tryAllocate(1, MemSpace::Workspace));
    mem.resetTo(mark);
    expectSmallFootprint("after filling the pool in timing mode");
}

TEST(TrafficStats, TracksPerSpaceAndTotals)
{
    gpusim::TrafficStats t;
    t.addLoad(MemSpace::Weights, 100.0);
    t.addLoad(MemSpace::Activations, 50.0);
    t.addStore(MemSpace::ActGrads, 25.0);
    EXPECT_DOUBLE_EQ(t.loadBytes(MemSpace::Weights), 100.0);
    EXPECT_DOUBLE_EQ(t.totalLoadBytes(), 150.0);
    EXPECT_DOUBLE_EQ(t.totalStoreBytes(), 25.0);
    gpusim::TrafficStats u;
    u.addLoad(MemSpace::Weights, 1.0);
    u.merge(t);
    EXPECT_DOUBLE_EQ(u.loadBytes(MemSpace::Weights), 101.0);
    u.reset();
    EXPECT_DOUBLE_EQ(u.totalLoadBytes(), 0.0);
}

TEST(CostModel, MemoryBoundKernelScalesWithBytes)
{
    DeviceSpec spec;
    KernelCost small, big;
    small.dram_load_bytes = 1e6;
    small.parallel_threads = spec.saturation_threads;
    big = small;
    big.dram_load_bytes = 2e6;
    const double t1 = gpusim::kernelBodyUs(spec, small);
    const double t2 = gpusim::kernelBodyUs(spec, big);
    EXPECT_GT(t2, t1);
    // At saturation, doubling bytes roughly doubles the transfer
    // component.
    const double latency = spec.dram_latency_ns * 1e-3;
    EXPECT_NEAR((t2 - latency) / (t1 - latency), 2.0, 0.01);
}

TEST(CostModel, SmallKernelsAreDerated)
{
    DeviceSpec spec;
    KernelCost cost;
    cost.dram_load_bytes = 1e5;
    cost.parallel_threads = 256; // one CTA's worth
    const double small = gpusim::kernelBodyUs(spec, cost);
    cost.parallel_threads = spec.saturation_threads;
    const double saturated = gpusim::kernelBodyUs(spec, cost);
    EXPECT_GT(small, 10.0 * saturated)
        << "underutilized kernels must run far below peak rates";
}

TEST(CostModel, RooflineTakesMaxOfComputeAndMemory)
{
    DeviceSpec spec;
    KernelCost compute_bound;
    compute_bound.flops = 1e9;
    compute_bound.parallel_threads = spec.saturation_threads;
    KernelCost both = compute_bound;
    both.dram_load_bytes = 1e3; // negligible
    EXPECT_NEAR(gpusim::kernelBodyUs(spec, compute_bound),
                gpusim::kernelBodyUs(spec, both), 1e-6);
}

TEST(Device, LaunchChargesOverheadAndCountsLaunches)
{
    gpusim::Device device(DeviceSpec{}, 1024);
    KernelCost empty;
    empty.latency_hops = 0.0;
    const double d = device.launchKernel(empty);
    EXPECT_DOUBLE_EQ(d, device.spec().kernel_launch_us);
    EXPECT_EQ(device.numLaunches(), 1u);
    EXPECT_DOUBLE_EQ(device.busyUs(), d);
    device.resetStats();
    EXPECT_EQ(device.numLaunches(), 0u);
    EXPECT_DOUBLE_EQ(device.busyUs(), 0.0);
}

TEST(PersistentSim, BarrierReleasesAtLastSignaler)
{
    DeviceSpec spec;
    gpusim::PersistentSim sim(spec, 4, 1);
    sim.setExpectedSignals(0, 2);
    sim.charge(0, 10.0);
    sim.charge(1, 50.0);
    sim.signal(0, 0);
    EXPECT_FALSE(sim.barrierReady(0));
    sim.signal(0, 1);
    ASSERT_TRUE(sim.barrierReady(0));
    sim.wait(0, 2);
    // VPP 2 must not resume before the slowest signaler (VPP 1 at
    // ~50us) plus the wait overhead.
    EXPECT_GE(sim.timeOf(2), 50.0 + spec.barrier_wait_us);
}

TEST(PersistentSim, WaitDoesNotRewindFastVpps)
{
    DeviceSpec spec;
    gpusim::PersistentSim sim(spec, 2, 1);
    sim.setExpectedSignals(0, 1);
    sim.signal(0, 0);
    sim.charge(1, 1e6); // already far past the release
    const double before = sim.timeOf(1);
    sim.wait(0, 1);
    EXPECT_DOUBLE_EQ(sim.timeOf(1), before);
}

TEST(PersistentSim, MakespanIsMaxOverVpps)
{
    DeviceSpec spec;
    gpusim::PersistentSim sim(spec, 3, 2);
    sim.charge(0, 5.0);
    sim.charge(1, 9.0);
    sim.charge(2, 7.0);
    EXPECT_DOUBLE_EQ(sim.makespan(), 9.0);
    EXPECT_DOUBLE_EQ(sim.meanVppTime(), 7.0);
}

TEST(PersistentSim, OverSignalingPanics)
{
    DeviceSpec spec;
    gpusim::PersistentSim sim(spec, 2, 1);
    sim.setExpectedSignals(0, 1);
    sim.signal(0, 0);
    EXPECT_DEATH(sim.signal(0, 1), "over-signaled");
}

TEST(PersistentSim, VppInstructionSharesSmBetweenCtas)
{
    DeviceSpec spec;
    KernelCost cost;
    cost.flops = 1e6;
    cost.latency_hops = 0.0;
    const double one = gpusim::vppInstructionUs(spec, cost, 1, 80);
    const double two = gpusim::vppInstructionUs(spec, cost, 2, 160);
    EXPECT_NEAR(two / one, 2.0, 1e-9)
        << "two CTAs sharing an SM each get half its compute rate";
}

TEST(HostSpec, WorkingSetFactorGrowsPastThreshold)
{
    gpusim::HostSpec host;
    EXPECT_DOUBLE_EQ(host.workingSetFactor(100), 1.0);
    const double f1 = host.workingSetFactor(
        static_cast<std::size_t>(host.cache_friendly_nodes) * 2);
    const double f2 = host.workingSetFactor(
        static_cast<std::size_t>(host.cache_friendly_nodes) * 8);
    EXPECT_GT(f1, 1.0);
    EXPECT_NEAR(f2 - f1, 2.0 * host.cache_degradation_per_doubling,
                1e-9);
}

TEST(FaultDomains, WedgeTriggersAtScheduledInstantAndLogsOnce)
{
    gpusim::FaultPlan plan;
    plan.wedge_at_us = 100.0;
    gpusim::FaultInjector inj(plan);
    EXPECT_FALSE(inj.deviceWedged(0.0));
    EXPECT_FALSE(inj.deviceWedged(99.9));
    EXPECT_EQ(inj.injected().device_wedges, 0u);
    EXPECT_TRUE(inj.deviceWedged(100.0));
    EXPECT_TRUE(inj.deviceWedged(5000.0));
    EXPECT_EQ(inj.injected().device_wedges, 1u)
        << "a permanent wedge is one event, not one per query";
}

TEST(FaultDomains, StallPenaltyIsRemainderOfWindow)
{
    gpusim::FaultPlan plan;
    plan.stall_at_us = 50.0;
    plan.stall_duration_us = 30.0;
    gpusim::FaultInjector inj(plan);
    EXPECT_DOUBLE_EQ(inj.stallPenaltyUs(0.0), 0.0);
    EXPECT_DOUBLE_EQ(inj.stallPenaltyUs(50.0), 30.0);
    EXPECT_DOUBLE_EQ(inj.stallPenaltyUs(70.0), 10.0);
    EXPECT_DOUBLE_EQ(inj.stallPenaltyUs(80.0), 0.0)
        << "the window end is exclusive";
    EXPECT_EQ(inj.injected().device_stalls, 1u)
        << "one scheduled stall logs once across all queries";
}

TEST(FaultDomains, SmDisableFiresExactlyOnce)
{
    gpusim::FaultPlan plan;
    plan.sm_disable_at_us = 10.0;
    plan.sm_disable_count = 8;
    gpusim::FaultInjector inj(plan);
    EXPECT_EQ(inj.smsToDisable(9.0), 0);
    EXPECT_EQ(inj.smsToDisable(10.0), 8);
    EXPECT_EQ(inj.smsToDisable(11.0), 0)
        << "the caller applies the shrink once; later queries no-op";
    EXPECT_EQ(inj.injected().sm_disables, 1u);
}

TEST(FaultDomains, QueriesNeverDisturbTransientStream)
{
    // The same transient plan, with and without a layered
    // device-domain schedule, must produce the identical fault
    // sequence: device-domain queries are clock-keyed and draw
    // nothing from the RNG stream.
    gpusim::FaultPlan base;
    base.seed = 42;
    base.launch_fail_rate = 0.3;
    gpusim::FaultPlan layered = base;
    layered.wedge_at_us = 1e9;
    layered.stall_at_us = 5.0;
    layered.stall_duration_us = 2.0;
    layered.sm_disable_at_us = 7.0;
    layered.sm_disable_count = 2;

    gpusim::FaultInjector a(base), b(layered);
    for (int i = 0; i < 200; ++i) {
        const double now = static_cast<double>(i);
        (void)b.deviceWedged(now);
        (void)b.stallPenaltyUs(now);
        (void)b.smsToDisable(now);
        EXPECT_EQ(a.failLaunch(true), b.failLaunch(true))
            << "transient draw " << i
            << " diverged under a device-domain schedule";
    }
}

TEST(FaultDomains, DeviceDomainEventsExcludedFromTransientTotal)
{
    gpusim::FaultPlan plan;
    plan.wedge_at_us = 0.0;
    plan.stall_at_us = 0.0;
    plan.stall_duration_us = 1.0;
    plan.sm_disable_at_us = 0.0;
    plan.sm_disable_count = 1;
    EXPECT_TRUE(plan.anyDeviceDomain());
    EXPECT_TRUE(plan.any());
    gpusim::FaultInjector inj(plan);
    (void)inj.deviceWedged(1.0);
    (void)inj.stallPenaltyUs(0.5);
    (void)inj.smsToDisable(1.0);
    EXPECT_EQ(inj.injected().device_wedges, 1u);
    EXPECT_EQ(inj.injected().device_stalls, 1u);
    EXPECT_EQ(inj.injected().sm_disables, 1u);
    EXPECT_EQ(inj.injected().total(), 0u)
        << "the in-batch recovery reconciliation pairs only "
           "transient categories";
}

TEST(Device, DisableSmsShrinksSpecWithFloorOfOne)
{
    gpusim::Device device(DeviceSpec{}, 256);
    const int before = device.spec().num_sms;
    device.disableSms(before / 2);
    EXPECT_EQ(device.spec().num_sms, before - before / 2);
    EXPECT_EQ(device.disabledSms(), before / 2);
    device.disableSms(10 * before);
    EXPECT_EQ(device.spec().num_sms, 1)
        << "a device never shrinks below one SM";
    device.disableSms(0);
    device.disableSms(-3);
    EXPECT_EQ(device.spec().num_sms, 1);
}

TEST(Device, FunctionalToggleControlsZeroFill)
{
    gpusim::Device device(DeviceSpec{}, 256);
    device.setFunctional(false);
    const auto a = device.memory().allocate(16, MemSpace::Activations);
    device.memory().data(a)[0] = 5.0f;
    device.memory().resetTo(a);
    device.memory().allocate(16, MemSpace::Activations);
    EXPECT_EQ(device.memory().data(a)[0], 5.0f)
        << "timing-only mode skips the zero fill";
    device.setFunctional(true);
    device.memory().resetTo(a);
    device.memory().allocate(16, MemSpace::Activations);
    EXPECT_EQ(device.memory().data(a)[0], 0.0f);
}

} // namespace
