/**
 * @file
 * Unit suite for the shared fault-point explorer (serve/fault_explorer):
 * stratified point placement, endpoint coverage, budgets, the
 * bisection shrink, and the baseline comparison. Every real crash and
 * link-down sweep passes, so the shrink is driven here by a fake
 * predicate with a known minimal failing point, and the comparison
 * by hand-built runs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/fault_explorer.hpp"

namespace {

/** A check that fails at every point >= @p first_bad and counts its
 *  calls. */
struct FailsFrom
{
    std::uint64_t first_bad;
    std::size_t* calls;

    std::vector<std::string>
    operator()(std::uint64_t k) const
    {
        ++*calls;
        if (k < first_bad)
            return {};
        return {"fails at " + std::to_string(k)};
    }
};

TEST(FaultSweep, BisectionShrinksToTheMinimalFailingPoint)
{
    std::size_t calls = 0;
    const serve::FaultSweep s =
        serve::sweepFaultPoints(100, 5, true, FailsFrom{37, &calls});
    ASSERT_FALSE(s.passed());
    EXPECT_EQ(s.min_failing_point, 37u);
    // The sweep proper: 0, 25, 50, 75, 100 -- three of them failing.
    const std::vector<std::uint64_t> sweep(s.points_tested.begin(),
                                           s.points_tested.begin() + 5);
    EXPECT_EQ(sweep, (std::vector<std::uint64_t>{0, 25, 50, 75, 100}));
    ASSERT_EQ(s.failures.size(), 3u);
    EXPECT_EQ(s.failures.front().point, 50u);
    EXPECT_EQ(s.failures.front().violations,
              (std::vector<std::string>{"fails at 50"}));
    // Bisection between 25 and 50 tests only points inside that gap,
    // and the failure list holds sweep points only.
    for (std::size_t i = 5; i < s.points_tested.size(); ++i) {
        EXPECT_GT(s.points_tested[i], 25u);
        EXPECT_LT(s.points_tested[i], 50u);
    }
    EXPECT_GT(s.points_tested.size(), 5u);
    EXPECT_EQ(calls, s.points_tested.size());
}

TEST(FaultSweep, PassingSweepTestsBothEndpoints)
{
    std::size_t calls = 0;
    const serve::FaultSweep s =
        serve::sweepFaultPoints(197, 4, true, FailsFrom{1000, &calls});
    EXPECT_TRUE(s.passed());
    ASSERT_EQ(s.points_tested.size(), 4u);
    EXPECT_EQ(s.points_tested.front(), 0u);
    EXPECT_EQ(s.points_tested.back(), 197u);
    EXPECT_TRUE(std::is_sorted(s.points_tested.begin(),
                               s.points_tested.end()));
    EXPECT_EQ(calls, 4u);
}

TEST(FaultSweep, OversizedBudgetTestsEachPointOnce)
{
    std::size_t calls = 0;
    const serve::FaultSweep s =
        serve::sweepFaultPoints(6, 50, true, FailsFrom{1000, &calls});
    EXPECT_EQ(s.points_tested,
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(calls, 7u);
}

TEST(FaultSweep, ZeroBudgetTestsEveryPoint)
{
    std::size_t calls = 0;
    const serve::FaultSweep s =
        serve::sweepFaultPoints(40, 0, true, FailsFrom{1000, &calls});
    ASSERT_EQ(s.points_tested.size(), 41u);
    for (std::uint64_t k = 0; k <= 40; ++k)
        EXPECT_EQ(s.points_tested[k], k);

    // With every point tested there is nothing left to bisect: the
    // first failure is already minimal.
    calls = 0;
    const serve::FaultSweep f =
        serve::sweepFaultPoints(40, 0, true, FailsFrom{37, &calls});
    EXPECT_EQ(f.min_failing_point, 37u);
    EXPECT_EQ(f.failures.size(), 4u);
    EXPECT_EQ(f.points_tested.size(), 41u);
    EXPECT_EQ(calls, 41u);
}

TEST(FaultSweep, NoBisectReportsTheFirstFailingSweepPoint)
{
    std::size_t calls = 0;
    const serve::FaultSweep s =
        serve::sweepFaultPoints(100, 5, false, FailsFrom{37, &calls});
    EXPECT_EQ(s.min_failing_point, 50u);
    EXPECT_EQ(s.points_tested,
              (std::vector<std::uint64_t>{0, 25, 50, 75, 100}));
    EXPECT_EQ(calls, 5u);
}

TEST(FaultSweep, FailureAtTheFirstPointIsNotShrunk)
{
    std::size_t calls = 0;
    const serve::FaultSweep s =
        serve::sweepFaultPoints(100, 5, true, FailsFrom{0, &calls});
    EXPECT_EQ(s.min_failing_point, 0u);
    EXPECT_EQ(s.failures.size(), 5u);
    EXPECT_EQ(s.points_tested,
              (std::vector<std::uint64_t>{0, 25, 50, 75, 100}));
    EXPECT_EQ(calls, 5u);
}

TEST(FaultSweep, SinglePointBudgetTestsOnlyTheStart)
{
    std::size_t calls = 0;
    const serve::FaultSweep s =
        serve::sweepFaultPoints(100, 1, true, FailsFrom{1000, &calls});
    EXPECT_EQ(s.points_tested, (std::vector<std::uint64_t>{0}));
    const serve::FaultSweep empty =
        serve::sweepFaultPoints(0, 8, true, FailsFrom{1000, &calls});
    EXPECT_EQ(empty.points_tested, (std::vector<std::uint64_t>{0}));
}

TEST(FaultSweep, CompareToBaselineNamesEveryViolationAndTheFault)
{
    serve::ScenarioRun baseline;
    baseline.reconciled = true;
    baseline.responses = {{1, 0x10}, {2, 0x20}, {3, 0x30}};
    std::vector<std::string> none;
    serve::compareToBaseline(baseline, baseline, "crash at event 3",
                             none);
    EXPECT_TRUE(none.empty());

    // Unreconciled, a duplicate, a lost High admit, one diverged,
    // one missing and two extra completions.
    serve::ScenarioRun run;
    run.duplicate_completion = true;
    run.counters.admitted_high = 1;
    run.responses = {{1, 0x10}, {2, 0x21}, {4, 0x40}, {5, 0x50}};
    std::vector<std::string> v;
    serve::compareToBaseline(baseline, run, "r0 wedged at 400us", v);
    const std::string at = " (r0 wedged at 400us)";
    EXPECT_EQ(v, (std::vector<std::string>{
                     "counters failed to reconcile" + at,
                     "a request id completed twice" + at,
                     "an admitted High-class request was lost" + at,
                     "completion count differs from the fault-free "
                     "run: 4 vs 3" + at,
                     "request 2 response bits diverged from the "
                     "fault-free run" + at,
                     "request 3 completed in the fault-free run but "
                     "not in the faulted one" + at,
                     "request 4 completed in the faulted run but not "
                     "in the fault-free one" + at,
                     "request 5 completed in the faulted run but not "
                     "in the fault-free one" + at}));
}

} // namespace
