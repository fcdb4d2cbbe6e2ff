/**
 * @file
 * Tests of the benchmark's own arithmetic, against hand-computed
 * values: the percentile reporting rule, span self time on nested
 * spans, error-fraction counting, and the paper-error aggregate.
 * run.py runs this before every measurement; it exits nonzero on the
 * first mismatch.
 */
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "arith.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

void
expectNear(double got, double want, const std::string& what)
{
    expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

using perfbench::HostSpans;

void
testPercentileRule()
{
    using perfbench::percentile;
    // 1000 samples 1..1000: nearest rank of p99 is 990, 10 beyond.
    std::vector<double> s;
    for (int i = 1000; i >= 1; --i)
        s.push_back(i);
    auto p99 = percentile(s, 99.0);
    expect(p99.reportable, "p99 of 1000 samples is reportable");
    expectNear(p99.value, 990.0, "p99 of 1..1000");
    expect(p99.beyond == 10 && p99.count == 1000, "p99 beyond/count");
    auto p50 = percentile(s, 50.0);
    expectNear(p50.value, 500.0, "p50 of 1..1000");
    // 999 samples: p99 rank ceil(989.01) = 990, only 9 beyond.
    s.pop_back();
    auto short99 = percentile(s, 99.0);
    expect(!short99.reportable && short99.beyond == 9,
           "p99 of 999 samples is not reportable");
    // p95 of 200 samples: rank 190, 10 beyond -> reportable.
    std::vector<double> t(200, 1.0);
    expect(percentile(t, 95.0).reportable, "p95 of 200 is reportable");
    expect(!percentile(std::vector<double>{}, 50.0).reportable,
           "no samples, nothing to report");
    expect(perfbench::samplesBeyond(1, 99.0) == 0, "one sample");
}

void
testSelfTime()
{
    // run [0,100): setup [0,30) with layers data [0,10), gpusim
    // [10,25); pass [40,90) with graph [40,50), vpps.fb [50,80) and
    // inside fb a nested graph [60,65).
    HostSpans sp;
    using K = HostSpans::Kind;
    const int run = sp.add("run", K::Frame, 0, 100, -1);
    const int setup = sp.add("setup", K::Frame, 0, 30, run);
    sp.add("data", K::Layer, 0, 10, setup);
    sp.add("gpusim", K::Layer, 10, 25, setup);
    const int pass = sp.add("pass", K::Frame, 40, 90, run);
    sp.add("graph", K::Layer, 40, 50, pass);
    const int fb = sp.add("vpps.fb", K::Layer, 50, 80, pass);
    sp.add("graph", K::Layer, 60, 65, fb);
    const auto self = sp.selfTimes(run);
    expect(self.wall_ns == 100, "wall");
    expect(self.layer_ns.at("data") == 10, "data self");
    expect(self.layer_ns.at("gpusim") == 15, "gpusim self");
    expect(self.layer_ns.at("graph") == 15, "graph self (10 + 5)");
    expect(self.layer_ns.at("vpps.fb") == 25, "fb self excludes child");
    // Frames: run 100-30-50 = 20, setup 30-25 = 5, pass 50-40 = 10.
    expect(self.other_ns == 35, "other = frames' self time");
    std::int64_t sum = self.other_ns;
    for (const auto& [name, ns] : self.layer_ns)
        sum += ns;
    expect(sum == self.wall_ns, "self times reconcile to wall");

    HostSpans bad;
    const int r = bad.add("run", K::Frame, 0, 10, -1);
    bad.add("a", K::Layer, 0, 6, r);
    bad.add("b", K::Layer, 5, 8, r); // overlaps its sibling
    bool threw = false;
    try {
        bad.selfTimes(r);
    } catch (const std::logic_error&) {
        threw = true;
    }
    expect(threw, "overlapping siblings are rejected");

    HostSpans live;
    live.setEnabled(true);
    const int outer = live.open("run", K::Frame);
    {
        perfbench::SpanScope inner(live, "graph");
    }
    live.close(outer);
    const auto t = live.selfTimes(outer);
    expect(t.layer_ns.at("graph") + t.other_ns == t.wall_ns,
           "recorded spans reconcile");
}

void
testErrorFrac()
{
    perfbench::ServeOutcomes o;
    o.arrivals = 1000;
    o.completed = 850;
    o.shed = 90;
    o.rejected = 30;
    o.timed_out = 25;
    o.failed = 5;
    expect(perfbench::serveErrors(o) == 150, "errors = 90+30+25+5");
    expectNear(perfbench::errorFrac(150, 1000), 0.15, "error_frac");
    expectNear(perfbench::errorFrac(0, 7), 0.0, "no failures");
    expectNear(perfbench::errorFrac(0, 0), 0.0, "nothing attempted");
}

void
testPaperRelErr()
{
    using perfbench::meanRelErr;
    // |2.78/2.92-1| = 0.0479452..., |1.31/1.16-1| = 0.1293103...,
    // |52.08/44.07-1| = 0.1817563..., mean = 0.1196706...
    const double want =
        (0.14 / 2.92 + 0.15 / 1.16 + 8.01 / 44.07) / 3.0;
    expectNear(meanRelErr({{2.78, 2.92}, {1.31, 1.16}, {52.08, 44.07}}),
               want, "mean relative error");
    expectNear(meanRelErr({{3.25, 2.75}}), 0.5 / 2.75, "single point");
    expectNear(meanRelErr({{2.0, 4.0}, {6.0, 4.0}}), 0.5,
               "under and over count alike");
    expectNear(perfbench::geomean({1.0, 4.0, 16.0}), 4.0, "geomean");
    expectNear(perfbench::median({3.0, 1.0, 2.0, 10.0}), 2.5, "median");
}

void
testDigest()
{
    // FNV-1a 64 test vectors.
    expect(perfbench::fnv1a("", 0) == 0xcbf29ce484222325ull, "fnv empty");
    expect(perfbench::fnv1a("a", 1) == 0xaf63dc4c8601ec8cull, "fnv 'a'");
    expect(perfbench::fnv1a("foobar", 6) == 0x85944171f73967e8ull,
           "fnv 'foobar'");
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTime();
    testErrorFrac();
    testPaperRelErr();
    testDigest();
    if (failures == 0)
        std::printf("perfbench arithmetic: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
