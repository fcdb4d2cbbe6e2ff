/**
 * @file
 * The repository benchmark's measuring program. perfbench/run.py
 * builds it and runs
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--source-id ID]
 *
 * Untraced (--trace 0): the workload is set up three times (set-up
 * time is their median; the first is timed from process start), the
 * last set-up runs passes for S seconds (host throughput is their
 * median), and finish() computes the simulated metrics and checks the
 * outputs. The last stdout line is the result:
 *
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:
 *    {"value":..,"unit":..},..}}
 *
 * with every end-to-end metric. A failed output check prints the
 * failures, an empty metrics object and exits 1: a drifting run
 * reports no numbers.
 *
 * Traced (--trace 1): an untraced set-up runs passes for S/2 seconds,
 * then a second set-up and its passes run under host-clock spans for
 * another S/2; the result carries the per-layer metrics the workload
 * exercises (run.py adds the others as 0), the per-layer self times
 * (which with "other" sum exactly to the traced wall time) and the
 * tracing overhead. The spans are written as Chrome-trace JSON to
 * --trace-out.
 */
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/logging.hpp"
#include "layers.hpp"
#include "obs/json.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 3;

[[noreturn]] void
usage(const char* why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "train_functional|repro_timing|serve_fleet --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--source-id ID]\n";
    std::exit(2);
}

Config
parseArgs(int argc, char** argv)
{
    Config cfg;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                cfg.workload = val;
            } else if (arg == "--seed") {
                std::size_t used = 0;
                cfg.seed = std::stoull(val, &used);
                if (used != val.size() || val[0] == '-')
                    throw std::invalid_argument(val);
                have_seed = true;
            } else if (arg == "--seconds") {
                cfg.seconds = std::stod(val);
                if (!(cfg.seconds > 0.0 && cfg.seconds <= 3600.0))
                    throw std::invalid_argument(val);
            } else if (arg == "--trace") {
                if (val != "0" && val != "1")
                    throw std::invalid_argument(val);
                cfg.trace = val == "1";
            } else if (arg == "--trace-out") {
                cfg.trace_out = val;
            } else if (arg == "--source-id") {
                cfg.source_id = val;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception&) {
            usage(("bad value for " + arg + ": " + val).c_str());
        }
    }
    if (cfg.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    return cfg;
}

std::unique_ptr<Workload>
makeWorkload(const Config& cfg)
{
    if (cfg.workload == "train_functional")
        return makeTrainFunctional(cfg);
    if (cfg.workload == "repro_timing")
        return makeReproTiming(cfg);
    if (cfg.workload == "serve_fleet")
        return makeServeFleet(cfg);
    usage(("unknown workload " + cfg.workload).c_str());
}

/** Host throughput of a run of passes. */
struct Passes
{
    std::vector<double> rates; //!< inputs per host second, each pass
    double inputs = 0.0;
    double host_s = 0.0;

    /** Inputs per host second over all passes. */
    double rate() const { return inputs / host_s; }
};

/** Run passes on the current set-up until @p budget_s would be
 *  exceeded (at least one). */
Passes
runPasses(Workload& w, HostSpans& spans, double budget_s, int& index)
{
    Passes out;
    const double start = nowSeconds();
    double last = 0.0;
    do {
        const double t0 = nowSeconds();
        const Workload::PassOut p = w.pass(spans, index++);
        last = nowSeconds() - t0;
        out.rates.push_back(p.inputs / p.host_s);
        out.inputs += p.inputs;
        out.host_s += p.host_s;
    } while (w.repeatable() && nowSeconds() - start + last <= budget_s);
    return out;
}

void
runUntraced(const Config& cfg, Workload& w, HostSpans& spans,
            double process_start, Report& report)
{
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        if (i > 0)
            w.teardown();
        const double t0 = i == 0 ? process_start : nowSeconds();
        w.setup(spans);
        setup_s.push_back(nowSeconds() - t0);
    }
    int index = 0;
    const Passes passes = runPasses(w, spans, cfg.seconds, index);
    const std::vector<double>& rates = passes.rates;
    w.finish(spans, report);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("host_inputs_per_s", median(rates), "1/s");
    // The spread inside the run, beside the medians it reports.
    const auto [smin, smax] =
        std::minmax_element(setup_s.begin(), setup_s.end());
    const auto [rmin, rmax] = std::minmax_element(rates.begin(), rates.end());
    report.detail("setups", kSetups);
    report.detail("setup_s_min", *smin);
    report.detail("setup_s_max", *smax);
    report.detail("passes", static_cast<double>(rates.size()));
    report.detail("host_inputs_per_s_min", *rmin);
    report.detail("host_inputs_per_s_max", *rmax);
    report.detail("host_inputs_per_s_all_passes", passes.rate());
}

void
runTraced(const Config& cfg, Workload& w, HostSpans& spans,
          Report& report)
{
    int index = 0;
    w.setup(spans);
    const Passes untraced = runPasses(w, spans, cfg.seconds / 2.0, index);
    w.teardown();

    spans.setEnabled(true);
    const int root = spans.open("run", HostSpans::Kind::Frame);
    {
        SpanScope s(spans, "setup", HostSpans::Kind::Frame);
        w.setup(spans);
    }
    const Passes traced = runPasses(w, spans, cfg.seconds / 2.0, index);
    w.finish(spans, report);
    // A traced run prints per-layer metrics; the simulated end-to-end
    // ones finish() computed and checked go to the detail line.
    report.moveMetricsToDetails();
    probeTensorKernels(spans, w.kernelShapes(), cfg.seed, report);
    spans.close(root);
    spans.setEnabled(false);

    w.layerMetrics(spans, report);
    const HostSpans::SelfTimes self = spans.selfTimes(root);
    std::int64_t sum = self.other_ns;
    for (const auto& [layer, ns] : self.layer_ns) {
        sum += ns;
        report.metric("self_ms." + layer, static_cast<double>(ns) * 1e-6,
                      "ms");
    }
    report.check(sum == self.wall_ns,
                 "layer self times plus other do not sum to the traced "
                 "wall time");
    report.metric("self_ms.other", static_cast<double>(self.other_ns) * 1e-6,
                  "ms");
    report.metric("trace.wall_ms", static_cast<double>(self.wall_ns) * 1e-6,
                  "ms");
    report.metric("trace_overhead_frac",
                  untraced.rate() / traced.rate() - 1.0, "ratio");
    report.detail("untraced_passes",
                  static_cast<double>(untraced.rates.size()));
    report.detail("traced_passes", static_cast<double>(traced.rates.size()));
    report.detail("self_ns_sum", static_cast<double>(sum));
    report.detail("trace_wall_ns", static_cast<double>(self.wall_ns));

    if (!cfg.trace_out.empty())
        if (auto st = obs::writeTextFileAtomic(cfg.trace_out,
                                               spans.chromeTrace());
            !st.ok())
            report.check(false, "writing the trace: " + st.toString());
}

void
printResult(const Config& cfg, int host_threads, Report& report)
{
    std::set<std::string> names;
    for (const Metric& m : report.metrics())
        if (!names.insert(m.name).second)
            report.check(false, "metric reported twice: " + m.name);

    std::string ctx = "{\"context\":{";
    ctx += "\"workload\":" + obs::jsonQuoted(cfg.workload);
    ctx += ",\"seed\":" + std::to_string(cfg.seed);
    ctx += ",\"default_seed\":" + std::to_string(kDefaultSeed);
    ctx += ",\"held_out_seed\":" + std::to_string(kHeldOutSeed);
    ctx += ",\"seconds\":";
    obs::appendJsonDouble(ctx, cfg.seconds);
    ctx += ",\"trace\":" + std::string(cfg.trace ? "1" : "0");
    ctx += ",\"host_threads\":" + std::to_string(host_threads);
    ctx += ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency());
    ctx += ",\"build_type\":" + obs::jsonQuoted(PERFBENCH_BUILD_TYPE);
    ctx += ",\"compiler\":" + obs::jsonQuoted(PERFBENCH_COMPILER);
    ctx += ",\"flags\":" + obs::jsonQuoted(PERFBENCH_FLAGS);
    ctx += ",\"source_id\":" + obs::jsonQuoted(cfg.source_id);
    ctx += "}}";
    std::cout << ctx << "\n";

    std::string detail = "{\"detail\":{";
    bool first = true;
    for (const auto& [name, text] : report.details()) {
        detail += (first ? "" : ",") + obs::jsonQuoted(name) + ":" + text;
        first = false;
    }
    detail += "},\"failures\":[";
    first = true;
    for (const std::string& f : report.failures()) {
        detail += (first ? "" : ",") + obs::jsonQuoted(f);
        first = false;
    }
    detail += "]}";
    std::cout << detail << "\n";

    std::string line = "{\"correct\":";
    line += report.correct() ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(report.attempted);
    line += ",\"failed\":" + std::to_string(report.failed);
    line += ",\"metrics\":{";
    if (report.correct()) {
        first = true;
        for (const Metric& m : report.metrics()) {
            line += (first ? "" : ",") + obs::jsonQuoted(m.name) +
                    ":{\"value\":";
            obs::appendJsonDouble(line, m.value);
            line += ",\"unit\":" + obs::jsonQuoted(m.unit) + "}";
            first = false;
        }
    }
    line += "}}";
    std::cout << line << std::endl;
    for (const std::string& f : report.failures())
        std::cerr << "perfbench: CHECK FAILED: " << f << "\n";
}

} // namespace

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    const double process_start = nowSeconds();
    const Config cfg = parseArgs(argc, argv);
    // Explicit thread counts and no inherited fault injection: the
    // environment must not change a run.
    unsetenv("VPPS_HOST_THREADS");
    unsetenv("VPPS_FAULT_RATE");
    unsetenv("VPPS_FAULT_SEED");
    common::setVerbose(false);

    Report report;
    HostSpans spans;
    std::unique_ptr<Workload> w = makeWorkload(cfg);
    try {
        if (cfg.trace)
            runTraced(cfg, *w, spans, report);
        else
            runUntraced(cfg, *w, spans, process_start, report);
    } catch (const std::exception& e) {
        report.check(false, std::string("exception: ") + e.what());
    }
    printResult(cfg, w->hostThreads(), report);
    return report.correct() ? 0 : 1;
}
