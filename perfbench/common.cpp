#include "common.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/json.hpp"

namespace perfbench {

void
Report::check(bool ok, const std::string& what)
{
    if (!ok)
        failures_.push_back(what);
}

void
Report::exact(const std::string& name, double got, double want)
{
    std::uint64_t g = 0, w = 0;
    std::memcpy(&g, &got, sizeof g);
    std::memcpy(&w, &want, sizeof w);
    if (g != w) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s = %.17g, pinned %.17g",
                      name.c_str(), got, want);
        failures_.push_back(buf);
    }
}

void
Report::metric(std::string name, double value, std::string unit)
{
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void
Report::detail(std::string name, double value)
{
    std::string text;
    obs::appendJsonDouble(text, value);
    details_.emplace_back(std::move(name), std::move(text));
}

void
Report::detailText(std::string name, const std::string& text)
{
    details_.emplace_back(std::move(name), obs::jsonQuoted(text));
}

void
Report::moveMetricsToDetails()
{
    for (const Metric& m : metrics_)
        detail(m.name, m.value);
    metrics_.clear();
}

std::vector<std::size_t>
seededPermutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    common::Rng rng(seed);
    rng.shuffle(perm);
    return perm;
}

vpps::VppsOptions
vppsOptions(int host_threads, vpps::ScriptCache* cache)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.host_threads = host_threads;
    opts.script_cache = cache;
    return opts;
}

double
tableIMb(double weight_bytes_per_batch, std::size_t batch)
{
    return weight_bytes_per_batch * (128.0 / static_cast<double>(batch)) /
           (1024.0 * 1024.0);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace perfbench
