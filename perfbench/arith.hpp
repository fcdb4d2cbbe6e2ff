/**
 * @file
 * The benchmark's own arithmetic: percentile reporting rule, failure
 * counting, paper-error and speedup aggregation, and the output
 * digest. Header-only and free of simulator types so arith_test.cpp
 * can pin every formula against hand-computed values.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported tail percentile. */
constexpr std::size_t kMinBeyondTail = 10;

/** Nearest-rank index (1-based) of percentile @p p over @p n samples:
 *  ceil(p / 100 * n), clamped to [1, n]. Matches obs::Histogram. */
inline std::size_t
nearestRank(std::size_t n, double p)
{
    const double r = std::ceil(p / 100.0 * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/** Samples strictly beyond the nearest-rank @p p-th percentile. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

/** A percentile as reported: its value and the sample count behind
 *  it. `reportable` is false when fewer than kMinBeyondTail samples
 *  lie beyond it, in which case the value must not be quoted. */
struct Percentile
{
    double p = 0.0;
    double value = 0.0;
    std::size_t count = 0;
    std::size_t beyond = 0;
    bool reportable = false;
};

/** Nearest-rank percentile of unsorted @p samples under the
 *  reporting rule. The median (p = 50) is exempt from the tail rule
 *  but still needs at least one sample. */
inline Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile out;
    out.p = p;
    out.count = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    out.value = samples[nearestRank(samples.size(), p) - 1];
    out.beyond = samplesBeyond(samples.size(), p);
    out.reportable = p <= 50.0 || out.beyond >= kMinBeyondTail;
    return out;
}

/** Median of a non-empty sample (mean of the middle pair when even). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        throw std::invalid_argument("geomean of an empty sample");
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Mean of |ours / paper - 1| over (ours, paper) pairs: the
 *  simulator's error against the paper's reference values. */
inline double
meanRelErr(const std::vector<std::pair<double, double>>& points)
{
    if (points.empty())
        throw std::invalid_argument("no paper reference points");
    double sum = 0.0;
    for (const auto& [ours, paper] : points)
        sum += std::fabs(ours / paper - 1.0);
    return sum / static_cast<double>(points.size());
}

/** Request-level dispositions of one serving run. */
struct ServeOutcomes
{
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0; //!< queue-full + infeasible
    std::uint64_t timed_out = 0;
    std::uint64_t failed = 0;
};

/** Arrivals that did not complete: shed, rejected, timed-out and
 *  failed requests. A lost dispatch surfaces here as the failed or
 *  timed-out request it leaves behind, so it is not counted twice. */
inline std::uint64_t
serveErrors(const ServeOutcomes& o)
{
    return o.shed + o.rejected + o.timed_out + o.failed;
}

/** Failed operations over attempted ones (0 when nothing ran). */
inline double
errorFrac(std::uint64_t errors, std::uint64_t attempted)
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(errors) /
                                static_cast<double>(attempted);
}

/** 64-bit FNV-1a, chainable through @p h. */
inline std::uint64_t
fnv1a(const void* data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a over the bit patterns of @p v. */
inline std::uint64_t
fnv1aFloats(const std::vector<float>& v,
            std::uint64_t h = 0xcbf29ce484222325ull)
{
    return fnv1a(v.data(), v.size() * sizeof(float), h);
}

} // namespace perfbench
