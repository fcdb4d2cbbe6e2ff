/**
 * @file
 * Exact results of the default seed (perfbench::kDefaultSeed) for
 * every simulated metric and for train_functional's final parameters
 * and losses. A run of the default seed that does not reproduce them
 * bit for bit fails its output check instead of reporting numbers.
 *
 * They change only with a deliberate cost-model or arithmetic change;
 * regenerate them by running the default seed and copying the values
 * its failure messages print, and say so in the change's notes.
 */
#pragma once

#include <cstdint>

namespace perfbench {

struct TrainFunctionalRef
{
    std::uint64_t digest;
    double sim_inputs_per_s;
    double sim_vpps_speedup;
    double sim_paper_rel_err;
};

struct ReproTimingRef
{
    double sim_inputs_per_s;
    double sim_vpps_speedup;
    double sim_paper_rel_err;
};

struct ServeFleetRef
{
    double sim_inputs_per_s;
    double sim_vpps_speedup;
    double sim_paper_rel_err;
    double latency_p50_us;
    double latency_p99_us;
};

inline constexpr TrainFunctionalRef kTrainFunctionalRef = {
    16508823418294776064ull, 817.24158775552371, 1.5796131547182912,
    0.1815126765356474};

inline constexpr ReproTimingRef kReproTimingRef = {
    625.26912859916933, 2.1441813069683882, 0.22116805015134391};

inline constexpr ServeFleetRef kServeFleetRef = {
    414.14146438371256, 3.0294573255383144, 0.1815126765356474,
    12613.980772485433, 284091.3770655886};

} // namespace perfbench
