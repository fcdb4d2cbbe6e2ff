/**
 * @file
 * Crash-point explorer harness: sweep host-crash boundaries over the
 * durable fleet scenario and report every invariant violation.
 *
 * Usage:
 *   crash_explore [--threads N] [--points N] [--requests N]
 *                 [--sync-batch N] [--ckpt-every N] [--at EVENT]
 *
 * With --at, a single crash boundary is replayed (the way to rerun a
 * shrunk failure from a previous sweep); otherwise the stratified
 * sweep plus bisection shrink runs. Exit status is non-zero when any
 * invariant is violated.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/crash_explorer.hpp"

namespace {

long long
argValue(int argc, char** argv, const char* name, long long fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return std::atoll(argv[i + 1]);
    return fallback;
}

} // namespace

int
main(int argc, char** argv)
{
    serve::CrashExplorerConfig cfg;
    cfg.host_threads = static_cast<int>(
        argValue(argc, argv, "--threads", cfg.host_threads));
    cfg.max_points = static_cast<std::size_t>(argValue(
        argc, argv, "--points",
        static_cast<long long>(cfg.max_points)));
    cfg.n_requests = static_cast<std::size_t>(argValue(
        argc, argv, "--requests",
        static_cast<long long>(cfg.n_requests)));
    cfg.wal_sync_batch = static_cast<std::size_t>(argValue(
        argc, argv, "--sync-batch",
        static_cast<long long>(cfg.wal_sync_batch)));
    cfg.checkpoint_every_completions =
        static_cast<std::uint64_t>(argValue(
            argc, argv, "--ckpt-every",
            static_cast<long long>(
                cfg.checkpoint_every_completions)));
    const long long at = argValue(argc, argv, "--at", -1);

    if (at >= 0) {
        const auto violations = serve::checkCrashPoint(
            cfg, static_cast<std::uint64_t>(at));
        if (violations.empty()) {
            std::printf("crash at event %lld: all invariants hold\n",
                        at);
            return 0;
        }
        std::printf("crash at event %lld: %zu violation(s)\n", at,
                    violations.size());
        for (const std::string& v : violations)
            std::printf("  - %s\n", v.c_str());
        return 1;
    }

    const serve::CrashExploreReport rep =
        serve::exploreCrashPoints(cfg);
    std::printf("baseline: %llu events, %llu completions\n",
                static_cast<unsigned long long>(rep.baseline_events),
                static_cast<unsigned long long>(
                    rep.baseline_completed));
    std::printf("tested %zu crash boundaries (threads=%d, "
                "sync_batch=%zu, ckpt_every=%llu)\n",
                rep.points_tested.size(), cfg.host_threads,
                cfg.wal_sync_batch,
                static_cast<unsigned long long>(
                    cfg.checkpoint_every_completions));
    if (rep.passed()) {
        std::printf("PASS: crash anywhere => no admitted High "
                    "request lost, completions bitwise identical, "
                    "counters reconciled\n");
        return 0;
    }
    std::printf("FAIL: %zu failing boundary/boundaries; minimal "
                "failing event %llu\n",
                rep.failures.size(),
                static_cast<unsigned long long>(
                    rep.min_failing_point));
    for (const auto& f : rep.failures) {
        std::printf("  event %llu:\n",
                    static_cast<unsigned long long>(f.point));
        for (const std::string& v : f.violations)
            std::printf("    - %s\n", v.c_str());
    }
    return 1;
}
