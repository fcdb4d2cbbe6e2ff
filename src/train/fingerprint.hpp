/**
 * @file
 * Cross-commit numerical fingerprints.
 *
 * Every other golden check in the suite compares two runs inside one
 * build (1 vs 8 host threads, tracing on vs off). A fingerprint pins
 * results *across* commits instead: each entry is a short functional
 * training run of one application under one execution strategy,
 * reduced to an FNV-1a 64 digest of the final parameters and every
 * batch loss, plus the exact simulated time. The committed file
 * (tests/fingerprints.txt) is checked by fingerprint_test and is only
 * regenerated, through tools/fingerprint_gen, by a change that alters
 * the numerics or the cost model on purpose.
 *
 * Float results depend on the compiler and the math library, so the
 * file records the toolchain it was made with; on any other toolchain
 * only the simulated times are comparable.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace train {

/** One fingerprinted run: an application under an execution strategy. */
struct FingerprintConfig
{
    /** Application name as the figure benches spell it. */
    std::string app;
    /** "vpps-rpw2", "vpps-rpw1", "vpps-gemm" (uncached gradients,
     *  GEMM fallback) or "dynet-db" (depth-batched baseline). */
    std::string strategy;
};

/** A fingerprinted run's result. */
struct Fingerprint
{
    FingerprintConfig config;
    /** FNV-1a 64 over the final parameter values (ParamId order)
     *  followed by every batch loss. */
    std::uint64_t digest = 0;
    /** Simulated training wall time, us. */
    double sim_us = 0.0;
};

/** The committed file's contents. */
struct FingerprintFile
{
    /** Toolchain the digests were produced with. */
    std::string toolchain;
    std::vector<Fingerprint> entries;
};

/** Every configuration the committed file covers, in file order. */
std::vector<FingerprintConfig> fingerprintConfigs();

/** Run @p config from fresh parameters and fingerprint the result. */
Fingerprint computeFingerprint(const FingerprintConfig& config);

/** Compiler, C library and architecture of this build. */
std::string fingerprintToolchain();

/** Render @p file in the committed text format (round-trips exactly
 *  through parseFingerprints). */
std::string formatFingerprints(const FingerprintFile& file);

/** Parse the committed text format. */
common::Result<FingerprintFile> parseFingerprints(const std::string& text);

} // namespace train
