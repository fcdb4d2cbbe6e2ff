/**
 * @file
 * Regenerates the cross-commit fingerprint file checked by
 * fingerprint_test (see src/train/fingerprint.hpp).
 *
 *   fingerprint_gen [out-file]     (default: print to stdout)
 *
 * Run it only for a change that alters numerics or the cost model on
 * purpose, and say so in the change log: the point of the file is that
 * refactors and speedups leave it untouched.
 */
#include <cstdio>
#include <iostream>

#include "common/logging.hpp"
#include "obs/json.hpp"
#include "train/fingerprint.hpp"

int
main(int argc, char** argv)
{
    if (argc > 2) {
        std::cerr << "usage: " << argv[0] << " [out-file]\n";
        return 2;
    }
    common::setVerbose(false);
    train::FingerprintFile file;
    file.toolchain = train::fingerprintToolchain();
    for (const auto& config : train::fingerprintConfigs())
        file.entries.push_back(train::computeFingerprint(config));
    const std::string text = train::formatFingerprints(file);
    if (argc < 2) {
        std::cout << text;
        return 0;
    }
    const common::Status st = obs::writeTextFileAtomic(argv[1], text);
    if (!st.ok()) {
        std::cerr << st.toString() << '\n';
        return 1;
    }
    std::cerr << "wrote " << file.entries.size() << " fingerprints to "
              << argv[1] << '\n';
    return 0;
}
