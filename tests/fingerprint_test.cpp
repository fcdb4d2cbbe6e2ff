/**
 * @file
 * Cross-commit fingerprints: every configuration in
 * tests/fingerprints.txt is re-run and must reproduce its committed
 * parameter/loss digest and simulated time exactly. Digests are only
 * enforced on the toolchain the file was generated with; elsewhere
 * float results may legitimately differ, and the test says so.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.hpp"
#include "train/fingerprint.hpp"

namespace train {

/** Readable parameter names in test listings. */
void
PrintTo(const FingerprintConfig& config, std::ostream* os)
{
    *os << config.app << ' ' << config.strategy;
}

} // namespace train

namespace {

const train::FingerprintFile&
committed()
{
    static const train::FingerprintFile file = [] {
        std::ifstream in(VPPS_FINGERPRINT_FILE);
        std::ostringstream text;
        text << in.rdbuf();
        auto parsed = train::parseFingerprints(text.str());
        if (!parsed.ok())
            common::panic(VPPS_FINGERPRINT_FILE, ": ",
                          parsed.status().toString());
        return std::move(parsed).value();
    }();
    return file;
}

class FingerprintTest
    : public testing::TestWithParam<train::FingerprintConfig>
{
};

TEST_P(FingerprintTest, MatchesCommittedFile)
{
    common::setVerbose(false);
    const train::FingerprintConfig& config = GetParam();
    const train::Fingerprint* want = nullptr;
    for (const auto& fp : committed().entries)
        if (fp.config.app == config.app &&
            fp.config.strategy == config.strategy)
            want = &fp;
    ASSERT_NE(want, nullptr)
        << config.app << " " << config.strategy
        << " missing from the fingerprint file";

    const train::Fingerprint got = train::computeFingerprint(config);
    EXPECT_EQ(got.sim_us, want->sim_us);
    const std::string toolchain = train::fingerprintToolchain();
    if (toolchain == committed().toolchain) {
        EXPECT_EQ(got.digest, want->digest)
            << "final params or losses changed";
    } else {
        std::cout << "[   NOTE   ] fingerprints were generated with '"
                  << committed().toolchain << "', this build is '"
                  << toolchain
                  << "': only sim_us is enforced, digests are not\n";
    }
}

std::string
configName(const testing::TestParamInfo<train::FingerprintConfig>& info)
{
    std::string n = info.param.app + "_" + info.param.strategy;
    for (auto& c : n)
        if (c == '-')
            c = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(Configs, FingerprintTest,
                         testing::ValuesIn(train::fingerprintConfigs()),
                         configName);

TEST(FingerprintFormat, RoundTripsExactly)
{
    train::FingerprintFile file;
    file.toolchain = "gcc 1.2.3; glibc 4.5; x86_64";
    file.entries.push_back(
        {{"Tree-LSTM", "vpps-rpw2"}, 0x0123456789abcdefull, 0.1 + 0.2});
    file.entries.push_back(
        {{"RvNN", "dynet-db"}, ~0ull, 1234567.8901234567});
    auto back = train::parseFingerprints(train::formatFingerprints(file));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().toolchain, file.toolchain);
    ASSERT_EQ(back.value().entries.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(back.value().entries[i].config.app,
                  file.entries[i].config.app);
        EXPECT_EQ(back.value().entries[i].digest, file.entries[i].digest);
        EXPECT_EQ(back.value().entries[i].sim_us, file.entries[i].sim_us);
    }
    EXPECT_FALSE(train::parseFingerprints("RvNN dynet-db 12 3\n").ok());
    EXPECT_FALSE(train::parseFingerprints(
                     "toolchain x\nRvNN dynet-db zz 3\n").ok());
}

} // namespace
