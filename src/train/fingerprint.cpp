#include "train/fingerprint.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "exec/depth_batch_executor.hpp"
#include "models/bilstm_char_tagger.hpp"
#include "models/bilstm_tagger.hpp"
#include "models/rvnn.hpp"
#include "models/td_lstm.hpp"
#include "models/td_rnn.hpp"
#include "models/tree_lstm.hpp"
#include "train/harness.hpp"

namespace train {

namespace {

/** Batches per run and inputs per batch: long enough that every
 *  parameter sees several updates, short enough for tier1. */
constexpr std::size_t kBatches = 3;
constexpr std::size_t kBatchSize = 2;

/** Device pool per run, floats. */
constexpr std::size_t kPoolFloats = 16u << 20;

/**
 * Deliberately odd layer widths: no matrix row is a multiple of the
 * host kernels' vector width, so every vectorized tail is covered.
 */
std::unique_ptr<models::BenchmarkModel>
makeApp(const std::string& app, const data::Treebank& bank,
        const data::NerCorpus& corpus, const data::Vocab& vocab,
        gpusim::Device& device, common::Rng& prng)
{
    if (app == "Tree-LSTM")
        return std::make_unique<models::TreeLstmModel>(
            bank, vocab, 13, 22, device, prng);
    if (app == "BiLSTM")
        return std::make_unique<models::BiLstmTagger>(
            corpus, vocab, 13, 22, 17, device, prng);
    if (app == "BiLSTMwChar")
        return std::make_unique<models::BiLstmCharTagger>(
            corpus, vocab, 14, 22, 17, 7, device, prng);
    if (app == "TD-RNN")
        return std::make_unique<models::TdRnnModel>(bank, vocab, 27,
                                                    device, prng);
    if (app == "TD-LSTM")
        return std::make_unique<models::TdLstmModel>(bank, vocab, 22,
                                                     device, prng);
    if (app == "RvNN")
        return std::make_unique<models::RvnnModel>(bank, vocab, 27,
                                                   device, prng);
    common::panic("fingerprint: unknown application '", app, "'");
}

} // namespace

std::vector<FingerprintConfig>
fingerprintConfigs()
{
    std::vector<FingerprintConfig> out;
    for (const char* app : {"Tree-LSTM", "BiLSTM", "BiLSTMwChar",
                            "TD-RNN", "TD-LSTM", "RvNN"})
        for (const char* strategy :
             {"vpps-rpw2", "vpps-rpw1", "vpps-gemm", "dynet-db"})
            out.push_back({app, strategy});
    return out;
}

Fingerprint
computeFingerprint(const FingerprintConfig& config)
{
    gpusim::Device device(gpusim::DeviceSpec{}, kPoolFloats);
    common::Rng data_rng(121);
    data::Vocab vocab(300, 10000);
    data::Treebank bank(vocab, 8, data_rng, 7.0, 4, 10);
    data::NerCorpus corpus(vocab, 8, data_rng, 7.0, 4, 10);
    common::Rng param_rng(122);
    auto bm = makeApp(config.app, bank, corpus, vocab, device,
                      param_rng);

    Fingerprint fp;
    fp.config = config;
    std::vector<float> losses;
    auto run_batches = [&](auto&& step) {
        for (std::size_t b = 0; b < kBatches; ++b) {
            graph::ComputationGraph cg;
            graph::Expr loss =
                buildSuperGraph(*bm, cg, b * kBatchSize, kBatchSize);
            losses.push_back(step(cg, loss));
        }
    };
    if (config.strategy == "dynet-db") {
        exec::DepthBatchExecutor executor(device, gpusim::HostSpec{});
        run_batches([&](graph::ComputationGraph& cg, graph::Expr loss) {
            return executor.trainBatch(bm->model(), cg, loss);
        });
        fp.sim_us = executor.stats().totalUs();
    } else {
        vpps::VppsOptions opts;
        if (config.strategy == "vpps-rpw2") {
            opts.rpw = 2;
        } else if (config.strategy == "vpps-rpw1") {
            opts.rpw = 1;
        } else if (config.strategy == "vpps-gemm") {
            opts.rpw = 2;
            opts.cache_gradients = false;
        } else {
            common::panic("fingerprint: unknown strategy '",
                          config.strategy, "'");
        }
        vpps::Handle handle(bm->model(), device, opts);
        // fb() returns the previous batch's loss; the final sync
        // returns the last one, so every batch loss is recorded.
        run_batches([&](graph::ComputationGraph& cg, graph::Expr loss) {
            return handle.fb(bm->model(), cg, loss);
        });
        losses.push_back(handle.sync_get_latest_loss());
        fp.sim_us = handle.stats().wall_us;
    }

    std::vector<std::uint8_t> bytes;
    for (const float v :
         captureCheckpoint(bm->model(), device, 0).params)
        common::putF32(bytes, v);
    for (const float l : losses)
        common::putF32(bytes, l);
    fp.digest = common::fnv1a64(bytes);
    return fp;
}

std::string
fingerprintToolchain()
{
    std::ostringstream os;
#if defined(__clang__)
    os << "clang " << __clang_major__ << '.' << __clang_minor__ << '.'
       << __clang_patchlevel__;
#elif defined(__GNUC__)
    os << "gcc " << __GNUC__ << '.' << __GNUC_MINOR__ << '.'
       << __GNUC_PATCHLEVEL__;
#else
    os << "unknown-compiler";
#endif
#if defined(__GLIBC__)
    os << "; glibc " << __GLIBC__ << '.' << __GLIBC_MINOR__;
#else
    os << "; unknown-libc";
#endif
#if defined(__x86_64__)
    os << "; x86_64";
#elif defined(__aarch64__)
    os << "; aarch64";
#else
    os << "; unknown-arch";
#endif
    return os.str();
}

std::string
formatFingerprints(const FingerprintFile& file)
{
    std::ostringstream os;
    os << "# Cross-commit numerical fingerprints (src/train/fingerprint.hpp).\n"
          "# <app> <strategy> <FNV-1a 64 of final params + batch losses> "
          "<simulated us>\n"
          "# Regenerate only for a deliberate numerics or cost-model "
          "change:\n"
          "#   build/tools/fingerprint_gen tests/fingerprints.txt\n";
    os << "toolchain " << file.toolchain << '\n';
    for (const Fingerprint& fp : file.entries) {
        char line[160];
        // %.17g round-trips every double exactly.
        std::snprintf(line, sizeof line, "%s %s %016" PRIx64 " %.17g\n",
                      fp.config.app.c_str(), fp.config.strategy.c_str(),
                      fp.digest, fp.sim_us);
        os << line;
    }
    return os.str();
}

common::Result<FingerprintFile>
parseFingerprints(const std::string& text)
{
    auto bad = [](std::size_t line_no, const std::string& why) {
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            common::detail::concat("fingerprints line ", line_no, ": ",
                                   why));
    };
    FingerprintFile file;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        static const std::string kToolchain = "toolchain ";
        if (line.compare(0, kToolchain.size(), kToolchain) == 0) {
            file.toolchain = line.substr(kToolchain.size());
            continue;
        }
        std::istringstream fields(line);
        Fingerprint fp;
        std::string digest, sim_us, extra;
        if (!(fields >> fp.config.app >> fp.config.strategy >> digest >>
              sim_us) ||
            (fields >> extra))
            return bad(line_no, "expected <app> <strategy> <digest> "
                                "<sim_us>");
        char* end = nullptr;
        fp.digest = std::strtoull(digest.c_str(), &end, 16);
        if (digest.size() != 16 || *end != '\0')
            return bad(line_no, "digest is not 16 hex digits");
        fp.sim_us = std::strtod(sim_us.c_str(), &end);
        if (*end != '\0')
            return bad(line_no, "sim_us is not a number");
        file.entries.push_back(std::move(fp));
    }
    if (file.toolchain.empty())
        return bad(line_no, "missing toolchain line");
    return file;
}

} // namespace train
