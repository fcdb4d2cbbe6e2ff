#include "train/checkpoint_io.hpp"

#include <cstring>

#include "common/logging.hpp"
#include "common/wire.hpp"

namespace train {

namespace {

// Byte-level encode/decode comes from common/wire.hpp, shared with
// the durable WAL and manifest formats.
using common::fnv1a64;
using common::getF32;
using common::getU32;
using common::getU64;
using common::putF32;
using common::putU32;
using common::putU64;

constexpr std::uint8_t kMagic[4] = {'V', 'P', 'C', 'K'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kDigestBytes = 8;

common::Status
malformed(std::string message)
{
    return common::Status::failure(common::ErrorCode::InvalidArgument,
                                   "checkpoint blob: " +
                                       std::move(message));
}

} // namespace

std::vector<std::uint8_t>
serializeCheckpoint(const TrainCheckpoint& ckpt)
{
    std::vector<std::uint8_t> out(kMagic, kMagic + 4);
    out.reserve(kHeaderBytes + 4 * ckpt.params.size() + kDigestBytes);
    putU32(out, kCheckpointVersion);
    putU64(out, static_cast<std::uint64_t>(ckpt.next_input));
    putF32(out, ckpt.learning_rate);
    putF32(out, ckpt.weight_decay);
    putU64(out, static_cast<std::uint64_t>(ckpt.params.size()));
    for (const float v : ckpt.params)
        putF32(out, v);
    putU64(out, fnv1a64(out.data(), out.size()));
    return out;
}

common::Result<TrainCheckpoint>
deserializeCheckpoint(const std::uint8_t* data, std::size_t size)
{
    // Every check runs before any payload is copied out, in layout
    // order, so the first corrupted field names itself.
    if (data == nullptr && size != 0)
        return malformed("null buffer with non-zero size");
    if (size < kHeaderBytes + kDigestBytes)
        return malformed(common::detail::concat(
            "truncated: ", size, " bytes < minimum ",
            kHeaderBytes + kDigestBytes));
    if (std::memcmp(data, kMagic, 4) != 0)
        return malformed("bad magic (not a checkpoint)");
    const std::uint32_t version = getU32(data + 4);
    if (version != kCheckpointVersion)
        return malformed(common::detail::concat(
            "unsupported version ", version, " (expected ",
            kCheckpointVersion, ")"));
    const std::uint64_t count = getU64(data + 24);
    // Guard the count against both overflow and disagreement with the
    // actual buffer length before trusting it as a loop bound.
    const std::uint64_t payload =
        static_cast<std::uint64_t>(size) - kHeaderBytes - kDigestBytes;
    if (count > payload / 4 || count * 4 != payload)
        return malformed(common::detail::concat(
            "param count ", count, " disagrees with payload of ",
            payload, " bytes"));
    const std::uint64_t stored =
        getU64(data + size - kDigestBytes);
    const std::uint64_t computed =
        fnv1a64(data, size - kDigestBytes);
    if (stored != computed)
        return malformed(common::detail::concat(
            "digest mismatch (stored ", stored, ", computed ",
            computed, "); blob is corrupted"));

    TrainCheckpoint ckpt;
    ckpt.next_input = static_cast<std::size_t>(getU64(data + 8));
    ckpt.learning_rate = getF32(data + 16);
    ckpt.weight_decay = getF32(data + 20);
    ckpt.params.resize(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i)
        ckpt.params[i] = getF32(data + kHeaderBytes + 4 * i);
    return ckpt;
}

common::Status
restoreCheckpointBlob(const std::vector<std::uint8_t>& blob,
                      graph::Model& model, gpusim::Device& device)
{
    auto ckpt = deserializeCheckpoint(blob);
    if (!ckpt.ok())
        return ckpt.takeStatus();
    return restoreCheckpoint(ckpt.value(), model, device);
}

} // namespace train
