/**
 * @file
 * Shared decoded-script cache (DESIGN.md section 4.11).
 *
 * Identical batches generate identical script words, so every
 * replica of a data-parallel job decodes the same programs. This
 * cache lifts the per-ScriptExecutor decode memo into a sharable,
 * mutex-guarded store of immutable `DecodedProgram`s: N replica
 * handles point at one ScriptCache and the first replica's decode
 * pays for all of them. Entries are `shared_ptr<const ...>` so a
 * program an executor is interpreting survives an evict-all
 * triggered by another replica mid-run.
 *
 * Keys fold in everything decoding and validation depend on: the
 * script's content checksum, the model's parameter count (param-id
 * immediates are range-checked against it), every parameter's
 * gradient region (the per-matrix in-place flags are computed against
 * them), and the device pool capacity (operand offsets are
 * range-checked against it). Sharing across replicas is therefore
 * only a hit when the replicas really are clones.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "vpps/script_exec.hpp"

namespace vpps {

/** Thread-safe store of decoded programs, bounded by a total
 *  instruction budget with evict-all semantics (the in-memory
 *  analogue of the on-disk kernel cache's replacement policy). */
class ScriptCache
{
  public:
    /** Default instruction budget (~24 bytes per instruction). */
    static constexpr std::size_t kDefaultMaxInstructions = 4u << 20;

    explicit ScriptCache(
        std::size_t max_instructions = kDefaultMaxInstructions)
        : max_instructions_(max_instructions)
    {
    }

    ScriptCache(const ScriptCache&) = delete;
    ScriptCache& operator=(const ScriptCache&) = delete;

    /** Cache key over every decode input. @p pool_floats is the
     *  device memory capacity the operands were validated against. */
    static std::uint64_t
    key(std::uint64_t script_checksum, const graph::Model& model,
        std::size_t pool_floats)
    {
        std::uint64_t h = script_checksum;
        h ^= 0x9E3779B97F4A7C15ull *
             (static_cast<std::uint64_t>(model.numParams()) + 1);
        h ^= 0xC2B2AE3D27D4EB4Full *
             (static_cast<std::uint64_t>(pool_floats) + 1);
        for (graph::ParamId id = 0; id < model.numParams(); ++id) {
            const auto& p = model.param(id);
            h = (h ^ (static_cast<std::uint64_t>(p.grad) << 32 |
                      p.shape.size())) *
                0x100000001B3ull;
        }
        return h;
    }

    /** @return the cached program for @p key, or nullptr (miss). */
    std::shared_ptr<const DecodedProgram>
    find(std::uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto it = map_.find(key); it != map_.end())
        {
            ++hits_;
            return it->second;
        }
        ++misses_;
        return nullptr;
    }

    /**
     * Store @p prog under @p key and return it as shared. If the
     * instruction budget is exceeded the whole map is dropped first;
     * in-flight executors keep their programs alive through their
     * own shared_ptr. Losing a race with another inserter is fine:
     * both decodings of one key are identical, last-write wins.
     */
    std::shared_ptr<const DecodedProgram>
    insert(std::uint64_t key, std::unique_ptr<DecodedProgram> prog)
    {
        std::shared_ptr<const DecodedProgram> shared(std::move(prog));
        std::lock_guard<std::mutex> lock(mu_);
        if (cached_instructions_ > max_instructions_)
        {
            map_.clear();
            cached_instructions_ = 0;
            ++evictions_;
        }
        cached_instructions_ += shared->total_instructions;
        map_[key] = shared;
        return shared;
    }

    /** Lifetime counters (metrics + cache-sharing tests). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0; //!< evict-all events
        std::size_t entries = 0;
        std::size_t cached_instructions = 0;
    };

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        Stats s;
        s.hits = hits_;
        s.misses = misses_;
        s.evictions = evictions_;
        s.entries = map_.size();
        s.cached_instructions = cached_instructions_;
        return s;
    }

  private:
    const std::size_t max_instructions_;

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const DecodedProgram>>
        map_;
    std::size_t cached_instructions_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace vpps
