/**
 * @file
 * Script-guided execution of the specialized forward-backward kernel
 * (Section III-B2, Fig 7).
 *
 * Each VPP fetches its script section, then loops: decode one
 * instruction, switch on its type, execute it with all the CTA's
 * threads. Matrix instructions read weights from the register cache
 * (no DRAM traffic); signal/wait instructions synchronize VPPs
 * through global-memory barriers. The simulator runs the same
 * functional math as the baselines while charging per-instruction
 * costs onto per-VPP timelines, so the kernel duration reflects both
 * the work and the barrier/imbalance structure of the script.
 *
 * Host-parallel interpretation: the paper's VPPs execute their script
 * sections concurrently between signal/wait barriers, and the
 * interpreter exploits the same independence. Each VPP stream is
 * sliced at Signal/Wait boundaries into segments; all segments
 * runnable in one scheduling round belong to phases whose inputs are
 * already barrier-complete, so they execute concurrently on a worker
 * pool. Accounting (traffic, instruction counts) goes to per-VPP
 * sinks merged in VPP order, and cross-VPP accumulations (MatVecT,
 * the Accum family) are computed into per-VPP scratch and applied by
 * the scheduler in (VPP, program-order) order at the phase boundary
 * -- so results, traffic tables, and timings are bitwise identical
 * for any thread count. Outer writes dW in place when its rows have a
 * single writer, which leaves the same bits. See DESIGN.md,
 * "Host-parallel interpretation".
 */
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "gpusim/device.hpp"
#include "gpusim/persistent_sim.hpp"
#include "graph/expr.hpp"
#include "vpps/script_gen.hpp"

namespace common {
class ThreadPool;
}

namespace vpps {

class ScriptCache;

/** Outcome of one forward-backward kernel invocation. */
struct RunResult
{
    /** Persistent-kernel duration (launch + makespan), us. */
    double kernel_us = 0.0;

    /** Extra kernels (staged gradient GEMMs + matrix updates) when
     *  gradients are not register-cached, us. */
    double extra_kernel_us = 0.0;

    /** Batch loss read back from the device. */
    float loss = 0.0f;

    /** Mean per-VPP busy time (load-balance diagnostics), us. */
    double mean_vpp_us = 0.0;

    /** Max per-VPP time = the kernel body duration, us. */
    double makespan_us = 0.0;

    /** Instructions interpreted across all VPPs. */
    std::uint64_t instructions = 0;

    /** Cached-weight prologue reloads after detected ECC errors
     *  (fault injection only; always 0 without an injector). */
    std::uint64_t weight_reloads = 0;
};

/**
 * One script instruction decoded into fixed-size fields, so the
 * interpreter's hot loop never re-parses preamble words or looks up
 * operand counts.
 */
struct DecodedInstr
{
    Opcode op = Opcode::Nop;
    std::uint32_t imm = 0;
    std::uint32_t operands[4] = {0, 0, 0, 0};
};

/**
 * A script pre-decoded into flat per-VPP instruction arrays. Built
 * once per distinct script and reused across minibatch replays (the
 * in-memory analogue of the on-disk kernel cache: identical batches
 * produce identical script words, so re-decoding is pure waste).
 */
struct DecodedProgram
{
    int num_vpps = 0;
    /** Per-VPP decoded instruction stream. */
    std::vector<std::vector<DecodedInstr>> streams;
    /** Per-VPP raw stream size in words (prologue fetch modeling). */
    std::vector<std::size_t> stream_words;
    /** Per-VPP count of Signal instructions (hang-injection
     *  eligibility: a hang is modeled as a lost signal). */
    std::vector<std::uint32_t> signals_per_vpp;
    /** Total decoded instructions (cache budget accounting). */
    std::size_t total_instructions = 0;
    /**
     * Per ParamId: 1 when no operand of any instruction overlaps the
     * parameter's gradient region, so the only writes to it are the
     * implicit dW targets of its Outer instructions. Together with
     * DistributionPlan::gradRowsSingleWriter() this lets Outer
     * accumulate straight into the gradient instead of deferring
     * through the phase-boundary reduction (DESIGN.md section 4.4).
     */
    std::vector<char> grad_exclusive;
};

/** Interprets generated scripts against the simulated device. */
class ScriptExecutor
{
  public:
    /**
     * @param device the simulated GPU to execute against
     * @param threads host worker threads used to interpret
     * independent per-VPP segments concurrently; <= 0 defers to the
     * VPPS_HOST_THREADS environment variable, else 1 (serial).
     * Results are bitwise identical for every thread count.
     * @param shared_cache optional decoded-script cache shared with
     * other executors (data-parallel replicas decode each script
     * once); when null the executor owns a private cache.
     */
    explicit ScriptExecutor(gpusim::Device& device, int threads = 0,
                            ScriptCache* shared_cache = nullptr);
    ~ScriptExecutor();

    /** Resolved host thread count. */
    int threads() const { return threads_; }

    /**
     * Run one batch's script: prologue (weight load, gradient-register
     * init), interpretation loop, epilogue (gradient application), and
     * -- for the uncached-gradient strategy -- the staged GEMMs and
     * dense matrix updates as separate kernel launches.
     *
     * Malformed scripts (bad opcodes, truncated streams, out-of-range
     * barriers, Signal/Wait count mismatches) and stalled schedules
     * (injected hangs, barrier deadlocks) return a structured error
     * instead of aborting; the diagnostics name the VPP, pc, and
     * barrier involved. On a stalled schedule the partial execution's
     * traffic and device time are still accounted (that work was
     * wasted on the real GPU too).
     *
     * With @p apply_updates false the pass is gradient-only: every
     * SGD parameter update (the UpdateVec interpretation, the
     * cached-gradient epilogue, and the uncached dense updates) skips
     * its functional store while still charging its modeled time, so
     * gradients stay readable in each parameter's grad region and a
     * data-parallel driver can apply the canonical all-reduced update
     * itself. Timing is identical either way.
     *
     * On a timing-only device (`Device::functional()` false) no
     * float math runs at all: the interpretation, the epilogue's
     * updates, the staged GEMMs and the dense updates leave every
     * parameter and gradient byte as it was, while the modeled time
     * and DRAM traffic are charged exactly as in functional mode.
     */
    common::Result<RunResult> run(const CompiledKernel& kernel,
                                  const GeneratedBatch& batch,
                                  graph::Model& model,
                                  graph::ComputationGraph& cg,
                                  bool apply_updates = true);

  private:
    struct VppSink;

    /**
     * Decode and statically validate @p script, or return the cached
     * decoding of an identical earlier script. Invalid scripts are
     * never cached.
     *
     * Validation is exhaustive over everything the interpreter will
     * later dereference: opcodes, stream framing, barrier indices and
     * signal counts, param-id immediates (against @p model), and every
     * operand offset/length pair (against the device pool capacity).
     * A script that decodes OK therefore cannot drive the interpreter
     * out of bounds, no matter where its bytes came from.
     *
     * The returned shared_ptr keeps the program alive across an
     * evict-all another cache user may trigger mid-run.
     */
    common::Result<std::shared_ptr<const DecodedProgram>>
    decoded(const Script& script, const graph::Model& model);

    gpusim::Device& device_;
    int threads_;
    std::unique_ptr<common::ThreadPool> pool_;
    /** Per-VPP sinks, cleared (capacity kept) at every run's start. */
    std::vector<VppSink> sinks_;

    /** Private cache backing `cache_` when none was shared in. */
    std::unique_ptr<ScriptCache> owned_cache_;
    /** Decoded programs keyed by script/model/pool content hash. */
    ScriptCache* cache_;
};

} // namespace vpps
