#include "vpps/script_exec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "tensor/host_math.hpp"
#include "vpps/script_cache.hpp"

namespace vpps {

using gpusim::KernelCost;
using gpusim::MemSpace;

namespace {

/** Fixed interpreter overhead per instruction: shared-memory fetch,
 *  decode switch, operand unpacking. */
constexpr double kDecodeUs = 0.10;

/** Rounds with less total work than this run inline: the worker
 *  wake-up costs more than it saves on near-empty phases. */
constexpr std::size_t kMinParallelInstructions = 64;

/** One deferred cross-VPP accumulation: the contribution lives in the
 *  owning VPP's scratch arena and is applied onto the shared target by
 *  the scheduler at the phase boundary. */
struct PendingAccum
{
    std::uint32_t target = 0;
    std::uint32_t len = 0;
    std::size_t arena_pos = 0;
};

/** A pool span an instruction dereferences: [offset, offset+len). */
struct OperandSpan
{
    std::uint32_t offset = 0;
    std::uint64_t len = 0;
};

/**
 * The pool spans @p in reads or writes through its operands; @return
 * how many were written to @p out. Matrix products must already have
 * a valid param-id immediate. Outer's dW target is implicit (the
 * parameter's gradient region), not an operand.
 */
int
operandSpans(const DecodedInstr& in, const graph::Model& model,
             OperandSpan (&out)[4])
{
    const std::uint32_t* op = in.operands;
    auto vectors = [&](int k) {
        for (int i = 0; i < k; ++i)
            out[i] = {op[i], in.imm};
        return k;
    };
    switch (in.op) {
      case Opcode::MatVec:
      case Opcode::MatVecT:
      case Opcode::Outer: {
        // MatVec reads x (cols) and writes y (rows); the backward
        // products read dy (rows) and touch a cols-length vector.
        const auto& shape = model.param(in.imm).shape;
        const std::uint64_t rows = shape.rows();
        const std::uint64_t cols = shape.cols();
        const bool fwd = in.op == Opcode::MatVec;
        out[0] = {op[0], fwd ? cols : rows};
        out[1] = {op[1], fwd ? rows : cols};
        return 2;
      }
      case Opcode::Copy:
      case Opcode::Accum:
      case Opcode::AccumParam:
      case Opcode::Tanh:
      case Opcode::Sigmoid:
      case Opcode::Relu:
      case Opcode::Scale:
      case Opcode::ScaleAccum:
      case Opcode::UpdateVec:
        return vectors(2);
      case Opcode::Add2:
      case Opcode::Mul:
      case Opcode::MulAccum:
      case Opcode::TanhBack:
      case Opcode::SigmoidBack:
      case Opcode::ReluBack:
        return vectors(3);
      case Opcode::Add3:
        return vectors(4);
      case Opcode::PickNLS:
        out[0] = {op[0], in.imm};
        out[1] = {op[1], in.imm};
        out[2] = {op[2], 1};
        return 3;
      case Opcode::PickNLSBack:
        out[0] = {op[0], in.imm};
        out[1] = {op[1], 1};
        out[2] = {op[2], in.imm};
        return 3;
      default:
        return 0; // Nop, Signal, Wait: no pool operands
    }
}

} // namespace

/**
 * Per-VPP accounting sink. Workers write here with no sharing; the
 * scheduler merges sinks in VPP order, which makes every counter and
 * every float reduction independent of the worker count. The executor
 * owns its sinks and clears them at the start of every run, so the
 * scratch arena's capacity survives from batch to batch.
 */
struct ScriptExecutor::VppSink
{
    gpusim::TrafficStats traffic;
    std::uint64_t instructions = 0;
    std::vector<PendingAccum> pending;
    std::vector<float> arena;

    /** Reserve zero-initialized scratch for a deferred accumulation
     *  of @p len floats onto pool offset @p target. The pointer is
     *  only valid until the next claim. */
    float*
    claim(std::uint32_t target, std::uint32_t len)
    {
        const std::size_t pos = arena.size();
        arena.resize(pos + len); // value-init: scratch starts at zero
        pending.push_back({target, len, pos});
        return arena.data() + pos;
    }

    /** Drop every counter and pending entry; keeps capacity. */
    void
    clear()
    {
        traffic.reset();
        instructions = 0;
        pending.clear();
        arena.clear();
    }
};

ScriptExecutor::ScriptExecutor(gpusim::Device& device, int threads,
                               ScriptCache* shared_cache)
    : device_(device), threads_(common::resolveThreadCount(threads)),
      cache_(shared_cache)
{
    if (cache_ == nullptr) {
        owned_cache_ = std::make_unique<ScriptCache>();
        cache_ = owned_cache_.get();
    }
}

ScriptExecutor::~ScriptExecutor() = default;

common::Result<std::shared_ptr<const DecodedProgram>>
ScriptExecutor::decoded(const Script& script,
                        const graph::Model& model)
{
    using common::ErrorCode;
    using common::Status;

    // Content digest over the full sealed buffer (the same value the
    // transfer checksum uses). Identical batches generate identical
    // words, so replayed minibatches hit here and skip the whole
    // decode-and-validate pass -- across all executors sharing the
    // cache. The model's parameter layout and the pool capacity fold
    // into the key because operand validation and the in-place
    // analysis depend on them.
    const std::uint64_t h = ScriptCache::key(
        script.checksum(), model, device_.memory().capacity());
    if (auto hit = cache_->find(h))
        return hit;

    const auto& expected = script.expectedSignals();
    std::vector<std::uint64_t> emitted(expected.size(), 0);

    // Gradient regions sorted by offset (they are pairwise disjoint),
    // for the per-parameter in-place analysis below.
    struct GradRegion
    {
        std::uint64_t begin, end;
        graph::ParamId id;
    };
    std::vector<GradRegion> grads;
    for (graph::ParamId id = 0; id < model.numParams(); ++id) {
        const auto& p = model.param(id);
        if (p.grad != gpusim::DeviceMemory::kNullOffset)
            grads.push_back({p.grad, p.grad + p.shape.size(), id});
    }
    std::sort(grads.begin(), grads.end(),
              [](const GradRegion& a, const GradRegion& b) {
                  return a.begin < b.begin;
              });
    // Parameters are allocated before any activation, so the regions'
    // hull rejects nearly every operand with two compares.
    const std::uint64_t hull_begin = grads.empty() ? 0 : grads.front().begin;
    const std::uint64_t hull_end = grads.empty() ? 0 : grads.back().end;

    auto prog = std::make_unique<DecodedProgram>();
    prog->grad_exclusive.assign(model.numParams(), 0);
    for (const GradRegion& g : grads)
        prog->grad_exclusive[g.id] = 1;
    const int num_vpps = script.numVpps();
    prog->num_vpps = num_vpps;
    prog->streams.resize(static_cast<std::size_t>(num_vpps));
    prog->stream_words.resize(static_cast<std::size_t>(num_vpps));
    prog->signals_per_vpp.resize(static_cast<std::size_t>(num_vpps), 0);
    for (int vpp = 0; vpp < num_vpps; ++vpp) {
        auto [pc, end] = script.vppStream(vpp);
        prog->stream_words[static_cast<std::size_t>(vpp)] =
            static_cast<std::size_t>(end - pc);
        auto& out = prog->streams[static_cast<std::size_t>(vpp)];
        while (pc != end) {
            const long long idx = static_cast<long long>(out.size());
            DecodedInstr in;
            in.op = preambleOpcode(pc[0]);
            in.imm = preambleImm(pc[0]);
            if (in.op >= Opcode::NumOpcodes)
                return Status::failure(
                           ErrorCode::MalformedScript,
                           common::detail::concat(
                               "bad opcode ",
                               static_cast<int>(in.op),
                               " in script stream"))
                    .withVpp(vpp)
                    .withPc(idx);
            const int n = operandWords(in.op);
            if (pc + 1 + n > end)
                return Status::failure(
                           ErrorCode::MalformedScript,
                           common::detail::concat(
                               "truncated instruction stream: ",
                               opcodeName(in.op), " needs ", n,
                               " operand words"))
                    .withVpp(vpp)
                    .withPc(idx);
            if (in.op == Opcode::Signal || in.op == Opcode::Wait) {
                if (in.imm >= expected.size())
                    return Status::failure(
                               ErrorCode::MalformedScript,
                               common::detail::concat(
                                   "barrier index out of range (",
                                   expected.size(),
                                   " barriers declared)"))
                        .withVpp(vpp)
                        .withPc(idx)
                        .withBarrier(in.imm);
                if (in.op == Opcode::Signal) {
                    ++emitted[in.imm];
                    ++prog->signals_per_vpp[
                        static_cast<std::size_t>(vpp)];
                }
            }
            for (int i = 0; i < n; ++i)
                in.operands[i] = pc[1 + i];

            // Range validation (decoder hardening): every param-id
            // immediate and operand offset/length pair is checked
            // here, before the interpreter can dereference it, so a
            // corrupted or adversarial script surfaces a structured
            // MalformedScript error instead of out-of-bounds access.
            const std::size_t cap = device_.memory().capacity();
            auto fail_decode = [&](const char* what) {
                return Status::failure(
                           ErrorCode::MalformedScript,
                           common::detail::concat(
                               what, " in ", opcodeName(in.op)))
                    .withVpp(vpp)
                    .withPc(idx);
            };
            auto span_ok = [&](const OperandSpan& sp) {
                return static_cast<std::uint64_t>(sp.offset) < cap &&
                       static_cast<std::uint64_t>(sp.offset) + sp.len <=
                           cap;
            };
            const bool pick = in.op == Opcode::PickNLS ||
                              in.op == Opcode::PickNLSBack;
            const bool matrix = in.op == Opcode::MatVec ||
                                in.op == Opcode::MatVecT ||
                                in.op == Opcode::Outer;
            if (matrix && in.imm >= model.numParams())
                return fail_decode("param id out of range");
            if (pick && in.imm == 0)
                return fail_decode("empty logits vector");
            OperandSpan spans[4];
            const int num_spans = operandSpans(in, model, spans);
            for (int i = 0; i < num_spans; ++i) {
                if (!span_ok(spans[i]))
                    return fail_decode("operand out of pool range");
                // Any operand touching a gradient region (a read, or
                // a write such as AccumParam) makes that parameter's
                // Outer updates order-sensitive across VPPs: they
                // stay on the deferred reduction.
                const std::uint64_t b = spans[i].offset;
                const std::uint64_t e = b + spans[i].len;
                if (e <= hull_begin || b >= hull_end)
                    continue;
                auto it = std::upper_bound(
                    grads.begin(), grads.end(), b,
                    [](std::uint64_t off, const GradRegion& g) {
                        return off < g.begin;
                    });
                if (it != grads.begin())
                    --it;
                for (; it != grads.end() && it->begin < e; ++it)
                    if (it->end > b)
                        prog->grad_exclusive[it->id] = 0;
            }
            if (pick && in.operands[3] >= in.imm)
                return fail_decode("label out of range");

            out.push_back(in);
            pc += 1 + n;
        }
        prog->total_instructions += out.size();
    }

    // Whole-script barrier consistency: each barrier must receive
    // exactly the declared number of signals. Fewer would deadlock a
    // waiter; more would over-trip the device-side atomic counter.
    for (std::size_t b = 0; b < expected.size(); ++b)
        if (emitted[b] != expected[b])
            return Status::failure(
                       ErrorCode::MalformedScript,
                       common::detail::concat(
                           "barrier ", b, " expects ", expected[b],
                           " signal(s) but the script emits ",
                           emitted[b]))
                .withBarrier(static_cast<long long>(b));

    return cache_->insert(h, std::move(prog));
}

common::Result<RunResult>
ScriptExecutor::run(const CompiledKernel& kernel,
                    const GeneratedBatch& batch, graph::Model& model,
                    graph::ComputationGraph& cg, bool apply_updates)
{
    using common::ErrorCode;
    using common::Status;

    const DistributionPlan& plan = kernel.plan;
    const auto& spec = device_.spec();
    const int num_vpps = plan.numVpps();
    auto& mem = device_.memory();
    const Script& script = batch.script;
    auto dec = decoded(script, model);
    if (!dec.ok())
        return dec.takeStatus();
    // Holding the shared_ptr keeps the program valid even if another
    // cache user triggers an evict-all while this run is in flight.
    const std::shared_ptr<const DecodedProgram> prog_guard =
        dec.value();
    const DecodedProgram& prog = *prog_guard;
    if (prog.num_vpps != num_vpps)
        return Status::failure(
            ErrorCode::MalformedScript,
            common::detail::concat("script has ", prog.num_vpps,
                                   " VPP streams but the plan runs ",
                                   num_vpps, " VPPs"));

    gpusim::PersistentSim psim(spec, num_vpps, plan.ctasPerSm());
    for (std::size_t b = 0; b < script.expectedSignals().size(); ++b)
        psim.setExpectedSignals(
            b, static_cast<int>(script.expectedSignals()[b]));

    // Tracing. VPP clocks restart at zero for every kernel; anchoring
    // them at the device's current busy time makes successive batches
    // land one after another on a single trace timeline. Emission
    // only *reads* simulated state, so RunResult is bitwise identical
    // with tracing on or off (trace_test pins this).
    obs::Tracer* const tracer = device_.tracer();
    const double trace_base = device_.busyUs();
    psim.setTracer(tracer, trace_base);
    if (tracer)
        tracer->instant(
            obs::kLaneHost, "host", "decode", trace_base,
            static_cast<std::int64_t>(prog.total_instructions),
            static_cast<double>(num_vpps));

    RunResult result;

    // -- Prologue: script fetch, cached-weight load, grad-reg init.
    // A VPP stages its script section in shared memory; sections
    // longer than its shared-memory slice are fetched in multiple
    // rounds by an outer loop (Section III-B2), each round paying a
    // dependent-load latency.
    const double shared_budget =
        static_cast<double>(spec.shared_bytes_per_sm) /
        plan.ctasPerSm();
    auto chargePrologue = [&](int vpp) {
        const double script_bytes =
            4.0 * static_cast<double>(
                      prog.stream_words[static_cast<std::size_t>(vpp)]);
        const double weight_bytes = plan.cachedWeightBytes(vpp);
        const double fetch_rounds =
            std::max(1.0, std::ceil(script_bytes / shared_budget));
        KernelCost prologue;
        prologue.dram_load_bytes = script_bytes + weight_bytes;
        prologue.latency_hops = 1.0 + fetch_rounds;
        psim.chargeInstruction(vpp, prologue);
        device_.addLoad(MemSpace::Script, script_bytes);
        device_.addLoad(MemSpace::Weights, weight_bytes);
    };
    for (int vpp = 0; vpp < num_vpps; ++vpp)
        chargePrologue(vpp);

    // Injected DRAM ECC error on one VPP's cached-weight load: the
    // error is *detected* (SECDED reports it), so the VPP simply
    // re-fetches its rows from the DRAM master copy -- a second
    // prologue charge and no functional damage.
    if (gpusim::FaultInjector* inj = device_.faults()) {
        if (auto bad = inj->corruptWeightLoad(num_vpps)) {
            chargePrologue(*bad);
            ++result.weight_reloads;
        }
    }

    // Injected hang: one VPP (drawn among those that signal at all)
    // permanently stops at its next Signal, which is therefore lost.
    // The schedule downstream of that barrier starves and the stall
    // diagnosis below reports it as a recoverable HungVpp error.
    int hung_vpp = -1;
    if (gpusim::FaultInjector* inj = device_.faults()) {
        std::vector<int> eligible;
        for (int vpp = 0; vpp < num_vpps; ++vpp)
            if (prog.signals_per_vpp[static_cast<std::size_t>(vpp)] > 0)
                eligible.push_back(vpp);
        if (auto hang = inj->drawHang(eligible))
            hung_vpp = *hang;
    }

    const bool func = device_.functional();
    // Start from empty sinks: the previous run, whether it completed
    // or failed part-way, left its counters and scratch behind.
    sinks_.resize(static_cast<std::size_t>(num_vpps));
    for (VppSink& sink : sinks_)
        sink.clear();

    // Execute one non-sync instruction on behalf of @p vpp. Traffic
    // and instruction counts go to the VPP's private sink; per-VPP
    // timeline charges are contention-free by construction (each VPP
    // is interpreted by exactly one worker per round). Accumulations
    // whose target may be shared across VPPs within a phase (the
    // += family and the matrix products with cross-VPP outputs) are
    // computed into sink scratch and applied in fixed order by the
    // scheduler, so float reductions never depend on thread timing.
    auto exec_instr = [&](int vpp, const DecodedInstr& in,
                          VppSink& sink) {
        const Opcode op = in.op;
        const std::uint32_t imm = in.imm;
        KernelCost cost;
        cost.latency_hops = 0.0;
        const double len = static_cast<double>(imm);
        switch (op) {
          case Opcode::MatVec: {
            const auto& p = model.param(imm);
            double rows = 0.0;
            for (const auto& s : plan.slices(vpp, imm, false)) {
                if (func)
                    tensor::gemvRows(mem.data(p.value),
                                     mem.data(in.operands[0]),
                                     mem.data(in.operands[1]),
                                     s.first_row,
                                     s.first_row + s.num_rows,
                                     p.shape.cols());
                rows += s.num_rows;
            }
            const double cols = p.shape.cols();
            cost.flops = 2.0 * rows * cols;
            cost.dram_load_bytes = 4.0 * cols;       // x (weights: regs)
            cost.dram_store_bytes = 4.0 * rows;      // y
            cost.latency_hops = 2.0; // x load -> compute -> y store
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * cols);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * rows);
            break;
          }
          case Opcode::MatVecT: {
            const auto& p = model.param(imm);
            const std::uint32_t cols_u =
                static_cast<std::uint32_t>(p.shape.cols());
            // dx is shared by every VPP holding rows of W (remote
            // atomics on the GPU): accumulate this VPP's partial into
            // scratch, reduced in VPP order at the phase boundary.
            float* scratch =
                func ? sink.claim(in.operands[1], cols_u) : nullptr;
            double rows = 0.0;
            for (const auto& s : plan.slices(vpp, imm, false)) {
                if (func)
                    tensor::gemvTransposedAccumRows(
                        mem.data(p.value), mem.data(in.operands[0]),
                        scratch, s.first_row,
                        s.first_row + s.num_rows, p.shape.cols());
                rows += s.num_rows;
            }
            const double cols = p.shape.cols();
            const double warps = std::ceil(rows / plan.rpw());
            cost.flops = 2.0 * rows * cols;
            cost.dram_load_bytes = 4.0 * rows;       // dy rows
            // Remote atomic stores: one per column per warp; more
            // rows per warp means fewer warps and fewer atomics
            // (the rpw trade-off of Section III-A1).
            cost.atomic_ops = cols * warps;
            cost.latency_hops = 2.0;
            sink.traffic.addLoad(MemSpace::ActGrads, 4.0 * rows);
            sink.traffic.addStore(MemSpace::ActGrads, 4.0 * cols);
            sink.traffic.addAtomics(cost.atomic_ops);
            break;
          }
          case Opcode::Outer: {
            const auto& p = model.param(imm);
            const std::uint32_t cols_u =
                static_cast<std::uint32_t>(p.shape.cols());
            // dW rows live in the owning VPP's registers (Section
            // III-A): when no other VPP writes them and no other
            // instruction touches the gradient, this VPP is their
            // only writer and accumulates in place, in program order
            // -- the same float additions the deferred reduction
            // would apply, since 0 + a == a. Otherwise the update
            // goes through scratch like every shared accumulation.
            const bool in_place = prog.grad_exclusive[imm] != 0 &&
                                  plan.gradRowsSingleWriter(imm);
            double rows = 0.0;
            for (const auto& s : plan.slices(vpp, imm, true)) {
                if (func && in_place) {
                    tensor::outerAccumRows(
                        mem.data(p.grad), mem.data(in.operands[0]),
                        mem.data(in.operands[1]), s.first_row,
                        s.first_row + s.num_rows, p.shape.cols());
                } else if (func) {
                    float* scratch = sink.claim(
                        p.grad + s.first_row * cols_u,
                        s.num_rows * cols_u);
                    tensor::outerAccumRows(
                        scratch,
                        mem.data(in.operands[0]) + s.first_row,
                        mem.data(in.operands[1]), 0, s.num_rows,
                        p.shape.cols());
                }
                rows += s.num_rows;
            }
            const double cols = p.shape.cols();
            cost.flops = 2.0 * rows * cols;
            cost.dram_load_bytes = 4.0 * (rows + cols); // dy rows + x
            // dy and x were just touched by the transposed product
            // in the same phase, so most of the latency is hidden.
            cost.latency_hops = 0.3;
            sink.traffic.addLoad(MemSpace::ActGrads, 4.0 * rows);
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * cols);
            break;
          }
          case Opcode::Copy:
            if (func)
                std::memcpy(mem.data(in.operands[0]),
                            mem.data(in.operands[1]),
                            static_cast<std::size_t>(imm) *
                                sizeof(float));
            cost.dram_load_bytes = 4.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * len);
            break;
          case Opcode::Accum:
          case Opcode::AccumParam: {
            if (func)
                tensor::accum(sink.claim(in.operands[0], imm),
                              mem.data(in.operands[1]), imm);
            cost.flops = len;
            cost.dram_load_bytes = 8.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            const MemSpace space = op == Opcode::AccumParam
                                       ? MemSpace::ParamGrads
                                       : MemSpace::ActGrads;
            sink.traffic.addLoad(space, 4.0 * len);
            sink.traffic.addLoad(MemSpace::ActGrads, 4.0 * len);
            sink.traffic.addStore(space, 4.0 * len);
            break;
          }
          case Opcode::Add2: {
            if (func) {
                const float* ins[2] = {mem.data(in.operands[1]),
                                       mem.data(in.operands[2])};
                tensor::addN(ins, 2, mem.data(in.operands[0]), imm);
            }
            cost.flops = len;
            cost.dram_load_bytes = 8.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 8.0 * len);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * len);
            break;
          }
          case Opcode::Add3: {
            if (func) {
                const float* ins[3] = {mem.data(in.operands[1]),
                                       mem.data(in.operands[2]),
                                       mem.data(in.operands[3])};
                tensor::addN(ins, 3, mem.data(in.operands[0]), imm);
            }
            cost.flops = 2.0 * len;
            cost.dram_load_bytes = 12.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 12.0 * len);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * len);
            break;
          }
          case Opcode::Mul:
            if (func)
                tensor::cwiseMult(mem.data(in.operands[1]),
                                  mem.data(in.operands[2]),
                                  mem.data(in.operands[0]), imm);
            cost.flops = len;
            cost.dram_load_bytes = 8.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 8.0 * len);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * len);
            break;
          case Opcode::MulAccum: {
            if (func) {
                float* out = sink.claim(in.operands[0], imm);
                const float* a = mem.data(in.operands[1]);
                const float* b = mem.data(in.operands[2]);
                for (std::uint32_t i = 0; i < imm; ++i)
                    out[i] += a[i] * b[i];
            }
            cost.flops = 2.0 * len;
            cost.dram_load_bytes = 12.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::ActGrads, 8.0 * len);
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::ActGrads, 4.0 * len);
            break;
          }
          case Opcode::Tanh:
            if (func)
                tensor::tanhForward(mem.data(in.operands[1]),
                                    mem.data(in.operands[0]), imm);
            cost.flops = 10.0 * len;
            cost.dram_load_bytes = 4.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * len);
            break;
          case Opcode::Sigmoid:
            if (func)
                tensor::sigmoidForward(mem.data(in.operands[1]),
                                       mem.data(in.operands[0]), imm);
            cost.flops = 10.0 * len;
            cost.dram_load_bytes = 4.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * len);
            break;
          case Opcode::Relu:
            if (func)
                tensor::reluForward(mem.data(in.operands[1]),
                                    mem.data(in.operands[0]), imm);
            cost.flops = len;
            cost.dram_load_bytes = 4.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * len);
            break;
          case Opcode::Scale: {
            if (func) {
                float factor;
                std::uint32_t bits = in.operands[2];
                std::memcpy(&factor, &bits, sizeof(factor));
                tensor::scaleForward(mem.data(in.operands[1]), factor,
                                     mem.data(in.operands[0]), imm);
            }
            cost.flops = len;
            cost.dram_load_bytes = 4.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::Activations, 4.0 * len);
            break;
          }
          case Opcode::ScaleAccum: {
            if (func) {
                float factor;
                std::uint32_t bits = in.operands[2];
                std::memcpy(&factor, &bits, sizeof(factor));
                tensor::scaleAccum(mem.data(in.operands[1]), factor,
                                   sink.claim(in.operands[0], imm),
                                   imm);
            }
            cost.flops = 2.0 * len;
            cost.dram_load_bytes = 8.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::ActGrads, 8.0 * len);
            sink.traffic.addStore(MemSpace::ActGrads, 4.0 * len);
            break;
          }
          case Opcode::TanhBack:
            if (func)
                tensor::tanhBackward(mem.data(in.operands[1]),
                                     mem.data(in.operands[2]),
                                     sink.claim(in.operands[0], imm),
                                     imm);
            cost.flops = 3.0 * len;
            cost.dram_load_bytes = 12.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::ActGrads, 8.0 * len);
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::ActGrads, 4.0 * len);
            break;
          case Opcode::SigmoidBack:
            if (func)
                tensor::sigmoidBackward(
                    mem.data(in.operands[1]), mem.data(in.operands[2]),
                    sink.claim(in.operands[0], imm), imm);
            cost.flops = 3.0 * len;
            cost.dram_load_bytes = 12.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::ActGrads, 8.0 * len);
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::ActGrads, 4.0 * len);
            break;
          case Opcode::ReluBack:
            if (func)
                tensor::reluBackward(mem.data(in.operands[1]),
                                     mem.data(in.operands[2]),
                                     sink.claim(in.operands[0], imm),
                                     imm);
            cost.flops = len;
            cost.dram_load_bytes = 12.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::ActGrads, 8.0 * len);
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::ActGrads, 4.0 * len);
            break;
          case Opcode::PickNLS:
            if (func)
                mem.data(in.operands[2])[0] = tensor::pickNegLogSoftmax(
                    mem.data(in.operands[0]), in.operands[3],
                    mem.data(in.operands[1]), imm);
            cost.flops = 10.0 * len;
            cost.dram_load_bytes = 4.0 * len;
            cost.dram_store_bytes = 4.0 * len + 4.0;
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addStore(MemSpace::Activations,
                                  4.0 * len + 4.0);
            break;
          case Opcode::PickNLSBack:
            if (func)
                tensor::pickNegLogSoftmaxBackward(
                    mem.data(in.operands[0]), in.operands[3],
                    mem.data(in.operands[1])[0],
                    sink.claim(in.operands[2], imm), imm);
            cost.flops = 3.0 * len;
            cost.dram_load_bytes = 8.0 * len;
            cost.dram_store_bytes = 4.0 * len;
            sink.traffic.addLoad(MemSpace::Activations, 4.0 * len);
            sink.traffic.addLoad(MemSpace::ActGrads, 4.0 * len);
            sink.traffic.addStore(MemSpace::ActGrads, 4.0 * len);
            break;
          case Opcode::UpdateVec:
            // Gradient-only mode leaves the parameter and its grad
            // untouched (the data-parallel driver applies the
            // all-reduced update itself); the cost model is charged
            // either way so timing does not depend on the mode.
            if (func && apply_updates)
                tensor::sgdUpdate(mem.data(in.operands[0]),
                                  mem.data(in.operands[1]), imm,
                                  model.learning_rate,
                                  model.weight_decay);
            cost.flops = 3.0 * len;
            cost.dram_load_bytes = 8.0 * len;
            cost.dram_store_bytes = 8.0 * len;
            sink.traffic.addLoad(MemSpace::Params, 4.0 * len);
            sink.traffic.addLoad(MemSpace::ParamGrads, 4.0 * len);
            sink.traffic.addStore(MemSpace::Params, 8.0 * len);
            break;
          case Opcode::Nop:
            break;
          default:
            common::panic("ScriptExecutor: bad opcode in stream");
        }
        psim.charge(vpp, kDecodeUs);
        psim.chargeInstruction(vpp, cost);
        ++sink.instructions;
    };

    // -- Phase-scheduled interpretation. Every round: resolve all
    // ready Signal/Wait traffic serially (barrier state and timeline
    // clamps stay single-threaded), then slice each unblocked VPP's
    // stream up to its next sync instruction and execute the slices
    // concurrently. A slice only becomes runnable once every barrier
    // ordered before it has fully released, which is exactly the
    // inter-VPP dependency structure the script generator encodes --
    // so functional results and per-VPP timelines match the serial
    // round-robin interpreter.
    std::vector<std::size_t> cursor(static_cast<std::size_t>(num_vpps),
                                    0);
    struct Segment
    {
        int vpp;
        std::size_t begin;
        std::size_t end;
    };
    std::vector<Segment> segments;

    // Counter samples carry the device's *absolute* per-space byte
    // totals (not deltas), so the latest sample always equals the
    // TrafficStats accounting exactly -- the reconciliation the
    // metrics tests assert against table1_weight_loads.
    auto emitDramCounters = [&]() {
        if (!tracer)
            return;
        const double ts = device_.busyUs();
        const auto& traffic = device_.traffic();
        for (std::size_t i = 0;
             i < gpusim::TrafficStats::kNumSpaces; ++i) {
            const auto space = static_cast<MemSpace>(i);
            const double loads = traffic.loadBytes(space);
            const double stores = traffic.storeBytes(space);
            if (loads > 0.0)
                tracer->counter(obs::kLaneDevice, "dram.load",
                                gpusim::memSpaceName(space), ts,
                                loads);
            if (stores > 0.0)
                tracer->counter(obs::kLaneDevice, "dram.store",
                                gpusim::memSpaceName(space), ts,
                                stores);
        }
    };

    // On any stalled or aborted schedule the partial execution still
    // happened on the device: merge the sinks' traffic and charge the
    // elapsed makespan, so the wasted attempt shows up in simulated
    // recovery overhead exactly like a real launch-and-kill would.
    auto fail = [&](Status st) -> common::Result<RunResult> {
        for (const VppSink& sink : sinks_)
            device_.traffic().merge(sink.traffic);
        KernelCost launch_only;
        launch_only.latency_hops = 0.0;
        device_.launchKernel(launch_only);
        device_.chargeTime(psim.makespan());
        emitDramCounters();
        return st;
    };

    // Bound every loop: a valid schedule consumes at least one
    // instruction per round and one sync op per fixpoint pass, so
    // exceeding these caps means the scheduler itself stopped making
    // progress -- report it instead of spinning forever.
    const std::size_t round_cap = prog.total_instructions + 2;
    std::size_t rounds = 0;
    bool hang_triggered = false;

    for (;;) {
        if (++rounds > round_cap)
            return fail(Status::failure(
                ErrorCode::BarrierDeadlock,
                common::detail::concat(
                    "scheduler exceeded ", round_cap,
                    " rounds without completing")));

        // 1. Barrier traffic to a fixed point (a signal by a
        // higher-numbered VPP can unblock a lower-numbered one).
        const std::size_t pass_cap =
            prog.total_instructions +
            static_cast<std::size_t>(num_vpps) + 2;
        std::size_t passes = 0;
        bool sync_progress = true;
        while (sync_progress) {
            if (++passes > pass_cap)
                return fail(Status::failure(
                    ErrorCode::BarrierDeadlock,
                    "barrier fixpoint failed to converge"));
            sync_progress = false;
            for (int vpp = 0; vpp < num_vpps; ++vpp) {
                const auto& stream =
                    prog.streams[static_cast<std::size_t>(vpp)];
                std::size_t& pc =
                    cursor[static_cast<std::size_t>(vpp)];
                while (pc < stream.size()) {
                    const DecodedInstr& in = stream[pc];
                    if (in.op == Opcode::Signal) {
                        if (vpp == hung_vpp) {
                            // The injected hang: the CTA died before
                            // the atomicAdd, so the signal is lost
                            // and this VPP makes no further progress.
                            hang_triggered = true;
                            break;
                        }
                        psim.signal(in.imm, vpp);
                    } else if (in.op == Opcode::Wait &&
                               psim.barrierReady(in.imm)) {
                        psim.wait(in.imm, vpp);
                    } else {
                        break;
                    }
                    ++pc;
                    sync_progress = true;
                }
            }
        }

        // 2. Slice runnable per-VPP segments for this round.
        segments.clear();
        bool all_done = true;
        std::size_t round_instructions = 0;
        for (int vpp = 0; vpp < num_vpps; ++vpp) {
            const auto& stream =
                prog.streams[static_cast<std::size_t>(vpp)];
            const std::size_t pc =
                cursor[static_cast<std::size_t>(vpp)];
            if (pc >= stream.size())
                continue;
            all_done = false;
            if (stream[pc].op == Opcode::Wait)
                continue; // blocked on an unready barrier
            if (vpp == hung_vpp && stream[pc].op == Opcode::Signal)
                continue; // hung at its lost signal; never resumes
            std::size_t end = pc;
            while (end < stream.size() &&
                   stream[end].op != Opcode::Signal &&
                   stream[end].op != Opcode::Wait)
                ++end;
            segments.push_back({vpp, pc, end});
            round_instructions += end - pc;
            cursor[static_cast<std::size_t>(vpp)] = end;
        }
        if (segments.empty()) {
            if (all_done)
                break;
            // Stall: no VPP can run and at least one has not
            // finished. Diagnose which VPPs are stuck on which
            // barriers (the watchdog's report), then surface a
            // recoverable error instead of the old undiagnosed
            // "barrier deadlock" panic.
            std::ostringstream why;
            int stuck = 0, first_vpp = -1;
            long long first_pc = -1, first_barrier = -1;
            for (int vpp = 0; vpp < num_vpps; ++vpp) {
                const auto& stream =
                    prog.streams[static_cast<std::size_t>(vpp)];
                const std::size_t pc =
                    cursor[static_cast<std::size_t>(vpp)];
                if (pc >= stream.size())
                    continue;
                const std::uint32_t b = stream[pc].imm;
                if (stuck == 0) {
                    first_vpp = hang_triggered ? hung_vpp : vpp;
                    first_pc = static_cast<long long>(pc);
                    first_barrier = b;
                }
                if (++stuck <= 6) {
                    why << (stuck == 1 ? "" : "; ") << "vpp " << vpp
                        << (vpp == hung_vpp ? " (hung)" : "")
                        << " at pc " << pc << " on barrier " << b
                        << " (" << psim.arrivedAt(b) << "/"
                        << psim.expectedAt(b) << " signals)";
                }
            }
            if (stuck > 6)
                why << "; ... " << (stuck - 6) << " more";
            const ErrorCode code = hang_triggered
                                       ? ErrorCode::HungVpp
                                       : ErrorCode::BarrierDeadlock;
            return fail(
                Status::failure(
                    code, common::detail::concat(
                              hang_triggered
                                  ? "VPP hung (lost signal); "
                                  : "barrier deadlock; ",
                              stuck, " VPP(s) stuck: ", why.str()))
                    .withVpp(first_vpp)
                    .withPc(first_pc)
                    .withBarrier(first_barrier));
        }

        // 3. Execute the round's segments, concurrently when the
        // round carries enough work to amortize the worker wake-up.
        auto run_segment = [&](std::size_t i) {
            const Segment& seg = segments[i];
            VppSink& sink =
                sinks_[static_cast<std::size_t>(seg.vpp)];
            const auto& stream =
                prog.streams[static_cast<std::size_t>(seg.vpp)];
            const double seg_start = psim.timeOf(seg.vpp);
            for (std::size_t pc = seg.begin; pc < seg.end; ++pc)
                exec_instr(seg.vpp, stream[pc], sink);
            // Emitted from whichever worker ran the segment (the
            // per-thread shards absorb that); the event *content* is
            // thread-count independent because the VPP timeline is.
            if (tracer)
                tracer->complete(
                    seg.vpp, "vpp", "segment",
                    trace_base + seg_start,
                    psim.timeOf(seg.vpp) - seg_start,
                    static_cast<std::int64_t>(seg.begin),
                    static_cast<double>(seg.end - seg.begin));
        };
        if (threads_ > 1 && segments.size() > 1 &&
            round_instructions >= kMinParallelInstructions) {
            if (!pool_)
                pool_ =
                    std::make_unique<common::ThreadPool>(threads_);
            pool_->parallelFor(segments.size(), run_segment);
        } else {
            for (std::size_t i = 0; i < segments.size(); ++i)
                run_segment(i);
        }

        // 4. Deterministic reduction: apply the round's deferred
        // accumulations in (VPP, program-order) order -- segments are
        // already sorted by VPP index.
        for (const Segment& seg : segments) {
            VppSink& sink =
                sinks_[static_cast<std::size_t>(seg.vpp)];
            for (const PendingAccum& pa : sink.pending)
                tensor::accum(mem.data(pa.target),
                              sink.arena.data() + pa.arena_pos, pa.len);
            sink.pending.clear();
            sink.arena.clear();
        }
    }

    // Merge per-VPP accounting in VPP order (fixed-order reduction:
    // identical totals for every thread count).
    for (const VppSink& sink : sinks_) {
        device_.traffic().merge(sink.traffic);
        result.instructions += sink.instructions;
    }

    // -- Epilogue: apply register-cached gradients onto the DRAM
    // master copies (store-only: both W and dW live in registers).
    if (plan.gradientsCached()) {
        if (func && apply_updates)
            for (graph::ParamId m : model.weightMatrices()) {
                auto& p = model.param(m);
                tensor::sgdUpdate(mem.data(p.value), mem.data(p.grad),
                                  p.shape.size(),
                                  model.learning_rate,
                                  model.weight_decay);
            }
        for (int vpp = 0; vpp < num_vpps; ++vpp) {
            const double bytes = plan.cachedWeightBytes(vpp);
            KernelCost epilogue;
            epilogue.flops = bytes / 4.0 * 3.0;
            epilogue.dram_store_bytes = bytes;
            epilogue.latency_hops = 1.0;
            psim.chargeInstruction(vpp, epilogue);
            device_.addStore(MemSpace::Weights, bytes);
        }
    }

    result.makespan_us = psim.makespan();
    result.mean_vpp_us = psim.meanVppTime();
    result.kernel_us = spec.kernel_launch_us + result.makespan_us;
    {
        KernelCost launch_only;
        launch_only.latency_hops = 0.0;
        device_.launchKernel(launch_only);
        device_.chargeTime(result.makespan_us);
    }
    if (tracer)
        tracer->complete(
            obs::kLaneDevice, "gpu", "persistent_kernel",
            trace_base, result.kernel_us,
            static_cast<std::int64_t>(result.instructions),
            result.makespan_us, result.mean_vpp_us);

    // -- Uncached-gradient strategy: staged GEMMs (the CUBLAS
    // substitute) followed by dense matrix updates (Section III-C2).
    if (!plan.gradientsCached()) {
        for (const auto& st : batch.gemm_staging) {
            auto& p = model.param(st.matrix);
            const double r = p.shape.rows(), c = p.shape.cols();
            const double k = st.count;
            if (func)
                tensor::gemmAccumABt(mem.data(p.grad),
                                     mem.data(st.lhs_base),
                                     mem.data(st.rhs_base),
                                     p.shape.rows(), p.shape.cols(),
                                     st.count);
            KernelCost gemm;
            gemm.flops = 2.0 * r * c * k;
            gemm.dram_load_bytes = 4.0 * (r * k + c * k + r * c);
            gemm.dram_store_bytes = 4.0 * r * c;
            gemm.parallel_threads = r * c;
            device_.addLoad(MemSpace::Workspace, 4.0 * (r + c) * k);
            device_.addLoad(p.gradSpace(), 4.0 * r * c);
            device_.addStore(p.gradSpace(), 4.0 * r * c);
            result.extra_kernel_us += device_.launchKernel(gemm);
        }
        for (graph::ParamId m : model.weightMatrices()) {
            auto& p = model.param(m);
            if (func && apply_updates)
                tensor::sgdUpdate(mem.data(p.value), mem.data(p.grad),
                                  p.shape.size(),
                                  model.learning_rate,
                                  model.weight_decay);
            KernelCost update;
            update.flops = 3.0 * static_cast<double>(p.shape.size());
            update.dram_load_bytes = 2.0 * p.bytes();
            update.dram_store_bytes = p.bytes();
            update.parallel_threads =
                static_cast<double>(p.shape.size());
            device_.addLoad(MemSpace::Weights, p.bytes());
            device_.addLoad(MemSpace::WeightGrads, p.bytes());
            device_.addStore(MemSpace::Weights, p.bytes());
            result.extra_kernel_us += device_.launchKernel(update);
        }
    }

    emitDramCounters();
    result.loss = mem.data(cg.node(batch.loss_node).fwd)[0];
    return result;
}

} // namespace vpps
