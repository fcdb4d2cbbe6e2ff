#include "vpps/distribution.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace vpps {

namespace {

constexpr int kWarpsPerCta = 8; // CTA width 256 / warp size 32

/** Registers per thread available for caching under a CTA count. */
int
computeCacheRegs(const gpusim::DeviceSpec& spec, const VppsOptions& opts,
                 int ctas_per_sm)
{
    const int hw_regs = static_cast<int>(
        spec.regfile_bytes_per_sm / 4 /
        (static_cast<std::size_t>(opts.cta_width) * ctas_per_sm));
    const int addressable = std::min(hw_regs, spec.max_regs_per_thread);
    return addressable - opts.interp_regs - opts.vector_regs;
}

} // namespace

std::optional<DistributionPlan>
DistributionPlan::tryBuild(const graph::Model& model,
                           const gpusim::DeviceSpec& spec,
                           const VppsOptions& opts, int rpw,
                           int ctas_per_sm, bool cache_gradients)
{
    const auto matrices = model.weightMatrices();
    if (matrices.empty())
        return std::nullopt; // nothing to cache: no valid plan
    if (rpw < 1)
        common::panic("DistributionPlan: rpw must be >= 1");

    DistributionPlan plan;
    plan.rpw_ = rpw;
    plan.ctas_per_sm_ = ctas_per_sm;
    plan.num_vpps_ = spec.num_sms * ctas_per_sm;
    plan.grads_cached_ = cache_gradients;
    plan.cta_width_ = opts.cta_width;
    plan.row_max_ = model.maxWeightRowLength();
    plan.cache_regs_ = computeCacheRegs(spec, opts, ctas_per_sm);
    if (plan.cache_regs_ <= 0)
        return std::nullopt;

    // Eq 1: registers per thread per partition = rpw * ceil(row_max /
    // warpSize); partition size in elements = CTA width * that.
    const std::uint32_t regs_per_row =
        (plan.row_max_ + spec.warp_size - 1) /
        static_cast<std::uint32_t>(spec.warp_size);
    plan.regs_per_partition_ = rpw * static_cast<int>(regs_per_row);
    if (plan.regs_per_partition_ > plan.cache_regs_)
        return std::nullopt; // rpw too large for the register budget
    plan.partitions_per_cta_ = plan.cache_regs_ / plan.regs_per_partition_;

    // Slot capacity: every partition of every CTA has one slot per
    // warp, each holding one rpw-row block.
    plan.total_slots_ = static_cast<std::size_t>(plan.partitions_per_cta_) *
                        plan.num_vpps_ * kWarpsPerCta;

    std::size_t blocks_needed = 0;
    const int copies = cache_gradients ? 2 : 1;
    for (graph::ParamId m : matrices) {
        const auto& p = model.param(m);
        blocks_needed += static_cast<std::size_t>(
            (p.shape.rows() + rpw - 1) / rpw) * copies;
    }
    if (blocks_needed > plan.total_slots_)
        return std::nullopt;
    plan.used_slots_ = blocks_needed;

    // Round-robin assignment over (partition, warp, CTA) with the CTA
    // index fastest: consecutive blocks of a matrix land on distinct
    // CTAs, spreading each matrix-vector product device-wide (Fig 4).
    const std::size_t num_matrices = model.numParams();
    plan.slices_.assign(
        2, std::vector<std::vector<std::vector<RowSlice>>>(
               num_matrices,
               std::vector<std::vector<RowSlice>>(
                   static_cast<std::size_t>(plan.num_vpps_))));
    plan.vpps_of_.assign(2, std::vector<std::vector<int>>(num_matrices));
    plan.cached_weight_bytes_.assign(
        static_cast<std::size_t>(plan.num_vpps_), 0.0);

    std::size_t slot = 0;
    auto next_slot = [&](int& vpp, int& partition, int& warp) {
        const std::size_t per_partition =
            static_cast<std::size_t>(plan.num_vpps_) * kWarpsPerCta;
        partition = static_cast<int>(slot / per_partition);
        const std::size_t rem = slot % per_partition;
        warp = static_cast<int>(rem / plan.num_vpps_);
        vpp = static_cast<int>(rem % plan.num_vpps_);
        ++slot;
    };

    for (int g = 0; g < copies; ++g) {
        for (graph::ParamId m : matrices) {
            const auto& p = model.param(m);
            const std::uint32_t rows = p.shape.rows();
            for (std::uint32_t r = 0; r < rows; r += rpw) {
                BlockAssignment b;
                b.matrix = m;
                b.is_gradient = (g == 1);
                b.first_row = r;
                b.num_rows = std::min<std::uint32_t>(rpw, rows - r);
                next_slot(b.vpp, b.partition, b.warp);

                auto& vec = plan.slices_[g][m][
                    static_cast<std::size_t>(b.vpp)];
                if (!vec.empty() &&
                    vec.back().first_row + vec.back().num_rows ==
                        b.first_row) {
                    vec.back().num_rows += b.num_rows;
                } else {
                    if (vec.empty())
                        plan.vpps_of_[g][m].push_back(b.vpp);
                    vec.push_back({b.first_row, b.num_rows});
                }
                if (g == 0) {
                    plan.cached_weight_bytes_[
                        static_cast<std::size_t>(b.vpp)] +=
                        4.0 * b.num_rows * p.shape.cols();
                }
                plan.blocks_.push_back(b);
            }
        }
    }

    // Single-writer check over the gradient copy: sort every VPP's
    // slices of a matrix by first row; any overlap means two VPPs
    // would write the same dW row.
    plan.grad_single_writer_.assign(num_matrices, 0);
    if (cache_gradients) {
        for (graph::ParamId m : matrices) {
            std::vector<RowSlice> all;
            for (const auto& per_vpp : plan.slices_[1][m])
                all.insert(all.end(), per_vpp.begin(), per_vpp.end());
            std::sort(all.begin(), all.end(),
                      [](const RowSlice& a, const RowSlice& b) {
                          return a.first_row < b.first_row;
                      });
            bool disjoint = true;
            for (std::size_t i = 1; i < all.size(); ++i)
                if (all[i - 1].first_row + all[i - 1].num_rows >
                    all[i].first_row)
                    disjoint = false;
            plan.grad_single_writer_[m] = disjoint ? 1 : 0;
        }
    }
    return plan;
}

common::Result<DistributionPlan>
DistributionPlan::tryBuildAuto(const graph::Model& model,
                               const gpusim::DeviceSpec& spec,
                               const VppsOptions& opts, int rpw)
{
    struct Attempt
    {
        int ctas;
        bool grads;
    };
    const Attempt attempts[] = {
        {2, true}, {1, true}, {2, false}, {1, false}};
    for (const auto& a : attempts) {
        if (opts.ctas_per_sm != 0 && opts.ctas_per_sm != a.ctas)
            continue;
        if (!opts.cache_gradients && a.grads)
            continue;
        auto plan = tryBuild(model, spec, opts, rpw, a.ctas, a.grads);
        if (plan)
            return std::move(*plan);
    }
    if (model.weightMatrices().empty())
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            "model has no weight matrices to cache");
    return common::Status::failure(
        common::ErrorCode::OutOfMemory,
        common::detail::concat(
            "weight matrices do not fit in the register file even "
            "with one CTA per SM and uncached gradients (",
            model.totalWeightMatrixBytes() / (1024.0 * 1024.0),
            " MB of weights, rpw ", rpw, ")"));
}

DistributionPlan
DistributionPlan::buildAuto(const graph::Model& model,
                            const gpusim::DeviceSpec& spec,
                            const VppsOptions& opts, int rpw)
{
    auto plan = tryBuildAuto(model, spec, opts, rpw);
    if (!plan.ok())
        common::panic("DistributionPlan::buildAuto: ",
                      plan.status().toString(),
                      " (use tryBuildAuto for untrusted models)");
    return std::move(plan).value();
}

int
DistributionPlan::maxRpw(const graph::Model& model,
                         const gpusim::DeviceSpec& spec,
                         const VppsOptions& opts)
{
    int best = 0;
    for (int rpw = 1; rpw <= 64; ++rpw) {
        bool any = false;
        for (int ctas : {2, 1}) {
            if (opts.ctas_per_sm != 0 && opts.ctas_per_sm != ctas)
                continue;
            for (bool grads : {true, false}) {
                if (!opts.cache_gradients && grads)
                    continue;
                if (tryBuild(model, spec, opts, rpw, ctas, grads))
                    any = true;
            }
        }
        if (!any)
            break;
        best = rpw;
    }
    return best;
}

std::uint32_t
DistributionPlan::partitionSizeElems() const
{
    return static_cast<std::uint32_t>(cta_width_) *
           static_cast<std::uint32_t>(regs_per_partition_);
}

const std::vector<RowSlice>&
DistributionPlan::slices(int vpp, graph::ParamId m, bool gradient) const
{
    return slices_[gradient ? 1 : 0][m][static_cast<std::size_t>(vpp)];
}

const std::vector<int>&
DistributionPlan::vppsOf(graph::ParamId m, bool gradient) const
{
    return vpps_of_[gradient ? 1 : 0][m];
}

std::uint32_t
DistributionPlan::rowsOn(int vpp, graph::ParamId m, bool gradient) const
{
    std::uint32_t rows = 0;
    for (const auto& s : slices(vpp, m, gradient))
        rows += s.num_rows;
    return rows;
}

double
DistributionPlan::cachedWeightBytes(int vpp) const
{
    return cached_weight_bytes_[static_cast<std::size_t>(vpp)];
}

double
DistributionPlan::totalCachedBytes() const
{
    double total = 0.0;
    for (double b : cached_weight_bytes_)
        total += b;
    return grads_cached_ ? 2.0 * total : total;
}

double
DistributionPlan::slotUtilization() const
{
    return total_slots_ == 0
               ? 0.0
               : static_cast<double>(used_slots_) /
                     static_cast<double>(total_slots_);
}

} // namespace vpps
