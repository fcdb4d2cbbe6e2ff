#include "gpusim/device_memory.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"

namespace gpusim {

const char*
memSpaceName(MemSpace space)
{
    switch (space) {
      case MemSpace::Weights: return "weights";
      case MemSpace::WeightGrads: return "weight-grads";
      case MemSpace::Params: return "params";
      case MemSpace::ParamGrads: return "param-grads";
      case MemSpace::Activations: return "activations";
      case MemSpace::ActGrads: return "act-grads";
      case MemSpace::Script: return "script";
      case MemSpace::Workspace: return "workspace";
      default: return "unknown";
    }
}

double
TrafficStats::totalLoadBytes() const
{
    return std::accumulate(load_bytes_.begin(), load_bytes_.end(), 0.0);
}

double
TrafficStats::totalStoreBytes() const
{
    return std::accumulate(store_bytes_.begin(), store_bytes_.end(), 0.0);
}

void
TrafficStats::reset()
{
    load_bytes_.fill(0.0);
    store_bytes_.fill(0.0);
    atomic_ops_ = 0.0;
}

void
TrafficStats::merge(const TrafficStats& other)
{
    for (std::size_t i = 0; i < kNumSpaces; ++i) {
        load_bytes_[i] += other.load_bytes_[i];
        store_bytes_[i] += other.store_bytes_[i];
    }
    atomic_ops_ += other.atomic_ops_;
}

DeviceMemory::DeviceMemory(std::size_t pool_floats)
    : capacity_(pool_floats)
{
    if (pool_floats == 0 || pool_floats > 0xFFFFFFFEull)
        common::fatal("DeviceMemory: pool size out of range: ", pool_floats);
    // Zero-on-demand: untouched pages read as zero and stay
    // uncommitted, so only the tensors a run touches cost host memory.
    pool_.reset(static_cast<float*>(std::calloc(pool_floats, sizeof(float))));
    if (!pool_)
        common::fatal("DeviceMemory: cannot reserve ", pool_floats,
                      " floats");
}

DeviceMemory::Offset
DeviceMemory::allocate(std::size_t n, MemSpace space)
{
    (void)space;
    if (frontier_ + n > capacity_) {
        common::fatal("DeviceMemory: pool exhausted (",
                      frontier_ + n, " > ", capacity_,
                      " floats) while allocating ", memSpaceName(space));
    }
    const Offset off = frontier_;
    frontier_ += static_cast<Offset>(n);
    if (zero_fill_)
        std::fill(pool_.get() + off, pool_.get() + frontier_, 0.0f);
    return off;
}

std::optional<DeviceMemory::Offset>
DeviceMemory::tryAllocate(std::size_t n, MemSpace space)
{
    if (frontier_ + n > capacity_)
        return std::nullopt;
    return allocate(n, space);
}

void
DeviceMemory::resetTo(Offset mark)
{
    if (mark > frontier_)
        common::panic("DeviceMemory::resetTo beyond frontier");
    frontier_ = mark;
}

float*
DeviceMemory::data(Offset off)
{
    if (off >= capacity_)
        common::panic("DeviceMemory::data: offset out of range");
    return pool_.get() + off;
}

const float*
DeviceMemory::data(Offset off) const
{
    if (off >= capacity_)
        common::panic("DeviceMemory::data: offset out of range");
    return pool_.get() + off;
}

} // namespace gpusim
