#include "analysis/wss_estimator.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jtps::analysis
{

WssEstimator::WssEstimator(hv::Hypervisor &hv, const WssConfig &cfg,
                           StatSet &stats)
    : hv_(hv), cfg_(cfg), stats_(stats)
{
    jtps_assert(hv_.pmlEnabled());
    jtps_assert(cfg_.windows >= 1);
    stats_.counter("wss.samples");
}

WssEstimator::VmWindowState &
WssEstimator::vmState(VmId vm)
{
    if (vm >= vms_.size())
        vms_.resize(
            std::max<std::size_t>(hv_.vmCount(), vm + std::size_t{1}));
    VmWindowState &s = vms_[vm];
    if (s.deltas.empty())
        s.deltas.assign(cfg_.windows, 0);
    return s;
}

void
WssEstimator::sample()
{
    const std::size_t nvms = hv_.vmCount();
    std::uint64_t total = 0;
    for (VmId vm = 0; vm < nvms; ++vm) {
        VmWindowState &s = vmState(vm);
        const std::uint64_t appends = hv_.vm(vm).pmlAppendsTotal;
        const std::uint64_t delta = appends - s.lastAppends;
        s.lastAppends = appends;
        if (samples_ > 0 || delta > 0) {
            // The first window after construction usually contains
            // boot-time history (the cumulative counter starts at VM
            // creation); it still enters the window ring — max() over
            // windows ages it out, and under-estimating early would
            // be the unsafe direction for a balloon governor.
            s.deltas[s.nextSlot] = delta;
            s.nextSlot = (s.nextSlot + 1) % cfg_.windows;
        }
        s.estimate = *std::max_element(s.deltas.begin(), s.deltas.end());
        total += s.estimate;
        hv_.pmlResetRing(vm);
    }
    ++samples_;
    stats_.inc("wss.samples");
    stats_.set("wss.total_pages", total);
}

void
WssEstimator::attach(sim::EventQueue &queue)
{
    constexpr Tick windowMs = 2000; // sampling window length
    queue.schedulePeriodic(windowMs, [this]() {
        sample();
        return true;
    });
}

std::uint64_t
WssEstimator::wssPages(VmId vm) const
{
    if (vm >= vms_.size())
        return 0;
    return vms_[vm].estimate;
}

std::uint64_t
WssEstimator::totalWssPages() const
{
    std::uint64_t total = 0;
    for (const VmWindowState &s : vms_)
        total += s.estimate;
    return total;
}

} // namespace jtps::analysis
