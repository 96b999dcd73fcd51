#include "core/balloon_governor.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jtps::core
{

BalloonGovernor::BalloonGovernor(const analysis::WssEstimator &wss,
                                 const BalloonGovernorConfig &cfg,
                                 StatSet &stats)
    : wss_(wss), cfg_(cfg), stats_(stats),
      stat_resize_actions_(stats.counter("balloon.wss_resizes")),
      stat_backoffs_(stats.counter("balloon.refault_backoffs"))
{
}

std::uint64_t
BalloonGovernor::targetPages(const guest::GuestOs &os) const
{
    const VmId vm = os.vmId();
    const std::uint64_t guest_pages = os.guestPages();
    const std::uint64_t keep =
        wss_.wssPages(vm) + cfg_.slackPages + extraSlackPages(vm);
    return guest_pages > keep ? guest_pages - keep : 0;
}

void
BalloonGovernor::step(const std::vector<guest::GuestOs *> &guests)
{
    // The estimator reports 0 for every VM until its second window
    // (one sample cannot bound a window's writes). Acting on that
    // would target guestPages - slack — ballooning essentially the
    // whole guest at the first interval. Sit the warm-up out.
    if (wss_.samples() < 2)
        return;
    std::uint64_t total_target = 0;
    std::uint64_t total_held = 0;
    for (guest::GuestOs *g : guests) {
        guest::GuestOs &os = *g;
        const VmId vm = os.vmId();
        if (vm >= vm_state_.size())
            vm_state_.resize(vm + 1);
        VmState &st = vm_state_[vm];

        // Refault feedback: the estimator cannot see reads, so a
        // guest re-reading reclaimed page cache from disk is the only
        // evidence the balloon bit into live memory. React AIMD-style
        // — double-ish the protected slack while it thrashes, creep
        // back down while it does not — so the loop hunts for the
        // largest balloon the guest tolerates instead of pinning the
        // guest at its write working set.
        const std::uint64_t misses = os.cacheMisses();
        const std::uint64_t delta = misses - st.lastCacheMisses;
        st.lastCacheMisses = misses;
        bool thrashing = false;
        if (cfg_.refaultTolerance > 0) {
            if (delta > cfg_.refaultTolerance) {
                thrashing = true;
                st.extraSlackPages = std::min(
                    os.guestPages(),
                    st.extraSlackPages * 4 + cfg_.slackPages);
                ++stat_backoffs_;
            } else if (st.extraSlackPages > 0) {
                // Decay far slower than growth so the loop parks near
                // the discovered ceiling instead of re-thrashing the
                // guest every few intervals.
                st.extraSlackPages -=
                    std::max<std::uint64_t>(st.extraSlackPages / 64, 1);
            }
        }

        const std::uint64_t target = targetPages(os);
        total_target += target;
        const std::uint64_t held = os.balloonHeldPages();
        if (target > held && !thrashing) {
            std::uint64_t want = target - held;
            if (cfg_.maxStepPages > 0)
                want = std::min(want, cfg_.maxStepPages);
            // May saturate below `want` when the guest has nothing
            // reclaimable left; the next step retries against a fresh
            // estimate.
            if (os.balloonTake(want) > 0)
                ++stat_resize_actions_;
        } else if (held > target) {
            // Deflation is never stepped: giving memory back to a
            // guest is free and safe, and a thrashing guest must not
            // wait maxStepPages-sized intervals for relief.
            os.balloonReturn(held - target);
            ++stat_resize_actions_;
        }
        total_held += os.balloonHeldPages();
    }
    stats_.set("balloon.target_pages", total_target);
    stats_.set("balloon.held_pages", total_held);
}

} // namespace jtps::core
