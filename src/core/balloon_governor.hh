/**
 * @file
 * Adaptive balloon governor driven by PML working-set estimates.
 *
 * The paper (§VI) notes KVM ships no balloon policy manager — "we
 * cannot use ballooning unless we install a separate manager" — so
 * its ballooning comparison uses fixed, hand-picked balloon sizes.
 * This is that missing manager: every 2 s interval it reads each
 * guest's estimated write working set (analysis::WssEstimator, which
 * drains the hypervisor's PML rings once per window and is their only
 * consumer besides migration pre-copy) and resizes the guest's
 * balloon toward
 *
 *     target = guestPages - wssPages - slackPages - extraSlack
 *
 * so a guest keeps its working set plus a slack margin and donates
 * the rest. The dirty log underestimates guests whose working set is
 * read-mostly (page cache), so a refault feedback term protects
 * them: a guest refaulting past refaultTolerance per interval grows
 * its extraSlack multiplicatively, and the slack decays additively
 * once the refaults stop. Inflation goes through
 * guest::GuestOs::balloonTake —
 * the guest reclaims clean page cache first, exactly the "guest
 * knows its own pages" advantage ballooning has over host paging —
 * and may saturate early, in which case the governor simply retries
 * at the next interval with a fresh estimate.
 *
 * A config struct and a step() control loop. The governor keeps no
 * guest list: its owner (core::Scenario) passes the live guests to
 * every step, every intervalMs of simulated time.
 */

#ifndef JTPS_CORE_BALLOON_GOVERNOR_HH
#define JTPS_CORE_BALLOON_GOVERNOR_HH

#include <cstdint>
#include <vector>

#include "analysis/wss_estimator.hh"
#include "base/stats.hh"
#include "guest/guest_os.hh"

namespace jtps::core
{

/** Governor tuning. */
struct BalloonGovernorConfig
{
    /**
     * Pages left to the guest on top of the estimated working set.
     * The estimate is a lower bound (read-only set and overflow
     * losses are invisible to a dirty log), so this margin is what
     * keeps an adaptive balloon from forcing guest-side reclaim of
     * pages that are actually live.
     */
    std::uint64_t slackPages = 8192;
    /**
     * Largest balloon *inflation* per step per guest, pages (0 = no
     * limit). Bounds the reclaim burst a sudden working-set drop can
     * trigger, like the stepped inflation real balloon managers use.
     * Deflation is never stepped — relief must be immediate.
     */
    std::uint64_t maxStepPages = 0;
    /**
     * Cache refaults (guest disk reads re-filling reclaimed page
     * cache) a guest may take per interval before the governor treats
     * it as thrashing. A dirty log cannot see the read-only working
     * set, so refaults are the signal that the balloon ate live
     * cache: past this tolerance the guest's slack is grown
     * multiplicatively and decayed slowly once the refaults stop
     * (AIMD, like TCP). 0 disables the feedback.
     */
    std::uint64_t refaultTolerance = 64;
};

/**
 * The per-host balloon manager: one step() resizes every given
 * guest's balloon toward its current target.
 */
class BalloonGovernor
{
  public:
    /** Control-loop period in simulated milliseconds. */
    static constexpr Tick intervalMs = 2000;

    BalloonGovernor(const analysis::WssEstimator &wss,
                    const BalloonGovernorConfig &cfg, StatSet &stats);

    /**
     * Run one control-loop step over @p guests, the host's live
     * guests in VM-id order. Per-VM state is keyed by VM id, which a
     * host never reuses, so a guest missing from a later step (retired)
     * leaves only its stale entry behind.
     */
    void step(const std::vector<guest::GuestOs *> &guests);

    /** Current balloon target of @p os in pages. */
    std::uint64_t targetPages(const guest::GuestOs &os) const;

    /** Current refault-feedback slack of VM @p vm in pages. */
    std::uint64_t extraSlackPages(VmId vm) const
    {
        return vm < vm_state_.size() ? vm_state_[vm].extraSlackPages : 0;
    }

  private:
    struct VmState
    {
        std::uint64_t lastCacheMisses = 0;
        std::uint64_t extraSlackPages = 0;
    };

    const analysis::WssEstimator &wss_;
    BalloonGovernorConfig cfg_;
    StatSet &stats_;
    /** Indexed by VmId; step() grows it to the largest id seen. */
    std::vector<VmState> vm_state_;
    /** balloon.wss_resizes: resize actions taken (inflations +
     *  deflations). */
    std::uint64_t &stat_resize_actions_;
    std::uint64_t &stat_backoffs_;
};

} // namespace jtps::core

#endif // JTPS_CORE_BALLOON_GOVERNOR_HH
