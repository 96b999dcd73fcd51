/**
 * @file
 * Working-set-size estimation from the hypervisor's PML rings.
 *
 * Each VM's Page-Modification-Log ring records every guest page's
 * first write per drain cycle (hv::HostConfig::pmlRingSlots). The
 * estimator is the rings' only drainer: every window it reads the
 * growth of hv::Vm::pmlAppendsTotal, which counts the distinct pages
 * the guest dirtied in the window — a write working set, and the
 * signal VMware-style sampling estimators approximate by probing
 * random pages — and then resets each ring, so the next window counts
 * each page once again. Reading the cumulative counter costs nothing
 * on the guest's write path beyond the logging the rings already do.
 *
 * The estimate is a *lower bound* in two ways: read-only working set
 * is invisible to a dirty log, and a ring that fills inside a window
 * drops the rest of the window's dirtied pages (`hv.pml_overflows`;
 * the dropped count is not recoverable per VM). Both make a balloon
 * governor built on it conservative in the safe direction only if a
 * slack margin is kept — see core::BalloonGovernor.
 */

#ifndef JTPS_ANALYSIS_WSS_ESTIMATOR_HH
#define JTPS_ANALYSIS_WSS_ESTIMATOR_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "hv/hypervisor.hh"
#include "sim/event_queue.hh"

namespace jtps::analysis
{

/** Tuning for the windowed estimator. */
struct WssConfig
{
    /**
     * Windows the per-VM estimate is the maximum over. >1 keeps the
     * estimate from collapsing on one quiet window, which would make
     * a governor inflate a balloon straight into the working set the
     * next busy window touches again.
     */
    std::uint32_t windows = 4;
};

/**
 * Windowed per-VM working-set estimator. sample() it every window
 * (attach() wires that to the event queue at a fixed 2 s period);
 * each sample drains every ring.
 */
class WssEstimator
{
  public:
    WssEstimator(hv::Hypervisor &hv, const WssConfig &cfg,
                 StatSet &stats);

    /** Take one window sample over all VMs and reset their rings. */
    void sample();

    /** Attach the periodic sampler to @p queue. */
    void attach(sim::EventQueue &queue);

    /** Current estimate for @p vm in pages (0 before two samples). */
    std::uint64_t wssPages(VmId vm) const;

    /** Sum of all VMs' estimates in pages. */
    std::uint64_t totalWssPages() const;

    /** Windows sampled so far. */
    std::uint64_t samples() const { return samples_; }

    const WssConfig &config() const { return cfg_; }

  private:
    struct VmWindowState
    {
        std::uint64_t lastAppends = 0;
        /** Ring of the last cfg_.windows window deltas. */
        std::vector<std::uint64_t> deltas;
        std::size_t nextSlot = 0;
        std::uint64_t estimate = 0;
    };

    VmWindowState &vmState(VmId vm);

    hv::Hypervisor &hv_;
    WssConfig cfg_;
    StatSet &stats_;
    std::uint64_t samples_ = 0;
    std::vector<VmWindowState> vms_;
};

} // namespace jtps::analysis

#endif // JTPS_ANALYSIS_WSS_ESTIMATOR_HH
