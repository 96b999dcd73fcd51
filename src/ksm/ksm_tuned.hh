/**
 * @file
 * ksmtuned — the KSM governor daemon.
 *
 * The paper tunes pages_to_scan by hand (10,000 during warm-up, 1,000
 * after). Production RHEL/KVM hosts of that era ran `ksmtuned`, which
 * does the same adaptively: it samples committed guest memory against
 * host RAM, *boosts* the scan rate while memory is tight and *decays*
 * it when there is slack, within [minPages, maxPages]. This model
 * implements that control loop so the manual schedule and the governed
 * one can be compared.
 */

#ifndef JTPS_KSM_KSM_TUNED_HH
#define JTPS_KSM_KSM_TUNED_HH

#include <cstdint>

#include "base/stats.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"
#include "sim/event_queue.hh"

namespace jtps::ksm
{

/** ksmtuned configuration (/etc/ksmtuned.conf). */
struct KsmTunedConfig
{
    Tick monitorIntervalMs = 10'000; //!< KSM_MONITOR_INTERVAL
    std::uint32_t boostPages = 3000; //!< KSM_NPAGES_BOOST
    std::int32_t decayPages = -500;  //!< KSM_NPAGES_DECAY
    std::uint32_t minPages = 640;    //!< KSM_NPAGES_MIN
    std::uint32_t maxPages = 12500;  //!< KSM_NPAGES_MAX
    /**
     * Fraction of host RAM that must stay free; committed memory above
     * (1 - threshold) turns the boost on (KSM_THRES_COEF).
     */
    double freeThreshold = 0.20;
};

/**
 * The governor: attach() it alongside the scanner and it retunes
 * pages_to_scan every monitor interval.
 */
class KsmTuned
{
  public:
    KsmTuned(hv::Hypervisor &hv, KsmScanner &scanner,
             const KsmTunedConfig &cfg, StatSet &stats);

    /** Run one control-loop step (also called by the periodic event). */
    void step();

    /** Attach the periodic control loop to @p queue. */
    void attach(sim::EventQueue &queue);

    /** Decisions taken so far (for tests/telemetry). */
    std::uint64_t boosts() const { return boosts_; }
    std::uint64_t decays() const { return decays_; }

  private:
    hv::Hypervisor &hv_;
    KsmScanner &scanner_;
    KsmTunedConfig cfg_;
    StatSet &stats_;
    std::uint64_t boosts_ = 0;
    std::uint64_t decays_ = 0;
};

} // namespace jtps::ksm

#endif // JTPS_KSM_KSM_TUNED_HH
