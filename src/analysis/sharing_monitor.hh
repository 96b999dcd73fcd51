/**
 * @file
 * Time-series sharing monitor.
 *
 * The paper reports end-of-run numbers ("we measured the memory usage
 * after 90 minutes"), but the protocol only makes sense because KSM
 * *converges*: savings ramp during the aggressive warm-up scan and
 * plateau under the throttled steady scan. This monitor samples the
 * host periodically so that convergence — and any later erosion under
 * memory pressure — is visible as a curve rather than inferred.
 */

#ifndef JTPS_ANALYSIS_SHARING_MONITOR_HH
#define JTPS_ANALYSIS_SHARING_MONITOR_HH

#include <string>
#include <vector>

#include "base/types.hh"
#include "base/units.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"
#include "sim/event_queue.hh"

namespace jtps::analysis
{

/** One sample of host sharing state. */
struct SharingSample
{
    Tick tick = 0;
    std::uint64_t pagesShared = 0;  //!< stable KSM frames
    std::uint64_t pagesSharing = 0; //!< deduplicated guest pages
    Bytes residentBytes = 0;
    std::uint64_t majorFaults = 0;  //!< host-wide, cumulative
    std::uint64_t fullScans = 0;
};

/**
 * Samples the hypervisor + scanner on a fixed period.
 */
class SharingMonitor
{
  public:
    SharingMonitor(const hv::Hypervisor &hv,
                   const ksm::KsmScanner &scanner)
        : hv_(hv), scanner_(scanner)
    {
    }

    /** Take one sample now (also called by the periodic event). */
    void sample(Tick now);

    /** Attach periodic sampling every @p period_ms. */
    void attach(sim::EventQueue &queue, Tick period_ms);

    /** All samples in time order. */
    const std::vector<SharingSample> &samples() const { return samples_; }

    /** Render as an aligned table (one row per sample). */
    std::string renderTable() const;

    /** Render as CSV. */
    std::string renderCsv() const;

  private:
    const hv::Hypervisor &hv_;
    const ksm::KsmScanner &scanner_;
    std::vector<SharingSample> samples_;
};

} // namespace jtps::analysis

#endif // JTPS_ANALYSIS_SHARING_MONITOR_HH
