/**
 * @file
 * The PowerVM / AIX experiment (paper §V.B, Fig. 6).
 *
 * The paper's Fig. 1 contrasts two kinds of hypervisor. KVM is a
 * process-VM hypervisor: each guest VM is a host process whose guest
 * memory is anonymous memory the process madvise()s as MERGEABLE, the
 * process has private overhead memory of its own ("the pages allocated
 * to the guest VM process but not used for guest memory", attributed to
 * the VM itself in Fig. 2), and the KSM scanner finds sharing
 * asynchronously (core/scenario.hh). PowerVM is a system-VM hypervisor:
 * there is no VM process layer, and TPS is performed by the platform
 * firmware ("PowerVM has a TPS feature and shares identical pages
 * unless the guest VMs are configured to allocate dedicated physical
 * memory"). Both run on the one hv::Hypervisor: this scenario creates
 * its VMs without overhead memory and models the firmware TPS as the
 * run-to-completion whole-memory merge collapseIdenticalPages().
 *
 * The paper measures total physical memory of three 3.5 GB AIX guests
 * running WAS+DayTrader, just after WAS startup and again after page
 * sharing completes, with and without preloaded classes.
 *
 * The measurement tool "cannot obtain a breakdown ... at the same level
 * of detail in AIX as in Linux", so — like the paper — this scenario
 * reports only totals from the hypervisor's monitoring.
 */

#ifndef JTPS_CORE_POWER_SCENARIO_HH
#define JTPS_CORE_POWER_SCENARIO_HH

#include <memory>
#include <vector>

#include "base/stats.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "jvm/java_vm.hh"
#include "jvm/shared_class_cache.hh"
#include "workload/client_driver.hh"
#include "workload/workload_spec.hh"

namespace jtps::core
{

/** Configuration of the POWER-platform experiment. */
struct PowerScenarioConfig
{
    /** The PS701 (POWER7) blade. */
    hv::HostConfig host = {.ramBytes = 128ULL * 1024 * MiB,
                           .reserveBytes = 512 * MiB};
    guest::KernelConfig kernel = {
        "AIX 6.1 TL6",
        30 * MiB,  // kernel text (identical across guests)
        16 * MiB,  // kernel data
        40 * MiB,  // "slab" (kernel heap)
        50 * MiB,  // base-image file cache (identical)
        80 * MiB,  // per-VM file cache
    };
    /** The paper's knob: preload classes via a copied cache file. */
    bool preloadClasses = false;
    /** Warm-up epochs before measuring (loads lazy classes / JIT). */
    std::uint32_t warmEpochs = 10;
};

/** Result of one PowerVM measurement (one pair of bars in Fig. 6). */
struct PowerResult
{
    Bytes usageBeforeSharing = 0; //!< just after starting WAS
    Bytes usageAfterSharing = 0;  //!< after TPS finishes
    Bytes
    saving() const
    {
        return usageBeforeSharing - usageAfterSharing;
    }
};

/**
 * Build and measure the PowerVM experiment.
 */
class PowerScenario
{
  public:
    explicit PowerScenario(const PowerScenarioConfig &cfg);
    ~PowerScenario();

    /** Boot guests and WAS, run warm-up load. */
    void build();

    /** Measure before/after TPS. */
    PowerResult measure();

    hv::Hypervisor &hv() { return *hv_; }
    StatSet &stats() { return stats_; }

  private:
    PowerScenarioConfig cfg_;
    StatSet stats_;
    workload::HostDisk disk_;
    std::unique_ptr<hv::Hypervisor> hv_;
    std::unique_ptr<jvm::ClassSet> classes_;
    std::unique_ptr<jvm::SharedClassCache> cache_;
    std::vector<std::unique_ptr<guest::GuestOs>> guests_;
    std::vector<std::unique_ptr<jvm::JavaVm>> jvms_;
    std::vector<std::unique_ptr<workload::ClientDriver>> drivers_;
    workload::WorkloadSpec spec_;
};

} // namespace jtps::core

#endif // JTPS_CORE_POWER_SCENARIO_HH
