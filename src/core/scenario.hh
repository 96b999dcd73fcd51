/**
 * @file
 * Scenario orchestration: the paper's experimental setup as a public
 * API.
 *
 * A Scenario assembles the full stack — host, KVM hypervisor, KSM
 * scanner, guest VMs with booted kernels and daemons, one Java
 * application server per guest, closed-loop client drivers — and runs
 * the paper's measurement protocol:
 *
 *   1. startup: guests boot, WAS starts, startup classes load
 *      (through a copied shared class cache when class sharing is on);
 *   2. warm-up: KSM scans aggressively (pages_to_scan = 10,000, ~25%
 *      CPU) while DayTrader-style load warms the JVMs — the paper's
 *      "first three minutes";
 *   3. steady state: KSM throttled to 1,000 pages (~2% CPU) while the
 *      client drivers run; measurements are taken at the end.
 *
 * Class-sharing deployment follows §IV.C: the cache is populated once
 * per middleware (on the base image) and the same file is copied to
 * every VM — or, for the ablation, repopulated independently in each VM
 * (same classes, different layout, no cross-VM sharing).
 */

#ifndef JTPS_CORE_SCENARIO_HH
#define JTPS_CORE_SCENARIO_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/accounting.hh"
#include "analysis/forensics.hh"
#include "analysis/report.hh"
#include "analysis/sharing_monitor.hh"
#include "analysis/wss_estimator.hh"
#include "core/balloon_governor.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "jvm/java_vm.hh"
#include "jvm/shared_class_cache.hh"
#include "ksm/ksm_scanner.hh"
#include "sim/event_queue.hh"
#include "workload/client_driver.hh"
#include "workload/workload_spec.hh"

namespace jtps::core
{

/** Scenario-wide configuration. */
struct ScenarioConfig
{
    hv::HostConfig host;               //!< Table I (6 GB RAM default)
    guest::KernelConfig kernel;        //!< guest kernel footprint
    ksm::KsmConfig ksm;                //!< steady-state tuning
    std::uint32_t ksmWarmupPagesToScan = 10000; //!< paper's warm-up rate

    Tick warmupMs = 60'000;  //!< aggressive-KSM warm-up phase
    Tick steadyMs = 120'000; //!< measured steady-state phase
    Tick epochMs = 2'000;    //!< driver epoch length

    std::uint64_t seed = 42;

    /**
     * Host identity stamped into this scenario's run documents: the
     * StatSet scope and the trace stream's scope label. Multi-host
     * runs (the cluster layer) set one label per host so merged
     * registries and traces stay distinguishable; "" (the default)
     * keeps single-host documents byte-identical to the unlabeled
     * format.
     */
    std::string hostLabel;

    /** Enable the paper's technique (class sharing + copied cache). */
    bool enableClassSharing = false;
    /** What the cache stores (middleware-only is the paper's setup). */
    jvm::CacheScope cacheScope = jvm::CacheScope::MiddlewareOnly;
    /**
     * true  — populate once, copy the file to every VM (the paper);
     * false — populate independently inside each VM (ablation: same
     *         classes, different layout, no cross-VM page equality).
     */
    bool copyCacheToAllVms = true;
    /**
     * AOT section budget added to each populated cache (0 disables).
     * Workloads opt in via WorkloadSpec::useAotCache.
     */
    Bytes aotCacheBytes = 0;
    /** Methods eligible for AOT storage (in hot order). */
    std::uint32_t aotMethodCount = 1500;

    /**
     * Guests run with transparent huge pages on anonymous process
     * memory (defeats KSM on those regions; the THP ablation measures
     * the interaction with the paper's technique).
     */
    bool guestThp = false;

    /**
     * Old spelling of host.pmlRingSlots (hv::HostConfig::pmlRingSlots):
     * non-zero overrides it. Kept only because the end-to-end benchmark
     * (perfbench/bench_run.cc) still sets it; everything else sets
     * host.pmlRingSlots.
     */
    std::uint32_t pmlRingSlots = 0;

    /**
     * Replace the fixed, hand-sized balloons of the paper's §VI
     * comparison with the adaptive core::BalloonGovernor: every 2 s
     * each guest's balloon is resized to its PML-estimated working
     * set plus the governor's slack. Requires PML rings
     * (host.pmlRingSlots > 0): the analysis::WssEstimator, which a
     * host with rings runs every 2 s window, reads them.
     */
    bool adaptiveBalloon = false;
};

/**
 * A complete virtualized-host experiment.
 */
class Scenario
{
  public:
    /**
     * @param cfg Scenario configuration.
     * @param per_vm_workloads One workload per guest VM (all four
     *        paper workloads can be mixed, as in Fig. 3(b)).
     */
    Scenario(const ScenarioConfig &cfg,
             std::vector<workload::WorkloadSpec> per_vm_workloads);
    ~Scenario();

    Scenario(const Scenario &) = delete;
    Scenario &operator=(const Scenario &) = delete;

    /** Create the host, guests, JVMs and drivers; boot everything. */
    void build();

    /** Run warm-up + steady state (build() must have run). */
    void run();

    /** Run only @p ms more simulated time (for custom protocols). */
    void runFor(Tick ms);

    // ------------------------------------------------------------------
    // VM lifecycle (live migration support, cluster layer)
    // ------------------------------------------------------------------

    /**
     * Retire VM @p i mid-run: every page it owns — guest memory and
     * VM-process overhead — is released (hv::Hypervisor::releaseVmMemory)
     * and its slot is emptied, destroying the guest, JVM and driver.
     * VM ids and names stay dense (the hypervisor keeps the memoryless
     * Vm); vmActive(i) turns false, the VM's later epoch rows read as
     * all-zero, and guest(i), javaVm(i), driver(i) and workloadSpec(i)
     * panic. Call between runFor() slices (not from inside an event).
     * The epoch schedule keeps its phase: retiring or adding a VM off
     * the epoch grid does not restart it. This is the source half of a
     * migration or a poweroff.
     */
    void retireVm(std::size_t i);

    /**
     * Build, boot and start driving a new VM mid-run (the destination
     * half of a migration): full guest + JVM + driver construction,
     * class-set/cache wiring included, at the next free VM id. Call
     * between runFor() slices. @return the new VM's index.
     */
    std::size_t addVm(const workload::WorkloadSpec &spec);

    /** False once retireVm(i) emptied the slot. */
    bool vmActive(std::size_t i) const { return slots_[i] != nullptr; }

    /** VMs not yet retired. */
    std::size_t activeVmCount() const;

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /** Capture the three-layer translation walk over the live
     *  guests (a retired VM has none). */
    analysis::Snapshot snapshot();

    /** Owner-oriented accounting of a fresh snapshot. */
    analysis::OwnerAccounting account();

    /** Names of all VMs in id order. */
    std::vector<std::string> vmNames() const;

    /** Rows identifying each live guest's Java process (for
     *  reports). */
    std::vector<analysis::JavaProcRow> javaRows() const;

    /**
     * Aggregate achieved throughput (requests/s summed over VMs),
     * averaged over the most recent @p epochs epochs.
     */
    double aggregateThroughput(std::size_t epochs = 5) const;

    /** Per-VM achieved throughput averaged over recent epochs. */
    std::vector<double> perVmThroughput(std::size_t epochs = 5) const;

    /** Per-VM average response time over recent epochs. */
    std::vector<double> perVmResponseMs(std::size_t epochs = 5) const;

    /** One row per completed epoch, one EpochResult per VM (retired
     *  VMs read all-zero). The cluster layer consumes new rows after
     *  each round for its fleet-level SLA accounting. */
    const std::vector<std::vector<workload::ClientDriver::EpochResult>> &
    epochHistory() const
    {
        return epoch_history_;
    }

    /** The workload spec live VM @p i was built from. */
    const workload::WorkloadSpec &
    workloadSpec(std::size_t i) const
    {
        return slot(i).spec;
    }

    // ------------------------------------------------------------------
    // Component access
    // ------------------------------------------------------------------

    hv::Hypervisor &hv() { return *hv_; }
    const hv::Hypervisor &hv() const { return *hv_; }
    ksm::KsmScanner &ksm() { return *ksm_; }
    /** Live VM @p i's parts (a retired VM has none: panics). */
    guest::GuestOs &guest(std::size_t i) { return *slot(i).guest; }
    jvm::JavaVm &javaVm(std::size_t i) { return *slot(i).jvm; }
    workload::ClientDriver &driver(std::size_t i) { return *slot(i).driver; }
    /** Every VM slot ever filled, retired ones included. */
    std::size_t vmCount() const { return slots_.size(); }
    StatSet &stats() { return stats_; }
    sim::EventQueue &queue() { return queue_; }
    workload::HostDisk &disk() { return disk_; }

    /**
     * The scenario's trace sink. Wired into the hypervisor (and from
     * there the swap device, scanner and guest models) by build(), but
     * disabled until trace().enable() is called, so untraced runs stay
     * at full speed.
     */
    TraceBuffer &trace() { return trace_; }
    const TraceBuffer &trace() const { return trace_; }

    /**
     * Attach a SharingMonitor sampling every @p period_ms of simulated
     * time (call after build(), before run()). Idempotent: a second
     * call returns the existing monitor without rescheduling.
     */
    analysis::SharingMonitor &attachSharingMonitor(Tick period_ms = 2000);

    /** The attached monitor, or nullptr if none was requested. */
    analysis::SharingMonitor *monitor() { return monitor_.get(); }
    const analysis::SharingMonitor *monitor() const
    {
        return monitor_.get();
    }

    /** The working-set estimator (nullptr unless the host has PML
     *  rings and the run has started). */
    analysis::WssEstimator *wss() { return wss_.get(); }

    /** The balloon governor (nullptr unless adaptiveBalloon). */
    BalloonGovernor *balloonGovernor() { return governor_.get(); }

  private:
    /**
     * One VM's parts. Declared so that destruction runs driver, JVM,
     * guest: each refers to the ones declared before it (the driver to
     * the spec and JVM, the JVM to the guest). Heap-allocated, so the
     * spec's address survives addVm() growing slots_.
     */
    struct VmSlot
    {
        explicit VmSlot(workload::WorkloadSpec s) : spec(std::move(s)) {}

        workload::WorkloadSpec spec;
        std::unique_ptr<guest::GuestOs> guest;
        std::unique_ptr<jvm::JavaVm> jvm;
        std::unique_ptr<workload::ClientDriver> driver;
    };

    /** Live VM @p i's slot (panics on a retired one). */
    const VmSlot &slot(std::size_t i) const;
    /** Live guests in VM-id order. */
    std::vector<guest::GuestOs *> liveGuests() const;
    /** Per-VM average of @p field over the last @p epochs epochs. */
    std::vector<double>
    perVmAverage(std::size_t epochs,
                 double workload::ClientDriver::EpochResult::*field) const;

    void scheduleEpochs();
    const jvm::SharedClassCache *prepareVmArtifacts(std::size_t i);
    void buildVm(std::size_t i);

    ScenarioConfig cfg_;

    StatSet stats_;
    TraceBuffer trace_;
    sim::EventQueue queue_;
    workload::HostDisk disk_;
    std::unique_ptr<analysis::SharingMonitor> monitor_;

    std::unique_ptr<hv::Hypervisor> hv_;
    std::unique_ptr<ksm::KsmScanner> ksm_;
    std::unique_ptr<analysis::WssEstimator> wss_;
    std::unique_ptr<BalloonGovernor> governor_;
    /** One slot per VM id; retireVm() empties it for good. */
    std::vector<std::unique_ptr<VmSlot>> slots_;

    /** One class set per distinct program. */
    std::map<std::string, std::unique_ptr<jvm::ClassSet>> class_sets_;
    /** Cache per (middleware cache name [, vm]) depending on copy mode. */
    std::vector<std::unique_ptr<jvm::SharedClassCache>> caches_;
    /** Copy-mode cache lookup (one population per cache name). */
    std::map<std::string, const jvm::SharedClassCache *> cache_by_name_;

    /** Per-epoch per-VM results, appended as epochs run. */
    std::vector<std::vector<workload::ClientDriver::EpochResult>>
        epoch_history_;
    bool built_ = false;
    bool epochs_scheduled_ = false;
};

} // namespace jtps::core

#endif // JTPS_CORE_SCENARIO_HH
