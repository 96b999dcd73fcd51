/**
 * @file
 * Fleet-scale orchestration: many independent hosts, one cluster.
 *
 * A Cluster builds H hosts — each a self-contained core::Scenario with
 * its own hypervisor, KSM scanner, stat registry and RNG streams — and
 * places a fleet of VM specs onto them through a pluggable placement
 * policy (round-robin, random, or the sharing-aware
 * core::PlacementPlanner). Because scenarios share no mutable state
 * (DESIGN.md invariant 5), the cluster runs every host's next round of
 * simulated time concurrently on a base::ThreadPool and then reduces
 * the per-host results *serially in host order*: every cluster
 * counter, gauge, migration decision and JSON document is
 * byte-identical at any --fleet-threads value.
 *
 * On top of the per-host simulations the cluster models two
 * fleet-level concerns the paper's single-host experiments motivate
 * but cannot express:
 *
 *   - a diurnal demand curve (a million-user service breathing over a
 *     day) routed through the existing ClientDriver epoch results:
 *     each round every active VM owes its share of the current offered
 *     load, and cluster.sla_met/missed_epochs account how the fleet
 *     tracked it;
 *
 *   - pressure-driven live migration: when a host's major-fault rate
 *     crosses a threshold, the VM with the *least* estimated
 *     intra-host sharing (SharingFingerprint overlap — evicting it
 *     forfeits the least merged memory) moves to the least-loaded
 *     host. Downtime is modeled as pre-copy rounds whose dirty rate
 *     comes from the source VM's PML ring append counts.
 */

#ifndef JTPS_CLUSTER_CLUSTER_HH
#define JTPS_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/json_writer.hh"
#include "base/stats.hh"
#include "base/thread_pool.hh"
#include "core/placement.hh"
#include "core/scenario.hh"
#include "workload/workload_spec.hh"

namespace jtps::cluster
{

/** How VM specs are assigned to hosts at build time. */
enum class PlacementPolicy
{
    RoundRobin, //!< spec l lands on host l % H (the naive default)
    Random,     //!< seeded shuffle, then round-robin (anti-affinity)
    DedupAware, //!< core::PlacementPlanner greedy sharing packer
};

/** Stable name for reports and JSON ("rr", "random", "dedup"). */
const char *placementPolicyName(PlacementPolicy policy);

/** Cluster-wide configuration. */
struct ClusterConfig
{
    /** Host count H. Fleet size must satisfy H <= VMs <= H * slots. */
    std::size_t hosts = 4;
    /**
     * VM slot capacity per host. Initial placement packs
     * ceil(VMs / H) per host regardless; capacity beyond that is the
     * headroom live migration needs to find a destination.
     */
    std::size_t slotsPerHost = 4;
    /**
     * Per-host scenario template. seed and hostLabel are overridden
     * per host (seed = hash3(cluster seed, "host", h), label =
     * "host<h>"); warmupMs is reinterpreted as the cluster-wide
     * aggressive-KSM warm-up and must be a multiple of roundMs.
     */
    core::ScenarioConfig host;

    PlacementPolicy placement = PlacementPolicy::RoundRobin;

    /**
     * Worker threads for the host-parallel round fan-out. A pure
     * machine-sizing knob: hosts are reduced serially in host order,
     * so results are byte-identical at any value. <= 1 runs serially.
     */
    unsigned fleetThreads = 1;

    /** Cluster seed (host seeds and random placement derive from it). */
    std::uint64_t seed = 42;

    /**
     * Round length: the slice of simulated time every host advances
     * between cluster-level reductions (SLA accounting, migration
     * decisions). Must be a positive multiple of host.epochMs.
     */
    Tick roundMs = 8'000;

    // --- diurnal demand model -----------------------------------------
    /** Users at the daily peak (the paper-scale fleet serves ~1M). */
    double peakUsers = 1'000'000.0;
    /** Night-time demand floor as a fraction of peak. */
    double troughFraction = 0.35;
    /** Period of the demand curve (a compressed day by default). */
    Tick dayMs = 240'000;

    // --- pressure-driven live migration -------------------------------
    /** Master switch for the migration controller. */
    bool migrationEnabled = false;
    /**
     * Source trigger: a host whose per-active-VM major-fault rate
     * (faults/s averaged over the last round) exceeds this is
     * overcommitted enough to shed a VM.
     */
    double faultsPerSecPerVmThreshold = 4.0;
};

/**
 * Modeled pre-copy schedule for one migration (pure function of the
 * inputs; see estimatePrecopy()).
 */
struct PrecopyEstimate
{
    unsigned rounds = 0;            //!< pre-copy iterations performed
    std::uint64_t pagesCopied = 0;  //!< pages pushed while running
    std::uint64_t finalPages = 0;   //!< pages copied during the pause
    double downtimeMs = 0.0;        //!< pause length (excl. switchover)
};

/**
 * Model a pre-copy live migration: each round re-sends the pages
 * dirtied while the previous round was on the wire (@p dirty_pages_per_ms
 * of them per millisecond of copy time), until the residual set fits
 * @p stop_pages, @p max_rounds is exhausted, or the dirty rate
 * outruns the link (@p link_pages_per_ms) and iterating cannot help.
 * The remaining pages are copied with the VM paused — that is the
 * downtime. A zero dirty rate (idle VM, or no PML telemetry and
 * assumed clean) converges in one round.
 */
PrecopyEstimate estimatePrecopy(std::uint64_t resident_pages,
                                double dirty_pages_per_ms,
                                double link_pages_per_ms,
                                std::uint64_t stop_pages,
                                unsigned max_rounds);

/**
 * Pick the migration victim among @p members (host-local VM indices):
 * the member whose summed fingerprint overlap with the *other* members
 * is smallest — moving it forfeits the least intra-host sharing. Ties
 * break to the lowest index. @p fingerprints is parallel to
 * @p members. @return the chosen entry of @p members.
 */
std::size_t chooseMigrationVictim(
    const std::vector<core::SharingFingerprint> &fingerprints,
    const std::vector<std::size_t> &members);

/**
 * A fleet of hosts running one shared workload population.
 */
class Cluster
{
  public:
    /** Where logical VM @p l currently lives. */
    struct VmLocation
    {
        std::size_t host = 0;  //!< current host
        std::size_t index = 0; //!< host-local VM index (dense, stable)
        std::uint64_t migrations = 0; //!< times this VM has moved
    };

    /**
     * @param cfg Cluster configuration.
     * @param specs The fleet's VM specs ("logical VMs", placed onto
     *        hosts by cfg.placement).
     */
    Cluster(const ClusterConfig &cfg,
            std::vector<workload::WorkloadSpec> specs);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Plan placement and build every host (per-host Scenario::build). */
    void build();

    /**
     * Advance the whole fleet by @p total_ms of simulated time in
     * roundMs slices: hosts run concurrently, reductions and migration
     * decisions run serially between rounds. Callable repeatedly;
     * @p total_ms must be a multiple of roundMs.
     */
    void run(Tick total_ms);

    /** Offered users at simulated time @p t (the diurnal curve). */
    double usersAt(Tick t) const;

    /** Per-host VM index lists chosen at build() (logical VM ids). */
    const std::vector<std::vector<std::size_t>> &placement() const
    {
        return placement_;
    }

    /** Current location of every logical VM. */
    const std::vector<VmLocation> &vmLocations() const
    {
        return vm_locations_;
    }

    std::size_t hostCount() const { return hosts_.size(); }
    core::Scenario &host(std::size_t h) { return *hosts_[h]; }
    const core::Scenario &host(std::size_t h) const { return *hosts_[h]; }

    /** Cluster-level registry (cluster.* and migration.* counters). */
    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    /** Simulated time the fleet has advanced to. */
    Tick now() const { return now_; }

    /** Fleet throughput: sum of per-host recent aggregate throughput. */
    double aggregateThroughput(std::size_t epochs = 5) const;

    /**
     * Emit the cluster document's body into an *open* JSON object:
     * "stats" (the cluster registry, schema of docs/METRICS.md) and
     * "hosts" (one object per host: label, active VMs, KSM state and
     * the host's own registry). Serialized host-by-host in host order,
     * so the document is byte-identical at any fleetThreads.
     */
    void writeJsonFields(JsonWriter &w) const;

  private:
    void planPlacement();
    void reduceRound();
    void maybeMigrate();
    double hostFaultRate(std::size_t h) const;

    ClusterConfig cfg_;
    std::vector<workload::WorkloadSpec> specs_;
    std::vector<std::vector<std::size_t>> placement_;
    std::vector<std::unique_ptr<core::Scenario>> hosts_;
    std::vector<VmLocation> vm_locations_;
    /** host -> host-local index -> logical VM id. */
    std::vector<std::vector<std::size_t>> host_logical_;
    /** Epoch-history rows already reduced, per host. */
    std::vector<std::size_t> consumed_epochs_;
    /** Major faults accumulated by each host over the last round. */
    std::vector<std::uint64_t> round_faults_;
    /** PML append totals per host-local VM at the last round boundary. */
    std::vector<std::vector<std::uint64_t>> prev_pml_appends_;

    StatSet stats_;
    std::unique_ptr<ThreadPool> pool_;
    Tick now_ = 0;
    bool built_ = false;
};

} // namespace jtps::cluster

#endif // JTPS_CLUSTER_CLUSTER_HH
