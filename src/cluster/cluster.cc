#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>

#include "analysis/json_export.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace jtps::cluster
{

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
    case PlacementPolicy::RoundRobin:
        return "rr";
    case PlacementPolicy::Random:
        return "random";
    case PlacementPolicy::DedupAware:
        return "dedup";
    }
    return "?";
}

PrecopyEstimate
estimatePrecopy(std::uint64_t resident_pages, double dirty_pages_per_ms,
                double link_pages_per_ms, std::uint64_t stop_pages,
                unsigned max_rounds)
{
    jtps_assert(link_pages_per_ms > 0.0);
    jtps_assert(dirty_pages_per_ms >= 0.0);
    PrecopyEstimate est;
    double remaining = static_cast<double>(resident_pages);
    while (est.rounds < max_rounds &&
           remaining > static_cast<double>(stop_pages)) {
        const double copy_ms = remaining / link_pages_per_ms;
        const double dirtied = dirty_pages_per_ms * copy_ms;
        if (dirtied >= remaining) {
            // The guest dirties faster than the link drains: another
            // round cannot shrink the residual set. Stop and copy.
            break;
        }
        est.pagesCopied += static_cast<std::uint64_t>(remaining);
        ++est.rounds;
        remaining = dirtied;
    }
    est.finalPages = static_cast<std::uint64_t>(remaining);
    est.downtimeMs = remaining / link_pages_per_ms;
    return est;
}

std::size_t
chooseMigrationVictim(
    const std::vector<core::SharingFingerprint> &fingerprints,
    const std::vector<std::size_t> &members)
{
    jtps_assert(!members.empty());
    jtps_assert(fingerprints.size() == members.size());
    std::size_t best = members[0];
    Bytes best_overlap = 0;
    bool found = false;
    for (std::size_t k = 0; k < members.size(); ++k) {
        Bytes overlap = 0;
        for (std::size_t j = 0; j < members.size(); ++j) {
            if (j != k)
                overlap += fingerprints[k].sharedWith(fingerprints[j]);
        }
        if (!found || overlap < best_overlap) {
            found = true;
            best_overlap = overlap;
            best = members[k];
        }
    }
    return best;
}

Cluster::Cluster(const ClusterConfig &cfg,
                 std::vector<workload::WorkloadSpec> specs)
    : cfg_(cfg), specs_(std::move(specs))
{
    jtps_assert(cfg_.hosts > 0);
    jtps_assert(cfg_.slotsPerHost > 0);
    // Every host must start with at least one VM (a Scenario cannot be
    // empty) and placement must fit the slot capacity.
    jtps_assert(specs_.size() >= cfg_.hosts);
    jtps_assert(specs_.size() <= cfg_.hosts * cfg_.slotsPerHost);
    jtps_assert(cfg_.roundMs > 0);
    jtps_assert(cfg_.host.epochMs > 0);
    jtps_assert(cfg_.roundMs % cfg_.host.epochMs == 0);
    jtps_assert(cfg_.host.warmupMs % cfg_.roundMs == 0);
    jtps_assert(cfg_.dayMs > 0);
}

Cluster::~Cluster() = default;

void
Cluster::planPlacement()
{
    const std::size_t n = specs_.size();
    // Initial packing width: even load across all hosts. Capacity
    // (slotsPerHost) may exceed it — spare slots take migrations.
    const std::size_t width = (n + cfg_.hosts - 1) / cfg_.hosts;
    jtps_assert(width <= cfg_.slotsPerHost);
    placement_.assign(cfg_.hosts, {});
    switch (cfg_.placement) {
    case PlacementPolicy::RoundRobin:
        for (std::size_t l = 0; l < n; ++l)
            placement_[l % cfg_.hosts].push_back(l);
        break;
    case PlacementPolicy::Random: {
        // Seeded Fisher-Yates over the logical ids, then round-robin:
        // random grouping, even load.
        std::vector<std::size_t> perm(n);
        for (std::size_t l = 0; l < n; ++l)
            perm[l] = l;
        Rng rng(hash3(cfg_.seed, stringTag("placement"), 1));
        for (std::size_t l = n; l > 1; --l)
            std::swap(perm[l - 1], perm[rng.nextBelow(l)]);
        for (std::size_t l = 0; l < n; ++l)
            placement_[l % cfg_.hosts].push_back(perm[l]);
        break;
    }
    case PlacementPolicy::DedupAware:
        placement_ = core::PlacementPlanner::plan(
            specs_, width, cfg_.host.enableClassSharing);
        // The planner packs ceil(n / width) hosts; the cluster's host
        // count must agree so no host starts empty.
        jtps_assert(placement_.size() == cfg_.hosts);
        break;
    }
    for (const auto &group : placement_) {
        jtps_assert(!group.empty());
        jtps_assert(group.size() <= cfg_.slotsPerHost);
    }
}

void
Cluster::build()
{
    jtps_assert(!built_);
    built_ = true;

    planPlacement();

    vm_locations_.assign(specs_.size(), {});
    host_logical_.assign(cfg_.hosts, {});
    for (std::size_t h = 0; h < cfg_.hosts; ++h) {
        core::ScenarioConfig hc = cfg_.host;
        // Independent per-host RNG universe + identity label.
        hc.seed = hash3(cfg_.seed, stringTag("host"), h);
        hc.hostLabel = "host" + std::to_string(h);

        std::vector<workload::WorkloadSpec> host_specs;
        host_specs.reserve(placement_[h].size());
        for (std::size_t k = 0; k < placement_[h].size(); ++k) {
            const std::size_t logical = placement_[h][k];
            host_specs.push_back(specs_[logical]);
            vm_locations_[logical] = {h, k, 0};
            host_logical_[h].push_back(logical);
        }
        hosts_.push_back(
            std::make_unique<core::Scenario>(hc, std::move(host_specs)));
        hosts_.back()->build();
    }

    consumed_epochs_.assign(cfg_.hosts, 0);
    round_faults_.assign(cfg_.hosts, 0);
    prev_pml_appends_.assign(cfg_.hosts, {});

    // Register the whole cluster.* / migration.* shape up front so
    // every run document carries the same keys.
    stats_.set("cluster.hosts", cfg_.hosts);
    stats_.set("cluster.vms", specs_.size());
    stats_.counter("cluster.rounds");
    stats_.counter("cluster.epochs");
    stats_.counter("cluster.offered_requests");
    stats_.counter("cluster.served_requests");
    stats_.counter("cluster.sla_met_epochs");
    stats_.counter("cluster.sla_missed_epochs");
    stats_.counter("cluster.pages_shared");
    stats_.counter("cluster.pages_sharing");
    stats_.counter("cluster.resident_frames");
    stats_.counter("migration.count");
    stats_.counter("migration.precopy_rounds");
    stats_.counter("migration.pages_precopied");
    stats_.counter("migration.downtime_us_total");

    if (cfg_.fleetThreads > 1)
        pool_ = std::make_unique<ThreadPool>(cfg_.fleetThreads);
}

double
Cluster::usersAt(Tick t) const
{
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    const double phase =
        static_cast<double>(t % cfg_.dayMs) /
        static_cast<double>(cfg_.dayMs);
    const double wave = 0.5 * (1.0 - std::cos(kTwoPi * phase));
    return cfg_.peakUsers *
           (cfg_.troughFraction + (1.0 - cfg_.troughFraction) * wave);
}

void
Cluster::run(Tick total_ms)
{
    jtps_assert(built_);
    jtps_assert(total_ms % cfg_.roundMs == 0);

    for (Tick done = 0; done < total_ms; done += cfg_.roundMs) {
        if (now_ == 0) {
            // Paper's protocol, fleet-wide: aggressive scanning while
            // the JVMs warm, throttled at steady state (Scenario::run
            // does the same for a single host).
            for (auto &host : hosts_) {
                host->ksm().setPagesToScan(cfg_.host.ksmWarmupPagesToScan);
                host->ksm().attach(host->queue());
            }
        }
        if (now_ == cfg_.host.warmupMs) {
            for (auto &host : hosts_)
                host->ksm().setPagesToScan(cfg_.host.ksm.pagesToScan);
        }

        // Fan out: every host advances one round concurrently. Hosts
        // are self-contained single-writer worlds, so the only
        // synchronization needed is the barrier before the serial
        // reduce below.
        if (pool_) {
            for (auto &host : hosts_) {
                core::Scenario *s = host.get();
                pool_->submit([s, this]() { s->runFor(cfg_.roundMs); });
            }
            pool_->wait();
        } else {
            for (auto &host : hosts_)
                host->runFor(cfg_.roundMs);
        }
        now_ += cfg_.roundMs;

        // Serial, host-order reduce: identical at any fleetThreads.
        reduceRound();
        if (cfg_.migrationEnabled)
            maybeMigrate();

        // Re-baseline the PML append totals so the next round's dirty
        // rate is a per-round delta (new VMs start from their current
        // totals).
        for (std::size_t h = 0; h < hosts_.size(); ++h) {
            auto &hv = hosts_[h]->hv();
            prev_pml_appends_[h].resize(hv.vmCount(), 0);
            for (VmId vm = 0; vm < hv.vmCount(); ++vm)
                prev_pml_appends_[h][vm] = hv.vm(vm).pmlAppendsTotal;
        }
    }
}

void
Cluster::reduceRound()
{
    stats_.inc("cluster.rounds");

    // Demand at the round's midpoint, routed capacity-weighted (a
    // load balancer sends traffic where it can be served): each
    // active VM owes the fleet demand times its share of the fleet's
    // client capacity.
    double total_capacity = 0.0;
    for (auto &host : hosts_) {
        for (std::size_t idx = 0; idx < host->vmCount(); ++idx)
            if (host->vmActive(idx))
                total_capacity += host->workloadSpec(idx).clientThreads;
    }
    jtps_assert(total_capacity > 0.0);

    // Sustained request rate per active user.
    constexpr double requestsPerUserPerSec = 1.0 / 120.0;
    const double users = usersAt(now_ - cfg_.roundMs / 2);
    const double fleet_rq = users * requestsPerUserPerSec;
    const double epoch_sec =
        static_cast<double>(cfg_.host.epochMs) / 1000.0;

    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        round_faults_[h] = 0;
        const auto &history = hosts_[h]->epochHistory();
        for (std::size_t e = consumed_epochs_[h]; e < history.size();
             ++e) {
            const auto &row = history[e];
            for (std::size_t idx = 0; idx < row.size(); ++idx) {
                if (!hosts_[h]->vmActive(idx))
                    continue;
                const auto &r = row[idx];
                const double per_vm_share =
                    fleet_rq *
                    hosts_[h]->workloadSpec(idx).clientThreads /
                    total_capacity;
                stats_.inc("cluster.epochs");
                stats_.inc("cluster.offered_requests",
                           static_cast<std::uint64_t>(per_vm_share *
                                                      epoch_sec));
                stats_.inc("cluster.served_requests",
                           static_cast<std::uint64_t>(
                               std::min(per_vm_share, r.achievedPerSec) *
                               epoch_sec));
                // An epoch meets the fleet SLA when the driver's own
                // latency SLA held *and* the VM kept up with its share
                // of the diurnal demand.
                if (r.slaMet &&
                    r.achievedPerSec + 1e-9 >= per_vm_share)
                    stats_.inc("cluster.sla_met_epochs");
                else
                    stats_.inc("cluster.sla_missed_epochs");
                round_faults_[h] += r.majorFaults;
            }
        }
        consumed_epochs_[h] = history.size();
    }

    // Fleet-level gauges.
    std::uint64_t shared = 0, sharing = 0, resident = 0, vms = 0;
    for (auto &host : hosts_) {
        shared += host->ksm().pagesShared();
        sharing += host->ksm().pagesSharing();
        resident += host->hv().residentFrames();
        vms += host->activeVmCount();
    }
    stats_.set("cluster.pages_shared", shared);
    stats_.set("cluster.pages_sharing", sharing);
    stats_.set("cluster.resident_frames", resident);
    stats_.set("cluster.vms", vms);
}

double
Cluster::hostFaultRate(std::size_t h) const
{
    const std::size_t active = hosts_[h]->activeVmCount();
    if (active == 0)
        return 0.0;
    return static_cast<double>(round_faults_[h]) * 1000.0 /
           static_cast<double>(cfg_.roundMs) /
           static_cast<double>(active);
}

void
Cluster::maybeMigrate()
{
    // At most one migration per round, from the lowest-id pressured
    // host: conservative, and trivially deterministic.
    std::size_t src = hosts_.size();
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        if (hosts_[h]->activeVmCount() >= 2 &&
            hostFaultRate(h) > cfg_.faultsPerSecPerVmThreshold) {
            src = h;
            break;
        }
    }
    if (src == hosts_.size())
        return;

    // Destination: the least-loaded host (fewest resident frames) with
    // a free slot; ties to the lowest id.
    std::size_t dst = hosts_.size();
    std::uint64_t dst_resident = 0;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        if (h == src ||
            hosts_[h]->activeVmCount() >= cfg_.slotsPerHost)
            continue;
        const std::uint64_t res = hosts_[h]->hv().residentFrames();
        if (dst == hosts_.size() || res < dst_resident) {
            dst = h;
            dst_resident = res;
        }
    }
    if (dst == hosts_.size())
        return; // fleet full: nowhere to shed load

    // Victim: the active VM with the least estimated intra-host
    // sharing — evicting it breaks the fewest merges.
    std::vector<std::size_t> members;
    std::vector<core::SharingFingerprint> fps;
    for (std::size_t idx = 0; idx < hosts_[src]->vmCount(); ++idx) {
        if (!hosts_[src]->vmActive(idx))
            continue;
        members.push_back(idx);
        fps.push_back(core::SharingFingerprint::forWorkload(
            hosts_[src]->workloadSpec(idx),
            cfg_.host.enableClassSharing));
    }
    const std::size_t victim = chooseMigrationVictim(fps, members);

    // Downtime model: pre-copy rounds whose dirty rate comes from the
    // source VM's PML ring appends over the last round; without PML
    // telemetry the migration is a blind stop-and-copy.
    // Migration link bandwidth in pages per simulated millisecond.
    constexpr double linkPagesPerMs = 250.0;
    // Pre-copy stops (and the VM pauses) at this many dirty pages.
    constexpr std::uint64_t downtimeStopPages = 512;
    // Pre-copy round cap before falling back to stop-and-copy.
    constexpr unsigned maxPrecopyRounds = 8;
    // Fixed switch-over cost added to every migration's downtime.
    constexpr double switchoverMs = 2.0;
    const auto &vm = hosts_[src]->hv().vm(static_cast<VmId>(victim));
    const std::uint64_t resident =
        hosts_[src]->hv().pagesIn(vm.id, hv::PageState::Resident);
    PrecopyEstimate est;
    if (hosts_[src]->hv().pmlEnabled()) {
        const std::uint64_t prev =
            victim < prev_pml_appends_[src].size()
                ? prev_pml_appends_[src][victim]
                : 0;
        const double dirty_per_ms =
            static_cast<double>(vm.pmlAppendsTotal - prev) /
            static_cast<double>(cfg_.roundMs);
        est = estimatePrecopy(resident, dirty_per_ms, linkPagesPerMs,
                              downtimeStopPages, maxPrecopyRounds);
    } else {
        est.finalPages = resident;
        est.downtimeMs =
            static_cast<double>(resident) / linkPagesPerMs;
    }
    const double downtime_ms = est.downtimeMs + switchoverMs;

    // Execute: retire on the source, rebuild on the destination. The
    // spec is copied out first: retireVm destroys the source's slot,
    // spec included.
    const workload::WorkloadSpec spec = hosts_[src]->workloadSpec(victim);
    const std::size_t logical = host_logical_[src][victim];
    hosts_[src]->retireVm(victim);
    const std::size_t new_idx = hosts_[dst]->addVm(spec);
    host_logical_[dst].push_back(logical);
    vm_locations_[logical].host = dst;
    vm_locations_[logical].index = new_idx;
    ++vm_locations_[logical].migrations;

    stats_.inc("migration.count");
    stats_.inc("migration.precopy_rounds", est.rounds);
    stats_.inc("migration.pages_precopied", est.pagesCopied);
    stats_.inc("migration.downtime_us_total",
               static_cast<std::uint64_t>(
                   std::llround(downtime_ms * 1000.0)));
}

double
Cluster::aggregateThroughput(std::size_t epochs) const
{
    double sum = 0.0;
    for (const auto &host : hosts_)
        sum += host->aggregateThroughput(epochs);
    return sum;
}

void
Cluster::writeJsonFields(JsonWriter &w) const
{
    w.key("stats");
    analysis::writeStatsJson(w, stats_);
    w.key("hosts");
    w.beginArray();
    for (const auto &host : hosts_) {
        w.beginObject();
        w.field("label", host->stats().scope());
        w.field("active_vms",
                static_cast<std::uint64_t>(host->activeVmCount()));
        w.field("pages_shared", host->ksm().pagesShared());
        w.field("pages_sharing", host->ksm().pagesSharing());
        w.field("resident_frames", host->hv().residentFrames());
        w.field("aggregate_rq_s", host->aggregateThroughput());
        w.key("stats");
        analysis::writeStatsJson(w, host->stats());
        w.endObject();
    }
    w.endArray();
}

} // namespace jtps::cluster
