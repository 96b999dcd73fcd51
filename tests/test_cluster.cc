/**
 * @file
 * Tests for the cluster layer: flat-vector fingerprint semantics, the
 * pre-copy migration model, victim/destination selection, placement
 * determinism, the diurnal demand curve, the Scenario VM lifecycle
 * (retire/add), and — the load-bearing property — byte-identical
 * cluster results at any --fleet-threads, with and without live
 * migrations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/json_export.hh"
#include "analysis/sharing_sources.hh"
#include "analysis/smaps.hh"
#include "base/json_writer.hh"
#include "cluster/cluster.hh"
#include "core/placement.hh"
#include "core/scenario.hh"
#include "ksm/ksm_scanner.hh"
#include "workload/workload_spec.hh"

using namespace jtps;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::PlacementPolicy;
using cluster::PrecopyEstimate;
using core::PlacementPlanner;
using core::SharingFingerprint;

namespace
{

// ---------------------------------------------------------------------
// SharingFingerprint flat-vector representation
// ---------------------------------------------------------------------

TEST(Fingerprint, SetComponentKeepsSortedUniqueAndOverwrites)
{
    SharingFingerprint fp;
    fp.setComponent(50, 5 * MiB);
    fp.setComponent(10, 1 * MiB);
    fp.setComponent(90, 9 * MiB);
    fp.setComponent(30, 3 * MiB);
    ASSERT_EQ(fp.components.size(), 4u);
    for (std::size_t i = 1; i < fp.components.size(); ++i)
        EXPECT_LT(fp.components[i - 1].first, fp.components[i].first);

    fp.setComponent(30, 7 * MiB); // overwrite, not duplicate
    ASSERT_EQ(fp.components.size(), 4u);
    EXPECT_EQ(fp.components[1].first, 30u);
    EXPECT_EQ(fp.components[1].second, 7 * MiB);
    EXPECT_EQ(fp.totalBytes(), (1 + 7 + 5 + 9) * MiB);
}

TEST(Fingerprint, SharedWithMatchesMapReference)
{
    // Pseudo-random tag sets from a tiny deterministic LCG; the
    // two-pointer merge must agree with the obvious map-based overlap.
    auto lcg = [](std::uint64_t &s) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    };
    std::uint64_t seed = 12345;
    SharingFingerprint a, b;
    std::map<std::uint64_t, Bytes> ma, mb;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t tag = lcg(seed) % 97; // force collisions
        const Bytes bytes = (lcg(seed) % 512 + 1) * KiB;
        if (i % 2) {
            a.setComponent(tag, bytes);
            ma[tag] = bytes;
        } else {
            b.setComponent(tag, bytes);
            mb[tag] = bytes;
        }
    }
    Bytes want = 0;
    for (const auto &[tag, bytes] : ma) {
        auto it = mb.find(tag);
        if (it != mb.end())
            want += std::min(bytes, it->second);
    }
    EXPECT_EQ(a.sharedWith(b), want);
    EXPECT_EQ(b.sharedWith(a), want);
}

TEST(Fingerprint, SameWorkloadOverlapsMoreThanDifferent)
{
    const auto dt = workload::dayTraderIntel();
    const auto tw = workload::tpcwJava();
    const auto f1 = SharingFingerprint::forWorkload(dt, true);
    const auto f2 = SharingFingerprint::forWorkload(dt, true);
    const auto f3 = SharingFingerprint::forWorkload(tw, true);
    EXPECT_GT(f1.sharedWith(f2), f1.sharedWith(f3));
    EXPECT_GT(f1.sharedWith(f3), 0u); // kernel + base image overlap
}

// ---------------------------------------------------------------------
// Pre-copy migration model
// ---------------------------------------------------------------------

TEST(Precopy, IdleVmConvergesInOneRound)
{
    const PrecopyEstimate est =
        cluster::estimatePrecopy(100'000, 0.0, 250.0, 512, 8);
    EXPECT_EQ(est.rounds, 1u);
    EXPECT_EQ(est.pagesCopied, 100'000u);
    EXPECT_EQ(est.finalPages, 0u);
    EXPECT_DOUBLE_EQ(est.downtimeMs, 0.0);
}

TEST(Precopy, TinyResidualSkipsPrecopyEntirely)
{
    const PrecopyEstimate est =
        cluster::estimatePrecopy(400, 10.0, 250.0, 512, 8);
    EXPECT_EQ(est.rounds, 0u);
    EXPECT_EQ(est.pagesCopied, 0u);
    EXPECT_EQ(est.finalPages, 400u);
    EXPECT_DOUBLE_EQ(est.downtimeMs, 400.0 / 250.0);
}

TEST(Precopy, ConvergingDirtyRateIteratesUntilStopThreshold)
{
    // 10k pages, link 250/ms, dirty 50/ms: each round shrinks the
    // residual 5x (10000 -> 2000 -> 400 <= 512).
    const PrecopyEstimate est =
        cluster::estimatePrecopy(10'000, 50.0, 250.0, 512, 8);
    EXPECT_EQ(est.rounds, 2u);
    EXPECT_EQ(est.pagesCopied, 12'000u);
    EXPECT_EQ(est.finalPages, 400u);
    EXPECT_DOUBLE_EQ(est.downtimeMs, 400.0 / 250.0);
}

TEST(Precopy, DivergingDirtyRateFallsBackToStopAndCopy)
{
    // Dirtying outruns the link: iterating cannot shrink the set.
    const PrecopyEstimate est =
        cluster::estimatePrecopy(10'000, 300.0, 250.0, 512, 8);
    EXPECT_EQ(est.rounds, 0u);
    EXPECT_EQ(est.finalPages, 10'000u);
    EXPECT_DOUBLE_EQ(est.downtimeMs, 10'000.0 / 250.0);
}

TEST(Precopy, RoundCapBoundsTheSchedule)
{
    // Residual shrinks slowly (dirty 200 vs link 250: 0.8x per round);
    // the cap stops it before the threshold is reached.
    const PrecopyEstimate est =
        cluster::estimatePrecopy(100'000, 200.0, 250.0, 512, 3);
    EXPECT_EQ(est.rounds, 3u);
    EXPECT_GT(est.finalPages, 512u);
}

// ---------------------------------------------------------------------
// Victim selection
// ---------------------------------------------------------------------

TEST(Victim, LeastOverlappingMemberIsChosen)
{
    // Two DayTraders (big mutual overlap) + one TPC-W: the TPC-W VM
    // forfeits the least sharing when evicted.
    const auto dt = workload::dayTraderIntel();
    const auto tw = workload::tpcwJava();
    std::vector<SharingFingerprint> fps = {
        SharingFingerprint::forWorkload(dt, true),
        SharingFingerprint::forWorkload(tw, true),
        SharingFingerprint::forWorkload(dt, true),
    };
    const std::vector<std::size_t> members = {0, 1, 2};
    EXPECT_EQ(cluster::chooseMigrationVictim(fps, members), 1u);
}

TEST(Victim, TieBreaksToLowestIndex)
{
    const auto dt = workload::dayTraderIntel();
    std::vector<SharingFingerprint> fps = {
        SharingFingerprint::forWorkload(dt, true),
        SharingFingerprint::forWorkload(dt, true),
        SharingFingerprint::forWorkload(dt, true),
    };
    // members need not be 0-based host indices
    const std::vector<std::size_t> members = {4, 5, 6};
    EXPECT_EQ(cluster::chooseMigrationVictim(fps, members), 4u);
}

// ---------------------------------------------------------------------
// Placement determinism
// ---------------------------------------------------------------------

TEST(Placement, IdenticalSpecsFillHostsInIndexOrder)
{
    // All-equal gains tie-break to lowest VM index, lowest host: the
    // greedy packer fills host 0 first, then host 1.
    std::vector<workload::WorkloadSpec> specs(
        4, workload::dayTraderIntel());
    const auto placement = PlacementPlanner::plan(specs, 2, true);
    ASSERT_EQ(placement.size(), 2u);
    EXPECT_EQ(placement[0], (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(placement[1], (std::vector<std::size_t>{2, 3}));
}

TEST(Placement, PlanIsReproducible)
{
    std::vector<workload::WorkloadSpec> specs;
    for (int i = 0; i < 8; ++i) {
        switch (i % 3) {
        case 0: specs.push_back(workload::dayTraderIntel()); break;
        case 1: specs.push_back(workload::tpcwJava()); break;
        default: specs.push_back(workload::tuscanyBigbank()); break;
        }
    }
    const auto p1 = PlacementPlanner::plan(specs, 4, true);
    const auto p2 = PlacementPlanner::plan(specs, 4, true);
    EXPECT_EQ(p1, p2);
}

// ---------------------------------------------------------------------
// Diurnal demand curve
// ---------------------------------------------------------------------

TEST(Diurnal, CurveEndpointsAndPeriodicity)
{
    ClusterConfig cfg;
    cfg.host.warmupMs = 8'000; // ctor wants a multiple of roundMs
    cfg.peakUsers = 1'000'000.0;
    cfg.troughFraction = 0.35;
    cfg.dayMs = 240'000;
    const Cluster fleet(cfg, std::vector<workload::WorkloadSpec>(
                                 4, workload::dayTraderIntel()));
    EXPECT_NEAR(fleet.usersAt(0), 350'000.0, 1.0);           // trough
    EXPECT_NEAR(fleet.usersAt(120'000), 1'000'000.0, 1.0);   // peak
    EXPECT_NEAR(fleet.usersAt(240'000), fleet.usersAt(0), 1e-6);
    EXPECT_NEAR(fleet.usersAt(60'000),
                350'000.0 + 0.5 * 650'000.0, 1.0); // quarter day
}

// ---------------------------------------------------------------------
// Scenario VM lifecycle (the migration primitive)
// ---------------------------------------------------------------------

core::ScenarioConfig
smallHostConfig()
{
    core::ScenarioConfig cfg;
    cfg.enableClassSharing = true;
    cfg.epochMs = 1'000;
    cfg.warmupMs = 4'000;
    cfg.steadyMs = 4'000;
    cfg.host.ramBytes = 3 * GiB;
    return cfg;
}

TEST(Lifecycle, RetireReleasesMemoryAndAddRebuilds)
{
    core::ScenarioConfig cfg = smallHostConfig();
    std::vector<workload::WorkloadSpec> specs = {
        workload::dayTraderIntel(), workload::tpcwJava()};
    core::Scenario s(cfg, specs);
    s.build();
    s.runFor(4'000);

    ASSERT_EQ(s.activeVmCount(), 2u);
    const std::uint64_t resident_before = s.hv().residentFrames();
    const Pid retired_pid = s.javaVm(0).pid(); // gone with its slot
    s.retireVm(0);
    EXPECT_FALSE(s.vmActive(0));
    EXPECT_TRUE(s.vmActive(1));
    EXPECT_EQ(s.activeVmCount(), 1u);
    EXPECT_EQ(s.vmCount(), 2u);
    EXPECT_LT(s.hv().residentFrames(), resident_before);
    EXPECT_EQ(s.stats().get("hv.vms_released"), 1u);
    // The retired guest is gone; the accounting attributes exactly
    // what the host holds, and every report runs over the empty slot.
    {
        const analysis::OwnerAccounting acct = s.account();
        EXPECT_EQ(acct.attributedBytes(), s.hv().residentBytes());
        EXPECT_FALSE(acct.hasProcess(0, retired_pid));
        EXPECT_TRUE(acct.hasProcess(1, s.javaVm(1).pid()));
    }
    {
        const analysis::Snapshot snap = s.snapshot();
        EXPECT_EQ(snap.vmCount, 2u);
        for (const analysis::FrameRef &ref : snap.refs)
            EXPECT_EQ(ref.vm, 1u);
        EXPECT_EQ(s.vmNames(), (std::vector<std::string>{"VM1", "VM2"}));
        const auto rows = s.javaRows();
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].vm, 1u);
        EXPECT_EQ(rows[0].pid, s.javaVm(1).pid());
        EXPECT_EQ(s.perVmThroughput().size(), 2u);
        EXPECT_EQ(s.perVmResponseMs().size(), 2u);
        EXPECT_GT(s.aggregateThroughput(), 0.0);
        for (std::size_t i = 0; i < s.vmCount(); ++i) {
            if (!s.vmActive(i))
                continue;
            EXPECT_FALSE(analysis::computeSmaps(s.guest(i),
                                                s.javaVm(i).pid())
                             .entries.empty());
            analysis::collectSharingSources(s.guest(i)); // no panic
        }
    }

    s.runFor(4'000);
    // Retired VMs read all-zero in new epoch rows.
    const auto &row = s.epochHistory().back();
    EXPECT_EQ(row[0].requests, 0u);
    EXPECT_GT(row[1].requests, 0u);

    const std::size_t idx = s.addVm(workload::tuscanyBigbank());
    EXPECT_EQ(idx, 2u);
    EXPECT_EQ(s.activeVmCount(), 2u);
    s.runFor(4'000);
    EXPECT_GT(s.epochHistory().back()[2].requests, 0u);
    const analysis::OwnerAccounting acct = s.account();
    EXPECT_EQ(acct.attributedBytes(), s.hv().residentBytes());
    EXPECT_FALSE(acct.hasProcess(0, retired_pid));
    EXPECT_TRUE(acct.hasProcess(2, s.javaVm(2).pid()));
    s.hv().checkConsistency();
}

// ---------------------------------------------------------------------
// Cluster twin-run byte identity at any fleet-thread count
// ---------------------------------------------------------------------

ClusterConfig
smallClusterConfig(unsigned fleet_threads)
{
    ClusterConfig cfg;
    cfg.hosts = 2;
    cfg.slotsPerHost = 3;
    cfg.placement = PlacementPolicy::DedupAware;
    cfg.fleetThreads = fleet_threads;
    cfg.roundMs = 4'000;
    cfg.dayMs = 48'000;
    cfg.peakUsers = 20'000.0;
    cfg.host = smallHostConfig();
    cfg.host.host.pmlRingSlots = 512;
    cfg.host.adaptiveBalloon = true;
    return cfg;
}

std::vector<workload::WorkloadSpec>
smallFleet()
{
    return {workload::dayTraderIntel(), workload::dayTraderIntel(),
            workload::tpcwJava(), workload::tuscanyBigbank()};
}

/** Cluster document + every per-host trace, as one string. */
std::string
clusterSignature(const Cluster &fleet)
{
    JsonWriter w;
    w.beginObject();
    fleet.writeJsonFields(w);
    w.key("traces").beginArray();
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        analysis::writeTraceJson(w, fleet.host(h).trace());
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
runSignature(const ClusterConfig &cfg, Tick total_ms)
{
    Cluster fleet(cfg, smallFleet());
    fleet.build();
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        fleet.host(h).trace().enable();
    fleet.run(total_ms);
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        fleet.host(h).hv().checkConsistency();
    return clusterSignature(fleet);
}

TEST(ClusterDeterminism, FleetThreadsDoNotChangeResults)
{
    const std::string serial = runSignature(smallClusterConfig(1),
                                            12'000);
    const std::string parallel = runSignature(smallClusterConfig(4),
                                              12'000);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("host0"), std::string::npos);
    EXPECT_NE(serial.find("host1"), std::string::npos);
}

TEST(ClusterDeterminism, MigrationRunsAreThreadCountInvariant)
{
    // Starve the hosts so the fault-rate trigger fires and at least
    // one migration executes — then the whole decision chain (trigger,
    // victim, destination, downtime model, rebuild on the new host)
    // must be identical at any fleet-thread count.
    auto cfg = smallClusterConfig(1);
    cfg.host.host.ramBytes = 1 * GiB;
    cfg.migrationEnabled = true;
    cfg.faultsPerSecPerVmThreshold = 0.25;

    Cluster serial(cfg, smallFleet());
    serial.build();
    serial.run(16'000);
    for (std::size_t h = 0; h < serial.hostCount(); ++h)
        serial.host(h).hv().checkConsistency();

    cfg.fleetThreads = 4;
    Cluster parallel(cfg, smallFleet());
    parallel.build();
    parallel.run(16'000);

    EXPECT_GT(serial.stats().get("migration.count"), 0u);
    EXPECT_EQ(serial.stats().render(), parallel.stats().render());
    EXPECT_EQ(clusterSignature(serial), clusterSignature(parallel));
    // The mover's location bookkeeping agrees too.
    ASSERT_EQ(serial.vmLocations().size(),
              parallel.vmLocations().size());
    for (std::size_t l = 0; l < serial.vmLocations().size(); ++l) {
        EXPECT_EQ(serial.vmLocations()[l].host,
                  parallel.vmLocations()[l].host);
        EXPECT_EQ(serial.vmLocations()[l].index,
                  parallel.vmLocations()[l].index);
        EXPECT_EQ(serial.vmLocations()[l].migrations,
                  parallel.vmLocations()[l].migrations);
    }
}

TEST(ClusterMigration, SourceScannerFreesRetiredRowInOnePass)
{
    // A migration retires the source copy without notifying the
    // scanner page by page; the one release notice frees the row of
    // per-page scan state it kept for the retired VM at once.
    auto cfg = smallClusterConfig(1);
    cfg.host.host.ramBytes = 1 * GiB;
    cfg.migrationEnabled = true;
    cfg.faultsPerSecPerVmThreshold = 0.25;
    Cluster fleet(cfg, smallFleet());
    fleet.build();
    for (int round = 0;
         round < 8 && fleet.stats().get("migration.count") == 0; ++round)
        fleet.run(cfg.roundMs);
    ASSERT_EQ(fleet.stats().get("migration.count"), 1u);

    // The source is the host holding the one retired VM.
    std::size_t src = fleet.hostCount();
    for (std::size_t h = 0; h < fleet.hostCount(); ++h) {
        for (std::size_t i = 0; i < fleet.host(h).vmCount(); ++i) {
            if (!fleet.host(h).vmActive(i))
                src = h;
        }
    }
    ASSERT_LT(src, fleet.hostCount());
    core::Scenario &host = fleet.host(src);
    ksm::KsmScanner &scanner = host.ksm();
    // Chunks of scan state the remaining VMs can hold (all of them),
    // and the ones that hold a resident, non-huge page now: the
    // retired VM's EPT is empty, so it counts in neither.
    const Gfn per_chunk = ksm::KsmScanner::stateChunkPages;
    Bytes all_chunks = 0;
    Bytes resident_chunks = 0;
    for (VmId v = 0; v < host.hv().vmCount(); ++v) {
        const hv::Ept &ept = host.hv().vm(v).ept;
        for (Gfn c = 0; c < ept.size(); c += per_chunk) {
            all_chunks += ksm::KsmScanner::stateChunkBytes;
            for (Gfn g = c; g < std::min<Gfn>(ept.size(), c + per_chunk);
                 ++g) {
                const hv::EptEntry &e = ept.entry(g);
                if (e.state == hv::PageState::Resident && !e.huge) {
                    resident_chunks += ksm::KsmScanner::stateChunkBytes;
                    break;
                }
            }
        }
    }
    // A live VM's chunk is created when the cursor first meets a
    // resident page in it.
    EXPECT_LE(scanner.pageStateBytes(), all_chunks);

    // One budget-unbounded batch runs to the end of the current pass,
    // the next is one whole pass from the first VM. Chunks outlive
    // their pages, but no chunk of this run has emptied, so after the
    // pass the scan state is exactly the resident chunks.
    scanner.setPagesToScan(1u << 30);
    const std::uint64_t passes = scanner.fullScans();
    scanner.scanBatch();
    scanner.scanBatch();
    EXPECT_EQ(scanner.fullScans(), passes + 2);
    EXPECT_EQ(scanner.pageStateBytes(), resident_chunks);
    scanner.checkIndex();
    host.hv().checkConsistency();
}

TEST(ClusterDeterminism, HostLabelsScopeStatsAndTraces)
{
    auto cfg = smallClusterConfig(1);
    Cluster fleet(cfg, smallFleet());
    fleet.build();
    fleet.run(4'000);
    EXPECT_EQ(fleet.host(0).stats().scope(), "host0");
    EXPECT_EQ(fleet.host(1).stats().scope(), "host1");
    EXPECT_EQ(fleet.host(0).trace().scope(), "host0");
    // Scoped render prefixes every line with the host identity.
    const std::string render = fleet.host(1).stats().render();
    EXPECT_NE(render.find("host1"), std::string::npos);
}

TEST(ClusterAccounting, SlaCountersPartitionEpochs)
{
    auto cfg = smallClusterConfig(2);
    Cluster fleet(cfg, smallFleet());
    fleet.build();
    fleet.run(12'000);
    const auto &st = fleet.stats();
    EXPECT_EQ(st.get("cluster.rounds"), 3u);
    EXPECT_GT(st.get("cluster.epochs"), 0u);
    EXPECT_EQ(st.get("cluster.sla_met_epochs") +
                  st.get("cluster.sla_missed_epochs"),
              st.get("cluster.epochs"));
    EXPECT_GE(st.get("cluster.offered_requests"),
              st.get("cluster.served_requests"));
    EXPECT_GT(st.get("cluster.resident_frames"), 0u);
}

} // namespace
