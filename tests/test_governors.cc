/**
 * @file
 * Tests for the control-plane pieces: the ksmtuned governor, the
 * time-series sharing monitor, and the Memory Buddies placement
 * planner.
 */

#include <gtest/gtest.h>

#include "analysis/sharing_monitor.hh"
#include "base/stats.hh"
#include "core/placement.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"
#include "ksm/ksm_tuned.hh"
#include "sim/event_queue.hh"
#include "workload/workload_spec.hh"

using namespace jtps;
using core::PlacementPlanner;
using core::SharingFingerprint;
using hv::Hypervisor;
using ksm::KsmConfig;
using ksm::KsmScanner;
using ksm::KsmTuned;
using ksm::KsmTunedConfig;
using mem::PageData;

namespace
{

hv::HostConfig
host(Bytes ram)
{
    hv::HostConfig cfg;
    cfg.ramBytes = ram;
    cfg.reserveBytes = 0;
    return cfg;
}

} // namespace

TEST(KsmTuned, BoostsUnderPressureDecaysWhenSlack)
{
    StatSet stats;
    Hypervisor hv(host(100 * pageSize), stats);
    VmId vm = hv.createVm("vm", 100 * pageSize, 0);

    KsmConfig kcfg;
    kcfg.pagesToScan = 1000;
    KsmScanner scanner(hv, kcfg, stats);

    KsmTunedConfig tcfg;
    tcfg.boostPages = 2000;
    tcfg.decayPages = -300;
    tcfg.minPages = 100;
    tcfg.maxPages = 8000;
    tcfg.freeThreshold = 0.20;
    KsmTuned tuned(hv, scanner, tcfg, stats);

    // Slack host: decay toward the floor.
    tuned.step();
    EXPECT_EQ(scanner.config().pagesToScan, 700u);
    for (int i = 0; i < 10; ++i)
        tuned.step();
    EXPECT_EQ(scanner.config().pagesToScan, tcfg.minPages);
    EXPECT_GT(tuned.decays(), 0u);
    EXPECT_EQ(tuned.boosts(), 0u);

    // Commit >80% of the host: boost toward the ceiling.
    for (Gfn g = 0; g < 90; ++g)
        hv.writePage(vm, g, PageData::filled(1, g));
    for (int i = 0; i < 10; ++i)
        tuned.step();
    EXPECT_EQ(scanner.config().pagesToScan, tcfg.maxPages);
    EXPECT_GT(tuned.boosts(), 0u);
}

TEST(KsmTuned, AttachRunsPeriodically)
{
    StatSet stats;
    Hypervisor hv(host(64 * pageSize), stats);
    hv.createVm("vm", 16 * pageSize, 0);
    KsmConfig kcfg;
    KsmScanner scanner(hv, kcfg, stats);
    KsmTunedConfig tcfg;
    tcfg.monitorIntervalMs = 100;
    KsmTuned tuned(hv, scanner, tcfg, stats);

    sim::EventQueue queue;
    tuned.attach(queue);
    queue.runUntil(1000);
    EXPECT_EQ(tuned.boosts() + tuned.decays(), 10u);
}

TEST(SharingMonitor, RecordsConvergence)
{
    StatSet stats;
    Hypervisor hv(host(1024 * pageSize), stats);
    VmId a = hv.createVm("a", 1 * MiB, 0);
    VmId b = hv.createVm("b", 1 * MiB, 0);
    KsmConfig kcfg;
    kcfg.pagesToScan = 100000;
    KsmScanner scanner(hv, kcfg, stats);

    for (Gfn g = 0; g < 32; ++g) {
        hv.writePage(a, g, PageData::filled(1, g));
        hv.writePage(b, g, PageData::filled(1, g));
    }

    analysis::SharingMonitor monitor(hv, scanner);
    sim::EventQueue queue;
    monitor.attach(queue, 100);
    scanner.attach(queue);
    queue.runUntil(1000);

    const auto &samples = monitor.samples();
    ASSERT_GE(samples.size(), 5u);
    // Sharing converges: first sample has nothing, the last has all 32
    // duplicates, and the curve is monotone.
    EXPECT_EQ(samples.front().pagesSharing, 0u);
    EXPECT_EQ(samples.back().pagesSharing, 32u);
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_GE(samples[i].pagesSharing, samples[i - 1].pagesSharing);

    EXPECT_NE(monitor.renderTable().find("pages_sharing"),
              std::string::npos);
    EXPECT_NE(monitor.renderCsv().find("tick_ms"), std::string::npos);
}

TEST(Placement, FingerprintOverlapsMatchIntuition)
{
    auto dt = workload::dayTraderIntel();
    auto tw = workload::tpcwJava();
    auto tb = workload::tuscanyBigbank();

    auto f_dt = SharingFingerprint::forWorkload(dt, true);
    auto f_dt2 = SharingFingerprint::forWorkload(dt, true);
    auto f_tw = SharingFingerprint::forWorkload(tw, true);
    auto f_tb = SharingFingerprint::forWorkload(tb, true);

    // Identical workloads share everything they expose.
    EXPECT_EQ(f_dt.sharedWith(f_dt2), f_dt.totalBytes());
    // Same middleware (WAS): share kernel + libs + cache, not payload.
    EXPECT_GT(f_dt.sharedWith(f_tw), f_dt.sharedWith(f_tb));
    // Different middleware still shares the kernel + JVM libraries.
    EXPECT_GT(f_dt.sharedWith(f_tb), 0u);
    // Symmetry.
    EXPECT_EQ(f_dt.sharedWith(f_tb), f_tb.sharedWith(f_dt));
}

TEST(Placement, GreedyPlannerGroupsSimilarWorkloads)
{
    // 2x DayTrader, 2x TPC-W, 2x Tuscany onto two 3-slot hosts: the
    // planner must put both Tuscany guests on the same host (they
    // share nothing with WAS beyond kernel+JVM), keeping WAS together.
    std::vector<workload::WorkloadSpec> specs = {
        workload::dayTraderIntel(), workload::tuscanyBigbank(),
        workload::tpcwJava(),       workload::dayTraderIntel(),
        workload::tuscanyBigbank(), workload::tpcwJava(),
    };
    auto placement = PlacementPlanner::plan(specs, 3, true);
    ASSERT_EQ(placement.size(), 2u);
    ASSERT_EQ(placement[0].size(), 3u);
    ASSERT_EQ(placement[1].size(), 3u);

    // Find the host holding VM 1 (Tuscany): VM 4 (the other Tuscany)
    // must be on the same host.
    for (const auto &hostvms : placement) {
        const bool has1 = std::count(hostvms.begin(), hostvms.end(), 1);
        const bool has4 = std::count(hostvms.begin(), hostvms.end(), 4);
        EXPECT_EQ(has1, has4);
    }

    // Estimated sharing of the plan beats a round-robin split.
    std::vector<SharingFingerprint> fps;
    for (const auto &s : specs)
        fps.push_back(SharingFingerprint::forWorkload(s, true));
    const Bytes planned =
        PlacementPlanner::estimateHostSharing(fps, placement[0]) +
        PlacementPlanner::estimateHostSharing(fps, placement[1]);
    const Bytes round_robin =
        PlacementPlanner::estimateHostSharing(fps, {0, 2, 4}) +
        PlacementPlanner::estimateHostSharing(fps, {1, 3, 5});
    EXPECT_GE(planned, round_robin);
}
