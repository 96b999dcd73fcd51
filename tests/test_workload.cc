/**
 * @file
 * Unit tests for workload specs and the client driver / disk model.
 */

#include <gtest/gtest.h>

#include "base/stats.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "workload/client_driver.hh"
#include "workload/workload_spec.hh"

using namespace jtps;
using workload::ClientDriver;
using workload::HostDisk;
using workload::WorkloadSpec;

TEST(WorkloadSpec, Table3Values)
{
    auto dt = workload::dayTraderIntel();
    EXPECT_EQ(dt.clientThreads, 12u);
    EXPECT_EQ(dt.gc.heapBytes, 530 * MiB);
    EXPECT_EQ(dt.sharedCacheBytes, 120 * MiB);
    EXPECT_EQ(dt.guestMemBytes, 1 * GiB);

    auto sj = workload::specjEnterprise2010();
    EXPECT_EQ(sj.clientThreads, 15u); // injection rate 15
    EXPECT_EQ(sj.gc.policy, jvm::GcConfig::Policy::Gencon);
    EXPECT_EQ(sj.gc.nurseryBytes, 530 * MiB);
    EXPECT_EQ(sj.gc.heapBytes - sj.gc.nurseryBytes, 200 * MiB);
    EXPECT_EQ(sj.guestMemBytes, 1280ULL * MiB);

    auto tw = workload::tpcwJava();
    EXPECT_EQ(tw.clientThreads, 10u);
    EXPECT_EQ(tw.gc.heapBytes, 512 * MiB);

    auto tb = workload::tuscanyBigbank();
    EXPECT_EQ(tb.clientThreads, 7u);
    EXPECT_EQ(tb.gc.heapBytes, 32 * MiB);
    EXPECT_EQ(tb.sharedCacheBytes, 25 * MiB);
    EXPECT_NE(tb.middleware, dt.middleware);

    auto dtp = workload::dayTraderPower();
    EXPECT_EQ(dtp.clientThreads, 25u);
    EXPECT_EQ(dtp.gc.heapBytes, 1 * GiB);
    EXPECT_EQ(dtp.sharedCacheBytes, 100 * MiB);
    EXPECT_EQ(dtp.guestMemBytes, 3584ULL * MiB);
}

TEST(WorkloadSpec, SameMiddlewareAcrossWasApps)
{
    auto dt = workload::dayTraderIntel();
    auto sj = workload::specjEnterprise2010();
    auto tw = workload::tpcwJava();
    EXPECT_EQ(dt.classSpec.middlewareName, sj.classSpec.middlewareName);
    EXPECT_EQ(dt.classSpec.middlewareName, tw.classSpec.middlewareName);
    EXPECT_EQ(dt.cacheName, sj.cacheName);
    // Different programs nonetheless.
    EXPECT_NE(dt.classSpec.programName, sj.classSpec.programName);
}

TEST(WorkloadSpec, NioPayloadTagDependsOnBenchmark)
{
    auto dt = workload::dayTraderIntel();
    auto tw = workload::tpcwJava();
    jvm::ClassSet cs = jvm::ClassSet::synthesize(dt.classSpec);
    jvm::ClassSet cs2 = jvm::ClassSet::synthesize(tw.classSpec);
    auto c1 = workload::makeJvmConfig(dt, cs, nullptr);
    auto c2 = workload::makeJvmConfig(dt, cs, nullptr);
    auto c3 = workload::makeJvmConfig(tw, cs2, nullptr);
    EXPECT_EQ(c1.nioPayloadTag, c2.nioPayloadTag);
    EXPECT_NE(c1.nioPayloadTag, c3.nioPayloadTag);
}

TEST(WorkloadSpec, DayTraderMixIsWorkNeutralOnAverage)
{
    // The operation mix adds heterogeneity without shifting the mean
    // per-request work (so Figs. 2-8 calibration is unaffected).
    auto dt = workload::dayTraderIntel();
    ASSERT_FALSE(dt.mix.empty());
    EXPECT_GT(dt.totalMixWeight(), 0u);

    double alloc = 0, touch = 0;
    for (const auto &op : dt.mix) {
        alloc += op.weight * op.allocMul;
        touch += op.weight * op.touchMul;
    }
    alloc /= dt.totalMixWeight();
    touch /= dt.totalMixWeight();
    EXPECT_NEAR(alloc, 1.0, 0.05);
    EXPECT_NEAR(touch, 1.0, 0.05);
}

TEST(HostDisk, LatencyGrowsWithUtilization)
{
    HostDisk disk(100.0, 2.0);
    EXPECT_NEAR(disk.faultLatencyMs(), 2.0, 0.01);

    // 50 faults over 1s at 100 IOPS -> ~50% utilization (smoothed).
    for (int i = 0; i < 10; ++i) {
        disk.beginEpoch(1000);
        disk.recordFaults(50);
        disk.endEpoch();
    }
    EXPECT_NEAR(disk.utilization(), 0.5, 0.05);
    EXPECT_GT(disk.faultLatencyMs(), 3.5);

    // Saturation: latency is capped but huge.
    for (int i = 0; i < 10; ++i) {
        disk.beginEpoch(1000);
        disk.recordFaults(100000);
        disk.endEpoch();
    }
    EXPECT_GT(disk.faultLatencyMs(), 100.0);
}

TEST(ClientDriver, ThroughputApproachesClosedLoopBound)
{
    StatSet stats;
    hv::HostConfig host;
    host.ramBytes = 4ULL * GiB; // no memory pressure
    host.reserveBytes = 0;
    hv::Hypervisor hv(host, stats);
    VmId id = hv.createVm("vm", 1 * GiB, 0);
    guest::GuestOs os(hv, id, "vm", 9);

    auto spec = workload::tuscanyBigbank(); // small & fast
    jvm::ClassSet classes = jvm::ClassSet::synthesize(spec.classSpec);
    jvm::JavaVmConfig cfg = workload::makeJvmConfig(spec, classes, nullptr);
    jvm::JavaVm vm(os, cfg);
    vm.start();

    HostDisk disk(250, 2.0);
    ClientDriver driver(vm, spec, disk);
    ClientDriver::EpochResult last;
    for (int e = 0; e < 10; ++e) {
        disk.beginEpoch(2000);
        last = driver.runEpoch(2000);
        disk.endEpoch();
    }
    const double bound =
        spec.clientThreads * 1000.0 / (spec.thinkMs + spec.serviceMs);
    EXPECT_NEAR(last.achievedPerSec, bound, bound * 0.1);
    EXPECT_TRUE(last.slaMet);
    EXPECT_EQ(last.majorFaults, 0u);
}

TEST(ClientDriver, ThrashingServerKeepsGrinding)
{
    // Even when the cycle estimate explodes, every epoch must still
    // execute at least one request per client thread — a dying VM
    // keeps contending for memory instead of going silent.
    StatSet stats;
    hv::HostConfig host;
    host.ramBytes = 4ULL * GiB;
    host.reserveBytes = 0;
    hv::Hypervisor hv(host, stats);
    VmId id = hv.createVm("vm", 1 * GiB, 0);
    guest::GuestOs os(hv, id, "vm", 9);

    auto spec = workload::tuscanyBigbank();
    jvm::ClassSet classes = jvm::ClassSet::synthesize(spec.classSpec);
    jvm::JavaVmConfig cfg = workload::makeJvmConfig(spec, classes, nullptr);
    jvm::JavaVm vm(os, cfg);
    vm.start();

    // Saturate the disk model so the loop thinks it is thrashing.
    HostDisk disk(1.0, 1000.0);
    for (int i = 0; i < 5; ++i) {
        disk.beginEpoch(1000);
        disk.recordFaults(100000);
        disk.endEpoch();
    }
    ClientDriver driver(vm, spec, disk);
    disk.beginEpoch(100); // a very short epoch
    auto res = driver.runEpoch(100);
    disk.endEpoch();
    EXPECT_GE(res.requests, spec.clientThreads);
}

TEST(ClientDriver, WarmupEventuallyCompletes)
{
    StatSet stats;
    hv::HostConfig host;
    host.ramBytes = 4ULL * GiB;
    host.reserveBytes = 0;
    hv::Hypervisor hv(host, stats);
    VmId id = hv.createVm("vm", 1 * GiB, 0);
    guest::GuestOs os(hv, id, "vm", 9);

    auto spec = workload::tuscanyBigbank();
    jvm::ClassSet classes = jvm::ClassSet::synthesize(spec.classSpec);
    jvm::JavaVmConfig cfg = workload::makeJvmConfig(spec, classes, nullptr);
    jvm::JavaVm vm(os, cfg);
    vm.start();

    HostDisk disk(250, 2.0);
    ClientDriver driver(vm, spec, disk);
    EXPECT_FALSE(driver.warm());
    for (int e = 0; e < 60 && !driver.warm(); ++e) {
        disk.beginEpoch(2000);
        driver.runEpoch(2000);
        disk.endEpoch();
    }
    EXPECT_TRUE(driver.warm());
    EXPECT_TRUE(vm.allClassesLoaded());
}
