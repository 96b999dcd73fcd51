/**
 * @file
 * Component microbenchmarks (google-benchmark): the hot paths of the
 * simulator itself — EPT-translated writes, COW breaks, KSM scanning,
 * whole-memory collapse, GC cycles, and the forensics walk. These
 * bound how large a scenario the harness can run per wall-second.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/accounting.hh"
#include "analysis/forensics.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "bench/bench_common.hh"
#include "bench/bench_json.hh"
#include "core/placement.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "jvm/java_heap.hh"
#include "ksm/ksm_scanner.hh"
#include "mem/frame_table.hh"
#include "sim/event_queue.hh"

using namespace jtps;

namespace
{

hv::HostConfig
host(Bytes ram = 2ULL * GiB)
{
    hv::HostConfig cfg;
    cfg.ramBytes = ram;
    cfg.reserveBytes = 0;
    return cfg;
}

void
BM_WriteWordResident(benchmark::State &state)
{
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    VmId vm = hv.createVm("vm", 64 * MiB, 0);
    for (Gfn g = 0; g < 1024; ++g)
        hv.writePage(vm, g, mem::PageData::filled(1, g));
    std::uint64_t i = 0;
    for (auto _ : state) {
        hv.writeWord(vm, i % 1024, i % 8, i);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteWordResident);

void
BM_DemandAllocWrite(benchmark::State &state)
{
    StatSet stats;
    hv::Hypervisor hv(host(8ULL * GiB), stats);
    constexpr Bytes guest_mem = 7ULL * GiB;
    VmId vm = hv.createVm("vm", guest_mem, 0);
    Gfn g = 0;
    for (auto _ : state) {
        if (g == bytesToPages(guest_mem)) {
            // Every page is resident: start over on a fresh VM, off
            // the clock, so each timed write stays a demand fault.
            state.PauseTiming();
            hv.releaseVmMemory(vm);
            vm = hv.createVm("vm", guest_mem, 0);
            g = 0;
            state.ResumeTiming();
        }
        hv.writePage(vm, g, mem::PageData::filled(2, g));
        ++g;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandAllocWrite);

void
BM_CowBreak(benchmark::State &state)
{
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    VmId a = hv.createVm("a", 256 * MiB, 0);
    VmId b = hv.createVm("b", 256 * MiB, 0);
    constexpr Gfn n = 16384;
    for (Gfn g = 0; g < n; ++g) {
        hv.writePage(a, g, mem::PageData::filled(3, g));
        hv.writePage(b, g, mem::PageData::filled(3, g));
    }
    hv.collapseIdenticalPages();
    Gfn g = 0;
    for (auto _ : state) {
        if (g >= n) {
            // Re-establish sharing once the pool is exhausted (not
            // timed precisely, but amortized over many iterations).
            state.PauseTiming();
            hv.collapseIdenticalPages();
            g = 0;
            state.ResumeTiming();
        }
        hv.writeWord(b, g++, 0, 42);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CowBreak);

void
BM_KsmScanPass(benchmark::State &state)
{
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    VmId a = hv.createVm("a", 256 * MiB, 0);
    VmId b = hv.createVm("b", 256 * MiB, 0);
    const Gfn n = state.range(0);
    for (Gfn g = 0; g < n; ++g) {
        hv.writePage(a, g, mem::PageData::filled(4, g));
        hv.writePage(b, g, mem::PageData::filled(4, g));
    }
    ksm::KsmConfig cfg;
    cfg.pagesToScan = 1u << 30; // one batch = one pass
    ksm::KsmScanner scanner(hv, cfg, stats);
    for (auto _ : state)
        benchmark::DoNotOptimize(scanner.scanBatch());
    state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_KsmScanPass)->Arg(4096)->Arg(32768);

void
BM_KsmScanPassTraceWired(benchmark::State &state)
{
    // BM_KsmScanPass with a TraceBuffer wired into the hypervisor but
    // left disabled — the cost of the tracing hooks when off. Guarded
    // to stay within noise (<2%) of BM_KsmScanPass.
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    TraceBuffer trace;
    hv.setTrace(&trace);
    VmId a = hv.createVm("a", 256 * MiB, 0);
    VmId b = hv.createVm("b", 256 * MiB, 0);
    const Gfn n = state.range(0);
    for (Gfn g = 0; g < n; ++g) {
        hv.writePage(a, g, mem::PageData::filled(4, g));
        hv.writePage(b, g, mem::PageData::filled(4, g));
    }
    ksm::KsmConfig cfg;
    cfg.pagesToScan = 1u << 30; // one batch = one pass
    ksm::KsmScanner scanner(hv, cfg, stats);
    for (auto _ : state)
        benchmark::DoNotOptimize(scanner.scanBatch());
    state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_KsmScanPassTraceWired)->Arg(4096)->Arg(32768);

void
BM_TraceRecordDisabled(benchmark::State &state)
{
    // A disabled TraceBuffer::record() must cost one predictable
    // branch: this is the per-event price every hook pays when
    // tracing is off.
    TraceBuffer trace;
    std::uint64_t i = 0;
    for (auto _ : state) {
        trace.record(TraceEventType::CowBreak, 0, i, i);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordDisabled);

void
BM_TraceRecordEnabled(benchmark::State &state)
{
    // The enabled path, recording into a pre-reserved buffer.
    TraceBuffer trace;
    trace.enable(1u << 20);
    std::uint64_t i = 0;
    for (auto _ : state) {
        if (trace.events().size() >= (1u << 20) - 1) {
            state.PauseTiming();
            trace.clear();
            state.ResumeTiming();
        }
        trace.record(TraceEventType::CowBreak, 0, i, i);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordEnabled);

void
BM_PageDigest(benchmark::State &state)
{
    // One mem::PageData::digest() per iteration, over 4096 distinct
    // pages (256 KiB of sector words): the content work of every slow
    // KSM visit, whose result is both the calm key and the tree key.
    std::vector<mem::PageData> pages(4096);
    for (std::size_t i = 0; i < pages.size(); ++i)
        pages[i] = mem::PageData::filled(11, i);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pages[i].digest());
        i = (i + 1) & (pages.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageDigest);

void
BM_KsmScanDistinctPages(benchmark::State &state)
{
    // Scan throughput over calm, all-distinct pages: every visit is a
    // stable-tree miss followed by an unstable-tree insert, i.e. the
    // tree cost of a warm-up pass before any sharing exists.
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    VmId a = hv.createVm("a", 256 * MiB, 0);
    VmId b = hv.createVm("b", 256 * MiB, 0);
    const Gfn n = state.range(0);
    for (Gfn g = 0; g < n; ++g) {
        hv.writePage(a, g, mem::PageData::filled(6, g));
        hv.writePage(b, g, mem::PageData::filled(7, g));
    }
    ksm::KsmConfig cfg;
    cfg.pagesToScan = 1u << 30; // one batch = one pass
    ksm::KsmScanner scanner(hv, cfg, stats);
    scanner.scanBatch(); // pass 1: record digests (nothing calm yet)
    for (auto _ : state)
        benchmark::DoNotOptimize(scanner.scanBatch());
    state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_KsmScanDistinctPages)->Arg(4096)->Arg(32768);

void
BM_KsmScanStableMiss(benchmark::State &state)
{
    // Scan throughput with a large populated stable tree: VMs a and b
    // merge into n stable frames; VM c's n distinct pages then probe
    // that tree (miss) and rebuild the unstable tree every pass.
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    VmId a = hv.createVm("a", 256 * MiB, 0);
    VmId b = hv.createVm("b", 256 * MiB, 0);
    VmId c = hv.createVm("c", 256 * MiB, 0);
    const Gfn n = state.range(0);
    for (Gfn g = 0; g < n; ++g) {
        hv.writePage(a, g, mem::PageData::filled(8, g));
        hv.writePage(b, g, mem::PageData::filled(8, g));
        hv.writePage(c, g, mem::PageData::filled(9, g));
    }
    ksm::KsmConfig cfg;
    cfg.pagesToScan = 1u << 30; // one batch = one pass
    ksm::KsmScanner scanner(hv, cfg, stats);
    scanner.runToQuiescence();
    for (auto _ : state)
        benchmark::DoNotOptimize(scanner.scanBatch());
    state.SetItemsProcessed(state.iterations() * 3 * n);
}
BENCHMARK(BM_KsmScanStableMiss)->Arg(4096)->Arg(32768);

void
BM_PagesSharedSharing(benchmark::State &state)
{
    // The sharing monitor samples pagesShared()/pagesSharing() on a
    // fixed period; with per-call frame walks this scales with host
    // size instead of O(1).
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    VmId a = hv.createVm("a", 256 * MiB, 0);
    VmId b = hv.createVm("b", 256 * MiB, 0);
    for (Gfn g = 0; g < 32768; ++g) {
        hv.writePage(a, g, mem::PageData::filled(10, g));
        hv.writePage(b, g, mem::PageData::filled(10, g));
    }
    ksm::KsmConfig cfg;
    cfg.pagesToScan = 1u << 30;
    ksm::KsmScanner scanner(hv, cfg, stats);
    scanner.runToQuiescence();
    for (auto _ : state) {
        benchmark::DoNotOptimize(scanner.pagesShared());
        benchmark::DoNotOptimize(scanner.pagesSharing());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PagesSharedSharing);

void
BM_CollapseIdenticalPages(benchmark::State &state)
{
    StatSet stats;
    for (auto _ : state) {
        state.PauseTiming();
        StatSet s2;
        hv::Hypervisor hv(host(), s2);
        VmId a = hv.createVm("a", 128 * MiB, 0);
        VmId b = hv.createVm("b", 128 * MiB, 0);
        for (Gfn g = 0; g < 16384; ++g) {
            hv.writePage(a, g, mem::PageData::filled(5, g));
            hv.writePage(b, g, mem::PageData::filled(5, g));
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(hv.collapseIdenticalPages());
    }
    state.SetItemsProcessed(state.iterations() * 32768);
}
BENCHMARK(BM_CollapseIdenticalPages);

void
BM_EventQueueChurn(benchmark::State &state)
{
    // The simulator's standing load on the event queue: every
    // component is a periodic event that reschedules itself each wake,
    // so a run is almost pure pop-min + push churn at a roughly stable
    // queue size — the case the binary heap replaces the old std::map
    // for. Mixed periods keep the heap order genuinely shuffling.
    const int n_events = static_cast<int>(state.range(0));
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (int i = 0; i < n_events; ++i) {
        const Tick period = 1 + (i % 7) + (i % 3);
        q.schedulePeriodic(period, [&fired]() {
            ++fired;
            return true;
        });
    }
    Tick until = 0;
    for (auto _ : state) {
        until += 16;
        q.runUntil(until);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
    q.clear();
}
BENCHMARK(BM_EventQueueChurn)->Arg(16)->Arg(256);

void
BM_GcCycle(benchmark::State &state)
{
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    VmId vm = hv.createVm("vm", 256 * MiB, 0);
    guest::GuestOs os(hv, vm, "vm", 1);
    jvm::GcConfig gc;
    gc.heapBytes = 64 * MiB;
    jvm::JavaHeap heap(os, os.spawn("j", true), gc, 1);
    heap.init();
    for (auto _ : state)
        heap.allocate(64 * MiB); // roughly one full GC cycle's worth
    state.SetBytesProcessed(state.iterations() * 64 * MiB);
}
BENCHMARK(BM_GcCycle);

void
BM_ForEachResidentSparse(benchmark::State &state)
{
    // A large, nearly-empty frame table: 1M slots with every 257th
    // frame resident (a ballooned-down or freshly-booted host looks
    // like this). The word-scanning bitmap iterator must pay per
    // resident frame, not per slot.
    constexpr std::uint64_t n = 1u << 20;
    mem::FrameTable table(n);
    std::vector<Hfn> hfns(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        hfns[i] = table.alloc(mem::Mapping{0, static_cast<Gfn>(i)},
                              mem::PageData::filled(1, i));
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i % 257 != 0) {
            table.removeMapping(hfns[i],
                                mem::Mapping{0, static_cast<Gfn>(i)});
        }
    }
    for (auto _ : state) {
        std::uint64_t sum = 0;
        table.forEachResident(
            [&sum](Hfn, const mem::Frame &f) { sum += f.refcount; });
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ForEachResidentSparse);

void
BM_ForensicsWalkAndAccount(benchmark::State &state)
{
    StatSet stats;
    hv::Hypervisor hv(host(), stats);
    VmId vm = hv.createVm("vm", 256 * MiB, 0);
    guest::GuestOs os(hv, vm, "vm", 1);
    guest::KernelConfig k;
    k.textBytes = 8 * MiB;
    k.dataBytes = 4 * MiB;
    k.slabBytes = 4 * MiB;
    k.sharedBootCacheBytes = 16 * MiB;
    k.privateBootCacheBytes = 8 * MiB;
    os.bootKernel(k);
    std::vector<const guest::GuestOs *> guests = {&os};
    for (auto _ : state) {
        analysis::Snapshot snap = analysis::captureSnapshot(hv, guests);
        analysis::OwnerAccounting acct(snap);
        benchmark::DoNotOptimize(acct.attributedBytes());
    }
    state.SetItemsProcessed(state.iterations() *
                            hv.residentFrames());
}
BENCHMARK(BM_ForensicsWalkAndAccount);

// ---------------------------------------------------------------------
// Converged-scenario benchmarks (ISSUE 3): steady-state cost of one
// full KSM scan pass with and without incremental (write-generation)
// skipping, and of a forensics snapshot plus owner accounting. One
// DayTrader x 4 scenario is built once, run to KSM quiescence, and
// shared read-only by every benchmark below.
// ---------------------------------------------------------------------

core::Scenario &
convergedScenario()
{
    static std::unique_ptr<core::Scenario> scenario = []() {
        setVerbose(false);
        core::ScenarioConfig cfg = bench::paperConfig(false);
        // Shorter phases than the figure benches: the benchmarks below
        // only need a converged steady-state memory image, not the
        // paper's measurement protocol.
        cfg.warmupMs = 20'000;
        cfg.steadyMs = 10'000;
        std::vector<workload::WorkloadSpec> vms(
            4, workload::dayTraderIntel());
        auto s = std::make_unique<core::Scenario>(cfg, vms);
        s->build();
        s->run();
        // Settle: with the drivers stopped the memory image is static,
        // so running the scenario's scanner to quiescence merges every
        // remaining duplicate. The timed passes below then do pure
        // steady-state revisits (no merges mutating the shared image).
        s->ksm().runToQuiescence();
        return s;
    }();
    return *scenario;
}

void
convergedScanPass(benchmark::State &state, bool incremental)
{
    core::Scenario &scenario = convergedScenario();
    StatSet stats;
    ksm::KsmConfig cfg;
    cfg.pagesToScan = 1u << 30; // one batch = one pass
    cfg.incrementalScan = incremental;
    // A host has one page listener, the scenario's scanner; the timed
    // scanner takes the slot while it exists (nothing is discarded
    // meanwhile) and hands it back.
    scenario.hv().setPageListener(nullptr);
    std::uint64_t pages = 0;
    {
        ksm::KsmScanner scanner(scenario.hv(), cfg, stats);
        scanner.scanBatch(); // pass 1: record digests/generations
        scanner.scanBatch(); // pass 2: calm now; trees built
        for (auto _ : state)
            pages += scanner.scanBatch();
    }
    scenario.hv().setPageListener(&scenario.ksm());
    state.SetItemsProcessed(static_cast<std::int64_t>(pages));
}

void
BM_ConvergedScanPassReference(benchmark::State &state)
{
    convergedScanPass(state, /*incremental=*/false);
}
// The speedup compares the fastest of several repetitions of each
// pass, which keeps one slow repetition on a shared runner from
// deciding the ratio.
constexpr int kConvergedScanRepetitions = 5;

BENCHMARK(BM_ConvergedScanPassReference)
    ->Repetitions(kConvergedScanRepetitions);

void
BM_ConvergedScanPassIncremental(benchmark::State &state)
{
    convergedScanPass(state, /*incremental=*/true);
}
BENCHMARK(BM_ConvergedScanPassIncremental)
    ->Repetitions(kConvergedScanRepetitions);

void
BM_ConvergedForensicsSnapshot(benchmark::State &state)
{
    core::Scenario &scenario = convergedScenario();
    std::vector<const guest::GuestOs *> guests;
    for (std::size_t i = 0; i < scenario.vmCount(); ++i)
        guests.push_back(&scenario.guest(i));
    for (auto _ : state) {
        analysis::Snapshot snap =
            analysis::captureSnapshot(scenario.hv(), guests);
        analysis::OwnerAccounting acct(snap);
        benchmark::DoNotOptimize(acct.attributedBytes());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(scenario.hv().residentFrames()));
}
BENCHMARK(BM_ConvergedForensicsSnapshot);

void
BM_AdaptiveBalloon(benchmark::State &state)
{
    // One control interval of the adaptive balloon stack over four
    // guests: a window of dirty traffic into the PML rings, then one
    // estimator sample and one governor step (the per-interval cost
    // the ksmtuned-style daemon adds to a run).
    StatSet stats;
    hv::HostConfig hc = host();
    hc.pmlRingSlots = 4096;
    hv::Hypervisor hv(hc, stats);
    std::vector<VmId> vms;
    std::vector<std::unique_ptr<guest::GuestOs>> owned;
    std::vector<guest::GuestOs *> guests;
    for (int i = 0; i < 4; ++i) {
        const std::string name = "vm" + std::to_string(i);
        const VmId vm = hv.createVm(name, 64 * MiB, 0);
        auto os = std::make_unique<guest::GuestOs>(hv, vm, name, 1);
        guest::KernelConfig k;
        k.textBytes = 1 * MiB;
        k.dataBytes = 1 * MiB;
        k.slabBytes = 1 * MiB;
        k.sharedBootCacheBytes = 2 * MiB;
        k.privateBootCacheBytes = 2 * MiB;
        os->bootKernel(k);
        vms.push_back(vm);
        guests.push_back(os.get());
        owned.push_back(std::move(os));
    }
    analysis::WssEstimator wss(hv, analysis::WssConfig{}, stats);
    core::BalloonGovernorConfig bcfg;
    bcfg.slackPages = 1024;
    core::BalloonGovernor governor(wss, bcfg, stats);
    std::uint64_t w = 0;
    for (auto _ : state) {
        // Dirty a 512-page working set across the guests (resident
        // kernel pages, never balloon-reclaimable), then run one
        // sample + step interval.
        for (int i = 0; i < 512; ++i) {
            ++w;
            hv.writeWord(vms[static_cast<std::size_t>(i) % 4],
                         8 + (w % 128), w % 8, w);
        }
        wss.sample();
        governor.step(guests);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveBalloon);

void
BM_PlacementPlan(benchmark::State &state)
{
    // Greedy sharing-aware packing of a fleet (range(0) mixed VM specs
    // into 16-slot hosts). The cluster layer plans whole datacenters
    // with this, so it must stay usable at 256+ VMs — fingerprints are
    // sorted flat vectors and every candidate gain is one merge walk
    // against the host's tag table instead of two from-scratch host
    // estimates.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const workload::WorkloadSpec cycle[] = {
        workload::dayTraderIntel(), workload::specjEnterprise2010(),
        workload::tpcwJava(), workload::tuscanyBigbank()};
    std::vector<workload::WorkloadSpec> specs;
    specs.reserve(n);
    for (std::size_t l = 0; l < n; ++l)
        specs.push_back(cycle[l % 4]);
    for (auto _ : state) {
        auto placement =
            core::PlacementPlanner::plan(specs, 16, true);
        benchmark::DoNotOptimize(placement);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlacementPlan)->Arg(64)->Arg(256);

/**
 * Console reporter that additionally captures per-benchmark adjusted
 * real time, so main() can emit BENCH_micro_components.json (and the
 * incremental-scan speedup) via JTPS_BENCH_JSON. A benchmark run with
 * repetitions is captured as its fastest repetition; the aggregate
 * rows are only printed.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Row
    {
        double realTimeNs = 0.0;
        std::int64_t iterations = 0;
    };

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type == Run::RT_Aggregate)
                continue;
            Row row;
            row.realTimeNs = run.GetAdjustedRealTime();
            row.iterations = static_cast<std::int64_t>(run.iterations);
            auto [it, fresh] = rows_.emplace(run.benchmark_name(), row);
            if (!fresh && row.realTimeNs < it->second.realTimeNs)
                it->second = row;
        }
        ConsoleReporter::ReportRuns(reports);
    }

    double
    realTimeNs(const std::string &name) const
    {
        auto it = rows_.find(name);
        return it == rows_.end() ? 0.0 : it->second.realTimeNs;
    }

    const std::map<std::string, Row> &rows() const { return rows_; }

  private:
    std::map<std::string, Row> rows_;
};

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    bench::BenchJson json("micro_components", "component micro");
    for (const auto &[name, row] : reporter.rows()) {
        json.beginRow();
        json.field("name", name);
        json.field("real_time_ns", row.realTimeNs);
        json.field("iterations", row.iterations);
        json.endRow();
    }
    const std::string repeats =
        "/repeats:" + std::to_string(kConvergedScanRepetitions);
    const double scan_ref =
        reporter.realTimeNs("BM_ConvergedScanPassReference" + repeats);
    const double scan_inc =
        reporter.realTimeNs("BM_ConvergedScanPassIncremental" + repeats);
    if (scan_ref > 0 && scan_inc > 0) {
        json.summaryField("converged_scan_ns_reference", scan_ref);
        json.summaryField("converged_scan_ns_incremental", scan_inc);
        json.summaryField("converged_scan_speedup",
                          scan_ref / scan_inc);
    }
    const double eq16 = reporter.realTimeNs("BM_EventQueueChurn/16");
    const double eq256 = reporter.realTimeNs("BM_EventQueueChurn/256");
    if (eq16 > 0)
        json.summaryField("event_queue_churn_ns_16", eq16);
    if (eq256 > 0)
        json.summaryField("event_queue_churn_ns_256", eq256);
    const double fx = reporter.realTimeNs("BM_ConvergedForensicsSnapshot");
    if (fx > 0)
        json.summaryField("forensics_snapshot_ns", fx);
    const double ab = reporter.realTimeNs("BM_AdaptiveBalloon");
    if (ab > 0)
        json.summaryField("adaptive_balloon_interval_ns", ab);
    const double pp64 = reporter.realTimeNs("BM_PlacementPlan/64");
    const double pp256 = reporter.realTimeNs("BM_PlacementPlan/256");
    if (pp64 > 0)
        json.summaryField("placement_plan_ns_64", pp64);
    if (pp256 > 0)
        json.summaryField("placement_plan_ns_256", pp256);
    const double fer = reporter.realTimeNs("BM_ForEachResidentSparse");
    if (fer > 0)
        json.summaryField("foreach_resident_sparse_ns", fer);
    const double pd = reporter.realTimeNs("BM_PageDigest");
    if (pd > 0)
        json.summaryField("page_digest_ns", pd);
    const double gc = reporter.realTimeNs("BM_GcCycle");
    if (gc > 0)
        json.summaryField("gc_cycle_ns", gc);
    json.write();
    return 0;
}
