/**
 * @file
 * 256-VM boot storm: cold first-pass convergence wall time of the
 * serial walk vs. the sharded pipeline at 2 and 4 commit shards, plus
 * a migration-arrival variant.
 *
 * A boot storm is the cold-path worst case the dirty-log machinery
 * cannot help: every page is first-touch, so every visit pays the full
 * checksum (and usually digest) chain. The sharded pipeline spreads
 * that work over S workers — its classify phase runs the lane-parallel
 * content kernels, which interleave independent pages so the
 * latency-bound hashCombine chain turns throughput-bound.
 *
 * Three measurements:
 *
 *   1. BM_ColdContentKernels — the kernel microbench: ns/page for the
 *      scalar checksum()+digest() pair vs. checksumBatch()+digestBatch()
 *      over the same pages;
 *   2. cold convergence — build the full host (no warm-up run: all
 *      pages cold) and time runToQuiescence() at commit shards 1, 2, 4;
 *   3. migration arrival — add fresh VMs to the converged host and
 *      time re-convergence (the cluster layer's arrival regime).
 *
 * Each shard count is measured three times, alternating, and the best
 * run is reported. Identity gate BEFORE any timing is reported: the
 * full stat registry (minus the documented pipeline counters) and a
 * hash of the complete trace stream must be byte-identical at every
 * shard count in every run. argv: [vms] [arrivals] (defaults 256 and
 * 8; CI runs a reduced host).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "base/hash.hh"
#include "bench/bench_common.hh"
#include "bench/bench_json.hh"
#include "mem/page_data.hh"
#include "workload/workload_spec.hh"

using namespace jtps;

namespace
{

/** Compiler barrier: keeps the kernel results observably stored. */
inline void
clobber()
{
    asm volatile("" ::: "memory");
}

struct KernelBench
{
    double scalarNsPerPage = 0.0;
    double batchNsPerPage = 0.0;
    double speedup = 0.0;
};

/**
 * BM_ColdContentKernels: the per-page cost of a cold visit's content
 * work (one checksum + one digest), scalar vs. batched, over a pool
 * large enough to defeat trivial caching and re-walked enough times
 * to dominate the clock reads.
 */
KernelBench
benchColdContentKernels()
{
    constexpr std::size_t pages = 4096;
    constexpr int reps = 96;
    std::vector<mem::PageData> pool(pages);
    for (std::size_t i = 0; i < pages; ++i)
        pool[i] = mem::PageData::filled(i, 0xc01dbeefULL);
    std::vector<const mem::PageData *> ptrs(pages);
    for (std::size_t i = 0; i < pages; ++i)
        ptrs[i] = &pool[i];
    std::vector<std::uint32_t> sums(pages);
    std::vector<std::uint64_t> digs(pages);

    // Warm both paths (page the pool in, settle the clocks).
    for (std::size_t i = 0; i < pages; ++i) {
        sums[i] = ptrs[i]->checksum();
        digs[i] = ptrs[i]->digest();
    }
    mem::checksumBatch(ptrs.data(), sums.data(), pages);
    mem::digestBatch(ptrs.data(), digs.data(), pages);
    clobber();

    const auto s0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < pages; ++i) {
            sums[i] = ptrs[i]->checksum();
            digs[i] = ptrs[i]->digest();
        }
        clobber();
    }
    const auto s1 = std::chrono::steady_clock::now();

    const auto b0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        mem::checksumBatch(ptrs.data(), sums.data(), pages);
        mem::digestBatch(ptrs.data(), digs.data(), pages);
        clobber();
    }
    const auto b1 = std::chrono::steady_clock::now();

    // The batched values must be the scalar values, page for page —
    // the microbench doubles as one more identity check.
    for (std::size_t i = 0; i < pages; ++i) {
        if (sums[i] != ptrs[i]->checksum() ||
            digs[i] != ptrs[i]->digest()) {
            std::fprintf(stderr, "FAIL: batch kernel mismatch at page "
                                 "%zu\n", i);
            std::exit(1);
        }
    }

    KernelBench kb;
    const double denom = static_cast<double>(pages) * reps;
    kb.scalarNsPerPage =
        std::chrono::duration<double, std::nano>(s1 - s0).count() / denom;
    kb.batchNsPerPage =
        std::chrono::duration<double, std::nano>(b1 - b0).count() / denom;
    kb.speedup = kb.scalarNsPerPage / kb.batchNsPerPage;
    return kb;
}

struct StormResult
{
    double coldMs = 0.0;    //!< cold boot-storm convergence wall time
    double arrivalMs = 0.0; //!< migration-arrival re-convergence
    std::uint64_t pagesSharing = 0;
    std::uint64_t residentPages = 0;
    std::string coldSig;  //!< registry+trace after cold convergence
    std::string finalSig; //!< registry+trace after the arrivals
};

/** The density host's population (same 4-cycle as bench_host256). */
std::vector<workload::WorkloadSpec>
hostSpecs(std::size_t count)
{
    workload::WorkloadSpec idle = workload::dayTraderIntel();
    idle.name += "-idle";
    idle.clientThreads = 1;
    idle.guestCacheTouchesPerEpoch = 60;
    idle.lazyClassesPerEpoch = 40;
    idle.jitCompilesPerEpoch = 12;
    const workload::WorkloadSpec cycle[] = {
        workload::dayTraderIntel(), idle,
        workload::specjEnterprise2010(), workload::tuscanyBigbank()};
    std::vector<workload::WorkloadSpec> specs;
    specs.reserve(count);
    for (std::size_t l = 0; l < count; ++l)
        specs.push_back(cycle[l % 4]);
    return specs;
}

core::ScenarioConfig
stormConfig(std::size_t vms, unsigned shards)
{
    core::ScenarioConfig cfg = bench::paperConfig(true);
    cfg.host.ramBytes = vms * 640ULL * MiB;
    // The knob under test; everything else identical.
    cfg.ksmCommitShards = shards;
    return cfg;
}

/**
 * Full stat registry plus a fold of the entire trace stream, minus the
 * documented pipeline counters that follow the shard count
 * (docs/METRICS.md). Everything else must match bytewise at every
 * shard count.
 */
std::string
identitySignature(core::Scenario &sc)
{
    static const char *sizing[] = {
        "ksm.commit_shards",       "ksm.shard_imbalance_max",
        "ksm.scan_shards",         "ksm.precheck_candidates",
        "ksm.commit_replays",
    };
    std::string sig;
    sig.reserve(1 << 14);
    for (const auto &[name, value] : sc.stats().counters()) {
        bool skip = false;
        for (const char *s : sizing)
            skip = skip || name == s;
        if (skip)
            continue;
        sig += name;
        sig += '=';
        sig += std::to_string(value);
        sig += '\n';
    }
    for (const auto &[name, value] : sc.stats().scalars()) {
        sig += name;
        sig += '=';
        sig += std::to_string(value);
        sig += '\n';
    }
    std::uint64_t th = 0x7261636b;
    for (const auto &e : sc.trace().events()) {
        th = hashCombine(th, static_cast<std::uint64_t>(e.type));
        th = hashCombine(th, static_cast<std::uint64_t>(e.vm));
        th = hashCombine(th, e.tick);
        th = hashCombine(th, e.arg0);
        th = hashCombine(th, e.arg1);
    }
    sig += "trace_hash=" + std::to_string(th);
    sig += "\npages_shared=" + std::to_string(sc.ksm().pagesShared());
    sig += "\npages_sharing=" + std::to_string(sc.ksm().pagesSharing());
    sig += '\n';
    return sig;
}

StormResult
measure(std::size_t vms, std::size_t arrivals, unsigned shards)
{
    core::Scenario sc(stormConfig(vms, shards), hostSpecs(vms));
    sc.build();
    // No run(): the host is exactly as the boot storm left it — every
    // resident page cold, never visited. Trace the whole convergence
    // so the identity gate covers event streams, not just totals.
    sc.trace().enable();
    sc.ksm().setPagesToScan(100'000);

    StormResult r;
    const auto c0 = std::chrono::steady_clock::now();
    sc.ksm().runToQuiescence(64);
    const auto c1 = std::chrono::steady_clock::now();
    r.coldMs =
        std::chrono::duration<double, std::milli>(c1 - c0).count();
    r.coldSig = identitySignature(sc);

    // Migration arrivals: fresh guests land on the converged host and
    // bring a wall of never-scanned pages with them.
    const std::vector<workload::WorkloadSpec> fresh =
        hostSpecs(arrivals);
    const auto a0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < arrivals; ++i)
        sc.addVm(fresh[i]);
    sc.ksm().runToQuiescence(64);
    const auto a1 = std::chrono::steady_clock::now();
    r.arrivalMs =
        std::chrono::duration<double, std::milli>(a1 - a0).count();
    r.finalSig = identitySignature(sc);

    sc.hv().checkConsistency();
    r.pagesSharing = sc.ksm().pagesSharing();
    r.residentPages = sc.stats().get("host.resident_frames");
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::size_t vms =
        argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 256;
    const std::size_t arrivals =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 8;

    const KernelBench kb = benchColdContentKernels();
    std::printf("BM_ColdContentKernels: scalar %.1f ns/page, batched "
                "%.1f ns/page — x%.2f\n\n",
                kb.scalarNsPerPage, kb.batchNsPerPage, kb.speedup);

    std::printf("Boot storm — %zu VMs cold on one %zu MiB host, then "
                "%zu migration arrivals (best of 3 alternating runs)\n\n",
                vms, vms * 640, arrivals);

    // Index 0 is the serial walk every signature must match.
    const unsigned points[] = {1, 2, 4};
    constexpr std::size_t npoints = std::size(points);
    constexpr int reps = 3;
    StormResult results[npoints];
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < npoints; ++i) {
            const StormResult r = measure(vms, arrivals, points[i]);
            // The identity gate: a run that changed ANY observable
            // beyond the pipeline counters invalidates the bench.
            const StormResult &base = rep == 0 && i == 0 ? r : results[0];
            if (r.coldSig != base.coldSig || r.finalSig != base.finalSig) {
                std::fprintf(stderr,
                             "FAIL: registry/trace at %u commit shards "
                             "(run %d) diverged from the serial walk\n",
                             points[i], rep + 1);
                return 1;
            }
            if (rep == 0) {
                results[i] = r;
                continue;
            }
            results[i].coldMs = std::min(results[i].coldMs, r.coldMs);
            results[i].arrivalMs =
                std::min(results[i].arrivalMs, r.arrivalMs);
        }
    }

    std::printf("%-14s %12s %12s %12s\n", "commit shards", "cold ms",
                "arrival ms", "sharing pg");
    std::printf("%s\n", std::string(53, '-').c_str());
    for (std::size_t i = 0; i < npoints; ++i)
        std::printf("%-14u %12.0f %12.0f %12llu\n", points[i],
                    results[i].coldMs, results[i].arrivalMs,
                    (unsigned long long)results[i].pagesSharing);
    const double cold4 = results[0].coldMs / results[2].coldMs;
    const double arrival4 = results[0].arrivalMs / results[2].arrivalMs;
    std::printf("\nspeedup over the serial walk at 4 commit shards: "
                "cold x%.2f, arrival x%.2f (byte-identical "
                "registries+traces: yes)\n",
                cold4, arrival4);

    bench::BenchJson json("bootstorm", "cold-path commit shards");
    for (std::size_t i = 0; i < npoints; ++i) {
        json.beginRow();
        json.field("commit_shards", points[i]);
        json.field("cold_converge_ms", results[i].coldMs);
        json.field("arrival_converge_ms", results[i].arrivalMs);
        json.field("pages_sharing", results[i].pagesSharing);
        json.field("resident_pages", results[i].residentPages);
        json.endRow();
    }
    json.summaryField("host_vms", static_cast<std::uint64_t>(vms));
    json.summaryField("arrival_vms",
                      static_cast<std::uint64_t>(arrivals));
    json.summaryField("scalar_kernel_ns_per_page", kb.scalarNsPerPage);
    json.summaryField("batch_kernel_ns_per_page", kb.batchNsPerPage);
    json.summaryField("cold_kernel_speedup", kb.speedup);
    json.summaryField("cold_shard4_speedup", cold4);
    json.summaryField("arrival_shard4_speedup", arrival4);
    json.summaryField("registry_identical", std::uint64_t{1});
    json.write();
    return 0;
}
