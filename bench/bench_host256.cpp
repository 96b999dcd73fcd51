/**
 * @file
 * 256-VM single-host density: converged KSM pass wall time vs the
 * number of digest shards in the commit phase (headline bench for
 * intra-host sharding).
 *
 * One overcommitted host runs 256 Java guests (a DayTrader / idle
 * appliance / SPECjEnterprise / Tuscany cycle, CDS on, so the archive
 * pages merge massively while every heap stays unique). After the
 * scenario converges, the bench times full KSM passes over the whole
 * host — the regime the sharded commit targets: millions of resident
 * pages per pass, most of them calm, each needing a digest-keyed tree
 * probe that used to run on one core.
 *
 * Methodology per shard count S in {1, 2, 4}:
 *
 *   1. build + run the identical seeded scenario (ksm.commitShards is
 *      the ONLY knob that differs: S = 1 is the serial walk, S >= 2
 *      the sharded pipeline on S workers);
 *   2. converge KSM (runToQuiescence) and capture the full stat
 *      registry minus the documented pipeline counters
 *      (docs/METRICS.md: ksm.commit_shards, ksm.shard_imbalance_max,
 *      ksm.scan_shards, ksm.precheck_candidates, ksm.commit_replays);
 *   3. assert the signature is byte-identical to the S=1 baseline —
 *      BEFORE any timing of this configuration is reported;
 *   4. time `timedPasses` converged passes, each preceded by an
 *      identical deterministic churn burst (re-merge + unique-write
 *      traffic, the steady-state diet of a dense host).
 *
 * The timed region is simulated-work-identical across S by
 * construction, so the wall-time ratio is the commit-shard speedup and
 * nothing else. argv: [vms] [timedPasses] (defaults 256 and 3; CI runs
 * a reduced host).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/hash.hh"
#include "bench/bench_common.hh"
#include "bench/bench_json.hh"
#include "workload/workload_spec.hh"

using namespace jtps;

namespace
{

constexpr Tick warmupMs = 8'000;
constexpr Tick steadyMs = 4'000;

/** Writes per churn burst (scaled down with the VM count). */
constexpr std::uint64_t churnWritesPer256Vms = 24'576;

struct HostResult
{
    double passMs = 0.0;       //!< mean converged-pass wall time
    double quiesceMs = 0.0;    //!< untimed convergence wall time
    std::uint64_t pagesShared = 0;
    std::uint64_t pagesSharing = 0;
    std::uint64_t residentPages = 0;
    std::uint64_t candidates = 0;
    std::uint64_t imbalance = 0;
    std::string signature; //!< registry minus the sizing counters
};

/**
 * The density host's population: the fleet bench's 4-cycle without the
 * TPC-W tier (DayTrader, near-idle appliance, SPECjEnterprise,
 * Tuscany). Identical workloads share one CDS archive each, so the
 * host carries both a large stable mass and a large unique-heap mass —
 * the mix that exercises every verdict of the sharded commit.
 */
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
hostConfig(std::size_t vms, unsigned shards)
{
    core::ScenarioConfig cfg = bench::paperConfig(true);
    cfg.warmupMs = warmupMs;
    cfg.steadyMs = steadyMs;
    // RAM at the dedup knee (as in the fleet bench): without sharing
    // the host would thrash, with it the fleet fits. Scales with the
    // VM count so the reduced CI host sits in the same regime.
    cfg.host.ramBytes = vms * 640ULL * MiB;
    cfg.ksm.pagesToScan = 5'000;
    // The only knob that may differ between measured configurations.
    cfg.ksmCommitShards = shards;
    return cfg;
}

/**
 * Full stat registry as one string, minus the pipeline counters that
 * legitimately differ across shard counts (docs/METRICS.md).
 * Everything else — merge totals, stale-node counts, swap traffic,
 * per-VM gauges — must match bytewise.
 */
std::string
registrySignature(core::Scenario &sc)
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
        for (const char *c : sizing)
            skip = skip || name == c;
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
    sig += "pages_shared=" + std::to_string(sc.ksm().pagesShared());
    sig += "\npages_sharing=" + std::to_string(sc.ksm().pagesSharing());
    sig += '\n';
    return sig;
}

/** Drive whole KSM passes (the scanner is off the event queue here). */
void
fullPasses(core::Scenario &sc, std::uint64_t passes)
{
    const std::uint64_t target = sc.ksm().fullScans() + passes;
    while (sc.ksm().fullScans() < target)
        sc.ksm().scanBatch();
}

/**
 * One deterministic churn burst: the steady-state write traffic of a
 * dense host, identical at every shard count. Two thirds of the
 * writes draw from a small shared-content pool (COW-broken archive
 * pages that KSM re-merges next pass), one third is unique heap churn
 * (NotCalm now, SlowCalm + tree probe the pass after).
 */
void
churnBurst(core::Scenario &sc, std::size_t vms, std::uint64_t pass)
{
    const std::uint64_t writes =
        churnWritesPer256Vms * vms / 256 + 1;
    for (std::uint64_t i = 0; i < writes; ++i) {
        const std::uint64_t h = hash3(0x636875726eULL, pass, i);
        const VmId vm = static_cast<VmId>(h % vms);
        const Gfn gfn = 2048 + (hashCombine(h, 1) % 8192);
        mem::PageData d =
            (i % 3 != 0)
                ? mem::PageData::filled(7 + i % 11, 0)
                : mem::PageData::filled(hashCombine(h, 2), pass);
        sc.hv().writePage(vm, gfn, d);
    }
}

HostResult
measure(std::size_t vms, unsigned shards, std::uint64_t timed_passes)
{
    core::Scenario sc(hostConfig(vms, shards), hostSpecs(vms));
    sc.build();
    sc.run();

    // Converge: big batches, scan until two merge-free passes.
    sc.ksm().setPagesToScan(100'000);
    const auto q0 = std::chrono::steady_clock::now();
    sc.ksm().runToQuiescence(64);
    const auto q1 = std::chrono::steady_clock::now();

    HostResult r;
    r.quiesceMs =
        std::chrono::duration<double, std::milli>(q1 - q0).count();
    r.signature = registrySignature(sc);

    // Timed converged passes (identical simulated work at any S).
    double wall = 0.0;
    for (std::uint64_t p = 0; p < timed_passes; ++p) {
        churnBurst(sc, vms, p);
        const auto t0 = std::chrono::steady_clock::now();
        fullPasses(sc, 1);
        const auto t1 = std::chrono::steady_clock::now();
        wall +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
    }
    r.passMs = wall / static_cast<double>(timed_passes);

    sc.hv().checkConsistency();
    r.pagesShared = sc.ksm().pagesShared();
    r.pagesSharing = sc.ksm().pagesSharing();
    r.residentPages = sc.stats().get("host.resident_frames");
    r.candidates = sc.stats().get("ksm.precheck_candidates");
    r.imbalance = sc.stats().get("ksm.shard_imbalance_max");
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::size_t vms =
        argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 256;
    const std::uint64_t timed_passes =
        argc > 2 ? static_cast<std::uint64_t>(std::atoi(argv[2])) : 3;

    std::printf("Host density — %zu VMs on one %zu MiB host, CDS on, "
                "commit shards swept 1/2/4 (1 = serial walk)\n\n",
                vms, vms * 640);
    std::printf("%-14s %14s %14s %12s %12s %12s\n", "commit shards",
                "pass ms", "quiesce ms", "sharing pg", "candidates",
                "imbalance");
    std::printf("%s\n", std::string(84, '-').c_str());

    const unsigned points[3] = {1, 2, 4};
    HostResult results[3];
    bool identical = true;
    for (int p = 0; p < 3; ++p) {
        results[p] = measure(vms, points[p], timed_passes);
        // The identity gate: a shard count that changed ANY observable
        // beyond the pipeline counters invalidates its timing row.
        if (p > 0 && results[p].signature != results[0].signature) {
            identical = false;
            std::fprintf(stderr,
                         "FAIL: registry at %u commit shards diverged "
                         "from the serial baseline\n",
                         points[p]);
            return 1;
        }
        std::printf("%-14u %14.0f %14.0f %12llu %12llu %12llu\n",
                    points[p], results[p].passMs, results[p].quiesceMs,
                    (unsigned long long)results[p].pagesSharing,
                    (unsigned long long)results[p].candidates,
                    (unsigned long long)results[p].imbalance);
        std::fflush(stdout);
    }

    const double s2 = results[0].passMs / results[1].passMs;
    const double s4 = results[0].passMs / results[2].passMs;
    std::printf("\nconverged-pass speedup: x%.2f at 2 shards, x%.2f at "
                "4 shards (byte-identical registries: %s)\n",
                s2, s4, identical ? "yes" : "NO");

    bench::BenchJson json("host256", "intra-host sharding");
    for (int p = 0; p < 3; ++p) {
        json.beginRow();
        json.field("commit_shards", points[p]);
        json.field("converged_pass_ms", results[p].passMs);
        json.field("quiesce_ms", results[p].quiesceMs);
        json.field("pages_shared", results[p].pagesShared);
        json.field("pages_sharing", results[p].pagesSharing);
        json.field("resident_pages", results[p].residentPages);
        json.field("precheck_candidates", results[p].candidates);
        json.field("shard_imbalance_max", results[p].imbalance);
        json.endRow();
    }
    json.summaryField("host_vms", static_cast<std::uint64_t>(vms));
    json.summaryField("timed_passes", timed_passes);
    json.summaryField("commit_shard2_speedup", s2);
    json.summaryField("commit_shard4_speedup", s4);
    json.summaryField("registry_identical",
                      static_cast<std::uint64_t>(identical ? 1 : 0));
    json.write();
    return identical ? 0 : 1;
}
