/**
 * @file
 * Extension: balloon policy comparison — static vs adaptive vs
 * ksmtuned (paper §VI).
 *
 * The paper's §VI ballooning comparison uses fixed, hand-picked
 * balloon sizes because KVM ships no balloon policy manager. This
 * bench adds the missing manager and compares four policies on a
 * mixed 8-VM fleet — 4 loaded DayTrader guests plus 4 near-idle
 * appliances (booted WAS, a trickle of traffic), the asymmetry every
 * real consolidation host has and a fixed balloon size cannot see:
 *
 *   - none:      no reclaim beyond the baseline KSM schedule
 *   - static:    a fixed 120 MiB balloon inflated in every guest at
 *                boot (the paper's hand-sized approach — busy and
 *                idle guests shed the same page cache, and the busy
 *                ones refault it from disk later)
 *   - adaptive:  core::BalloonGovernor resizing each balloon every
 *                interval toward the guest's PML-estimated write
 *                working set plus slack, with refault backoff — it
 *                should balloon the idle guests deep and leave the
 *                loaded ones alone
 *   - ksmtuned:  no balloons at all — the ksm::KsmTuned governor owns
 *                the scan rate and reclaims by sharing instead of by
 *                discarding (reads stay free, the §VI distinction)
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "bench/bench_json.hh"
#include "guest/balloon.hh"
#include "ksm/ksm_tuned.hh"

using namespace jtps;

namespace
{

enum class Policy
{
    None,
    Static,
    Adaptive,
    Ksmtuned
};

struct Result
{
    double throughput;
    Bytes ballooned;
    Bytes balloonedBusy;
    Bytes balloonedIdle;
    std::uint64_t cacheMisses;
    Bytes hostResident;
    std::uint64_t wssResizes;
    std::uint64_t pmlAppends;
};

constexpr int numBusy = 4;
constexpr int numIdle = 4;
constexpr int numVms = numBusy + numIdle;
constexpr Tick warmupMs = 70'000;
constexpr Tick steadyMs = 120'000;

/**
 * A consolidation-fodder guest: same image and boot as the loaded
 * DayTrader VMs, but almost no traffic — the memory a working-set
 * governor should find and a fixed balloon size cannot.
 */
workload::WorkloadSpec
idleAppliance()
{
    workload::WorkloadSpec s = workload::dayTraderIntel();
    s.name += "-idle";
    s.clientThreads = 1;
    s.guestCacheTouchesPerEpoch = 60;
    s.lazyClassesPerEpoch = 40;
    s.jitCompilesPerEpoch = 12;
    return s;
}

Result
measure(Policy policy)
{
    core::ScenarioConfig cfg = bench::paperConfig(false);
    cfg.warmupMs = warmupMs;
    cfg.steadyMs = steadyMs;
    if (policy == Policy::Adaptive) {
        cfg.host.pmlRingSlots = 4096;
        cfg.adaptiveBalloon = true;
    }
    std::vector<workload::WorkloadSpec> vms(
        numBusy, workload::dayTraderIntel());
    vms.insert(vms.end(), numIdle, idleAppliance());
    core::Scenario scenario(cfg, vms);
    scenario.build();

    std::vector<std::unique_ptr<guest::BalloonDriver>> balloons;
    if (policy == Policy::Static) {
        // The balloon manager sizes every guest down right after boot
        // and never revisits the choice.
        for (int v = 0; v < numVms; ++v) {
            balloons.push_back(std::make_unique<guest::BalloonDriver>(
                scenario.guest(v)));
            balloons.back()->inflate(120 * MiB);
        }
    }

    std::unique_ptr<ksm::KsmTuned> tuned;
    if (policy == Policy::Ksmtuned) {
        // The governor owns pages_to_scan instead of the paper's
        // manual two-phase schedule.
        ksm::KsmTunedConfig tcfg;
        tuned = std::make_unique<ksm::KsmTuned>(
            scenario.hv(), scenario.ksm(), tcfg, scenario.stats());
        tuned->attach(scenario.queue());
        scenario.ksm().setPagesToScan(640);
        scenario.ksm().attach(scenario.queue());
        scenario.runFor(warmupMs + steadyMs);
    } else {
        scenario.run();
    }

    Result res{};
    res.throughput = scenario.aggregateThroughput(12);
    for (int v = 0; v < numVms; ++v) {
        const Bytes held =
            pagesToBytes(scenario.guest(v).balloonHeldPages());
        res.ballooned += held;
        (v < numBusy ? res.balloonedBusy : res.balloonedIdle) += held;
        res.cacheMisses += scenario.guest(v).cacheMisses();
    }
    res.hostResident = pagesToBytes(scenario.hv().residentFrames());
    res.wssResizes = scenario.stats().get("balloon.wss_resizes");
    res.pmlAppends = scenario.stats().get("hv.pml_appends");
    return res;
}

} // namespace

int
main()
{
    setVerbose(false);
    std::printf("Extension — balloon policy: static vs adaptive vs "
                "ksmtuned, %d loaded + %d idle DayTrader guests, "
                "%llu s horizon\n\n",
                numBusy, numIdle,
                (unsigned long long)((warmupMs + steadyMs) / 1000));
    std::printf("%-36s %10s %12s %16s %12s %14s %10s\n", "policy",
                "rq/s", "ballooned", "busy/idle MiB", "resident",
                "cache misses", "resizes");
    std::printf("%s\n", std::string(116, '-').c_str());

    struct Case
    {
        const char *label;
        const char *key;
        Policy policy;
    };
    const Case cases[] = {
        {"none (baseline KSM schedule)", "none", Policy::None},
        {"static balloon 120 MiB per guest", "static", Policy::Static},
        {"adaptive (PML working-set governor)", "adaptive",
         Policy::Adaptive},
        {"ksmtuned (share, don't discard)", "ksmtuned",
         Policy::Ksmtuned},
    };

    bench::BenchJson json("ext_ballooning", "paper section VI");
    double static_rqs = 0, adaptive_rqs = 0;
    Bytes static_ballooned = 0, adaptive_ballooned = 0;
    std::uint64_t adaptive_resizes = 0;
    for (const Case &c : cases) {
        Result r = measure(c.policy);
        char split[32];
        std::snprintf(split, sizeof(split), "%s/%s",
                      formatMiB(r.balloonedBusy).c_str(),
                      formatMiB(r.balloonedIdle).c_str());
        std::printf("%-36s %10.1f %8s MiB %16s %8s MiB %14llu %10llu\n",
                    c.label, r.throughput,
                    formatMiB(r.ballooned).c_str(), split,
                    formatMiB(r.hostResident).c_str(),
                    (unsigned long long)r.cacheMisses,
                    (unsigned long long)r.wssResizes);
        std::fflush(stdout);
        json.beginRow();
        json.field("policy", c.key);
        json.field("rq_s", r.throughput);
        json.field("ballooned_mib", (double)r.ballooned / MiB);
        json.field("ballooned_busy_mib", (double)r.balloonedBusy / MiB);
        json.field("ballooned_idle_mib", (double)r.balloonedIdle / MiB);
        json.field("host_resident_mib", (double)r.hostResident / MiB);
        json.field("cache_misses", r.cacheMisses);
        json.field("wss_resizes", r.wssResizes);
        json.field("pml_appends", r.pmlAppends);
        json.endRow();
        if (c.policy == Policy::Static) {
            static_rqs = r.throughput;
            static_ballooned = r.ballooned;
        } else if (c.policy == Policy::Adaptive) {
            adaptive_rqs = r.throughput;
            adaptive_ballooned = r.ballooned;
            adaptive_resizes = r.wssResizes;
        }
    }
    json.summaryField("static_rq_s", static_rqs);
    json.summaryField("adaptive_rq_s", adaptive_rqs);
    json.summaryField("static_ballooned_mib",
                      (double)static_ballooned / MiB);
    json.summaryField("adaptive_ballooned_mib",
                      (double)adaptive_ballooned / MiB);
    json.summaryField("adaptive_wss_resizes", adaptive_resizes);
    json.write();

    std::printf("\nstatic ballooning frees memory by *discarding* cache "
                "once, hand-sized and blind to load (busy and idle "
                "guests shed the same amount; the busy ones refault it "
                "from the disk); the adaptive governor re-sizes each "
                "balloon to the PML-estimated working set plus refault "
                "feedback, so it balloons the idle guests and leaves "
                "the loaded ones alone; ksmtuned frees memory by "
                "*sharing* (reads stay free) — the paper's section VI "
                "distinction\n");
    return 0;
}
