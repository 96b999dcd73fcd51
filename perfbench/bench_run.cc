/**
 * @file
 * One repetition of one perfbench workload, in its own process.
 *
 *   bench_run WORKLOAD SEED TRACED [SPANS_FILE]
 *
 * Builds the workload's host (or fleet) from SEED, runs it through the
 * simulator's public API exactly as a batch user would — one job, one
 * process, every thread knob at its default — and prints one JSON line
 * on stdout: host-time results, simulated results, the complete stat
 * registry of every host, and (TRACED=1) the layer spans.
 *
 * With TRACED=1 the benchmark times its own calls into each layer's
 * public functions. Spans are kept in memory; SPANS_FILE, if given,
 * receives them in Chrome Trace Event format when the run ends. The
 * traced host8-cds run drives the KSM wakes itself (the same periodic
 * event KsmScanner::attach would schedule, with the scan timed), which
 * leaves the registry byte-identical to Scenario::run(); perfbench/run.py
 * checks that.
 *
 * A failed consistency check panics (nonzero exit); a failed output
 * check here prints the reason on stderr and exits 1.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/accounting.hh"
#include "base/logging.hh"
#include "cluster/cluster.hh"
#include "core/scenario.hh"
#include "workload/workload_spec.hh"

using namespace jtps;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Round-tripping text for a double (exact registry compare). */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

/**
 * Wall-clock spans around the benchmark's calls into the simulator,
 * nested by call structure. Off, time() is a plain call.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        int parent; //!< index into spans(), -1 for top level
        double start = 0.0;
        double end = 0.0;
    };

    explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

    template <typename Fn>
    void
    time(const char *name, Fn &&fn)
    {
        if (!on_) {
            fn();
            return;
        }
        const std::size_t i = spans_.size();
        spans_.push_back({name, stack_.empty() ? -1 : stack_.back(),
                          secondsSince(t0_)});
        stack_.push_back(static_cast<int>(i));
        fn();
        stack_.pop_back();
        spans_[i].end = secondsSince(t0_);
    }

    bool on() const { return on_; }
    const std::vector<Span> &spans() const { return spans_; }
    /** Seconds since construction (the traced window's clock). */
    double now() const { return secondsSince(t0_); }

  private:
    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Everything one repetition reports. */
struct Result
{
    double setupS = 0.0;
    double wallS = 0.0;
    double savedMib = 0.0;
    double simRps = 0.0;
    double slaMetFrac = 0.0;
    std::uint64_t residentFrames = 0;
    std::uint64_t vmEpochs = 0;
    std::vector<double> roundS;
    /** Label -> registry text (counters and scalars as JSON members). */
    std::vector<std::pair<std::string, std::string>> registries;
    double traceTotalS = 0.0;
};

[[noreturn]] void
failCheck(const std::string &what)
{
    std::fprintf(stderr, "bench_run: output check failed: %s\n",
                 what.c_str());
    std::exit(1);
}

std::string
registryJson(const StatSet &st)
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : st.counters()) {
        out += (first ? "\"" : ",\"") + name + "\":" + num(value);
        first = false;
    }
    out += "},\"scalars\":{";
    first = true;
    for (const auto &[name, value] : st.scalars()) {
        out += (first ? "\"" : ",\"") + name + "\":" + num(value);
        first = false;
    }
    return out + "}}";
}

/**
 * Owner-oriented accounting attributes every resident byte exactly
 * once, what it saw is what the hypervisor holds, and the JVMs own
 * some of it.
 */
void
checkAccounting(const core::Scenario &sc,
                const analysis::OwnerAccounting &acct)
{
    if (acct.attributedBytes() != acct.residentBytes())
        failCheck("accounting attributed " + num(acct.attributedBytes()) +
                  " B of " + num(acct.residentBytes()) + " B resident");
    if (acct.residentBytes() != sc.hv().residentBytes())
        failCheck("snapshot resident bytes differ from the hypervisor's");
    Bytes java = 0;
    for (std::size_t v = 0; v < sc.vmCount(); ++v)
        java += acct.vmBreakdown(static_cast<VmId>(v)).java;
    if (java == 0)
        failCheck("no Java process memory attributed");
}

/**
 * The end of every run: snapshot and owner accounting, then the
 * hypervisor's consistency audit. Untraced runs call account() as a
 * user would; traced runs split it into its two public halves so the
 * walk and the collapse are timed apart (account() is exactly
 * snapshot() followed by OwnerAccounting, and frees the snapshot).
 */
void
accountAndCheck(core::Scenario &sc, Spans &spans)
{
    if (spans.on()) {
        std::optional<analysis::Snapshot> snap;
        spans.time("analysis.snapshot",
                   [&] { snap.emplace(sc.snapshot()); });
        spans.time("analysis.account", [&] {
            checkAccounting(sc, analysis::OwnerAccounting(*snap));
            snap.reset();
        });
    } else {
        checkAccounting(sc, sc.account());
    }
    spans.time("hv.check", [&] { sc.hv().checkConsistency(); });
}

std::vector<workload::WorkloadSpec>
paperMix(std::size_t count)
{
    const workload::WorkloadSpec cycle[] = {
        workload::dayTraderIntel(), workload::specjEnterprise2010(),
        workload::tpcwJava(), workload::tuscanyBigbank()};
    std::vector<workload::WorkloadSpec> specs;
    specs.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        specs.push_back(cycle[i % 4]);
    return specs;
}

/** Single-host results shared by host8-cds and bootstorm-mix. */
void
collectHost(core::Scenario &sc, Result &r)
{
    r.savedMib = static_cast<double>(sc.ksm().savedBytes()) /
                 static_cast<double>(MiB);
    r.simRps = sc.aggregateThroughput(10);
    r.residentFrames = sc.hv().residentFrames();
    r.vmEpochs = sc.epochHistory().size() * sc.vmCount();
    r.registries.emplace_back("host", registryJson(sc.stats()));
}

/**
 * host8-cds: 8 DayTrader VMs with class sharing on a 10 GiB host,
 * the paper's protocol (45 s aggressive warm-up, 60 s steady).
 */
Result
runHost8(std::uint64_t seed, Spans &spans)
{
    constexpr std::size_t vms = 8;
    core::ScenarioConfig cfg;
    cfg.enableClassSharing = true;
    cfg.host.ramBytes = vms * 1280ULL * MiB;
    cfg.warmupMs = 45'000;
    cfg.steadyMs = 60'000;
    cfg.seed = seed;
    core::Scenario sc(cfg, std::vector<workload::WorkloadSpec>(
                               vms, workload::dayTraderIntel()));

    Result r;
    const auto b0 = Clock::now();
    spans.time("core.build", [&] { sc.build(); });
    r.setupS = secondsSince(b0);

    const auto w0 = Clock::now();
    if (!spans.on()) {
        sc.run();
    } else {
        // Scenario::run(), step by step, with each ksmd wake timed.
        ksm::KsmScanner &ksm = sc.ksm();
        ksm.setPagesToScan(cfg.ksmWarmupPagesToScan);
        sc.queue().schedulePeriodic(ksm.config().sleepMillisecs, [&] {
            spans.time("ksm.scan", [&] { ksm.scanBatch(); });
            return true;
        });
        spans.time("workload.epochs", [&] { sc.runFor(cfg.warmupMs); });
        ksm.setPagesToScan(cfg.ksm.pagesToScan);
        spans.time("workload.epochs", [&] { sc.runFor(cfg.steadyMs); });
    }
    accountAndCheck(sc, spans);
    r.wallS = secondsSince(w0);
    r.traceTotalS = spans.now();

    collectHost(sc, r);
    if (r.savedMib <= 0.0)
        failCheck("class sharing produced no KSM savings");
    return r;
}

/**
 * bootstorm-mix: 12 VMs cycling the four paper workloads, class
 * sharing on, 640 MiB of host RAM per VM, built cold with no client
 * load. KSM converges at 100,000 pages per wake, 4 fresh VMs arrive,
 * and KSM reconverges.
 */
Result
runBootstorm(std::uint64_t seed, Spans &spans)
{
    constexpr std::size_t vms = 12;
    constexpr std::size_t arrivals = 4;
    core::ScenarioConfig cfg;
    cfg.enableClassSharing = true;
    cfg.host.ramBytes = vms * 640ULL * MiB;
    cfg.seed = seed;
    core::Scenario sc(cfg, paperMix(vms));

    Result r;
    const auto b0 = Clock::now();
    spans.time("core.build", [&] { sc.build(); });
    r.setupS = secondsSince(b0);

    const auto w0 = Clock::now();
    sc.ksm().setPagesToScan(100'000);
    spans.time("ksm.cold_converge", [&] { sc.ksm().runToQuiescence(); });
    const std::vector<workload::WorkloadSpec> cycle =
        paperMix(vms + arrivals);
    for (std::size_t i = vms; i < vms + arrivals; ++i)
        spans.time("core.addvm", [&] { sc.addVm(cycle[i]); });
    spans.time("ksm.reconverge", [&] { sc.ksm().runToQuiescence(); });
    accountAndCheck(sc, spans);
    r.wallS = secondsSince(w0);
    r.traceTotalS = spans.now();

    collectHost(sc, r);
    if (r.savedMib <= 0.0)
        failCheck("the boot storm converged to no KSM savings");
    if (sc.vmCount() != vms + arrivals)
        failCheck("arrivals were not added");
    return r;
}

/**
 * fleet-pml: 2 hosts x 4 mixed VMs on 3.5 GiB hosts, class sharing
 * off, dedup-aware placement, 4096-slot PML rings, adaptive balloons;
 * 24 s warm-up and 40 s steady in 8 s rounds.
 */
Result
runFleet(std::uint64_t seed, Spans &spans)
{
    constexpr std::size_t hosts = 2;
    constexpr std::size_t perHost = 4;
    constexpr Tick roundMs = 8'000;
    constexpr Tick warmupMs = 24'000;
    constexpr Tick steadyMs = 40'000;

    cluster::ClusterConfig ccfg;
    ccfg.hosts = hosts;
    ccfg.slotsPerHost = perHost;
    ccfg.placement = cluster::PlacementPolicy::DedupAware;
    ccfg.seed = seed;
    ccfg.roundMs = roundMs;
    // The reference fleet is 256 VMs serving a million users; this one
    // serves its proportional slice.
    ccfg.peakUsers = 1'000'000.0 * static_cast<double>(hosts * perHost) /
                     256.0;
    ccfg.host.warmupMs = warmupMs;
    ccfg.host.pmlRingSlots = 4096;
    ccfg.host.adaptiveBalloon = true;
    // Just under the hosts' unballooned demand (~3.6 GiB): reclaim and
    // refaults run, but lightly enough that most epochs meet the SLA.
    ccfg.host.host.ramBytes = 3584 * MiB;
    cluster::Cluster fleet(ccfg, paperMix(hosts * perHost));

    Result r;
    const auto b0 = Clock::now();
    spans.time("core.build", [&] { fleet.build(); });
    r.setupS = secondsSince(b0);

    const auto w0 = Clock::now();
    if (!spans.on()) {
        fleet.run(warmupMs + steadyMs);
    } else {
        for (Tick t = 0; t < warmupMs + steadyMs; t += roundMs) {
            const double s0 = spans.now();
            spans.time("cluster.round", [&] { fleet.run(roundMs); });
            r.roundS.push_back(spans.now() - s0);
        }
    }
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        accountAndCheck(fleet.host(h), spans);
    r.wallS = secondsSince(w0);
    r.traceTotalS = spans.now();

    for (std::size_t h = 0; h < fleet.hostCount(); ++h) {
        core::Scenario &sc = fleet.host(h);
        r.savedMib += static_cast<double>(sc.ksm().savedBytes()) /
                      static_cast<double>(MiB);
        r.residentFrames += sc.hv().residentFrames();
        r.registries.emplace_back(sc.stats().scope(),
                                  registryJson(sc.stats()));
    }
    r.registries.emplace_back("cluster", registryJson(fleet.stats()));
    r.simRps = fleet.aggregateThroughput(10);
    const std::uint64_t epochs = fleet.stats().get("cluster.epochs");
    if (epochs == 0)
        failCheck("the fleet ran no epochs");
    r.slaMetFrac =
        static_cast<double>(fleet.stats().get("cluster.sla_met_epochs")) /
        static_cast<double>(epochs);
    if (fleet.stats().get("cluster.rounds") !=
        (warmupMs + steadyMs) / roundMs)
        failCheck("the fleet ran the wrong number of rounds");
    return r;
}

/** Chrome Trace Event document ("ph": "X" spans, microseconds). */
void
writeSpansFile(const std::string &path, const Spans &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open '%s' for writing", path.c_str());
    std::fprintf(f, "{\"traceEvents\":[");
    const auto &all = spans.spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\","
                     "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                     "\"dur\":%.3f}",
                     i ? "," : "", all[i].name, all[i].start * 1e6,
                     (all[i].end - all[i].start) * 1e6);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0)
        fatal("cannot write '%s'", path.c_str());
}

/** Per span name: count, total and self seconds; plus top-level cover. */
std::string
spansJson(const Spans &spans, double &covered)
{
    const auto &all = spans.spans();
    std::vector<double> child(all.size(), 0.0);
    covered = 0.0;
    for (const auto &s : all) {
        if (s.parent >= 0)
            child[s.parent] += s.end - s.start;
        else
            covered += s.end - s.start;
    }
    struct Agg
    {
        std::uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Agg> agg;
    for (std::size_t i = 0; i < all.size(); ++i) {
        Agg &a = agg[all[i].name];
        ++a.count;
        a.total += all[i].end - all[i].start;
        a.self += all[i].end - all[i].start - child[i];
    }
    std::string out = "{";
    for (const auto &[name, a] : agg) {
        out += (out.size() > 1 ? ",\"" : "\"") + name +
               "\":{\"count\":" + num(a.count) + ",\"total_s\":" +
               num(a.total) + ",\"self_s\":" + num(a.self) + "}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4 || argc > 5) {
        std::fprintf(stderr, "usage: %s WORKLOAD SEED TRACED "
                             "[SPANS_FILE]\n", argv[0]);
        return 2;
    }
    setVerbose(false);
    const std::string workload = argv[1];
    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(argv[2], &end, 10);
    if (*argv[2] == '\0' || *end != '\0') {
        std::fprintf(stderr, "bad seed '%s'\n", argv[2]);
        return 2;
    }
    Spans spans(std::string(argv[3]) == "1");

    Result r;
    if (workload == "host8-cds")
        r = runHost8(seed, spans);
    else if (workload == "bootstorm-mix")
        r = runBootstorm(seed, spans);
    else if (workload == "fleet-pml")
        r = runFleet(seed, spans);
    else {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);

    std::string out = "{\"setup_s\":" + num(r.setupS) +
                      ",\"wall_s\":" + num(r.wallS) +
                      ",\"peak_rss_mib\":" +
                      num(static_cast<double>(ru.ru_maxrss) / 1024.0) +
                      ",\"sim\":{\"saved_mib\":" + num(r.savedMib) +
                      ",\"sim_rps\":" + num(r.simRps) +
                      ",\"sla_met_frac\":" + num(r.slaMetFrac) +
                      "},\"resident_frames\":" + num(r.residentFrames) +
                      ",\"vm_epochs\":" + num(r.vmEpochs) +
                      ",\"registries\":{";
    for (std::size_t i = 0; i < r.registries.size(); ++i)
        out += (i ? ",\"" : "\"") + r.registries[i].first +
               "\":" + r.registries[i].second;
    out += "}";
    if (spans.on()) {
        double covered = 0.0;
        const std::string summary = spansJson(spans, covered);
        out += ",\"spans\":" + summary +
               ",\"trace_total_s\":" + num(r.traceTotalS) +
               ",\"trace_covered_s\":" + num(covered) + ",\"round_s\":[";
        for (std::size_t i = 0; i < r.roundS.size(); ++i)
            out += (i ? "," : "") + num(r.roundS[i]);
        out += "]";
        if (argc == 5)
            writeSpansFile(argv[4], spans);
    }
    std::printf("%s}\n", out.c_str());
    return 0;
}
