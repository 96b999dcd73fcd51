/**
 * @file
 * jtps_sim — command-line scenario runner.
 *
 * Puts the whole library behind one binary: pick a workload, a VM
 * count and the memory techniques to enable, run the measurement
 * protocol, and print any of the paper's report views — or export the
 * whole run as machine-readable JSON (schema: docs/METRICS.md).
 *
 *   jtps_sim --workload daytrader --vms 4 --cds --report all
 *   jtps_sim --vms 8 --cds --zram 512 --report throughput
 *   jtps_sim --vms 2 --thp --report sources --csv
 *   jtps_sim --vms 4 --cds --report timeline --json run.json --trace t.json
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

#include "analysis/json_export.hh"
#include "analysis/sharing_sources.hh"
#include "analysis/smaps.hh"
#include "cluster/cluster.hh"
#include "core/scenario.hh"
#include "guest/balloon.hh"
#include "ksm/ksm_tuned.hh"

using namespace jtps;

namespace
{

struct Options
{
    std::string workload = "daytrader";
    int vms = 4;
    bool cds = false;
    bool copyCache = true;
    Bytes aotBytes = 0;
    bool thp = false;
    Bytes zramBytes = 0;
    Bytes balloonBytes = 0;
    bool ksmtuned = false;
    std::uint32_t pmlRingSlots = 0;
    bool adaptiveBalloon = false;
    Bytes hostRam = 6ULL * GiB;
    Tick warmupMs = 45'000;
    Tick steadyMs = 60'000;
    std::uint64_t seed = 42;
    std::string report = "breakdown";
    bool csv = false;
    std::string jsonFile;
    std::string traceFile;
    // Cluster mode (--hosts > 0 switches from one Scenario to a fleet).
    int hosts = 0;
    int perHost = 4;
    std::string placement = "rr";
    unsigned fleetThreads = 1;
    bool migrate = false;
};

const char *const knownReports[] = {"breakdown", "java",       "sources",
                                    "smaps",     "throughput", "timeline",
                                    "all"};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workload W    daytrader | specj | tpcw | tuscany\n"
        "  --vms N         guest count (default 4)\n"
        "  --cds           enable class sharing (cache copied to VMs)\n"
        "  --no-copy       populate the cache per VM instead\n"
        "  --aot MB        add an AOT section of MB to the cache\n"
        "  --thp           guest transparent huge pages\n"
        "  --zram MB       compressed host swap pool\n"
        "  --balloon MB    inflate a balloon per guest after boot\n"
        "  --ksmtuned      govern pages_to_scan adaptively (RHEL\n"
        "                  ksmtuned) instead of the paper's schedule\n"
        "  --pml-ring N    model an N-slot dirty-page log ring per VM,\n"
        "                  drained by the working-set estimator\n"
        "                  (0 = off)\n"
        "  --adaptive-balloon  resize balloons from the PML working-\n"
        "                  set estimate (requires --pml-ring)\n"
        "  --ram GB        host RAM (default 6)\n"
        "  --warmup S      warm-up seconds (default 45)\n"
        "  --steady S      steady seconds (default 60)\n"
        "  --seed N        scenario seed\n"
        "  --report R      breakdown | java | sources | smaps |\n"
        "                  throughput | timeline | all\n"
        "  --csv           CSV output where available\n"
        "  --json FILE     write the full run document as JSON\n"
        "  --trace FILE    record a structured event trace, write JSON\n"
        "cluster mode (fleet of independent hosts):\n"
        "  --hosts H       simulate H hosts (0 = single-host mode);\n"
        "                  --workload mix cycles all four workloads\n"
        "  --per-host N    VM slots per host (default 4, fleet = H*N)\n"
        "  --placement P   rr | random | dedup (sharing-aware packer)\n"
        "  --fleet-threads N  run hosts' rounds on N threads (cluster\n"
        "                  output is byte-identical at any N)\n"
        "  --migrate       live-migrate VMs off pressured hosts\n",
        argv0);
    std::exit(2);
}

/** Print @p why and the usage text, and exit 2: every malformed
 *  command line ends here. */
[[noreturn]] void
badUsage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr, "error: %s\n", why.c_str());
    usage(argv0);
}

/**
 * Parse @p text, the value of @p flag, as a whole decimal number in
 * [@p lo, @p hi]. An empty value, a sign, trailing junk and overflow
 * are usage errors like an out-of-range value.
 */
std::uint64_t
parseNumber(const char *argv0, const std::string &flag, const char *text,
            std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || value < lo || value > hi)
        badUsage(argv0, flag + " expects a whole number in [" +
                            std::to_string(lo) + ", " +
                            std::to_string(hi) + "], got '" + text + "'");
    return value;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    constexpr std::uint64_t u64max =
        std::numeric_limits<std::uint64_t>::max();
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            badUsage(argv[0], std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    // The value of flag argv[i] in [lo, hi], scaled by unit; hi keeps
    // the scaled value inside 64 bits.
    auto num = [&](int &i, std::uint64_t lo, std::uint64_t hi,
                   std::uint64_t unit = 1) {
        const std::string flag = argv[i];
        return parseNumber(argv[0], flag, need(i), lo,
                           std::min(hi, u64max / unit)) *
               unit;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            opt.workload = need(i);
        else if (arg == "--vms")
            opt.vms = static_cast<int>(num(i, 1, 256));
        else if (arg == "--cds")
            opt.cds = true;
        else if (arg == "--no-copy")
            opt.copyCache = false;
        else if (arg == "--aot")
            opt.aotBytes = num(i, 0, u64max, MiB);
        else if (arg == "--thp")
            opt.thp = true;
        else if (arg == "--zram")
            opt.zramBytes = num(i, 0, u64max, MiB);
        else if (arg == "--balloon")
            opt.balloonBytes = num(i, 0, u64max, MiB);
        else if (arg == "--ksmtuned")
            opt.ksmtuned = true;
        else if (arg == "--pml-ring")
            opt.pmlRingSlots = static_cast<std::uint32_t>(
                num(i, 0, std::numeric_limits<std::uint32_t>::max()));
        else if (arg == "--adaptive-balloon")
            opt.adaptiveBalloon = true;
        else if (arg == "--ram")
            opt.hostRam = num(i, 1, u64max, GiB);
        else if (arg == "--warmup")
            opt.warmupMs = num(i, 0, u64max, 1000);
        else if (arg == "--steady")
            opt.steadyMs = num(i, 0, u64max, 1000);
        else if (arg == "--seed")
            opt.seed = num(i, 0, u64max);
        else if (arg == "--report")
            opt.report = need(i);
        else if (arg == "--csv")
            opt.csv = true;
        else if (arg == "--json")
            opt.jsonFile = need(i);
        else if (arg == "--trace")
            opt.traceFile = need(i);
        else if (arg == "--hosts")
            opt.hosts = static_cast<int>(num(i, 0, 64));
        else if (arg == "--per-host")
            opt.perHost = static_cast<int>(num(i, 1, 256));
        else if (arg == "--placement")
            opt.placement = need(i);
        else if (arg == "--fleet-threads")
            opt.fleetThreads = static_cast<unsigned>(num(i, 1, 256));
        else if (arg == "--migrate")
            opt.migrate = true;
        else if (arg == "--help")
            usage(argv[0]);
        else
            badUsage(argv[0], "unknown option '" + arg + "'");
    }
    const char *argv0 = argv[0];
    const hv::HostConfig host_defaults;
    if (opt.hostRam <= host_defaults.reserveBytes + opt.zramBytes)
        badUsage(argv0, "--ram must exceed the host reserve plus --zram");
    // Every VM of a host reserves its full ring up front.
    const std::uint64_t vms_per_host =
        opt.hosts > 0
            ? static_cast<std::uint64_t>(opt.perHost) + (opt.migrate ? 1 : 0)
            : static_cast<std::uint64_t>(opt.vms);
    if (opt.pmlRingSlots > opt.hostRam / sizeof(hv::PmlEntry) / vms_per_host)
        badUsage(argv0, "--pml-ring: the rings of all VMs on a host "
                        "must fit in host RAM");
    if (opt.adaptiveBalloon && opt.pmlRingSlots == 0)
        badUsage(argv0, "--adaptive-balloon requires --pml-ring N");
    if (opt.placement != "rr" && opt.placement != "random" &&
        opt.placement != "dedup")
        badUsage(argv0, "unknown --placement '" + opt.placement + "'");
    if (opt.hosts == 0 && opt.migrate)
        badUsage(argv0, "--migrate requires cluster mode (--hosts H)");

    // Reject unknown report views up front instead of silently printing
    // nothing after a long run.
    bool known = false;
    for (const char *r : knownReports)
        known = known || opt.report == r;
    if (!known)
        badUsage(argv0, "unknown --report '" + opt.report + "'");
    return opt;
}

workload::WorkloadSpec
pickWorkload(const Options &opt)
{
    workload::WorkloadSpec spec;
    if (opt.workload == "daytrader")
        spec = workload::dayTraderIntel();
    else if (opt.workload == "specj")
        spec = workload::specjEnterprise2010();
    else if (opt.workload == "tpcw")
        spec = workload::tpcwJava();
    else if (opt.workload == "tuscany")
        spec = workload::tuscanyBigbank();
    else
        fatal("unknown workload '%s'", opt.workload.c_str());
    spec.useAotCache = opt.aotBytes > 0;
    return spec;
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open '%s' for writing", path.c_str());
    if (std::fwrite(content.data(), 1, content.size(), f) !=
        content.size())
        fatal("short write to '%s'", path.c_str());
    std::fclose(f);
}

/** The --json document: run metadata + results + registry + series. */
std::string
runDocumentJson(const Options &opt, core::Scenario &scenario)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", analysis::jsonSchemaVersion);

    w.key("run").beginObject();
    w.field("tool", "jtps_sim");
    w.field("workload", opt.workload);
    w.field("vms", opt.vms);
    w.field("seed", opt.seed);
    w.field("class_sharing", opt.cds || opt.aotBytes > 0);
    w.field("copy_cache", opt.copyCache);
    w.field("aot_bytes", opt.aotBytes);
    w.field("thp", opt.thp);
    w.field("zram_bytes", opt.zramBytes);
    w.field("balloon_bytes", opt.balloonBytes);
    w.field("ksmtuned", opt.ksmtuned);
    w.field("pml_ring", opt.pmlRingSlots);
    w.field("adaptive_balloon", opt.adaptiveBalloon);
    w.field("host_ram_bytes", opt.hostRam);
    w.field("warmup_ms", opt.warmupMs);
    w.field("steady_ms", opt.steadyMs);
    w.field("sim_end_ms", scenario.queue().now());
    w.endObject();

    w.key("throughput").beginObject();
    w.field("aggregate_rq_s", scenario.aggregateThroughput(10));
    w.key("per_vm_rq_s").beginArray();
    for (double v : scenario.perVmThroughput(10))
        w.value(v);
    w.endArray();
    w.key("per_vm_response_ms").beginArray();
    for (double v : scenario.perVmResponseMs(10))
        w.value(v);
    w.endArray();
    w.key("per_vm_major_faults").beginArray();
    for (int v = 0; v < opt.vms; ++v)
        w.value(scenario.hv().majorFaults(v));
    w.endArray();
    w.endObject();

    w.key("ksm").beginObject();
    w.field("pages_shared", scenario.ksm().pagesShared());
    w.field("pages_sharing", scenario.ksm().pagesSharing());
    w.field("saved_bytes", scenario.ksm().savedBytes());
    w.field("full_scans", scenario.ksm().fullScans());
    w.field("cpu_usage", scenario.ksm().cpuUsage());
    w.endObject();

    w.key("stats");
    analysis::writeStatsJson(w, scenario.stats());

    w.key("sharing_timeline");
    if (scenario.monitor() != nullptr)
        analysis::writeSharingSeriesJson(w, *scenario.monitor());
    else
        w.beginArray().endArray();

    if (scenario.trace().enabled()) {
        w.key("trace");
        analysis::writeTraceJson(w, scenario.trace());
    }

    w.endObject();
    return w.str();
}

/** The --trace FILE document: schema version + the event stream. */
std::string
traceDocumentJson(core::Scenario &scenario)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", analysis::jsonSchemaVersion);
    w.key("trace");
    analysis::writeTraceJson(w, scenario.trace());
    w.endObject();
    return w.str();
}

/**
 * The fleet's VM specs: --workload mix cycles all four paper
 * workloads; any single workload name repeats it.
 */
std::vector<workload::WorkloadSpec>
fleetWorkloads(const Options &opt, std::size_t count)
{
    std::vector<workload::WorkloadSpec> specs;
    specs.reserve(count);
    if (opt.workload == "mix") {
        const workload::WorkloadSpec cycle[] = {
            workload::dayTraderIntel(), workload::specjEnterprise2010(),
            workload::tpcwJava(), workload::tuscanyBigbank()};
        for (std::size_t l = 0; l < count; ++l) {
            specs.push_back(cycle[l % 4]);
            specs.back().useAotCache = opt.aotBytes > 0;
        }
    } else {
        specs.assign(count, pickWorkload(opt));
    }
    return specs;
}

cluster::PlacementPolicy
parsePlacement(const std::string &name)
{
    if (name == "random")
        return cluster::PlacementPolicy::Random;
    if (name == "dedup")
        return cluster::PlacementPolicy::DedupAware;
    return cluster::PlacementPolicy::RoundRobin;
}

/** The cluster --json document (docs/METRICS.md, cluster section). */
std::string
clusterDocumentJson(const Options &opt, cluster::Cluster &fleet,
                    Tick warmup_ms, Tick steady_ms, Tick round_ms)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", analysis::jsonSchemaVersion);

    w.key("run").beginObject();
    w.field("tool", "jtps_sim");
    w.field("workload", opt.workload);
    w.field("hosts", opt.hosts);
    w.field("per_host", opt.perHost);
    w.field("vms", static_cast<std::uint64_t>(opt.hosts) *
                       static_cast<std::uint64_t>(opt.perHost));
    // --fleet-threads is a machine-sizing setting, not part of the
    // run's identity: documents must be byte-identical at any value,
    // so it is not recorded.
    w.field("placement", opt.placement);
    w.field("migrate", opt.migrate);
    w.field("seed", opt.seed);
    w.field("class_sharing", opt.cds || opt.aotBytes > 0);
    w.field("copy_cache", opt.copyCache);
    w.field("pml_ring", opt.pmlRingSlots);
    w.field("adaptive_balloon", opt.adaptiveBalloon);
    w.field("host_ram_bytes", opt.hostRam);
    w.field("warmup_ms", warmup_ms);
    w.field("steady_ms", steady_ms);
    w.field("round_ms", round_ms);
    w.field("sim_end_ms", fleet.now());
    w.endObject();

    w.field("aggregate_rq_s", fleet.aggregateThroughput(10));
    fleet.writeJsonFields(w);

    w.endObject();
    return w.str();
}

/** The cluster --trace FILE document: one stream per host. */
std::string
clusterTraceJson(cluster::Cluster &fleet)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", analysis::jsonSchemaVersion);
    w.key("hosts").beginArray();
    for (std::size_t h = 0; h < fleet.hostCount(); ++h) {
        w.beginObject();
        w.field("label", fleet.host(h).stats().scope());
        w.key("trace");
        analysis::writeTraceJson(w, fleet.host(h).trace());
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

/** Fleet mode: build the cluster, run warm-up + steady, report. */
int
clusterMain(const Options &opt, const core::ScenarioConfig &host_cfg)
{
    cluster::ClusterConfig ccfg;
    ccfg.hosts = static_cast<std::size_t>(opt.hosts);
    // The fleet boots fully packed at --per-host VMs per host; with
    // migration enabled each host keeps one spare slot so a pressured
    // host always has somewhere to shed to.
    ccfg.slotsPerHost =
        static_cast<std::size_t>(opt.perHost) + (opt.migrate ? 1 : 0);
    ccfg.host = host_cfg;
    ccfg.placement = parsePlacement(opt.placement);
    ccfg.fleetThreads = opt.fleetThreads;
    ccfg.seed = opt.seed;
    ccfg.migrationEnabled = opt.migrate;
    ccfg.roundMs = 4 * host_cfg.epochMs;
    // Keep the per-VM demand share constant across fleet sizes: the
    // reference fleet is 256 VMs serving a million users, and a
    // smaller --hosts run serves a proportional slice of them.
    ccfg.peakUsers = 1'000'000.0 *
                     static_cast<double>(ccfg.hosts * ccfg.slotsPerHost) /
                     256.0;

    // Cluster time advances in whole rounds: round the phases up.
    auto round_up = [&](Tick t) {
        return ((t + ccfg.roundMs - 1) / ccfg.roundMs) * ccfg.roundMs;
    };
    const Tick warmup = round_up(opt.warmupMs);
    const Tick steady = round_up(opt.steadyMs);
    ccfg.host.warmupMs = warmup;

    cluster::Cluster fleet(
        ccfg, fleetWorkloads(opt, ccfg.hosts *
                                      static_cast<std::size_t>(opt.perHost)));
    fleet.build();
    if (!opt.traceFile.empty()) {
        for (std::size_t h = 0; h < fleet.hostCount(); ++h)
            fleet.host(h).trace().enable();
    }

    fleet.run(warmup + steady);
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        fleet.host(h).hv().checkConsistency();

    std::printf("cluster: %d hosts x %d slots, %s placement, "
                "%s migration\n",
                opt.hosts, opt.perHost, opt.placement.c_str(),
                opt.migrate ? "with" : "no");
    for (std::size_t h = 0; h < fleet.hostCount(); ++h) {
        core::Scenario &host = fleet.host(h);
        std::printf("%s: %zu VMs, %.1f rq/s, sharing %llu pages, "
                    "resident %s MiB\n",
                    host.stats().scope().c_str(), host.activeVmCount(),
                    host.aggregateThroughput(),
                    (unsigned long long)host.ksm().pagesSharing(),
                    formatMiB(host.hv().residentBytes()).c_str());
    }
    std::printf("%s\n", fleet.stats().render().c_str());

    if (!opt.jsonFile.empty())
        writeFileOrDie(opt.jsonFile,
                       clusterDocumentJson(opt, fleet, warmup, steady,
                                           ccfg.roundMs));
    if (!opt.traceFile.empty())
        writeFileOrDie(opt.traceFile, clusterTraceJson(fleet));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options opt = parse(argc, argv);

    core::ScenarioConfig cfg;
    cfg.enableClassSharing = opt.cds || opt.aotBytes > 0;
    cfg.copyCacheToAllVms = opt.copyCache;
    cfg.aotCacheBytes = opt.aotBytes;
    cfg.guestThp = opt.thp;
    cfg.host.ramBytes = opt.hostRam;
    cfg.host.compressedSwapPoolBytes = opt.zramBytes;
    cfg.warmupMs = opt.warmupMs;
    cfg.steadyMs = opt.steadyMs;
    cfg.seed = opt.seed;
    cfg.host.pmlRingSlots = opt.pmlRingSlots;
    cfg.adaptiveBalloon = opt.adaptiveBalloon;

    if (opt.hosts > 0)
        return clusterMain(opt, cfg);

    std::vector<workload::WorkloadSpec> vms(
        static_cast<std::size_t>(opt.vms), pickWorkload(opt));

    core::Scenario scenario(cfg, vms);
    scenario.build();

    if (!opt.traceFile.empty())
        scenario.trace().enable();

    // The timeline view and the JSON document both want the sharing
    // curve, so sampling starts before the run.
    const bool wantTimeline =
        opt.report == "timeline" || opt.report == "all";
    if (wantTimeline || !opt.jsonFile.empty())
        scenario.attachSharingMonitor(2'000);

    std::optional<ksm::KsmTuned> tuned;
    if (opt.ksmtuned) {
        tuned.emplace(scenario.hv(), scenario.ksm(),
                      ksm::KsmTunedConfig{}, scenario.stats());
        tuned->attach(scenario.queue());
    }

    if (opt.balloonBytes > 0) {
        for (int v = 0; v < opt.vms; ++v) {
            guest::BalloonDriver balloon(scenario.guest(v));
            balloon.inflate(opt.balloonBytes);
        }
    }
    scenario.run();
    scenario.hv().checkConsistency();

    auto acct = scenario.account();
    const bool all = opt.report == "all";

    if (all || opt.report == "breakdown") {
        std::printf("%s\n",
                    opt.csv
                        ? analysis::vmBreakdownCsv(acct,
                                                   scenario.vmNames())
                              .c_str()
                        : analysis::renderVmBreakdownReport(
                              acct, scenario.vmNames())
                              .c_str());
    }
    if (all || opt.report == "java") {
        std::printf("%s\n",
                    opt.csv
                        ? analysis::javaBreakdownCsv(acct,
                                                     scenario.javaRows())
                              .c_str()
                        : analysis::renderJavaBreakdownReport(
                              acct, scenario.javaRows())
                              .c_str());
    }
    if (all || opt.report == "sources") {
        const std::size_t guest = opt.vms > 1 ? 1 : 0;
        std::printf("TPS-shared sources in %s:\n%s\n",
                    scenario.vmNames()[guest].c_str(),
                    analysis::renderSharingSources(
                        analysis::collectSharingSources(
                            scenario.guest(guest)))
                        .c_str());
    }
    if (all || opt.report == "smaps") {
        std::printf("%s\n",
                    analysis::renderSmaps(
                        analysis::computeSmaps(scenario.guest(0),
                                               scenario.javaRows()[0].pid))
                        .c_str());
    }
    if (all || opt.report == "throughput") {
        auto tput = scenario.perVmThroughput(10);
        auto resp = scenario.perVmResponseMs(10);
        double total = 0;
        for (int v = 0; v < opt.vms; ++v) {
            total += tput[v];
            std::printf("%s: %.1f rq/s, %.0f ms, %llu maj faults\n",
                        scenario.vmNames()[v].c_str(), tput[v], resp[v],
                        (unsigned long long)scenario.hv().majorFaults(v));
        }
        std::printf("aggregate: %.1f rq/s;  resident %s MiB;  KSM saved "
                    "%s MiB (ksmd %.1f%% CPU)\n",
                    total,
                    formatMiB(scenario.hv().residentBytes()).c_str(),
                    formatMiB(scenario.ksm().savedBytes()).c_str(),
                    scenario.ksm().cpuUsage() * 100);
    }
    if (wantTimeline) {
        std::printf("KSM sharing timeline (sampled every 2 s):\n%s\n",
                    opt.csv ? scenario.monitor()->renderCsv().c_str()
                            : scenario.monitor()->renderTable().c_str());
    }

    if (!opt.jsonFile.empty())
        writeFileOrDie(opt.jsonFile, runDocumentJson(opt, scenario));
    if (!opt.traceFile.empty())
        writeFileOrDie(opt.traceFile, traceDocumentJson(scenario));
    return 0;
}
