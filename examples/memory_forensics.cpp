/**
 * @file
 * Memory forensics deep-dive: the paper's §II methodology exposed as a
 * tool.
 *
 * Builds a two-guest host, runs briefly, then walks all three
 * translation layers and prints:
 *  - the per-VM component breakdown (Fig. 2 style),
 *  - each Java process's Table-IV category breakdown,
 *  - owner-oriented vs PSS attribution side by side,
 *  - the most-shared host frames and who maps them.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "analysis/accounting.hh"
#include "analysis/dump_format.hh"
#include "analysis/forensics.hh"
#include "analysis/report.hh"
#include "analysis/smaps.hh"
#include "core/scenario.hh"

using namespace jtps;

int
main()
{
    setVerbose(false);
    core::ScenarioConfig cfg;
    cfg.enableClassSharing = true;
    cfg.warmupMs = 25'000;
    cfg.steadyMs = 30'000;
    std::vector<workload::WorkloadSpec> vms(2, workload::dayTraderIntel());
    core::Scenario scenario(cfg, vms);
    scenario.build();
    scenario.run();

    analysis::Snapshot snap = scenario.snapshot();
    analysis::OwnerAccounting owner(snap);
    analysis::PssAccounting pss(snap);

    std::printf("=== per-VM component breakdown (owner-oriented) ===\n");
    std::printf("%s\n",
                analysis::renderVmBreakdownReport(owner,
                                                  scenario.vmNames())
                    .c_str());

    std::printf("=== Java process categories (Table IV) ===\n");
    std::printf("%s\n",
                analysis::renderJavaBreakdownReport(owner,
                                                    scenario.javaRows())
                    .c_str());

    std::printf("=== owner-oriented vs PSS, per process ===\n");
    for (const auto &[key, pu] : owner.processes()) {
        if (pu.ownedTotal() + pu.sharedTotal() < 1 * MiB)
            continue;
        std::printf("vm%u pid%u %-12s owned=%9s shared=%9s pss=%9.1f "
                    "MiB\n",
                    key.first, key.second, pu.isJava ? "(java)" : "",
                    formatMiB(pu.ownedTotal()).c_str(),
                    formatMiB(pu.sharedTotal()).c_str(),
                    pss.pss(key.first, key.second) / MiB);
    }

    std::printf("\n=== most-shared host frames ===\n");
    // Frames by mapping count, ties by ascending hfn (the snapshot's
    // frame order).
    std::vector<std::size_t> top(snap.frameCount());
    std::iota(top.begin(), top.end(), std::size_t{0});
    const std::size_t shown = std::min<std::size_t>(5, top.size());
    std::partial_sort(top.begin(), top.begin() + shown, top.end(),
                      [&](std::size_t a, std::size_t b) {
                          const std::size_t na = snap.frameRefs(a).size();
                          const std::size_t nb = snap.frameRefs(b).size();
                          return na != nb ? na > nb : a < b;
                      });
    for (std::size_t i = 0; i < shown; ++i) {
        const Hfn hfn = snap.hfns[top[i]];
        const auto refs = snap.frameRefs(top[i]);
        const auto *data = &scenario.hv().frames().frame(hfn).data;
        std::printf("frame %llu: %zu mappings, %s, e.g. vm%u pid%u %s\n",
                    (unsigned long long)hfn, refs.size(),
                    data->isZero() ? "zero page" : "content page",
                    refs[0].vm, refs[0].pid,
                    guest::categoryName(refs[0].category));
    }

    std::printf("\nconservation: attributed=%s MiB == resident=%s MiB\n",
                formatMiB(owner.attributedBytes()).c_str(),
                formatMiB(owner.residentBytes()).c_str());

    // smaps view of the first guest's Java process: the host-side
    // truth a guest-internal smaps could never show (TPS-shared pages
    // count as shared here).
    std::printf("\n=== /proc/<java>/smaps of VM1 (largest mappings) "
                "===\n");
    analysis::ProcessSmaps smaps =
        analysis::computeSmaps(scenario.guest(0),
                               scenario.javaRows()[0].pid);
    std::sort(smaps.entries.begin(), smaps.entries.end(),
              [](const auto &a, const auto &b) { return a.rss > b.rss; });
    for (std::size_t i = 0; i < 6 && i < smaps.entries.size(); ++i) {
        const auto &e = smaps.entries[i];
        std::printf("%-28s rss=%9s pss=%9.1f MiB shared=%9s swap=%s\n",
                    e.name.c_str(), formatMiB(e.rss).c_str(),
                    e.pss / MiB, formatMiB(e.sharedClean).c_str(),
                    formatMiB(e.swap).c_str());
    }

    // Offline-analysis round trip, the paper's actual workflow: save
    // the dump, reload it, account again.
    const std::string dump = analysis::writeDump(snap);
    analysis::OwnerAccounting replayed(analysis::parseDump(dump));
    const bool matches =
        replayed.attributedBytes() == owner.attributedBytes();
    std::printf("\ndump round-trip: %zu bytes, replayed attribution %s "
                "MiB (%s)\n",
                dump.size(), formatMiB(replayed.attributedBytes()).c_str(),
                matches ? "matches live walk" : "MISMATCH");
    return matches ? 0 : 1;
}
