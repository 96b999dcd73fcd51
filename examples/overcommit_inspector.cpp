/**
 * @file
 * Overcommit inspector: per-VM health on a loaded host.
 *
 * Usage: overcommit_inspector [cds 0|1] [num_vms]
 *
 * Runs the density scenario and prints, per VM: achieved throughput,
 * response time, major faults, and pages the host swapped out —
 * the view used to diagnose which guests a thrashing host is hurting.
 */

#include <cstdio>
#include <cstdlib>

#include "core/scenario.hh"

using namespace jtps;

int
main(int argc, char **argv)
{
    setVerbose(false);
    const bool cds = argc > 1 && argv[1][0] == '1';
    const int num_vms = argc > 2 ? std::atoi(argv[2]) : 8;

    core::ScenarioConfig cfg;
    cfg.enableClassSharing = cds;
    cfg.warmupMs = 70'000;
    cfg.steadyMs = 60'000;
    std::vector<workload::WorkloadSpec> vms(
        num_vms, workload::dayTraderIntel());
    core::Scenario scenario(cfg, vms);
    scenario.build();
    scenario.run();

    std::printf("host: %d DayTrader guests, class sharing %s\n\n",
                num_vms, cds ? "ON" : "OFF");
    std::printf("%-6s %12s %12s %12s %12s\n", "VM", "rq/s", "resp(ms)",
                "maj faults", "swapped(MiB)");
    std::printf("%s\n", std::string(58, '-').c_str());

    auto tput = scenario.perVmThroughput(12);
    auto resp = scenario.perVmResponseMs(12);
    double total = 0;
    for (int v = 0; v < num_vms; ++v) {
        total += tput[v];
        std::printf("%-6s %12.1f %12.0f %12llu %12s\n",
                    scenario.vmNames()[v].c_str(), tput[v], resp[v],
                    (unsigned long long)scenario.hv().majorFaults(v),
                    formatMiB(pagesToBytes(scenario.hv().pagesIn(
                                  v, hv::PageState::Swapped)))
                        .c_str());
    }
    std::printf("\naggregate: %.1f rq/s;  host resident %s MiB;  "
                "swap slots %llu;  KSM saved %s MiB;  disk util %.2f\n",
                total, formatMiB(scenario.hv().residentBytes()).c_str(),
                (unsigned long long)scenario.hv().swap().used(),
                formatMiB(scenario.ksm().savedBytes()).c_str(),
                scenario.disk().utilization());
    return 0;
}
