#include "workload/client_driver.hh"

#include <algorithm>

#include "base/hash.hh"

namespace jtps::workload
{

ClientDriver::ClientDriver(jvm::JavaVm &vm, const WorkloadSpec &spec,
                           HostDisk &disk)
    : vm_(vm), spec_(spec), disk_(disk),
      cycle_ms_estimate_(spec.thinkMs + spec.serviceMs),
      mix_rng_(hashCombine(vm.procSeed(), stringTag("req-mix"))),
      mix_weight_(spec.totalMixWeight())
{
}

void
ClientDriver::warmupWork()
{
    // Warm-up work piggybacks on request traffic: lazy class loading
    // (first use of servlets/EJB paths) and JIT compilation of methods
    // that crossed their invocation thresholds.
    if (!warm_) {
        const bool classes_done =
            vm_.allClassesLoaded() ||
            vm_.loadLazyClasses(spec_.lazyClassesPerEpoch) == 0;
        const bool jit_done =
            vm_.compileHotMethods(spec_.jitCompilesPerEpoch) <
            spec_.jitCompilesPerEpoch;
        warm_ = classes_done && jit_done;
    } else {
        // Steady state still recompiles: the optimizer keeps promoting
        // methods, churning (and fragmenting) the code cache.
        constexpr std::uint32_t jitRecompilesPerEpoch = 2;
        vm_.recompileHotMethods(jitRecompilesPerEpoch);
    }
}

std::uint64_t
ClientDriver::plannedRequests(Tick epoch_ms) const
{
    // Closed loop: how many requests can clientThreads issue at the
    // current cycle estimate? Even a thrashing server keeps grinding:
    // every client thread has a request in flight whose touches (and
    // faults) land each epoch — that floor is what makes a dying VM
    // keep contending for frames instead of silently surrendering its
    // memory, and is what spreads collapse across all VMs (Fig. 7).
    const double cycles =
        static_cast<double>(epoch_ms) / cycle_ms_estimate_;
    return std::max<std::uint64_t>(
        spec_.clientThreads,
        static_cast<std::uint64_t>(cycles * spec_.clientThreads));
}

void
ClientDriver::runRequests(std::uint64_t requests)
{
    // Per-request work every workload shares, before the mix's
    // multipliers (only heap touches vary by workload).
    constexpr std::uint32_t headerMutationsPerRequest = 2;
    constexpr std::uint32_t touchCodePages = 4;
    constexpr std::uint32_t touchClassPages = 6;
    constexpr std::uint32_t touchJitPages = 4;
    for (std::uint64_t r = 0; r < requests; ++r) {
        // Sample an operation from the workload's request mix; heavy
        // operations (order placement) do proportionally more memory
        // work than cheap ones (quotes).
        double alloc_mul = 1.0, touch_mul = 1.0, header_mul = 1.0;
        if (mix_weight_ > 0) {
            std::uint32_t pick = static_cast<std::uint32_t>(
                mix_rng_.nextBelow(mix_weight_));
            for (const RequestOp &op : spec_.mix) {
                if (pick < op.weight) {
                    alloc_mul = op.allocMul;
                    touch_mul = op.touchMul;
                    header_mul = op.headerMul;
                    break;
                }
                pick -= op.weight;
            }
        }
        vm_.allocate(static_cast<Bytes>(spec_.allocPerRequestBytes *
                                        alloc_mul));
        vm_.mutateHeaders(static_cast<std::uint32_t>(
            headerMutationsPerRequest * header_mul));
        vm_.touchWorkingSet(
            static_cast<std::uint32_t>(touchCodePages * touch_mul),
            static_cast<std::uint32_t>(spec_.touchHeapPages * touch_mul),
            static_cast<std::uint32_t>(touchClassPages * touch_mul),
            static_cast<std::uint32_t>(touchJitPages * touch_mul));
    }
}

ClientDriver::EpochResult
ClientDriver::finishEpoch(std::uint64_t requests,
                          std::uint64_t request_faults,
                          std::uint64_t request_ram_faults,
                          std::uint64_t total_faults)
{
    EpochResult res;
    res.requests = requests;
    res.majorFaults = total_faults;
    res.faultsPerRequest = static_cast<double>(request_faults) /
                           static_cast<double>(requests);
    const double disk_faults_per_req =
        static_cast<double>(request_faults - request_ram_faults) /
        static_cast<double>(requests);
    const double ram_faults_per_req =
        static_cast<double>(request_ram_faults) /
        static_cast<double>(requests);
    res.avgResponseMs = spec_.serviceMs +
                        disk_faults_per_req * disk_.faultLatencyMs() +
                        ram_faults_per_req * compressedRefaultMs;
    const double cycle_ms = spec_.thinkMs + res.avgResponseMs;
    res.achievedPerSec = spec_.clientThreads * 1000.0 / cycle_ms;
    res.slaMet = res.avgResponseMs <= spec_.slaMs;

    // Adapt the loop's pacing for the next epoch.
    cycle_ms_estimate_ = 0.5 * cycle_ms_estimate_ + 0.5 * cycle_ms;
    return res;
}

ClientDriver::EpochResult
ClientDriver::runEpoch(Tick epoch_ms)
{
    auto &hv = vm_.os().hv();
    const VmId vm_id = vm_.os().vmId();
    const std::uint64_t faults_before = hv.majorFaults(vm_id);
    const std::uint64_t ram_faults_before = hv.majorFaultsRam(vm_id);
    const std::uint64_t guest_faults_before =
        vm_.os().guestMajorFaults();

    warmupWork();
    const std::uint64_t requests = plannedRequests(epoch_ms);
    runRequests(requests);

    // Guest-level swap-ins (the guest's own swap device lives on the
    // same shared disk) count like host disk faults.
    const std::uint64_t request_faults =
        hv.majorFaults(vm_id) - faults_before +
        (vm_.os().guestMajorFaults() - guest_faults_before);
    const std::uint64_t request_ram_faults =
        hv.majorFaultsRam(vm_id) - ram_faults_before;

    // Background I/O (NIO buffers, log/file page-cache churn): its
    // faults load the shared disk but happen off the request path, so
    // they inflate fault *latency*, not the per-request fault count.
    constexpr std::uint32_t nioRewritesPerEpoch = 16;
    constexpr std::uint32_t nioTouchesPerEpoch = 64;
    vm_.nioActivity(nioRewritesPerEpoch, nioTouchesPerEpoch);
    const std::uint64_t misses_before = vm_.os().cacheMisses();
    vm_.os().touchFileSpace(spec_.guestCacheTouchesPerEpoch);
    // Cache misses are real disk reads competing with swap traffic.
    disk_.recordFaults(vm_.os().cacheMisses() - misses_before);
    const std::uint64_t total_faults =
        hv.majorFaults(vm_id) - faults_before +
        (vm_.os().guestMajorFaults() - guest_faults_before);
    const std::uint64_t total_ram_faults =
        hv.majorFaultsRam(vm_id) - ram_faults_before;
    // Only disk-tier faults queue on the shared disk; compressed-RAM
    // refaults cost a fixed decompression.
    disk_.recordFaults(total_faults - total_ram_faults);

    return finishEpoch(requests, request_faults, request_ram_faults,
                       total_faults);
}

} // namespace jtps::workload
