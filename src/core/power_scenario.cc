#include "core/power_scenario.hh"

#include "base/hash.hh"
#include "base/logging.hh"

namespace jtps::core
{

PowerScenario::PowerScenario(const PowerScenarioConfig &cfg)
    : cfg_(cfg), disk_(1e9, 0.1), // POWER host: no memory pressure here
      spec_(workload::dayTraderPower())
{
}

PowerScenario::~PowerScenario() = default;

void
PowerScenario::build()
{
    constexpr std::uint32_t numVms = 3; // the paper's three AIX guests
    constexpr std::uint64_t seed = 7;
    constexpr Tick epochMs = 2000;
    hv_ = std::make_unique<hv::Hypervisor>(cfg_.host, stats_);

    classes_ = std::make_unique<jvm::ClassSet>(
        jvm::ClassSet::synthesize(spec_.classSpec));
    if (cfg_.preloadClasses) {
        cache_ = std::make_unique<jvm::SharedClassCache>(
            jvm::SharedClassCache::build(*classes_, spec_.cacheName,
                                         spec_.sharedCacheBytes));
    }

    for (std::uint32_t i = 0; i < numVms; ++i) {
        const std::string name = "LPAR" + std::to_string(i + 1);
        const VmId vm_id = hv_->createVm(name, spec_.guestMemBytes, 0);
        jtps_assert(vm_id == i);
        guests_.push_back(std::make_unique<guest::GuestOs>(
            *hv_, vm_id, name,
            hash3(seed, stringTag("aix-guest"), i)));
        guests_.back()->bootKernel(cfg_.kernel);

        jvm::JavaVmConfig jcfg = workload::makeJvmConfig(
            spec_, *classes_, cache_.get());
        jvms_.push_back(std::make_unique<jvm::JavaVm>(
            *guests_.back(), jcfg, "was-server"));
        jvms_.back()->start();

        drivers_.push_back(std::make_unique<workload::ClientDriver>(
            *jvms_.back(), spec_, disk_));
    }

    // Initialize DayTrader (the paper hits the scenario page and warms
    // up before the sharing measurement).
    for (std::uint32_t e = 0; e < cfg_.warmEpochs; ++e) {
        disk_.beginEpoch(epochMs);
        for (auto &driver : drivers_)
            driver->runEpoch(epochMs);
        disk_.endEpoch();
    }
}

PowerResult
PowerScenario::measure()
{
    PowerResult res;
    res.usageBeforeSharing = hv_->residentBytes();
    hv_->collapseIdenticalPages();
    res.usageAfterSharing = hv_->residentBytes();
    return res;
}

} // namespace jtps::core
