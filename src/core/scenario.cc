#include "core/scenario.hh"

#include <algorithm>

#include "base/hash.hh"
#include "base/logging.hh"

namespace jtps::core
{

constexpr double diskIops = 120.0;    //!< host swap-disk fault capacity
constexpr double diskLatencyMs = 5.0; //!< unloaded page-in latency

Scenario::Scenario(const ScenarioConfig &cfg,
                   std::vector<workload::WorkloadSpec> per_vm_workloads)
    : cfg_(cfg), disk_(diskIops, diskLatencyMs)
{
    jtps_assert(!per_vm_workloads.empty());
    for (auto &spec : per_vm_workloads)
        slots_.push_back(std::make_unique<VmSlot>(std::move(spec)));
}

Scenario::~Scenario() = default;

void
Scenario::build()
{
    jtps_assert(!built_);
    built_ = true;

    // Host identity: a presentation label only. Counter names, trace
    // payloads and all simulation state are scope-free, so a labeled
    // host simulates byte-identically to an unlabeled one.
    stats_.setScope(cfg_.hostLabel);
    trace_.setScope(cfg_.hostLabel);

    hv::HostConfig hcfg = cfg_.host;
    if (cfg_.pmlRingSlots > 0)
        hcfg.pmlRingSlots = cfg_.pmlRingSlots;
    hv_ = std::make_unique<hv::Hypervisor>(hcfg, stats_);
    // Balloon/WSS counters are registered whether or not the adaptive
    // governor runs, so every registry has the same shape.
    stats_.counter("balloon.wss_resizes");
    stats_.counter("wss.samples");
    // Wire (but do not enable) tracing: the hypervisor fans the sink
    // out to the swap device, and the scanner/guests reach it through
    // hv().trace(). Events are stamped with simulated time.
    trace_.setClock([this]() { return queue_.now(); });
    hv_->setTrace(&trace_);
    ksm_ = std::make_unique<ksm::KsmScanner>(*hv_, cfg_.ksm, stats_);

    for (std::size_t i = 0; i < slots_.size(); ++i)
        buildVm(i);
}

const Scenario::VmSlot &
Scenario::slot(std::size_t i) const
{
    jtps_assert(i < slots_.size() && slots_[i] != nullptr);
    return *slots_[i];
}

std::vector<guest::GuestOs *>
Scenario::liveGuests() const
{
    std::vector<guest::GuestOs *> out;
    for (const auto &s : slots_) {
        if (s)
            out.push_back(s->guest.get());
    }
    return out;
}

const jvm::SharedClassCache *
Scenario::prepareVmArtifacts(std::size_t i)
{
    const auto &spec = slots_[i]->spec;

    // Synthesize each distinct program's class set once: the classes
    // are a property of the installed software, not of a VM.
    const std::string &key = spec.classSpec.programName;
    if (!class_sets_.count(key)) {
        class_sets_.emplace(key, std::make_unique<jvm::ClassSet>(
                                     jvm::ClassSet::synthesize(
                                         spec.classSpec)));
    }

    // Populate shared class caches. With copyCacheToAllVms (the paper's
    // §IV.C deployment) one population per middleware cache name is
    // copied everywhere; otherwise each VM populates its own cache with
    // a per-VM salt (identical classes, different layout).
    if (!cfg_.enableClassSharing)
        return nullptr;
    if (cfg_.copyCacheToAllVms) {
        auto it = cache_by_name_.find(spec.cacheName);
        if (it == cache_by_name_.end()) {
            caches_.push_back(std::make_unique<jvm::SharedClassCache>(
                jvm::SharedClassCache::build(
                    *class_sets_.at(spec.classSpec.programName),
                    spec.cacheName, spec.sharedCacheBytes,
                    cfg_.cacheScope)));
            if (cfg_.aotCacheBytes > 0) {
                constexpr Bytes aotAvgMethodBytes = 18 * KiB;
                caches_.back()->addAotSection(cfg_.aotMethodCount,
                                              aotAvgMethodBytes,
                                              cfg_.aotCacheBytes);
            }
            it = cache_by_name_
                     .emplace(spec.cacheName, caches_.back().get())
                     .first;
        }
        return it->second;
    }
    caches_.push_back(std::make_unique<jvm::SharedClassCache>(
        jvm::SharedClassCache::build(
            *class_sets_.at(spec.classSpec.programName), spec.cacheName,
            spec.sharedCacheBytes, cfg_.cacheScope,
            /*population_salt=*/i + 1)));
    return caches_.back().get();
}

void
Scenario::buildVm(std::size_t i)
{
    // Class-set/cache artifacts first (pure construction: no hypervisor
    // or queue state), then the guest stack: create the VM, boot the
    // kernel, start daemons, start WAS.
    const jvm::SharedClassCache *cache = prepareVmArtifacts(i);
    VmSlot &s = *slots_[i];
    const auto &spec = s.spec;
    const std::string vm_name = "VM" + std::to_string(i + 1);
    constexpr Bytes vmOverheadBytes = 48 * MiB; // QEMU process per VM
    const VmId vm_id = hv_->createVm(vm_name, spec.guestMemBytes,
                                     vmOverheadBytes);
    jtps_assert(vm_id == i);

    s.guest = std::make_unique<guest::GuestOs>(
        *hv_, vm_id, vm_name, hash3(cfg_.seed, stringTag("guest"), i));
    guest::GuestOs &os = *s.guest;
    os.setThpEnabled(cfg_.guestThp);
    os.bootKernel(cfg_.kernel);

    // Small non-Java daemons booted in each guest.
    os.spawnDaemon("sshd", 2 * MiB, 1536 * KiB);
    os.spawnDaemon("syslogd", 1 * MiB, 512 * KiB);
    os.spawnDaemon("crond", 1 * MiB, 512 * KiB);
    os.spawnDaemon("snmpd", 2 * MiB, 1 * MiB);

    jvm::JavaVmConfig jcfg = workload::makeJvmConfig(
        spec, *class_sets_.at(spec.classSpec.programName), cache);
    s.jvm = std::make_unique<jvm::JavaVm>(os, jcfg, "was-server");
    s.jvm->start();

    s.driver = std::make_unique<workload::ClientDriver>(*s.jvm, spec, disk_);
}

analysis::SharingMonitor &
Scenario::attachSharingMonitor(Tick period_ms)
{
    jtps_assert(built_);
    if (!monitor_) {
        monitor_ =
            std::make_unique<analysis::SharingMonitor>(*hv_, *ksm_);
        monitor_->sample(queue_.now()); // t=0 baseline point
        monitor_->attach(queue_, period_ms);
    }
    return *monitor_;
}

void
Scenario::scheduleEpochs()
{
    if (epochs_scheduled_)
        return;
    epochs_scheduled_ = true;

    // The estimator is the rings' only drainer, so it runs whenever the
    // host has rings (whichever config set them); without it a ring
    // would fill once and log nothing more.
    if (hv_->pmlEnabled()) {
        wss_ = std::make_unique<analysis::WssEstimator>(
            *hv_, analysis::WssConfig{}, stats_);
        wss_->attach(queue_);
    }
    if (cfg_.adaptiveBalloon) {
        jtps_assert(wss_ != nullptr);
        // Per-interval cap on balloon resizes. Bounds the reclaim
        // burst one governor step can ask a guest for — a cold
        // estimator plus a big guest would otherwise request hundreds
        // of thousands of page reclaims in one simulated instant. Kept
        // small relative to the page-cache refill rate: a probe that
        // bites live cache must be cheap to undo, since dropped pages
        // come back one disk read at a time.
        constexpr Bytes balloonMaxStepBytes = 16 * MiB;
        BalloonGovernorConfig bcfg;
        bcfg.maxStepPages = bytesToPages(balloonMaxStepBytes);
        governor_ = std::make_unique<BalloonGovernor>(*wss_, bcfg, stats_);
        // Steps whichever guests are live when it fires.
        queue_.schedulePeriodic(BalloonGovernor::intervalMs, [this]() {
            governor_->step(liveGuests());
            return true;
        });
    }

    // One serial event runs every live VM's epoch straight through
    // the hypervisor, in VM-id order. It reads the VM population when
    // it fires, so retireVm() and addVm() need not touch it.
    queue_.schedulePeriodic(cfg_.epochMs, [this]() {
        disk_.beginEpoch(cfg_.epochMs);
        std::vector<workload::ClientDriver::EpochResult> results(
            slots_.size());
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i])
                results[i] = slots_[i]->driver->runEpoch(cfg_.epochMs);
        }
        disk_.endEpoch();
        epoch_history_.push_back(std::move(results));
        return true;
    });
}

void
Scenario::retireVm(std::size_t i)
{
    jtps_assert(built_);
    jtps_assert(i < slots_.size() && slots_[i] != nullptr);
    hv_->releaseVmMemory(static_cast<VmId>(i));
    slots_[i].reset();
}

std::size_t
Scenario::addVm(const workload::WorkloadSpec &spec)
{
    jtps_assert(built_);
    const std::size_t i = slots_.size();
    slots_.push_back(std::make_unique<VmSlot>(spec));
    buildVm(i);
    return i;
}

std::size_t
Scenario::activeVmCount() const
{
    return slots_.size() - static_cast<std::size_t>(std::count(
                               slots_.begin(), slots_.end(), nullptr));
}

void
Scenario::run()
{
    jtps_assert(built_);

    // Warm-up: paper's aggressive scanning while WAS and the benchmark
    // initialize.
    ksm_->setPagesToScan(cfg_.ksmWarmupPagesToScan);
    ksm_->attach(queue_);
    scheduleEpochs();
    queue_.runUntil(queue_.now() + cfg_.warmupMs);

    // Steady state: throttle the scanner as the paper does during
    // measurements.
    ksm_->setPagesToScan(cfg_.ksm.pagesToScan);
    queue_.runUntil(queue_.now() + cfg_.steadyMs);
}

void
Scenario::runFor(Tick ms)
{
    jtps_assert(built_);
    scheduleEpochs();
    queue_.runUntil(queue_.now() + ms);
}

analysis::Snapshot
Scenario::snapshot()
{
    const std::vector<guest::GuestOs *> live = liveGuests();
    return analysis::captureSnapshot(*hv_, {live.begin(), live.end()});
}

analysis::OwnerAccounting
Scenario::account()
{
    return analysis::OwnerAccounting(snapshot());
}

std::vector<std::string>
Scenario::vmNames() const
{
    std::vector<std::string> names;
    names.reserve(hv_->vmCount());
    for (VmId v = 0; v < hv_->vmCount(); ++v)
        names.push_back(hv_->vm(v).name);
    return names;
}

std::vector<analysis::JavaProcRow>
Scenario::javaRows() const
{
    std::vector<analysis::JavaProcRow> rows;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i])
            rows.push_back({"JVM" + std::to_string(i + 1),
                            static_cast<VmId>(i), slots_[i]->jvm->pid()});
    }
    return rows;
}

double
Scenario::aggregateThroughput(std::size_t epochs) const
{
    if (epoch_history_.empty())
        return 0.0;
    const std::size_t n = std::min(epochs, epoch_history_.size());
    double sum = 0;
    for (std::size_t e = epoch_history_.size() - n;
         e < epoch_history_.size(); ++e) {
        for (const auto &r : epoch_history_[e])
            sum += r.achievedPerSec;
    }
    return sum / static_cast<double>(n);
}

std::vector<double>
Scenario::perVmAverage(
    std::size_t epochs,
    double workload::ClientDriver::EpochResult::*field) const
{
    std::vector<double> out(slots_.size(), 0.0);
    if (epoch_history_.empty())
        return out;
    const std::size_t n = std::min(epochs, epoch_history_.size());
    for (std::size_t e = epoch_history_.size() - n;
         e < epoch_history_.size(); ++e) {
        for (std::size_t v = 0; v < epoch_history_[e].size(); ++v)
            out[v] += epoch_history_[e][v].*field;
    }
    for (double &v : out)
        v /= static_cast<double>(n);
    return out;
}

std::vector<double>
Scenario::perVmThroughput(std::size_t epochs) const
{
    return perVmAverage(
        epochs, &workload::ClientDriver::EpochResult::achievedPerSec);
}

std::vector<double>
Scenario::perVmResponseMs(std::size_t epochs) const
{
    return perVmAverage(
        epochs, &workload::ClientDriver::EpochResult::avgResponseMs);
}

} // namespace jtps::core
