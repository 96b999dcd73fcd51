#include "core/scenario.hh"

#include <iterator>

#include "base/hash.hh"
#include "base/logging.hh"

namespace jtps::core
{

Scenario::Scenario(const ScenarioConfig &cfg,
                   std::vector<workload::WorkloadSpec> per_vm_workloads)
    : cfg_(cfg),
      specs_(std::make_move_iterator(per_vm_workloads.begin()),
             std::make_move_iterator(per_vm_workloads.end())),
      disk_(cfg.diskIops, cfg.diskLatencyMs)
{
    jtps_assert(!specs_.empty());
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
    hv_ = std::make_unique<hv::KvmHypervisor>(hcfg, stats_);
    // Balloon/WSS counters are registered whether or not the adaptive
    // governor runs, so every registry has the same shape.
    stats_.counter("balloon.wss_resizes");
    stats_.counter("wss.samples");
    // Wire (but do not enable) tracing: the hypervisor fans the sink
    // out to the swap device, and the scanner/guests reach it through
    // hv().trace(). Events are stamped with simulated time.
    trace_.setClock([this]() { return queue_.now(); });
    hv_->setTrace(&trace_);
    ksm::KsmConfig kcfg = cfg_.ksm;
    kcfg.scanThreads = cfg_.ksmScanThreads;
    kcfg.commitShards = cfg_.ksmCommitShards;
    kcfg.batchPages = cfg_.ksmBatchPages;
    if (cfg_.pmlRingSlots > 0)
        kcfg.usePml = true;
    ksm_ = std::make_unique<ksm::KsmScanner>(*hv_, kcfg, stats_);

    // Build every VM: class-set/cache artifacts first, then the guest
    // stack. Artifact synthesis is pure construction (no hypervisor or
    // queue state), so interleaving it per VM leaves the sequence of
    // host-visible mutations identical to building in separate loops.
    vm_cache_.assign(specs_.size(), nullptr);
    active_.assign(specs_.size(), true);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        prepareVmArtifacts(i);
        buildVm(i);
    }
}

void
Scenario::prepareVmArtifacts(std::size_t i)
{
    const auto &spec = specs_[i];

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
        return;
    if (cfg_.copyCacheToAllVms) {
        auto it = cache_by_name_.find(spec.cacheName);
        if (it == cache_by_name_.end()) {
            caches_.push_back(std::make_unique<jvm::SharedClassCache>(
                jvm::SharedClassCache::build(
                    *class_sets_.at(spec.classSpec.programName),
                    spec.cacheName, spec.sharedCacheBytes,
                    cfg_.cacheScope)));
            if (cfg_.aotCacheBytes > 0) {
                caches_.back()->addAotSection(cfg_.aotMethodCount,
                                              cfg_.aotAvgMethodBytes,
                                              cfg_.aotCacheBytes);
            }
            it = cache_by_name_
                     .emplace(spec.cacheName, caches_.back().get())
                     .first;
        }
        vm_cache_[i] = it->second;
    } else {
        caches_.push_back(std::make_unique<jvm::SharedClassCache>(
            jvm::SharedClassCache::build(
                *class_sets_.at(spec.classSpec.programName),
                spec.cacheName, spec.sharedCacheBytes, cfg_.cacheScope,
                /*population_salt=*/i + 1)));
        vm_cache_[i] = caches_.back().get();
    }
}

void
Scenario::buildVm(std::size_t i)
{
    // Guest: create the VM, boot the kernel, start daemons, start WAS.
    const auto &spec = specs_[i];
    const std::string vm_name = "VM" + std::to_string(i + 1);
    const VmId vm_id = hv_->createVm(vm_name, spec.guestMemBytes,
                                     cfg_.vmOverheadBytes);
    jtps_assert(vm_id == i);

    guests_.push_back(std::make_unique<guest::GuestOs>(
        *hv_, vm_id, vm_name, hash3(cfg_.seed, stringTag("guest"), i)));
    guest::GuestOs &os = *guests_.back();
    os.setThpEnabled(cfg_.guestThp);
    os.bootKernel(cfg_.kernel);

    if (cfg_.spawnDaemons) {
        os.spawnDaemon("sshd", 2 * MiB, 1536 * KiB);
        os.spawnDaemon("syslogd", 1 * MiB, 512 * KiB);
        os.spawnDaemon("crond", 1 * MiB, 512 * KiB);
        os.spawnDaemon("snmpd", 2 * MiB, 1 * MiB);
    }

    jvm::JavaVmConfig jcfg = workload::makeJvmConfig(
        spec, *class_sets_.at(spec.classSpec.programName), vm_cache_[i]);
    jvms_.push_back(
        std::make_unique<jvm::JavaVm>(os, jcfg, "was-server"));
    jvms_.back()->start();

    drivers_.push_back(std::make_unique<workload::ClientDriver>(
        *jvms_.back(), specs_[i], disk_));
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

    if (cfg_.adaptiveBalloon) {
        // The estimator piggybacks on the scanner's ring drains
        // (pmlRingSlots forces usePml), so it must not reset the
        // rings itself.
        jtps_assert(cfg_.pmlRingSlots > 0);
        analysis::WssConfig wcfg;
        wcfg.windowMs = cfg_.wssWindowMs;
        wcfg.drainRings = false;
        wss_ = std::make_unique<analysis::WssEstimator>(*hv_, wcfg,
                                                        stats_);
        wss_->attach(queue_);
        std::vector<guest::GuestOs *> ptrs;
        ptrs.reserve(guests_.size());
        for (auto &g : guests_)
            ptrs.push_back(g.get());
        BalloonGovernorConfig bcfg;
        bcfg.intervalMs = cfg_.balloonIntervalMs;
        bcfg.slackPages = bytesToPages(cfg_.balloonSlackBytes);
        bcfg.maxStepPages = bytesToPages(cfg_.balloonMaxStepBytes);
        governor_ = std::make_unique<BalloonGovernor>(
            std::move(ptrs), *wss_, bcfg, stats_);
        governor_->attach(queue_);
    }

    scheduleEpochBlock();
}

void
Scenario::scheduleEpochBlock()
{
    // One serial event runs every active VM's epoch straight through
    // the hypervisor, in VM-id order. It captures the generation it
    // was scheduled under and cancels itself when it wakes stale (see
    // epoch_gen_); retireVm/addVm bump the generation and re-call this.
    const std::uint64_t gen = epoch_gen_;
    queue_.schedulePeriodic(cfg_.epochMs, [this, gen]() {
        if (gen != epoch_gen_)
            return false;
        disk_.beginEpoch(cfg_.epochMs);
        std::vector<workload::ClientDriver::EpochResult> results(
            drivers_.size());
        for (std::size_t i = 0; i < drivers_.size(); ++i) {
            if (active_[i])
                results[i] = drivers_[i]->runEpoch(cfg_.epochMs);
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
    jtps_assert(i < guests_.size());
    jtps_assert(active_[i]);
    active_[i] = false;
    if (governor_)
        governor_->dropGuest(static_cast<VmId>(i));
    hv_->releaseVmMemory(static_cast<VmId>(i));
    if (epochs_scheduled_) {
        ++epoch_gen_;
        scheduleEpochBlock();
    }
}

std::size_t
Scenario::addVm(const workload::WorkloadSpec &spec)
{
    jtps_assert(built_);
    const std::size_t i = specs_.size();
    specs_.push_back(spec);
    vm_cache_.push_back(nullptr);
    active_.push_back(true);
    prepareVmArtifacts(i);
    buildVm(i);
    if (governor_)
        governor_->addGuest(guests_.back().get());
    if (epochs_scheduled_) {
        ++epoch_gen_;
        scheduleEpochBlock();
    }
    return i;
}

std::size_t
Scenario::activeVmCount() const
{
    std::size_t n = 0;
    for (bool a : active_)
        n += a ? 1 : 0;
    return n;
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
    std::vector<const guest::GuestOs *> ptrs;
    ptrs.reserve(guests_.size());
    for (const auto &g : guests_)
        ptrs.push_back(g.get());
    return analysis::captureSnapshot(*hv_, ptrs);
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
    names.reserve(guests_.size());
    for (const auto &g : guests_)
        names.push_back(g->name());
    return names;
}

std::vector<analysis::JavaProcRow>
Scenario::javaRows() const
{
    std::vector<analysis::JavaProcRow> rows;
    for (std::size_t i = 0; i < jvms_.size(); ++i) {
        rows.push_back({"JVM" + std::to_string(i + 1),
                        static_cast<VmId>(i), jvms_[i]->pid()});
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
Scenario::perVmThroughput(std::size_t epochs) const
{
    std::vector<double> out(drivers_.size(), 0.0);
    if (epoch_history_.empty())
        return out;
    const std::size_t n = std::min(epochs, epoch_history_.size());
    for (std::size_t e = epoch_history_.size() - n;
         e < epoch_history_.size(); ++e) {
        for (std::size_t v = 0; v < epoch_history_[e].size(); ++v)
            out[v] += epoch_history_[e][v].achievedPerSec;
    }
    for (double &v : out)
        v /= static_cast<double>(n);
    return out;
}

std::vector<double>
Scenario::perVmResponseMs(std::size_t epochs) const
{
    std::vector<double> out(drivers_.size(), 0.0);
    if (epoch_history_.empty())
        return out;
    const std::size_t n = std::min(epochs, epoch_history_.size());
    for (std::size_t e = epoch_history_.size() - n;
         e < epoch_history_.size(); ++e) {
        for (std::size_t v = 0; v < epoch_history_[e].size(); ++v)
            out[v] += epoch_history_[e][v].avgResponseMs;
    }
    for (double &v : out)
        v /= static_cast<double>(n);
    return out;
}

} // namespace jtps::core
