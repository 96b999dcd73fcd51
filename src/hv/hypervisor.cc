#include "hv/hypervisor.hh"

#include <algorithm>
#include <unordered_map>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/packed_gfn.hh"
#include "base/units.hh"

namespace jtps::hv
{

Hypervisor::Hypervisor(const HostConfig &cfg, StatSet &stats)
    : stats_(stats),
      frames_(
          [&cfg]() {
              // The compressed swap pool carves its frames out of host
              // RAM: the tier trades usable memory for cheap refaults.
              Bytes usable = cfg.ramBytes;
              usable -= std::min(usable, cfg.reserveBytes);
              usable -= std::min(usable, cfg.compressedSwapPoolBytes);
              return bytesToPages(usable);
          }(),
          &stats),
      swap_(&stats),
      ram_slot_capacity_(bytesToPages(cfg.compressedSwapPoolBytes) *
                         swapCompressionRatio),
      pml_ring_slots_(cfg.pmlRingSlots),
      stat_pml_appends_(stats.counter("hv.pml_appends")),
      stat_pml_overflows_(stats.counter("hv.pml_overflows"))
{
    // Registered at zero so every registry carries the counter whether
    // or not a run ever retires a VM (docs/METRICS.md contract).
    stats_.counter("hv.vms_released");
}

void
Hypervisor::setTrace(TraceBuffer *trace)
{
    trace_ = trace;
    swap_.setTrace(trace);
}

VmId
Hypervisor::createVm(const std::string &name, Bytes guest_mem,
                     Bytes overhead)
{
    // Checked before the EPT is sized: page tables, reverse mappings
    // and the other per-page records store gfns in 32 bits.
    const std::uint64_t guest_pages = bytesToPages(guest_mem);
    if (guest_pages > maxGuestPages)
        fatal("guest '%s' of %llu pages is too large: a guest has fewer "
              "than 2^32 pages (16 TiB), since gfns are stored in 32 bits",
              name.c_str(), static_cast<unsigned long long>(guest_pages));
    VmId id = static_cast<VmId>(vms_.size());
    vms_.push_back(std::make_unique<Vm>(id, name, guest_pages));
    Vm &v = *vms_.back();
    v.pmlRing.reserve(pml_ring_slots_);

    // The VM process's own memory (QEMU heap, device emulation state):
    // private, per-VM content, pinned so the host never swaps the VMM
    // itself. Attributed to "the guest VM itself" by the analysis layer.
    const std::uint64_t overhead_pages = bytesToPages(overhead);
    const std::uint64_t tag = stringTag("vm-process-overhead");
    for (std::uint64_t i = 0; i < overhead_pages; ++i) {
        mem::PageData data = mem::PageData::filled(tag, hash3(id, i, 1));
        Hfn hfn = frames_.allocPinned(data);
        while (hfn == invalidFrame) {
            if (!evictOne())
                fatal("host out of memory creating VM '%s'", name.c_str());
            hfn = frames_.allocPinned(data);
        }
        v.overheadFrames.push_back(hfn);
    }
    stats_.inc("hv.vms_created");
    return id;
}

Vm &
Hypervisor::vm(VmId id)
{
    jtps_assert(id < vms_.size());
    return *vms_[id];
}

const Vm &
Hypervisor::vm(VmId id) const
{
    jtps_assert(id < vms_.size());
    return *vms_[id];
}

Hfn
Hypervisor::allocBacked(const mem::Mapping &m, const mem::PageData &data)
{
    for (;;) {
        Hfn hfn = frames_.alloc(m, data);
        if (hfn != invalidFrame)
            return hfn;
        if (!evictOne())
            fatal("host out of memory: %llu frames resident, "
                  "nothing evictable",
                  static_cast<unsigned long long>(frames_.resident()));
    }
}

bool
Hypervisor::evictOne()
{
    Hfn victim = frames_.pickVictim(/*allow_shared=*/false);
    if (victim == invalidFrame)
        victim = frames_.pickVictim(/*allow_shared=*/true);
    if (victim == invalidFrame)
        return false;

    mem::Frame &f = frames_.frame(victim);
    jtps_assert(!f.pinned);
    // The swap record needs the mappings as a vector anyway; build it
    // reserved to the known arity (this runs once per eviction, which
    // the overcommit sweeps do millions of times).
    std::vector<mem::Mapping> mappings;
    mappings.reserve(f.refcount);
    frames_.forEachMapping(
        f, [&](const mem::Mapping &m) { mappings.push_back(m); });
    jtps_assert(!mappings.empty());
    const mem::PageData data = f.data;

    // Prefer the compressed-RAM tier while it has room.
    const mem::SwapTier tier =
        swap_.ramSlots() < ram_slot_capacity_
            ? mem::SwapTier::CompressedRam
            : mem::SwapTier::Disk;
    mem::SwapSlot slot = swap_.store(data, mappings, tier);
    for (const auto &m : mappings) {
        Vm &v = vm(m.vm);
        EptEntry &e = v.ept.entry(m.gfn);
        jtps_assert(e.state == PageState::Resident &&
                    e.backing == victim);
        e.state = PageState::Swapped;
        e.backing = slot;
        frames_.removeMapping(victim, m);
    }
    stat_evictions_.inc();
    return true;
}

void
Hypervisor::pmlLog(Vm &v, EptEntry &e, Gfn gfn)
{
    if (pml_ring_slots_ == 0 || e.pmlLogged)
        return;
    if (v.pmlRing.size() >= pml_ring_slots_) {
        // Ring full: the entry is lost, exactly like hardware PML
        // raising its full-vmexit with further dirtying unrecorded.
        // The logged bit stays clear so the loss is counted per
        // dropped page.
        ++stat_pml_overflows_;
        return;
    }
    v.pmlRing.push_back(gfn);
    e.pmlLogged = true;
    ++v.pmlAppendsTotal;
    ++stat_pml_appends_;
}

void
Hypervisor::pmlResetRing(VmId vm_id)
{
    Vm &v = vm(vm_id);
    for (const Gfn gfn : v.pmlRing)
        v.ept.entry(gfn).pmlLogged = false;
    v.pmlRing.clear();
    // Lost pages never got their bit set, so the entry-driven clear
    // above is complete: every set bit has a ring entry until the
    // drain consumes it.
}

void
Hypervisor::swapIn(VmId vm_id, Gfn gfn)
{
    Vm &faulting = vm(vm_id);
    EptEntry &fe = faulting.ept.entry(gfn);
    jtps_assert(fe.state == PageState::Swapped);

    mem::SwapDevice::Slot slot = swap_.take(fe.backing);
    jtps_assert(!slot.mappings.empty());
    const bool from_ram = slot.tier == mem::SwapTier::CompressedRam;

    // Restore the frame and *all* of its former mappings, preserving the
    // sharing structure the page had when it was evicted.
    Hfn hfn = allocBacked(slot.mappings.front(), slot.data);
    for (std::size_t i = 1; i < slot.mappings.size(); ++i)
        frames_.addMapping(hfn, slot.mappings[i]);

    for (const auto &m : slot.mappings) {
        Vm &v = vm(m.vm);
        EptEntry &e = v.ept.entry(m.gfn);
        jtps_assert(e.state == PageState::Swapped);
        e.state = PageState::Resident;
        e.backing = hfn;
        // The restored page sits on a reused host frame with a fresh
        // write generation, so the KSM generation walk re-examines it
        // as if it had been written. Log it like a write too, so the
        // dirty log and the append totals that the working-set
        // estimator and migration pre-copy read count it the same way.
        pmlLog(v, e, m.gfn);
    }

    ++faulting.majorFaults;
    stat_major_faults_.inc();
    if (from_ram) {
        ++faulting.majorFaultsRam;
        stat_major_faults_ram_.inc();
    }
}

void
Hypervisor::cowBreak(Vm &v, EptEntry &e, Gfn gfn, const mem::Frame &f)
{
    const Hfn old = e.backing;
    const mem::Mapping m{v.id, gfn};
    const mem::PageData copy = f.data; // copy before the frame can die
    frames_.removeMapping(old, m);
    e.backing = allocBacked(m, copy);
    stat_cow_breaks_.inc();
    if (trace_)
        trace_->record(TraceEventType::CowBreak, v.id, gfn, old);
}

mem::Frame &
Hypervisor::frameForWrite(Vm &v, Gfn gfn)
{
    EptEntry &e = v.ept.entry(gfn);

    switch (e.state) {
      case PageState::NotPresent:
        e.backing = allocBacked(mem::Mapping{v.id, gfn},
                                mem::PageData::zero());
        e.state = PageState::Resident;
        stat_demand_allocs_.inc();
        break;
      case PageState::Swapped:
        swapIn(v.id, gfn);
        break;
      case PageState::Resident:
        break;
    }

    // A shared or KSM-stable frame is write-protected in every mapping
    // of it: the write lands on a private copy.
    mem::Frame *f = &frames_.frame(e.backing);
    if (f->refcount > 1 || f->ksmStable) {
        cowBreak(v, e, gfn, *f);
        f = &frames_.frame(e.backing);
    }

    // The caller writes through the returned reference: restart the
    // frame's LRU age and advance its generation so every cached
    // derivation of the old content (KSM digests) stops matching.
    // Fresh allocations above already carry a new generation; bumping
    // again is merely conservative (a generation may only ever certify
    // *unchanged* content).
    frames_.noteWrite(e.backing, *f);
    // Every content mutation funnels through here, so this one append
    // is what makes the PML rings a complete dirty log: once per page
    // per drain cycle (the logged bit models the hardware dirty-bit
    // transition).
    pmlLog(v, e, gfn);
    return *f;
}

void
Hypervisor::writeWord(VmId vm_id, Gfn gfn, unsigned sector,
                      std::uint64_t value)
{
    jtps_assert(sector < mem::sectorsPerPage);
    frameForWrite(vm(vm_id), gfn).data.word[sector] = value;
}

void
Hypervisor::writePage(VmId vm_id, Gfn gfn, const mem::PageData &data)
{
    frameForWrite(vm(vm_id), gfn).data = data;
}

std::uint64_t
Hypervisor::readWord(VmId vm_id, Gfn gfn, unsigned sector)
{
    jtps_assert(sector < mem::sectorsPerPage);
    Vm &v = vm(vm_id);
    EptEntry &e = v.ept.entry(gfn);

    switch (e.state) {
      case PageState::NotPresent:
        // Reads of untouched anonymous memory see the zero page; no
        // frame is allocated (Linux maps the shared zero page).
        return 0;
      case PageState::Swapped:
        swapIn(vm_id, gfn);
        break;
      case PageState::Resident:
        break;
    }
    frames_.touch(e.backing);
    return frames_.frame(e.backing).data.word[sector];
}

void
Hypervisor::touchPage(VmId vm_id, Gfn gfn)
{
    Vm &v = vm(vm_id);
    const EptEntry &e = v.ept.entry(gfn);
    switch (e.state) {
      case PageState::NotPresent:
        return;
      case PageState::Swapped:
        // swapIn() repoints this same entry at the restored frame.
        swapIn(vm_id, gfn);
        break;
      case PageState::Resident:
        break;
    }
    frames_.touch(e.backing);
}

bool
Hypervisor::dropPage(Vm &v, Gfn gfn)
{
    EptEntry &e = v.ept.entry(gfn);
    const mem::Mapping m{v.id, gfn};

    switch (e.state) {
      case PageState::NotPresent:
        return false;
      case PageState::Swapped:
        swap_.dropMapping(e.backing, m);
        break;
      case PageState::Resident:
        frames_.removeMapping(e.backing, m);
        break;
    }
    e = EptEntry{};
    return true;
}

void
Hypervisor::discardPage(VmId vm_id, Gfn gfn)
{
    if (!dropPage(vm(vm_id), gfn))
        return;
    // The entry reset in dropPage() is what used to wipe KSM's in-EPT
    // checksum; tell the listener so externally-held per-page state
    // dies with it.
    if (page_listener_)
        page_listener_->pageDiscarded(vm_id, gfn);
}

void
Hypervisor::releaseVmMemory(VmId vm_id)
{
    Vm &v = vm(vm_id);
    // Guest memory through the discard bookkeeping: shared frames lose
    // one mapping (other VMs keep the content), private frames free
    // and swap slots drop, as a guest-initiated free would. The page
    // listener is not told page by page: VM ids are never reused and
    // the retired EPT is zero-sized, so no one can look the pages up
    // again. It gets one vmReleased() notice below instead (the KSM
    // scanner frees the VM's whole per-page row there).
    for (Gfn g = 0; g < v.ept.size(); ++g)
        dropPage(v, g);
    for (Hfn hfn : v.overheadFrames)
        frames_.freePinned(hfn);
    // Free the per-VM buffers, not just empty them. The EPT becomes a
    // zero-sized one, which every consumer already handles (the KSM
    // cursor skips it, walks bound themselves by ept.size()); nothing
    // logs to the empty ring, since no gfn of the VM can be written.
    v.overheadFrames = std::vector<Hfn>();
    v.pmlRing = std::vector<PackedGfn>();
    v.ept = Ept(0);
    if (page_listener_)
        page_listener_->vmReleased(vm_id);
    stats_.inc("hv.vms_released");
}

void
Hypervisor::setPageListener(PageEventListener *l)
{
    jtps_assert(l == nullptr || page_listener_ == nullptr);
    page_listener_ = l;
}

Hfn
Hypervisor::translate(VmId vm_id, Gfn gfn) const
{
    const EptEntry &e = vm(vm_id).ept.entry(gfn);
    return e.state == PageState::Resident ? e.backing : invalidFrame;
}

const mem::PageData *
Hypervisor::peek(VmId vm_id, Gfn gfn) const
{
    const Vm &v = vm(vm_id);
    // A retired VM's EPT is zero-sized, and callers holding stale
    // coordinates (KSM's persistent unstable entries outlive VM
    // retirement) expect its pages to read as NotPresent.
    if (gfn >= v.ept.size())
        return nullptr;
    const EptEntry &e = v.ept.entry(gfn);
    if (e.state != PageState::Resident)
        return nullptr;
    return &frames_.frame(e.backing).data;
}

void
Hypervisor::setHugePage(VmId vm_id, Gfn gfn, bool huge)
{
    vm(vm_id).ept.entry(gfn).huge = huge;
}

bool
Hypervisor::ksmMergeInto(Hfn stable, VmId vm_id, Gfn gfn)
{
    Vm &v = vm(vm_id);
    EptEntry &e = v.ept.entry(gfn);
    if (e.state != PageState::Resident)
        return false;
    if (e.backing == stable)
        return false;
    if (!frames_.isAllocated(stable))
        return false;

    mem::Frame &sf = frames_.frame(stable);
    mem::Frame &of = frames_.frame(e.backing);
    if (!(sf.data == of.data))
        return false;
    jtps_assert(sf.ksmStable && !sf.pinned);

    const mem::Mapping m{vm_id, gfn};
    frames_.removeMapping(e.backing, m);
    frames_.addMapping(stable, m);
    frames_.touch(stable);
    e.backing = stable;
    stat_ksm_merges_.inc();
    return true;
}

Hfn
Hypervisor::ksmMakeStable(VmId vm_id, Gfn gfn)
{
    Vm &v = vm(vm_id);
    EptEntry &e = v.ept.entry(gfn);
    if (e.state != PageState::Resident)
        return invalidFrame;

    jtps_assert(!frames_.frame(e.backing).pinned);
    // A stable frame is copied on any write (frameForWrite()), so this
    // write-protects every mapping of it.
    frames_.setKsmStable(e.backing, true);
    return e.backing;
}

std::uint64_t
Hypervisor::collapseIdenticalPages()
{
    // digest -> first page seen with that content. Full content equality
    // is re-verified inside ksmMergeInto, so a digest collision can only
    // cause a missed merge, never a wrong one.
    std::unordered_map<std::uint64_t, std::pair<VmId, Gfn>> canon;
    std::uint64_t merged = 0;

    for (auto &vmp : vms_) {
        Vm &v = *vmp;
        for (Gfn gfn = 0; gfn < v.ept.size(); ++gfn) {
            const EptEntry &e = v.ept.entry(gfn);
            if (e.state != PageState::Resident)
                continue;
            const std::uint64_t digest =
                frames_.frame(e.backing).data.digest();
            auto [it, inserted] =
                canon.emplace(digest, std::make_pair(v.id, gfn));
            if (inserted)
                continue;
            Hfn stable = ksmMakeStable(it->second.first, it->second.second);
            if (stable == invalidFrame)
                continue;
            if (ksmMergeInto(stable, v.id, gfn))
                ++merged;
        }
    }
    stats_.inc("hv.tps_collapse_merged", merged);
    return merged;
}

Bytes
Hypervisor::residentBytes() const
{
    return pagesToBytes(frames_.resident());
}

std::uint64_t
Hypervisor::pagesIn(VmId vm_id, PageState state) const
{
    const Ept &ept = vm(vm_id).ept;
    std::uint64_t n = 0;
    for (Gfn gfn = 0; gfn < ept.size(); ++gfn)
        n += ept.entry(gfn).state == state;
    return n;
}

std::uint64_t
Hypervisor::majorFaults(VmId vm_id) const
{
    return vm(vm_id).majorFaults;
}

std::uint64_t
Hypervisor::majorFaultsRam(VmId vm_id) const
{
    return vm(vm_id).majorFaultsRam;
}

void
Hypervisor::checkConsistency() const
{
    std::uint64_t resident = 0;
    std::vector<std::vector<bool>> claimed(vms_.size());
    for (const auto &vmp : vms_) {
        const Vm &v = *vmp;
        jtps_assert(v.pmlRing.size() <= pml_ring_slots_);
        std::vector<bool> ringed(v.ept.size(), false);
        for (const Gfn gfn : v.pmlRing)
            ringed.at(gfn) = true;
        for (Gfn gfn = 0; gfn < v.ept.size(); ++gfn) {
            const EptEntry &e = v.ept.entry(gfn);
            jtps_assert(!e.pmlLogged || ringed[gfn]);
            if (e.state == PageState::Resident) {
                jtps_assert(frames_.isAllocated(e.backing));
                ++resident;
            } else if (e.state == PageState::Swapped) {
                jtps_assert(swap_.has(e.backing));
            }
        }
        claimed[v.id].assign(v.ept.size(), false);
    }
    std::uint64_t mappings = 0;
    frames_.checkConsistency([&](Hfn hfn, const mem::Mapping &m) {
        const EptEntry &e = vm(m.vm).ept.entry(m.gfn);
        jtps_assert(e.state == PageState::Resident && e.backing == hfn);
        jtps_assert(!claimed[m.vm][m.gfn]);
        claimed[m.vm][m.gfn] = true;
        ++mappings;
    });
    jtps_assert(mappings == resident);
}

} // namespace jtps::hv
