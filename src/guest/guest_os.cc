#include "guest/guest_os.hh"

#include "base/logging.hh"

namespace jtps::guest
{

GuestOs::GuestOs(hv::Hypervisor &hv, VmId vm_id, std::string name,
                 std::uint64_t seed)
    : hv_(hv), vm_id_(vm_id), name_(std::move(name)), seed_(seed),
      rng_(hashCombine(stringTag("guest-os"), seed))
{
    // The kernel pseudo-process: owns kernel memory and the page cache.
    auto kernel = std::make_unique<GuestProcess>();
    kernel->pid = 0;
    kernel->name = "[kernel]";
    kernel->isJava = false;
    kernel->nextVpn = 0x100;
    processes_.push_back(std::move(kernel));

    // Reserve a kernel VMA large enough to index every possible page
    // cache page (virtual space is free).
    cache_vma_ = mmapAnon(0, pagesToBytes(guestPages()),
                          MemCategory::PageCache, "page-cache");
}

std::uint64_t
GuestOs::guestPages() const
{
    return hv_.vm(vm_id_).ept.size();
}

void
GuestOs::traceRecord(TraceEventType type, std::uint64_t arg0,
                     std::uint64_t arg1)
{
    if (TraceBuffer *t = hv_.trace())
        t->record(type, vm_id_, arg0, arg1);
}

Gfn
GuestOs::allocGfn()
{
    // The balloon's hold shrinks the usable guest memory.
    while (gfns_used_ >= guestPages() - balloon_held_) {
        // Out of guest frames: reclaim like a kernel under pressure.
        if (reclaimOneGuestPage())
            continue;
        if (balloon_held_ > 0) {
            // virtio_balloon's DEFLATE_ON_OOM: with nothing left to
            // reclaim, the guest takes a page back from the balloon
            // instead of OOM-killing. A governor reads the shrunken
            // hold at its next interval and re-targets from there.
            --balloon_held_;
            traceRecord(TraceEventType::BalloonDeflate, 1,
                        balloon_held_);
            continue;
        }
        fatal("guest '%s' out of memory: %llu pages usable, "
              "page cache empty, swap full",
              name_.c_str(),
              static_cast<unsigned long long>(guestPages()));
    }
    if (!gfn_free_list_.empty()) {
        Gfn g = gfn_free_list_.back();
        gfn_free_list_.pop_back();
        ++gfns_used_;
        return g;
    }
    jtps_assert(next_gfn_ < guestPages());
    ++gfns_used_;
    return next_gfn_++;
}

void
GuestOs::setGuestSwapBytes(Bytes bytes)
{
    guest_swap_limit_pages_ = bytesToPages(bytes);
}

std::uint64_t
GuestOs::balloonTake(std::uint64_t pages)
{
    std::uint64_t taken = 0;
    while (taken < pages && balloon_held_ < guestPages()) {
        const std::uint64_t usable = guestPages() - balloon_held_;
        if (gfns_used_ < usable) {
            // Free guest frames need no reclaim: pin them in bulk.
            const std::uint64_t grab =
                std::min(usable - gfns_used_, pages - taken);
            balloon_held_ += grab;
            taken += grab;
            continue;
        }
        // Memory is tight. Drop clean page cache in bulk first — one
        // random-replacement sweep amortised over the whole request;
        // a per-page reclaimPageCache(1) here would re-pay the sweep's
        // failed-attempt budget for every page of a large take, which
        // goes quadratic once most of the remaining cache is mapped.
        const std::uint64_t reclaimed =
            reclaimPageCache(pages - taken);
        if (reclaimed > 0) {
            balloon_held_ += reclaimed;
            taken += reclaimed;
            continue;
        }
        if (!swapOutOneAnonPage())
            break; // nothing left to reclaim for the balloon
        ++balloon_held_;
        ++taken;
    }
    traceRecord(TraceEventType::BalloonInflate, taken, balloon_held_);
    return taken;
}

void
GuestOs::balloonReturn(std::uint64_t pages)
{
    const std::uint64_t released = std::min(pages, balloon_held_);
    balloon_held_ -= released;
    traceRecord(TraceEventType::BalloonDeflate, released, balloon_held_);
}

bool
GuestOs::reclaimOneGuestPage()
{
    // Clean page cache goes first — dropping it costs only a later
    // re-read; swapping anonymous memory costs a write now and a read
    // later.
    if (reclaimPageCache(1) == 1)
        return true;
    return swapOutOneAnonPage();
}

bool
GuestOs::swapOutOneAnonPage()
{
    if (guest_swapped_ >= guest_swap_limit_pages_)
        return false;

    // Sampled victim search over user processes' anonymous mappings.
    for (int attempt = 0; attempt < 256; ++attempt) {
        if (processes_.size() < 2)
            return false;
        GuestProcess &proc =
            *processes_[1 + rng_.nextBelow(processes_.size() - 1)];
        if (proc.vmas.empty())
            continue;
        Vma &vma = *proc.vmas[rng_.nextBelow(proc.vmas.size())];
        if (vma.fileBacked || vma.numPages == 0)
            continue;
        const Vpn vpn = vma.vpnAt(rng_.nextBelow(vma.numPages));
        auto it = proc.pageTable.find(vpn);
        if (it == proc.pageTable.end())
            continue;
        // Content must be host-resident to be written to the guest's
        // swap file (a host-swapped page would have to fault first;
        // skip those victims).
        const mem::PageData *data = hv_.peek(vm_id_, it->second);
        if (data == nullptr)
            continue;

        proc.swappedOut.emplace(vpn, *data);
        hv_.setHugePage(vm_id_, it->second, false);
        hv_.discardPage(vm_id_, it->second);
        freeGfn(it->second);
        proc.pageTable.erase(it);
        ++guest_swapped_;
        ++guest_swapouts_;
        return true;
    }
    return false;
}

Gfn
GuestOs::guestSwapIn(GuestProcess &proc, Vpn vpn)
{
    auto it = proc.swappedOut.find(vpn);
    jtps_assert(it != proc.swappedOut.end());
    const mem::PageData data = it->second;
    proc.swappedOut.erase(it);
    jtps_assert(guest_swapped_ > 0);
    --guest_swapped_;
    ++guest_major_faults_;

    const Gfn gfn = allocGfn();
    hv_.writePage(vm_id_, gfn, data);
    proc.pageTable.emplace(vpn, gfn);
    return gfn;
}

void
GuestOs::freeGfn(Gfn gfn)
{
    jtps_assert(gfns_used_ > 0);
    --gfns_used_;
    gfn_free_list_.push_back(gfn);
}

Vpn
GuestOs::carveVpnRange(GuestProcess &proc, std::uint64_t pages)
{
    // ASLR-style guard gap between regions.
    const Vpn start = proc.nextVpn + 1 + rng_.nextBelow(16);
    proc.nextVpn = start + pages;
    return start;
}

Pid
GuestOs::spawn(const std::string &proc_name, bool is_java)
{
    auto proc = std::make_unique<GuestProcess>();
    proc->pid = static_cast<Pid>(processes_.size());
    proc->name = proc_name;
    proc->isJava = is_java;
    // Seed-dependent mmap base: address-space layout differs per
    // process and per VM.
    proc->nextVpn = 0x400 + rng_.nextBelow(0x4000);
    Pid pid = proc->pid;
    processes_.push_back(std::move(proc));
    return pid;
}

Pid
GuestOs::spawnDaemon(const std::string &proc_name, Bytes anon_bytes,
                     Bytes text_bytes)
{
    Pid pid = spawn(proc_name, /*is_java=*/false);

    if (text_bytes > 0) {
        FileImage text = FileImage::shared(
            "/usr/sbin/" + proc_name, text_bytes);
        Vma *vma = mmapFile(pid, text, MemCategory::OtherProcess);
        for (std::uint64_t i = 0; i < vma->numPages; ++i)
            touch(vma, i);
    }

    if (anon_bytes > 0) {
        Vma *vma = mmapAnon(pid, anon_bytes, MemCategory::OtherProcess,
                            proc_name + "-heap");
        const std::uint64_t tag =
            hash3(stringTag("daemon-heap"), seed_, pid);
        for (std::uint64_t i = 0; i < vma->numPages; ++i)
            writePage(vma, i, mem::PageData::filled(tag, i));
    }
    return pid;
}

GuestProcess &
GuestOs::process(Pid pid)
{
    jtps_assert(pid < processes_.size());
    return *processes_[pid];
}

const GuestProcess &
GuestOs::process(Pid pid) const
{
    jtps_assert(pid < processes_.size());
    return *processes_[pid];
}

void
GuestOs::registerFile(const FileImage &file)
{
    auto [it, inserted] = files_.emplace(file.contentTag(), file);
    (void)it;
    if (inserted)
        file_order_.push_back(file.contentTag());
}

Vma *
GuestOs::mmapAnon(Pid pid, Bytes bytes, MemCategory cat,
                  const std::string &vma_name)
{
    GuestProcess &proc = process(pid);
    auto vma = std::make_unique<Vma>();
    vma->name = vma_name;
    vma->category = cat;
    vma->pid = pid;
    vma->numPages = bytesToPages(bytes);
    vma->startVpn = carveVpnRange(proc, vma->numPages);
    vma->fileBacked = false;
    // khugepaged backs large anonymous regions of user processes.
    vma->hugeBacked = thp_enabled_ && pid != 0;
    Vma *raw = vma.get();
    proc.vmas.push_back(std::move(vma));
    return raw;
}

Vma *
GuestOs::mmapFile(Pid pid, const FileImage &file, MemCategory cat)
{
    GuestProcess &proc = process(pid);
    registerFile(file);

    auto vma = std::make_unique<Vma>();
    vma->name = file.path();
    vma->category = cat;
    vma->pid = pid;
    vma->numPages = file.pages();
    vma->startVpn = carveVpnRange(proc, vma->numPages);
    vma->fileBacked = true;
    vma->fileTag = file.contentTag();
    Vma *raw = vma.get();
    proc.vmas.push_back(std::move(vma));
    return raw;
}

void
GuestOs::munmap(Pid pid, Vma *vma)
{
    GuestProcess &proc = process(pid);
    for (std::uint64_t i = 0; i < vma->numPages; ++i) {
        if (!vma->fileBacked &&
            proc.swappedOut.erase(vma->vpnAt(i)) > 0) {
            jtps_assert(guest_swapped_ > 0);
            --guest_swapped_;
            continue;
        }
        auto it = proc.pageTable.find(vma->vpnAt(i));
        if (it == proc.pageTable.end())
            continue;
        if (!vma->fileBacked) {
            hv_.setHugePage(vm_id_, it->second, false);
            hv_.discardPage(vm_id_, it->second);
            freeGfn(it->second);
        } else {
            dropCacheMapRef(it->second);
        }
        proc.pageTable.erase(it);
    }
    for (auto it = proc.vmas.begin(); it != proc.vmas.end(); ++it) {
        if (it->get() == vma) {
            proc.vmas.erase(it);
            return;
        }
    }
    panic("munmap of VMA not owned by pid %u", pid);
}

Gfn
GuestOs::ensureMapped(const Vma *vma, std::uint64_t index)
{
    jtps_assert(index < vma->numPages);
    GuestProcess &proc = process(vma->pid);
    const Vpn vpn = vma->vpnAt(index);

    auto it = proc.pageTable.find(vpn);
    if (it != proc.pageTable.end())
        return it->second;

    if (!vma->fileBacked && proc.swappedOut.count(vpn))
        return guestSwapIn(proc, vpn);

    Gfn gfn;
    if (vma->fileBacked) {
        auto fit = files_.find(vma->fileTag);
        jtps_assert(fit != files_.end());
        gfn = pageCacheGet(fit->second, index);
        ++cache_mapcount_[gfn];
    } else {
        gfn = allocGfn();
        if (vma->hugeBacked)
            hv_.setHugePage(vm_id_, gfn, true);
    }
    proc.pageTable.emplace(vpn, gfn);
    return gfn;
}

void
GuestOs::writeWord(const Vma *vma, std::uint64_t index, unsigned sector,
                   std::uint64_t value)
{
    hv_.writeWord(vm_id_, ensureMapped(vma, index), sector, value);
}

void
GuestOs::writePage(const Vma *vma, std::uint64_t index,
                   const mem::PageData &data)
{
    hv_.writePage(vm_id_, ensureMapped(vma, index), data);
}

std::uint64_t
GuestOs::readWord(const Vma *vma, std::uint64_t index, unsigned sector)
{
    GuestProcess &proc = process(vma->pid);
    if (!vma->fileBacked &&
        !proc.pageTable.count(vma->vpnAt(index)) &&
        !proc.swappedOut.count(vma->vpnAt(index))) {
        return 0; // untouched anonymous memory reads as zero
    }
    return hv_.readWord(vm_id_, ensureMapped(vma, index), sector);
}

void
GuestOs::touch(const Vma *vma, std::uint64_t index)
{
    GuestProcess &proc = process(vma->pid);
    if (!vma->fileBacked) {
        auto it = proc.pageTable.find(vma->vpnAt(index));
        if (it == proc.pageTable.end()) {
            if (proc.swappedOut.count(vma->vpnAt(index)))
                hv_.touchPage(vm_id_, guestSwapIn(proc, vma->vpnAt(index)));
            return;
        }
        hv_.touchPage(vm_id_, it->second);
        return;
    }
    hv_.touchPage(vm_id_, ensureMapped(vma, index));
}

void
GuestOs::discard(const Vma *vma, std::uint64_t index)
{
    GuestProcess &proc = process(vma->pid);
    if (!vma->fileBacked &&
        proc.swappedOut.erase(vma->vpnAt(index)) > 0) {
        jtps_assert(guest_swapped_ > 0);
        --guest_swapped_;
        return;
    }
    auto it = proc.pageTable.find(vma->vpnAt(index));
    if (it == proc.pageTable.end())
        return;
    if (vma->fileBacked) {
        // Unmapping a file page does not evict it from the cache.
        dropCacheMapRef(it->second);
        proc.pageTable.erase(it);
        return;
    }
    hv_.setHugePage(vm_id_, it->second, false);
    hv_.discardPage(vm_id_, it->second);
    freeGfn(it->second);
    proc.pageTable.erase(it);
}

Gfn
GuestOs::pageCacheGet(const FileImage &file, std::uint64_t index)
{
    jtps_assert(index < file.pages());
    registerFile(file);

    auto &file_pages = cache_index_[file.contentTag()];
    auto it = file_pages.find(index);
    if (it != file_pages.end()) {
        hv_.touchPage(vm_id_, it->second);
        return it->second;
    }

    // Cache miss: "read from disk" into a fresh cache page.
    jtps_assert(cache_cursor_ < cache_vma_->numPages);
    Gfn gfn = allocGfn();
    hv_.writePage(vm_id_, gfn, file.pageContent(index));

    GuestProcess &kernel = process(0);
    const Vpn cache_vpn = cache_vma_->vpnAt(cache_cursor_);
    kernel.pageTable.emplace(cache_vpn, gfn);
    ++cache_cursor_;
    ++cache_used_;
    file_pages.emplace(index, gfn);
    cache_pages_.push_back(
        CachePage{file.contentTag(), index, gfn, cache_vpn});
    return gfn;
}

void
GuestOs::dropCacheMapRef(Gfn gfn)
{
    auto it = cache_mapcount_.find(gfn);
    jtps_assert(it != cache_mapcount_.end() && it->second > 0);
    if (--it->second == 0)
        cache_mapcount_.erase(it);
}

void
GuestOs::touchPageCache(std::uint32_t pages)
{
    if (cache_pages_.empty())
        return;
    for (std::uint32_t i = 0; i < pages; ++i) {
        const CachePage &cp =
            cache_pages_[rng_.nextBelow(cache_pages_.size())];
        hv_.touchPage(vm_id_, cp.gfn);
    }
}

void
GuestOs::touchFileSpace(std::uint32_t pages)
{
    if (file_order_.empty())
        return;
    for (std::uint32_t i = 0; i < pages; ++i) {
        const std::uint64_t tag =
            file_order_[rng_.nextBelow(file_order_.size())];
        const FileImage &file = files_.at(tag);
        if (file.pages() == 0)
            continue;
        const std::uint64_t index = rng_.nextBelow(file.pages());
        auto fit = cache_index_.find(tag);
        if (fit != cache_index_.end() && fit->second.count(index)) {
            hv_.touchPage(vm_id_, fit->second.at(index));
        } else {
            // Cache miss: a real disk read fills the cache.
            pageCacheGet(file, index);
            ++cache_misses_;
        }
    }
}

std::uint64_t
GuestOs::reclaimPageCache(std::uint64_t pages)
{
    // Random-replacement reclaim over clean, unmapped cache pages.
    std::uint64_t reclaimed = 0;
    std::size_t attempts = cache_pages_.size() * 2;
    GuestProcess &kernel = process(0);
    while (reclaimed < pages && attempts-- > 0 &&
           !cache_pages_.empty()) {
        const std::size_t pick = rng_.nextBelow(cache_pages_.size());
        const CachePage cp = cache_pages_[pick];
        if (cache_mapcount_.count(cp.gfn))
            continue; // mapped by a process: not reclaimable
        hv_.discardPage(vm_id_, cp.gfn);
        freeGfn(cp.gfn);
        kernel.pageTable.erase(cp.vpn);
        cache_index_[cp.fileTag].erase(cp.index);
        cache_pages_[pick] = cache_pages_.back();
        cache_pages_.pop_back();
        --cache_used_;
        ++reclaimed;
    }
    return reclaimed;
}

void
GuestOs::readFile(const FileImage &file)
{
    for (std::uint64_t i = 0; i < file.pages(); ++i)
        pageCacheGet(file, i);
}

void
GuestOs::bootKernel(const KernelConfig &cfg)
{
    // Kernel text and read-only data: identical content in every VM
    // running the same kernel build.
    Vma *text = mmapAnon(0, cfg.textBytes, MemCategory::KernelText,
                         "kernel-text");
    const std::uint64_t text_tag = stringTag(cfg.version + ".text");
    for (std::uint64_t i = 0; i < text->numPages; ++i)
        writePage(text, i, mem::PageData::filled(text_tag, i));

    // Kernel static data: mutated during boot, per-VM content.
    Vma *data = mmapAnon(0, cfg.dataBytes, MemCategory::KernelData,
                         "kernel-data");
    const std::uint64_t data_tag =
        hashCombine(stringTag(cfg.version + ".data"), seed_);
    for (std::uint64_t i = 0; i < data->numPages; ++i)
        writePage(data, i, mem::PageData::filled(data_tag, i));

    // Slab: dentries, inodes, network buffers — full of per-VM pointers.
    Vma *slab = mmapAnon(0, cfg.slabBytes, MemCategory::Slab, "slab");
    const std::uint64_t slab_tag = hashCombine(stringTag("slab"), seed_);
    for (std::uint64_t i = 0; i < slab->numPages; ++i)
        writePage(slab, i, mem::PageData::filled(slab_tag, i));

    // Boot-time page cache: base-image files are identical across VMs;
    // logs and generated files are not.
    readFile(FileImage::shared("base-image:/usr", cfg.sharedBootCacheBytes));
    readFile(FileImage::perVm("/var/log+generated",
                              cfg.privateBootCacheBytes, seed_));
}

} // namespace jtps::guest
