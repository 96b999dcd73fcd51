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
    cache_mapcount_.assign(guestPages(), 0);
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
    while (gfnsAllocated() >= guestPages() - balloon_held_) {
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
        return g;
    }
    jtps_assert(next_gfn_ < guestPages());
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
        const std::uint64_t used = gfnsAllocated();
        if (used < usable) {
            // Free guest frames need no reclaim: pin them in bulk.
            const std::uint64_t grab =
                std::min(usable - used, pages - taken);
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
    if (guestSwappedPages() >= guest_swap_limit_pages_)
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
        const std::uint64_t index = rng_.nextBelow(vma.numPages);
        const Gfn gfn = vma.gfns[index];
        if (gfn == invalidFrame)
            continue;
        // Content must be host-resident to be written to the guest's
        // swap file (a host-swapped page would have to fault first;
        // skip those victims).
        const mem::PageData *data = hv_.peek(vm_id_, gfn);
        if (data == nullptr)
            continue;

        proc.swappedOut.emplace(vma.vpnAt(index), *data);
        hv_.discardPage(vm_id_, gfn);
        freeGfn(gfn);
        vma.gfns[index] = invalidFrame;
        ++guest_swapouts_;
        return true;
    }
    return false;
}

void
GuestOs::freeGfn(Gfn gfn)
{
    jtps_assert(gfnsAllocated() > 0);
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
        writePages(vma, 0, vma->numPages, [tag](std::uint64_t i) {
            return mem::PageData::filled(tag, i);
        });
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

GuestOs::CachedFile &
GuestOs::registerFile(const FileImage &file)
{
    auto it = files_.find(file.contentTag());
    if (it == files_.end()) {
        it = files_.emplace(file.contentTag(), CachedFile{file, {}}).first;
        file_order_.push_back(&it->second);
    }
    CachedFile &cf = it->second;
    // The first image registered under a tag stays the file's identity;
    // a longer one under the same tag only widens the index.
    if (cf.gfns.size() < file.pages())
        cf.gfns.resize(file.pages(), invalidFrame);
    return cf;
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
    vma->gfns.assign(vma->numPages, invalidFrame);
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
    vma->gfns.assign(vma->numPages, invalidFrame);
    Vma *raw = vma.get();
    proc.vmas.push_back(std::move(vma));
    return raw;
}

void
GuestOs::munmap(Pid pid, Vma *vma)
{
    GuestProcess &proc = process(pid);
    for (std::uint64_t i = 0; i < vma->numPages; ++i)
        discard(vma, i);
    for (auto it = proc.vmas.begin(); it != proc.vmas.end(); ++it) {
        if (it->get() == vma) {
            proc.vmas.erase(it);
            return;
        }
    }
    panic("munmap of VMA not owned by pid %u", pid);
}

Gfn
GuestOs::mapped(const Vma *vma, std::uint64_t index)
{
    PackedGfn &slot = pte(vma, index);
    if (slot != invalidFrame)
        return slot;

    // The slot reference stays valid below: a VMA's table never
    // resizes, and reclaim inside allocGfn() only unmaps mapped pages.
    if (vma->fileBacked) {
        auto fit = files_.find(vma->fileTag);
        jtps_assert(fit != files_.end());
        const Gfn gfn = pageCacheGet(fit->second.image, index);
        ++cache_mapcount_[gfn];
        slot = gfn;
        return gfn;
    }

    GuestProcess &proc = process(vma->pid);
    auto it = proc.swappedOut.find(vma->vpnAt(index));
    if (it == proc.swappedOut.end())
        return invalidFrame;
    // Guest major fault: bring the page back from the swap device.
    const mem::PageData data = it->second;
    proc.swappedOut.erase(it);
    ++guest_major_faults_;
    const Gfn gfn = allocGfn();
    hv_.writePage(vm_id_, gfn, data);
    slot = gfn;
    return gfn;
}

Gfn
GuestOs::ensureMapped(const Vma *vma, std::uint64_t index)
{
    Gfn gfn = mapped(vma, index);
    if (gfn != invalidFrame)
        return gfn;
    gfn = allocGfn();
    if (vma->hugeBacked)
        hv_.setHugePage(vm_id_, gfn, true);
    pte(vma, index) = gfn;
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
    const Gfn gfn = mapped(vma, index);
    if (gfn == invalidFrame)
        return 0; // untouched anonymous memory reads as zero
    return hv_.readWord(vm_id_, gfn, sector);
}

void
GuestOs::touch(const Vma *vma, std::uint64_t index)
{
    const Gfn gfn = mapped(vma, index);
    if (gfn != invalidFrame)
        hv_.touchPage(vm_id_, gfn);
}

void
GuestOs::discard(const Vma *vma, std::uint64_t index)
{
    PackedGfn &slot = pte(vma, index);
    if (slot == invalidFrame) {
        // A guest-swapped page has no gfn: drop its swap copy.
        if (!vma->fileBacked)
            process(vma->pid).swappedOut.erase(vma->vpnAt(index));
        return;
    }
    if (vma->fileBacked) {
        // Unmapping a file page does not evict it from the cache.
        dropCacheMapRef(slot);
        slot = invalidFrame;
        return;
    }
    hv_.discardPage(vm_id_, slot);
    freeGfn(slot);
    slot = invalidFrame;
}

Gfn
GuestOs::pageCacheGet(const FileImage &file, std::uint64_t index)
{
    jtps_assert(index < file.pages());
    CachedFile &cf = registerFile(file);
    if (cf.gfns[index] != invalidFrame) {
        hv_.touchPage(vm_id_, cf.gfns[index]);
        return cf.gfns[index];
    }

    // Cache miss: "read from disk" into a fresh cache page, mapped in
    // the cache VMA at the slot equal to its gfn.
    Gfn gfn = allocGfn();
    hv_.writePage(vm_id_, gfn, file.pageContent(index));

    cache_vma_->gfns[gfn] = gfn;
    cf.gfns[index] = gfn;
    cache_pages_.push_back(CachePage{&cf, index});
    return gfn;
}

void
GuestOs::dropCacheMapRef(Gfn gfn)
{
    jtps_assert(cache_mapcount_[gfn] > 0);
    --cache_mapcount_[gfn];
}

void
GuestOs::touchFileSpace(std::uint32_t pages)
{
    if (file_order_.empty())
        return;
    for (std::uint32_t i = 0; i < pages; ++i) {
        const CachedFile &cf =
            *file_order_[rng_.nextBelow(file_order_.size())];
        if (cf.image.pages() == 0)
            continue;
        const std::uint64_t index = rng_.nextBelow(cf.image.pages());
        if (cf.gfns[index] != invalidFrame) {
            hv_.touchPage(vm_id_, cf.gfns[index]);
        } else {
            // Cache miss: a real disk read fills the cache.
            pageCacheGet(cf.image, index);
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
    while (reclaimed < pages && attempts-- > 0 &&
           !cache_pages_.empty()) {
        const std::size_t pick = rng_.nextBelow(cache_pages_.size());
        const CachePage &cp = cache_pages_[pick];
        PackedGfn &cached = cp.file->gfns[cp.index];
        const Gfn gfn = cached;
        if (cache_mapcount_[gfn] != 0)
            continue; // mapped by a process: not reclaimable
        hv_.discardPage(vm_id_, gfn);
        freeGfn(gfn);
        cache_vma_->gfns[gfn] = invalidFrame;
        cached = invalidFrame;
        cache_pages_[pick] = cache_pages_.back();
        cache_pages_.pop_back();
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
    writePages(text, 0, text->numPages, [text_tag](std::uint64_t i) {
        return mem::PageData::filled(text_tag, i);
    });

    // Kernel static data: mutated during boot, per-VM content.
    Vma *data = mmapAnon(0, cfg.dataBytes, MemCategory::KernelData,
                         "kernel-data");
    const std::uint64_t data_tag =
        hashCombine(stringTag(cfg.version + ".data"), seed_);
    writePages(data, 0, data->numPages, [data_tag](std::uint64_t i) {
        return mem::PageData::filled(data_tag, i);
    });

    // Slab: dentries, inodes, network buffers — full of per-VM pointers.
    Vma *slab = mmapAnon(0, cfg.slabBytes, MemCategory::Slab, "slab");
    const std::uint64_t slab_tag = hashCombine(stringTag("slab"), seed_);
    writePages(slab, 0, slab->numPages, [slab_tag](std::uint64_t i) {
        return mem::PageData::filled(slab_tag, i);
    });

    // Boot-time page cache: base-image files are identical across VMs;
    // logs and generated files are not.
    readFile(FileImage::shared("base-image:/usr", cfg.sharedBootCacheBytes));
    readFile(FileImage::perVm("/var/log+generated",
                              cfg.privateBootCacheBytes, seed_));
}

} // namespace jtps::guest
