#include "jvm/java_vm.hh"

#include "base/hash.hh"
#include "base/logging.hh"

namespace jtps::jvm
{

JavaVm::JavaVm(guest::GuestOs &os, const JavaVmConfig &cfg,
               const std::string &proc_name)
    : os_(os), cfg_(cfg),
      pid_(os.spawn(proc_name, /*is_java=*/true)),
      proc_seed_(hash3(stringTag("java-proc"), os.seed(), pid_)),
      rng_(hashCombine(proc_seed_, stringTag("jvm-rng")))
{
    jtps_assert(cfg_.classes != nullptr);
    heap_ = std::make_unique<JavaHeap>(os_, pid_, cfg_.gc, proc_seed_);
    jit_ = std::make_unique<JitCompiler>(os_, pid_, cfg_.jit, proc_seed_);
    class_loaded_.assign(cfg_.classes->size(), false);
}

std::uint64_t
JavaVm::appendMetaspace(LoaderKind loader, std::uint64_t sectors,
                        std::uint64_t tag)
{
    const auto idx = static_cast<std::size_t>(loader);
    guest::Vma *vma = loader_metaspace_[idx];
    jtps_assert(vma != nullptr);
    const std::uint64_t start = loader_cursor_[idx];
    for (std::uint64_t k = 0; k < sectors; ++k) {
        const std::uint64_t s = start + k;
        os_.writeWord(vma, s / mem::sectorsPerPage,
                      static_cast<unsigned>(s % mem::sectorsPerPage),
                      hashCombine(tag, k));
    }
    loader_cursor_[idx] += sectors;
    return start;
}

std::uint64_t
JavaVm::loaderMetaspacePages(LoaderKind loader) const
{
    const auto idx = static_cast<std::size_t>(loader);
    return loader_cursor_[idx] / mem::sectorsPerPage +
           (loader_cursor_[idx] % mem::sectorsPerPage ? 1 : 0);
}

std::uint64_t
JavaVm::metaspacePages() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < numLoaderKinds; ++i)
        total += loaderMetaspacePages(static_cast<LoaderKind>(i));
    return total;
}

void
JavaVm::loadClass(std::uint32_t id)
{
    jtps_assert(!class_loaded_[id]);
    const ClassInfo &ci = cfg_.classes->at(id);

    if (cfg_.sharedCache && cfg_.sharedCache->contains(id)) {
        // ROM class comes from the memory-mapped cache file: touching
        // it populates the page cache with the file's (copied,
        // identical-across-VMs) content.
        auto [first, last] = cfg_.sharedCache->sectorRange(id);
        const std::uint64_t first_page = first / mem::sectorsPerPage;
        const std::uint64_t last_page =
            (last + mem::sectorsPerPage - 1) / mem::sectorsPerPage;
        for (std::uint64_t p = first_page;
             p < last_page && p < cache_vma_->numPages; ++p) {
            os_.touch(cache_vma_, p);
        }
    } else {
        // Private ROM class: sector content depends only on the class
        // (same in every process), but *placement* follows this
        // process's load order, so page contents diverge.
        const std::uint64_t rom_sectors =
            (ci.romBytes + cacheSectorBytes - 1) / cacheSectorBytes;
        const std::uint64_t rom_start = appendMetaspace(
            ci.loader, rom_sectors, hash3(stringTag("rom-class"), id, 0));

        // Interpreter quickening: executed bytecode is rewritten in
        // place with resolved constant-pool-cache indices, whose values
        // are process-specific addresses/slots. (A shared-cache ROM
        // class is never quickened in place — the writable companion
        // data lives in the RAM class — which is why cached classes
        // stay shareable and private ones do not.)
        guest::Vma *seg =
            loader_metaspace_[static_cast<std::size_t>(ci.loader)];
        const std::uint64_t quickens = 2 + rom_sectors / 4;
        for (std::uint64_t q = 0; q < quickens; ++q) {
            const std::uint64_t s =
                rom_start + hash3(id, q, stringTag("qpos")) % rom_sectors;
            os_.writeWord(seg, s / mem::sectorsPerPage,
                          static_cast<unsigned>(s % mem::sectorsPerPage),
                          hash4(proc_seed_, stringTag("quicken"), id, q));
        }
    }

    // RAM class: vtables and resolved references hold per-process
    // pointers; never shareable.
    const std::uint64_t ram_sectors =
        (ci.ramBytes + cacheSectorBytes - 1) / cacheSectorBytes;
    appendMetaspace(ci.loader, ram_sectors,
                    hash3(proc_seed_, stringTag("ram-class"), id));

    class_loaded_[id] = true;
    ++classes_loaded_;
}

void
JavaVm::start()
{
    jtps_assert(!started_);
    started_ = true;

    // --- Code area: native libraries ---------------------------------
    for (const LibImage &lib : cfg_.libs) {
        if (lib.textBytes > 0) {
            guest::FileImage text = guest::FileImage::shared(
                "lib/" + lib.name, lib.textBytes);
            guest::Vma *vma =
                os_.mmapFile(pid_, text, guest::MemCategory::Code);
            for (std::uint64_t p = 0; p < vma->numPages; ++p)
                os_.touch(vma, p);
        }
        if (lib.dataBytes > 0) {
            guest::Vma *vma = os_.mmapAnon(
                pid_, lib.dataBytes, guest::MemCategory::Code,
                lib.name + ".data");
            const std::uint64_t tag =
                hash3(proc_seed_, stringTag(lib.name), stringTag(".data"));
            os_.writePages(vma, 0, vma->numPages, [tag](std::uint64_t p) {
                return mem::PageData::filled(tag, p);
            });
        }
    }

    // --- Thread stacks -------------------------------------------------
    const std::uint64_t stack_pages_per_thread =
        bytesToPages(cfg_.stackBytesPerThread);
    stack_vma_ = os_.mmapAnon(
        pid_, cfg_.threadCount * cfg_.stackBytesPerThread,
        guest::MemCategory::Stack, "thread-stacks");
    constexpr double stackTouchedFraction = 0.5;
    const auto touched = static_cast<std::uint64_t>(
        stack_pages_per_thread * stackTouchedFraction);
    for (std::uint32_t t = 0; t < cfg_.threadCount; ++t) {
        const std::uint64_t tag =
            hash3(proc_seed_, stringTag("stack"), t);
        const std::uint64_t base = t * stack_pages_per_thread;
        os_.writePages(stack_vma_, base, touched,
                       [tag, base](std::uint64_t page) {
                           return mem::PageData::filled(tag, page - base);
                       });
    }

    // --- Class metadata -------------------------------------------------
    // One metaspace segment chain per class loader; size each to the
    // loader's share of the class population (virtual reservation).
    Bytes loader_bytes[numLoaderKinds] = {};
    for (const ClassInfo &ci : cfg_.classes->classes()) {
        loader_bytes[static_cast<std::size_t>(ci.loader)] +=
            ci.romBytes + ci.ramBytes;
    }
    for (std::size_t i = 0; i < numLoaderKinds; ++i) {
        const auto kind = static_cast<LoaderKind>(i);
        const Bytes reserve =
            static_cast<Bytes>(loader_bytes[i] * 1.25) + 64 * KiB;
        loader_metaspace_[i] = os_.mmapAnon(
            pid_, reserve, guest::MemCategory::ClassMetadata,
            std::string("metaspace-") + loaderName(kind));
    }
    if (cfg_.sharedCache) {
        cache_vma_ = os_.mmapFile(pid_, cfg_.sharedCache->file(),
                                  guest::MemCategory::ClassMetadata);
        if (cfg_.useAotCache && cfg_.sharedCache->hasAot()) {
            // The archive's AOT section maps executable; Table IV puts
            // generated code in the JIT-compiled-code category.
            aot_vma_ = os_.mmapFile(pid_, cfg_.sharedCache->aotFile(),
                                    guest::MemCategory::JitCode);
        }
    }

    // Load order: canonical first-use order, perturbed by this
    // process's thread timing (the paper's layout nondeterminism).
    load_order_ = cfg_.classes->canonicalOrder();
    // Probability of a thread-timing swap in the load order, and the
    // max distance of such a swap.
    constexpr double loadOrderJitter = 0.35;
    constexpr std::uint32_t loadOrderWindow = 8;
    Rng order_rng(hashCombine(proc_seed_, stringTag("load-order")));
    order_rng.perturbOrder(load_order_, loadOrderJitter, loadOrderWindow);

    for (std::uint32_t id : load_order_) {
        if (cfg_.classes->at(id).startup)
            loadClass(id);
    }

    // --- Heap, JIT --------------------------------------------------
    heap_->init();
    jit_->init();

    // --- JVM work area ------------------------------------------------
    malloc_vma_ = os_.mmapAnon(pid_, cfg_.mallocUsedBytes,
                               guest::MemCategory::JvmWork,
                               "malloc-arenas");
    const std::uint64_t malloc_tag =
        hashCombine(proc_seed_, stringTag("malloc"));
    os_.writePages(malloc_vma_, 0, malloc_vma_->numPages,
                   [malloc_tag](std::uint64_t p) {
                       return mem::PageData::filled(malloc_tag, p);
                   });

    bulk_vma_ = os_.mmapAnon(pid_, cfg_.bulkZeroBytes,
                             guest::MemCategory::JvmWork,
                             "bulk-reserved");
    os_.writePages(bulk_vma_, 0, bulk_vma_->numPages,
                   [](std::uint64_t) { return mem::PageData::zero(); });

    nio_vma_ = os_.mmapAnon(pid_, cfg_.nioBufferBytes,
                            guest::MemCategory::JvmWork, "nio-buffers");
    const std::uint64_t nio_tag = cfg_.nioPayloadTag;
    os_.writePages(nio_vma_, 0, nio_vma_->numPages,
                   [nio_tag](std::uint64_t p) {
                       return mem::PageData::filled(nio_tag, p);
                   });
}

std::uint32_t
JavaVm::loadLazyClasses(std::uint32_t max_classes)
{
    std::uint32_t loaded = 0;
    while (loaded < max_classes && lazy_cursor_ < load_order_.size()) {
        const std::uint32_t id = load_order_[lazy_cursor_++];
        if (class_loaded_[id])
            continue;
        loadClass(id);
        ++loaded;
    }
    return loaded;
}

std::uint32_t
JavaVm::compileHotMethods(std::uint32_t count)
{
    std::uint32_t compiled = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t method = next_method_;
        if (aot_vma_ != nullptr &&
            cfg_.sharedCache->containsAotMethod(method)) {
            // Relocate-and-run from the shared AOT body: touch its
            // pages in the copied archive — identical across VMs.
            auto [first, last] = cfg_.sharedCache->aotSectorRange(method);
            const std::uint64_t first_page = first / mem::sectorsPerPage;
            const std::uint64_t last_page =
                (last + mem::sectorsPerPage - 1) / mem::sectorsPerPage;
            for (std::uint64_t p = first_page;
                 p < last_page && p < aot_vma_->numPages; ++p) {
                os_.touch(aot_vma_, p);
            }
            ++next_method_;
            ++aot_loaded_;
            ++compiled;
            continue;
        }
        if (!jit_->compileMethod(next_method_))
            break;
        ++next_method_;
        ++compiled;
    }
    return compiled;
}

std::uint32_t
JavaVm::recompileHotMethods(std::uint32_t count)
{
    return jit_->recompileHottest(count);
}

void
JavaVm::allocate(Bytes bytes)
{
    heap_->allocate(bytes);
}

void
JavaVm::mutateHeaders(std::uint32_t count)
{
    heap_->mutateHeaders(count, rng_);
}

void
JavaVm::touchWorkingSet(std::uint32_t code_pages,
                        std::uint32_t heap_pages,
                        std::uint32_t class_pages,
                        std::uint32_t jit_pages)
{
    // Code: any touched library page may be re-executed.
    const guest::GuestProcess &proc = os_.process(pid_);
    for (std::uint32_t i = 0; i < code_pages && !proc.vmas.empty(); ++i) {
        const auto &vma = proc.vmas[rng_.nextBelow(proc.vmas.size())];
        if (vma->category == guest::MemCategory::Code &&
            vma->numPages > 0) {
            os_.touch(vma.get(), rng_.nextBelow(vma->numPages));
        }
    }

    heap_->touchLive(heap_pages, rng_);

    // Class metadata: method bytecodes re-interpreted, vtables walked.
    // Hot classes (request-path servlets, collections) take most
    // touches; the long tail of one-time configuration classes is cold.
    const std::uint64_t meta_pages = metaspacePages();
    for (std::uint32_t i = 0; i < class_pages; ++i) {
        const bool hot = rng_.bernoulli(JavaHeap::hotProbability);
        if (cache_vma_ && rng_.bernoulli(0.7)) {
            const std::uint64_t n = cache_vma_->numPages;
            const std::uint64_t bound = hot
                ? std::max<std::uint64_t>(1, n / 4) : n;
            os_.touch(cache_vma_, rng_.nextBelow(bound));
        } else if (meta_pages > 0) {
            // Sample a loader segment proportionally to its size.
            std::uint64_t pick = rng_.nextBelow(meta_pages);
            for (std::size_t l = 0; l < numLoaderKinds; ++l) {
                const auto kind = static_cast<LoaderKind>(l);
                const std::uint64_t seg = loaderMetaspacePages(kind);
                if (pick < seg) {
                    const std::uint64_t bound = hot
                        ? std::max<std::uint64_t>(1, seg / 4) : seg;
                    os_.touch(loader_metaspace_[l],
                              rng_.nextBelow(bound));
                    break;
                }
                pick -= seg;
            }
        }
    }

    jit_->touchCode(jit_pages, rng_);
}

void
JavaVm::nioActivity(std::uint32_t rewrites, std::uint32_t touches)
{
    if (nio_vma_ == nullptr || nio_vma_->numPages == 0)
        return;
    for (std::uint32_t i = 0; i < rewrites; ++i) {
        const std::uint64_t p = rng_.nextBelow(nio_vma_->numPages);
        // Re-receiving the same benchmark payload: identical bytes, but
        // the write itself COW-breaks any established sharing.
        os_.writePage(nio_vma_, p,
                      mem::PageData::filled(cfg_.nioPayloadTag, p));
    }
    for (std::uint32_t i = 0; i < touches; ++i)
        os_.touch(nio_vma_, rng_.nextBelow(nio_vma_->numPages));
}

} // namespace jtps::jvm
