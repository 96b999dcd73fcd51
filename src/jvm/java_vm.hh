/**
 * @file
 * The Java VM model: one running Java process inside a guest.
 *
 * Composes the submodels into the seven memory areas of the paper's
 * Table IV:
 *
 *   Code area        — mmap'd native library text (file-backed,
 *                      identical across processes) + private data
 *                      sections, GOT/PLT relocations.
 *   Class metadata   — ROM classes + RAM classes, laid out by the
 *                      class loader in *perturbed first-load order*
 *                      (the thread-timing nondeterminism the paper
 *                      blames) — or, with a shared class cache, ROM
 *                      classes mapped from the copied cache file.
 *   JIT-compiled code / JIT work — JitCompiler.
 *   Java heap        — JavaHeap (GC movement + zero-fill).
 *   JVM work area    — malloc'd internals (private), bulk-reserved
 *                      zero pages, and NIO socket buffers whose content
 *                      is the benchmark payload (identical across VMs
 *                      running the same benchmark — paper §III.A).
 *   Stack            — per-thread C+Java stacks full of pointers.
 */

#ifndef JTPS_JVM_JAVA_VM_HH
#define JTPS_JVM_JAVA_VM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "guest/guest_os.hh"
#include "jvm/class_model.hh"
#include "jvm/java_heap.hh"
#include "jvm/jit_compiler.hh"
#include "jvm/shared_class_cache.hh"

namespace jtps::jvm
{

/** One native library of the JVM / middleware. */
struct LibImage
{
    std::string name;
    Bytes textBytes = 0; //!< file-backed, shareable
    Bytes dataBytes = 0; //!< .data/.bss/GOT — dirtied privately
};

/** Full configuration of a Java process. */
struct JavaVmConfig
{
    std::vector<LibImage> libs;
    GcConfig gc;
    JitConfig jit;

    /** The program's classes (shared across all VMs running it). */
    const ClassSet *classes = nullptr;
    /** Shared class cache; nullptr disables class sharing. */
    const SharedClassCache *sharedCache = nullptr;
    /**
     * Load AOT method bodies from the cache's AOT section when
     * available instead of JIT-compiling them (extension: makes part
     * of the otherwise-unshareable JIT-code area TPS-shareable).
     */
    bool useAotCache = false;

    Bytes mallocUsedBytes = 45 * MiB; //!< JVM-internal allocations
    Bytes bulkZeroBytes = 4 * MiB;    //!< reserved-but-unused (zero)
    Bytes nioBufferBytes = 4 * MiB;   //!< NIO socket buffers
    /** Payload tag: same benchmark => same buffer content across VMs. */
    std::uint64_t nioPayloadTag = 0;

    std::uint32_t threadCount = 90;
    Bytes stackBytesPerThread = 256 * KiB;
};

/**
 * A running Java process.
 */
class JavaVm
{
  public:
    /**
     * Spawn the Java process in @p os. Call start() to boot it.
     */
    JavaVm(guest::GuestOs &os, const JavaVmConfig &cfg,
           const std::string &proc_name = "java");

    JavaVm(const JavaVm &) = delete;
    JavaVm &operator=(const JavaVm &) = delete;

    /**
     * Boot the JVM and middleware: map code, create stacks, initialize
     * heap/JIT/work areas, and load all startup classes (through the
     * shared cache when configured).
     */
    void start();

    // ------------------------------------------------------------------
    // Steady-state behaviours (invoked by the workload driver)
    // ------------------------------------------------------------------

    /** Load up to @p max_classes not-yet-loaded lazy classes. */
    std::uint32_t loadLazyClasses(std::uint32_t max_classes);

    /** Compile up to @p count hot methods. @return methods compiled. */
    std::uint32_t compileHotMethods(std::uint32_t count);

    /** Tier-up recompile up to @p count methods (steady-state churn). */
    std::uint32_t recompileHotMethods(std::uint32_t count);

    /** Allocate @p bytes of objects (may GC). */
    void allocate(Bytes bytes);

    /** Mutate @p count object headers. */
    void mutateHeaders(std::uint32_t count);

    /** Touch the request working set (drives host LRU + swap-ins). */
    void touchWorkingSet(std::uint32_t code_pages,
                         std::uint32_t heap_pages,
                         std::uint32_t class_pages,
                         std::uint32_t jit_pages);

    /**
     * NIO activity: buffers are re-filled with the benchmark payload on
     * @p rewrites connections and read (touched) on the rest.
     */
    void nioActivity(std::uint32_t rewrites, std::uint32_t touches);

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    Pid pid() const { return pid_; }
    std::uint64_t procSeed() const { return proc_seed_; }
    JavaHeap &heap() { return *heap_; }
    JitCompiler &jit() { return *jit_; }
    guest::GuestOs &os() { return os_; }

    std::uint32_t classesLoaded() const { return classes_loaded_; }

    /** Methods loaded from the cache's AOT section. */
    std::uint32_t aotMethodsLoaded() const { return aot_loaded_; }
    bool
    allClassesLoaded() const
    {
        return classes_loaded_ == cfg_.classes->size();
    }

    /** Pages currently used across all private metaspace segments. */
    std::uint64_t metaspacePages() const;

    /** Pages used in one loader's metaspace segment. */
    std::uint64_t loaderMetaspacePages(LoaderKind loader) const;

  private:
    void loadClass(std::uint32_t id);

    /** Append @p sectors of data to @p loader's metaspace segment.
     *  Content of sector k is hash(tag, k): identical across
     *  processes, but page content depends on placement, hence on
     *  load order. @return the segment-relative start sector. */
    std::uint64_t appendMetaspace(LoaderKind loader,
                                  std::uint64_t sectors,
                                  std::uint64_t tag);

    guest::GuestOs &os_;
    JavaVmConfig cfg_;
    Pid pid_;
    std::uint64_t proc_seed_;
    Rng rng_;

    std::unique_ptr<JavaHeap> heap_;
    std::unique_ptr<JitCompiler> jit_;

    /** Per-class-loader metaspace segments (bootstrap, middleware,
     *  webapp, EJB) — real metaspaces are per-loader regions. */
    guest::Vma *loader_metaspace_[numLoaderKinds] = {};
    std::uint64_t loader_cursor_[numLoaderKinds] = {};
    guest::Vma *cache_vma_ = nullptr;
    guest::Vma *aot_vma_ = nullptr;
    guest::Vma *malloc_vma_ = nullptr;
    guest::Vma *bulk_vma_ = nullptr;
    guest::Vma *nio_vma_ = nullptr;
    guest::Vma *stack_vma_ = nullptr;

    std::vector<std::uint32_t> load_order_;
    std::size_t lazy_cursor_ = 0;
    std::vector<bool> class_loaded_;
    std::uint32_t classes_loaded_ = 0;
    std::uint32_t next_method_ = 0;
    std::uint32_t aot_loaded_ = 0;
    bool started_ = false;
};

} // namespace jtps::jvm

#endif // JTPS_JVM_JAVA_VM_HH
