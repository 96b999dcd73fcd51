/**
 * @file
 * JIT compiler model: code cache + scratch (work) memory.
 *
 * The paper's finding for these areas (§IV.A):
 *
 *  - JIT-compiled code is "difficult to share because the JIT compiler
 *    uses runtime information for the optimizations and the values of
 *    the runtime information can differ for each Java process". Each
 *    process therefore has a *profile fingerprint* mixed into all
 *    generated code, making it unshareable by construction. A small
 *    runtime-stub region (trampolines, helpers) is profile-independent
 *    and identical across processes.
 *
 *  - The JIT work area is "accessed in read-write mode as a work area"
 *    and short-lived: compilation scratch buffers are rewritten per
 *    compilation with per-compilation content. A bulk-reserved,
 *    not-yet-used part stays zero — one of the paper's three observed
 *    sources of sharing in the JVM/JIT work area.
 */

#ifndef JTPS_JVM_JIT_COMPILER_HH
#define JTPS_JVM_JIT_COMPILER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "guest/guest_os.hh"

namespace jtps::jvm
{

/** JIT sizing configuration. */
struct JitConfig
{
    Bytes codeCacheBytes = 30 * MiB; //!< generated method code
    Bytes stubsBytes = 2 * MiB;      //!< shared runtime stubs
    Bytes scratchBytes = 12 * MiB;   //!< compilation work buffers
    Bytes scratchZeroBytes = 4 * MiB; //!< bulk-reserved, unused
    Bytes avgMethodCodeBytes = 14 * KiB;
};

/**
 * The JIT of one Java process.
 */
class JitCompiler
{
  public:
    JitCompiler(guest::GuestOs &os, Pid pid, const JitConfig &cfg,
                std::uint64_t proc_seed);

    /** Map code cache + work area; emit the shared runtime stubs. */
    void init();

    /**
     * First-tier compile of one hot method: append profile-dependent
     * code to the code cache and churn the scratch area.
     * @return false when the code cache is full.
     */
    bool compileMethod(std::uint32_t method_id);

    /**
     * Tier-up recompilation: pick the oldest first-tier method and
     * regenerate it at a higher optimization level — new, larger code
     * is appended (with a fresh profile snapshot baked in) and the old
     * body becomes dead space in the cache, as in a real
     * non-compacting code cache.
     * @return methods actually recompiled (0 when none are eligible
     *         or the cache is full).
     */
    std::uint32_t recompileHottest(std::uint32_t count);

    /** Pages of dead (superseded) code fragmenting the cache. */
    std::uint64_t deadCodePages() const { return dead_code_pages_; }

    /** Methods promoted to the top tier so far. */
    std::uint32_t methodsRecompiled() const { return recompiled_; }

    /** Touch @p pages random pages of generated code (working set). */
    void touchCode(std::uint32_t pages, Rng &rng);

    /** Methods compiled so far. */
    std::uint32_t methodsCompiled() const { return methods_; }

    /** Code-cache VMA (category JitCode). */
    const guest::Vma *codeVma() const { return code_vma_; }

  private:
    /** One compiled method body in the code cache. */
    struct MethodRecord
    {
        std::uint32_t methodId = 0;
        std::uint64_t firstPage = 0;
        std::uint64_t pages = 0;
        std::uint8_t tier = 1;
    };

    /** Emit @p pages of code for @p method_id at the cache cursor.
     *  @return false if the cache is full. */
    bool emitCode(std::uint32_t method_id, std::uint64_t pages,
                  std::uint8_t tier);

    guest::GuestOs &os_;
    Pid pid_;
    JitConfig cfg_;
    std::uint64_t proc_seed_;
    std::uint64_t profile_fingerprint_;
    Rng rng_;

    guest::Vma *code_vma_ = nullptr;
    guest::Vma *work_vma_ = nullptr;
    std::uint64_t stub_pages_ = 0;
    std::uint64_t code_cursor_pages_ = 0;
    std::uint64_t scratch_pages_ = 0;
    std::uint64_t scratch_cursor_ = 0;
    std::uint32_t methods_ = 0;
    std::uint32_t recompiled_ = 0;
    std::uint64_t compilations_ = 0;
    std::uint64_t dead_code_pages_ = 0;
    std::vector<MethodRecord> records_;
    std::size_t next_tierup_ = 0; //!< next tier-1 record to promote
};

} // namespace jtps::jvm

#endif // JTPS_JVM_JIT_COMPILER_HH
