#include "jvm/jit_compiler.hh"

#include <algorithm>
#include <string_view>

#include "base/hash.hh"
#include "base/logging.hh"

namespace jtps::jvm
{

JitCompiler::JitCompiler(guest::GuestOs &os, Pid pid, const JitConfig &cfg,
                         std::uint64_t proc_seed)
    : os_(os), pid_(pid), cfg_(cfg), proc_seed_(proc_seed),
      profile_fingerprint_(
          hashCombine(proc_seed, stringTag("jit-profile"))),
      rng_(hashCombine(proc_seed, stringTag("jit-rng")))
{
}

void
JitCompiler::init()
{
    jtps_assert(code_vma_ == nullptr);

    code_vma_ = os_.mmapAnon(pid_, cfg_.stubsBytes + cfg_.codeCacheBytes,
                             guest::MemCategory::JitCode, "jit-code-cache");
    work_vma_ = os_.mmapAnon(pid_, cfg_.scratchBytes + cfg_.scratchZeroBytes,
                             guest::MemCategory::JitWork, "jit-scratch");

    // Runtime stubs: generated from the JVM version alone, identical in
    // every process running this JVM build — the only shareable piece.
    constexpr std::string_view jvmVersion = "IBM J9 VM (Java 6 SR9)";
    stub_pages_ = bytesToPages(cfg_.stubsBytes);
    const std::uint64_t stub_tag = hashCombine(
        stringTag("jit-stubs"), stringTag(jvmVersion));
    os_.writePages(code_vma_, 0, stub_pages_, [stub_tag](std::uint64_t p) {
        return mem::PageData::filled(stub_tag, p);
    });
    code_cursor_pages_ = stub_pages_;

    // Bulk-reserved scratch: committed but not yet used — zero pages.
    scratch_pages_ = bytesToPages(cfg_.scratchBytes);
    const std::uint64_t zero_pages = bytesToPages(cfg_.scratchZeroBytes);
    os_.writePages(work_vma_, scratch_pages_, zero_pages,
                   [](std::uint64_t) { return mem::PageData::zero(); });
}

bool
JitCompiler::emitCode(std::uint32_t method_id, std::uint64_t code_pages,
                      std::uint8_t tier)
{
    const std::uint64_t cache_pages =
        bytesToPages(cfg_.stubsBytes + cfg_.codeCacheBytes);
    if (code_cursor_pages_ + code_pages > cache_pages)
        return false; // code cache full

    // Generated code mixes in the per-process profile fingerprint:
    // inlining decisions, biased branches, embedded addresses. The
    // tier changes the optimizer, so tiered bodies differ even from
    // their own tier-1 code.
    const std::uint64_t code_tag = hash4(
        stringTag("jit-method"), method_id, profile_fingerprint_, tier);
    const std::uint64_t base = code_cursor_pages_;
    os_.writePages(code_vma_, base, code_pages,
                   [code_tag, base](std::uint64_t page) {
                       return mem::PageData::filled(code_tag, page - base);
                   });

    records_.push_back(
        MethodRecord{method_id, code_cursor_pages_, code_pages, tier});
    code_cursor_pages_ += code_pages;

    // Scratch churn: IL trees, register allocator tables. Rewritten
    // with per-compilation content, cycling through the scratch region.
    ++compilations_;
    const std::uint64_t scratch_tag =
        hash3(proc_seed_, stringTag("jit-scratch"), compilations_);
    const std::uint64_t scratch_use = (2 + tier) * code_pages;
    // One run up to the end of the scratch region, then wrap to its
    // start; write k of this use gets salt k.
    jtps_assert(scratch_use == 0 || scratch_pages_ > 0);
    for (std::uint64_t done = 0; done < scratch_use;) {
        const std::uint64_t start = scratch_cursor_;
        const std::uint64_t run =
            std::min(scratch_use - done, scratch_pages_ - start);
        os_.writePages(work_vma_, start, run,
                       [scratch_tag, done, start](std::uint64_t page) {
                           return mem::PageData::filled(
                               scratch_tag, done + (page - start));
                       });
        done += run;
        scratch_cursor_ = (start + run) % scratch_pages_;
    }
    return true;
}

bool
JitCompiler::compileMethod(std::uint32_t method_id)
{
    jtps_assert(code_vma_ != nullptr);

    // Method code size: avg +- 50%, at least one page's worth of cache.
    const Bytes code_bytes = static_cast<Bytes>(
        cfg_.avgMethodCodeBytes * (0.5 + rng_.nextDouble()));
    const std::uint64_t code_pages = std::max<std::uint64_t>(
        1, bytesToPages(code_bytes));
    if (!emitCode(method_id, code_pages, 1))
        return false;
    ++methods_;
    return true;
}

std::uint32_t
JitCompiler::recompileHottest(std::uint32_t count)
{
    std::uint32_t done = 0;
    while (done < count && next_tierup_ < records_.size()) {
        // Promote in compile order (oldest hot methods first); skip
        // bodies already at the top tier. Copy the record: emitCode
        // grows records_ and would invalidate a reference.
        const std::size_t idx = next_tierup_;
        const MethodRecord rec = records_[idx];
        if (rec.tier >= 2) {
            ++next_tierup_;
            continue;
        }
        // Optimized bodies are larger (inlining).
        if (!emitCode(rec.methodId, rec.pages * 2, 2))
            break; // cache full
        // The superseded body stays behind as dead space.
        dead_code_pages_ += rec.pages;
        records_[idx].tier = 2; // marks the dead range's origin
        ++next_tierup_;
        ++recompiled_;
        ++done;
    }
    return done;
}

void
JitCompiler::touchCode(std::uint32_t pages, Rng &rng)
{
    if (code_cursor_pages_ == 0)
        return;
    for (std::uint32_t i = 0; i < pages; ++i)
        os_.touch(code_vma_, rng.nextBelow(code_cursor_pages_));
}

} // namespace jtps::jvm
