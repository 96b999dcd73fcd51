/**
 * @file
 * Attribution of shared pages: owner-oriented and distribution-oriented
 * accounting (paper §II.A).
 *
 * Owner-oriented (what the paper uses): each shared frame is charged
 * entirely to one *owner* — a Java process whenever one maps it, the
 * one with the smallest PID if several do. Every other mapper is a
 * "non-primary" process that uses the page for free; the page's size is
 * recorded as that process's *TPS saving* ("the amount of additional
 * memory needed to run another process sharing this page" is zero).
 *
 * Distribution-oriented (Linux PSS, provided for the ablation): each
 * frame's size is split evenly among its mappers.
 *
 * Both accountings work at *guest page* (vm, gfn) granularity: when a
 * guest page is mapped by several processes of the same guest (file
 * pages appear both in the kernel page cache and in a process's mmap),
 * the page is represented once, by its highest-priority mapper
 * (Java > other user process > kernel), so intra-guest aliasing is not
 * double-counted, while genuine TPS sharing (several guest pages backed
 * by one host frame) is counted per guest page.
 */

#ifndef JTPS_ANALYSIS_ACCOUNTING_HH
#define JTPS_ANALYSIS_ACCOUNTING_HH

#include <array>
#include <cstdint>
#include <map>

#include "analysis/forensics.hh"
#include "base/units.hh"
#include "guest/mem_category.hh"

namespace jtps::analysis
{

/** Per-category byte totals. */
using CategoryBytes = std::array<Bytes, guest::numMemCategories>;

/** Usage of one process under owner-oriented accounting. */
struct ProcessUsage
{
    bool isJava = false;
    /** Bytes of frames this process owns, by its mapping's category. */
    CategoryBytes owned{};
    /** Bytes of frames this process maps but does not own (its TPS
     *  saving), by category. */
    CategoryBytes shared{};

    Bytes ownedTotal() const;
    Bytes sharedTotal() const;

    bool operator==(const ProcessUsage &other) const = default;
};

/** Fig. 2-style per-VM rollup. */
struct VmBreakdown
{
    Bytes java = 0;      //!< owned by Java processes of this VM
    Bytes otherUser = 0; //!< owned by other user processes
    Bytes kernel = 0;    //!< owned by the guest kernel (incl. caches)
    Bytes vmSelf = 0;    //!< the VM process itself
    Bytes savingJava = 0;   //!< TPS savings in the Java processes
    Bytes savingOther = 0;  //!< savings in other user processes
    Bytes savingKernel = 0; //!< savings in the guest kernel

    Bytes
    usageTotal() const
    {
        return java + otherUser + kernel + vmSelf;
    }

    Bytes
    savingTotal() const
    {
        return savingJava + savingOther + savingKernel;
    }
};

/**
 * Owner-oriented accounting over one snapshot.
 */
class OwnerAccounting
{
  public:
    explicit OwnerAccounting(const Snapshot &snap);

    /** Usage of one process (must exist in the snapshot). */
    const ProcessUsage &usage(VmId vm, Pid pid) const;

    /** True if (vm, pid) appeared in the snapshot. */
    bool hasProcess(VmId vm, Pid pid) const;

    /** All processes seen, in deterministic (vm, pid) order. */
    const std::map<std::pair<VmId, Pid>, ProcessUsage> &
    processes() const
    {
        return usage_;
    }

    /** Fig. 2 rollup for one VM. */
    VmBreakdown vmBreakdown(VmId vm) const;

    /** Total bytes attributed (== resident bytes; tests verify). */
    Bytes attributedBytes() const { return attributed_; }

    /** Resident bytes at capture (from the snapshot). */
    Bytes
    residentBytes() const
    {
        return pagesToBytes(resident_frames_);
    }

  private:
    std::map<std::pair<VmId, Pid>, ProcessUsage> usage_;
    std::vector<std::uint64_t> overhead_frames_;
    Bytes attributed_ = 0;
    std::uint64_t resident_frames_ = 0;
};

/**
 * Distribution-oriented accounting (PSS) over one snapshot.
 *
 * The floating-point PSS sums accumulate in the snapshot's frame
 * order, so they are reproducible for a given snapshot.
 */
class PssAccounting
{
  public:
    explicit PssAccounting(const Snapshot &snap);

    /** PSS of one process in bytes (fractional pages included). */
    double pss(VmId vm, Pid pid) const;

    /** All (vm, pid) -> PSS. */
    const std::map<std::pair<VmId, Pid>, double> &
    processes() const
    {
        return pss_;
    }

    /** Sum of all PSS values plus VM overheads (== resident bytes). */
    double totalBytes() const { return total_; }

  private:
    std::map<std::pair<VmId, Pid>, double> pss_;
    double total_ = 0;
};

} // namespace jtps::analysis

#endif // JTPS_ANALYSIS_ACCOUNTING_HH
