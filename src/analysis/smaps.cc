#include "analysis/smaps.hh"

#include <cstdio>
#include <sstream>

namespace jtps::analysis
{

Bytes
ProcessSmaps::rssTotal() const
{
    Bytes total = 0;
    for (const auto &e : entries)
        total += e.rss;
    return total;
}

double
ProcessSmaps::pssTotal() const
{
    double total = 0;
    for (const auto &e : entries)
        total += e.pss;
    return total;
}

Bytes
ProcessSmaps::swapTotal() const
{
    Bytes total = 0;
    for (const auto &e : entries)
        total += e.swap;
    return total;
}

ProcessSmaps
computeSmaps(const guest::GuestOs &os, Pid pid)
{
    const guest::GuestProcess &proc = os.process(pid);
    const hv::Hypervisor &hv = os.hv();
    const hv::Vm &vm = hv.vm(os.vmId());

    ProcessSmaps out;
    out.pid = pid;
    out.processName = proc.name;

    for (const auto &vma : proc.vmas) {
        SmapsEntry entry;
        entry.name = vma->name;
        entry.category = vma->category;
        entry.startVpn = vma->startVpn;
        entry.size = vma->bytes();

        for (std::uint64_t i = 0; i < vma->numPages; ++i) {
            const Gfn gfn = vma->gfns[i];
            if (gfn == invalidFrame)
                continue;
            const hv::EptEntry &e = vm.ept.entry(gfn);
            switch (e.state) {
              case hv::PageState::NotPresent:
                break;
              case hv::PageState::Swapped:
                entry.swap += pageSize;
                break;
              case hv::PageState::Resident: {
                  entry.rss += pageSize;
                  const auto &frame = hv.frames().frame(e.backing);
                  if (frame.refcount > 1) {
                      entry.sharedClean += pageSize;
                      entry.pss += static_cast<double>(pageSize) /
                                   frame.refcount;
                  } else {
                      entry.privateClean += pageSize;
                      entry.pss += static_cast<double>(pageSize);
                  }
                  break;
              }
            }
        }
        out.entries.push_back(std::move(entry));
    }
    return out;
}

std::string
renderSmaps(const ProcessSmaps &smaps)
{
    std::ostringstream out;
    char buf[160];
    for (const auto &e : smaps.entries) {
        std::snprintf(buf, sizeof(buf), "%012llx [%s] %s\n",
                      static_cast<unsigned long long>(e.startVpn *
                                                      pageSize),
                      guest::categoryName(e.category), e.name.c_str());
        out << buf;
        auto line = [&](const char *key, double kb) {
            std::snprintf(buf, sizeof(buf), "%-14s %10.0f kB\n", key,
                          kb);
            out << buf;
        };
        line("Size:", static_cast<double>(e.size) / KiB);
        line("Rss:", static_cast<double>(e.rss) / KiB);
        line("Pss:", e.pss / KiB);
        line("Shared_Clean:", static_cast<double>(e.sharedClean) / KiB);
        line("Private_Clean:",
             static_cast<double>(e.privateClean) / KiB);
        line("Swap:", static_cast<double>(e.swap) / KiB);
    }
    char total[200];
    std::snprintf(total, sizeof(total),
                  "# pid %u (%s): Rss %.0f kB, Pss %.0f kB, Swap %.0f "
                  "kB over %zu mappings\n",
                  smaps.pid, smaps.processName.c_str(),
                  static_cast<double>(smaps.rssTotal()) / KiB,
                  smaps.pssTotal() / KiB,
                  static_cast<double>(smaps.swapTotal()) / KiB,
                  smaps.entries.size());
    out << total;
    return out.str();
}

} // namespace jtps::analysis
