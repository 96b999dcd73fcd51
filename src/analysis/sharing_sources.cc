#include "analysis/sharing_sources.hh"

#include <algorithm>

#include "base/table.hh"

namespace jtps::analysis
{

std::vector<SharingSource>
collectSharingSources(const guest::GuestOs &os)
{
    const hv::Hypervisor &hv = os.hv();
    const hv::Vm &vm = hv.vm(os.vmId());

    // Key by (name, category) so identically-named regions of
    // different kinds stay distinct.
    std::map<std::pair<std::string, guest::MemCategory>, SharingSource>
        sources;

    for (const auto &proc : os.processes()) {
        for (const auto &vma : proc->vmas) {
            for (std::uint64_t i = 0; i < vma->numPages; ++i) {
                const Gfn gfn = vma->gfns[i];
                if (gfn == invalidFrame)
                    continue;
                const hv::EptEntry &e = vm.ept.entry(gfn);
                if (e.state != hv::PageState::Resident)
                    continue;
                const mem::Frame &frame = hv.frames().frame(e.backing);
                if (frame.refcount <= 1)
                    continue; // not TPS-shared

                SharingSource &src =
                    sources[{vma->name, vma->category}];
                src.vmaName = vma->name;
                src.category = vma->category;
                if (frame.data.isZero())
                    src.zeroBytes += pageSize;
                else
                    src.dataBytes += pageSize;
            }
        }
    }

    std::vector<SharingSource> out;
    out.reserve(sources.size());
    for (auto &kv : sources)
        out.push_back(std::move(kv.second));
    std::sort(out.begin(), out.end(),
              [](const SharingSource &a, const SharingSource &b) {
                  return a.total() > b.total();
              });
    return out;
}

std::string
renderSharingSources(const std::vector<SharingSource> &sources,
                     std::size_t limit)
{
    TextTable table;
    table.addRow({"source (VMA)", "category", "shared (MiB)",
                  "zero-filled", "real data"});
    for (std::size_t i = 0; i < sources.size() && i < limit; ++i) {
        const SharingSource &s = sources[i];
        table.addRow({s.vmaName, guest::categoryName(s.category),
                      formatMiB(s.total()), formatMiB(s.zeroBytes),
                      formatMiB(s.dataBytes)});
    }
    return table.render();
}

} // namespace jtps::analysis
