#include "analysis/sharing_monitor.hh"

#include "base/table.hh"

namespace jtps::analysis
{

void
SharingMonitor::sample(Tick now)
{
    SharingSample s;
    s.tick = now;
    s.pagesShared = scanner_.pagesShared();
    s.pagesSharing = scanner_.pagesSharing();
    s.residentBytes = hv_.residentBytes();
    s.fullScans = scanner_.fullScans();
    for (VmId v = 0; v < hv_.vmCount(); ++v)
        s.majorFaults += hv_.vm(v).majorFaults;
    samples_.push_back(s);
}

void
SharingMonitor::attach(sim::EventQueue &queue, Tick period_ms)
{
    queue.schedulePeriodic(period_ms, [this, &queue]() {
        sample(queue.now());
        return true;
    });
}

std::string
SharingMonitor::renderTable() const
{
    TextTable t;
    t.addRow({"t (s)", "pages_shared", "pages_sharing", "saved (MiB)",
              "resident (MiB)", "maj faults", "full scans"});
    for (const SharingSample &s : samples_) {
        t.addRow({std::to_string(s.tick / 1000),
                  std::to_string(s.pagesShared),
                  std::to_string(s.pagesSharing),
                  formatMiB(pagesToBytes(s.pagesSharing)),
                  formatMiB(s.residentBytes),
                  std::to_string(s.majorFaults),
                  std::to_string(s.fullScans)});
    }
    return t.render();
}

std::string
SharingMonitor::renderCsv() const
{
    TextTable t;
    t.addRow({"tick_ms", "pages_shared", "pages_sharing",
              "resident_bytes", "major_faults", "full_scans"});
    for (const SharingSample &s : samples_) {
        t.addRow({std::to_string(s.tick), std::to_string(s.pagesShared),
                  std::to_string(s.pagesSharing),
                  std::to_string(s.residentBytes),
                  std::to_string(s.majorFaults),
                  std::to_string(s.fullScans)});
    }
    return t.renderCsv();
}

} // namespace jtps::analysis
