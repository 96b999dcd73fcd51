#include "ksm/ksm_tuned.hh"

#include <algorithm>

namespace jtps::ksm
{

KsmTuned::KsmTuned(hv::Hypervisor &hv, KsmScanner &scanner,
                   const KsmTunedConfig &cfg, StatSet &stats)
    : hv_(hv), scanner_(scanner), cfg_(cfg), stats_(stats)
{
}

void
KsmTuned::step()
{
    // ksmtuned compares committed guest memory against the free
    // threshold. Our equivalent of "committed" is resident plus
    // swapped-out guest pages (what the guests want mapped).
    std::uint64_t committed_pages = hv_.residentFrames();
    for (VmId v = 0; v < hv_.vmCount(); ++v)
        committed_pages += hv_.pagesIn(v, hv::PageState::Swapped);

    const std::uint64_t capacity = hv_.frames().capacity();
    const bool tight =
        committed_pages >
        static_cast<std::uint64_t>(capacity * (1.0 - cfg_.freeThreshold));

    const std::uint32_t current = scanner_.config().pagesToScan;
    std::int64_t next = current;
    if (tight) {
        next += cfg_.boostPages;
        ++boosts_;
        stats_.inc("ksmtuned.boosts");
    } else {
        next += cfg_.decayPages;
        ++decays_;
        stats_.inc("ksmtuned.decays");
    }
    next = std::clamp<std::int64_t>(next, cfg_.minPages, cfg_.maxPages);
    scanner_.setPagesToScan(static_cast<std::uint32_t>(next));
    stats_.set("ksmtuned.pages_to_scan",
               static_cast<std::uint64_t>(next));
}

void
KsmTuned::attach(sim::EventQueue &queue)
{
    queue.schedulePeriodic(cfg_.monitorIntervalMs, [this]() {
        step();
        return true;
    });
}

} // namespace jtps::ksm
