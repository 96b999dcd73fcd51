#include "analysis/dump_format.hh"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>
#include <vector>

#include "base/logging.hh"

namespace jtps::analysis
{

std::string
writeDump(const Snapshot &snap)
{
    std::ostringstream out;
    out << "jtpsdump 1\n";
    out << "# host physical memory attribution dump\n";
    out << "vms " << snap.vmCount << "\n";
    for (VmId v = 0; v < snap.overheadFrames.size(); ++v)
        out << "overhead " << v << " " << snap.overheadFrames[v] << "\n";

    for (std::size_t i = 0; i < snap.frameCount(); ++i) {
        const std::span<const FrameRef> refs = snap.frameRefs(i);
        out << "frame " << snap.hfns[i] << " " << refs.size() << "\n";
        for (const FrameRef &r : refs) {
            out << "ref " << r.vm << " " << r.gfn << " " << r.pid << " "
                << (r.isJava ? 1 : 0) << " "
                << static_cast<unsigned>(r.category) << "\n";
        }
    }
    out << "end " << snap.totalResidentFrames << "\n";
    return out.str();
}

namespace
{

[[noreturn]] void
badDump(std::size_t line, const char *what)
{
    fatal("malformed dump at line %zu: %s", line, what);
}

/** One dump line, split at whitespace into a keyword and fields. */
struct DumpLine
{
    std::size_t no = 0;
    std::vector<std::string_view> tokens;

    DumpLine(std::size_t line_no, std::string_view text)
        : no(line_no)
    {
        constexpr std::string_view space = " \t\r";
        for (std::size_t i = text.find_first_not_of(space);
             i != std::string_view::npos;
             i = text.find_first_not_of(space, i)) {
            const std::size_t j =
                std::min(text.find_first_of(space, i), text.size());
            tokens.push_back(text.substr(i, j - i));
            i = j;
        }
    }

    std::string_view
    keyword() const
    {
        return tokens.empty() ? std::string_view{} : tokens[0];
    }

    [[noreturn]] void bad(const char *what) const { badDump(no, what); }

    /** Require exactly @p n fields after the keyword. */
    void
    expectFields(std::size_t n, const char *what) const
    {
        if (tokens.size() != n + 1)
            bad(what);
    }

    /** Field @p i (1-based) as an unsigned decimal that fits in T:
     *  digits only, so a sign, a stray character or an overflow is
     *  malformed. */
    template <typename T>
    T
    field(std::size_t i, const char *what) const
    {
        const std::string_view tok = tokens[i];
        const char *end = tok.data() + tok.size();
        T value{};
        const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
        if (ec != std::errc{} || ptr != end)
            bad(what);
        return value;
    }
};

} // namespace

Snapshot
parseDump(const std::string &text)
{
    Snapshot snap;
    std::istringstream in(text);
    std::string text_line;
    std::size_t line_no = 0;

    bool got_header = false;
    bool got_vms = false;
    bool got_end = false;

    while (std::getline(in, text_line)) {
        ++line_no;
        if (text_line.empty() || text_line[0] == '#')
            continue;
        const DumpLine line(line_no, text_line);
        const std::string_view keyword = line.keyword();

        if (!got_header) {
            if (keyword != "jtpsdump")
                line.bad("missing jtpsdump header");
            line.expectFields(1, "bad jtpsdump header");
            if (line.field<unsigned>(1, "bad jtpsdump header") != 1)
                line.bad("unsupported version");
            got_header = true;
            continue;
        }
        if (got_end)
            line.bad("data after end marker");

        if (keyword == "vms") {
            if (got_vms)
                line.bad("second vms line");
            line.expectFields(1, "bad vms line");
            // VM ids lie below the count, so none is invalidVm.
            snap.vmCount = line.field<VmId>(1, "bad vms line");
            got_vms = true;
        } else if (keyword == "overhead") {
            if (!got_vms)
                line.bad("overhead line before vms line");
            line.expectFields(2, "bad overhead line");
            const auto vm = line.field<VmId>(1, "bad overhead line");
            const auto frames =
                line.field<std::uint64_t>(2, "bad overhead line");
            // One line per VM in id order, as writeDump() emits them, so
            // the table grows with the input, never by a gap.
            if (vm >= snap.vmCount || vm != snap.overheadFrames.size())
                line.bad("overhead vm id out of order or range");
            snap.overheadFrames.push_back(frames);
        } else if (keyword == "frame") {
            if (snap.refs.size() != snap.refStart.back())
                line.bad("previous frame incomplete");
            line.expectFields(2, "bad frame line");
            const auto hfn = line.field<Hfn>(1, "bad frame line");
            const auto nrefs =
                line.field<std::uint64_t>(2, "bad frame line");
            if (nrefs == 0)
                line.bad("bad frame line");
            if (nrefs > Snapshot::maxSnapshotRefs - snap.refStart.back())
                line.bad("frame's ref count overflows the 32-bit ref "
                         "offsets");
            // Strictly ascending, as writeDump() emits them and as the
            // snapshot stores them.
            if (!snap.hfns.empty() && hfn <= snap.hfns.back())
                line.bad("frame hfns not ascending");
            snap.hfns.push_back(hfn);
            snap.refStart.push_back(
                snap.refStart.back() + static_cast<std::uint32_t>(nrefs));
        } else if (keyword == "ref") {
            if (snap.refs.size() == snap.refStart.back())
                line.bad("ref outside frame");
            line.expectFields(5, "bad ref line");
            FrameRef ref;
            ref.vm = line.field<VmId>(1, "bad ref line");
            // Gfns are stored in 32 bits, and the all-ones one is
            // the "no frame" sentinel, never a mapped page.
            const auto gfn = line.field<std::uint32_t>(2, "bad ref line");
            if (gfn >= maxGuestPages)
                line.bad("bad ref line");
            ref.gfn = gfn;
            ref.pid = line.field<Pid>(3, "bad ref line");
            const auto is_java = line.field<unsigned>(4, "bad ref line");
            const auto category = line.field<unsigned>(5, "bad ref line");
            if (is_java > 1 || category >= guest::numMemCategories)
                line.bad("bad ref line");
            if (!got_vms)
                line.bad("ref line before vms line");
            if (ref.vm >= snap.vmCount)
                line.bad("ref vm id out of range");
            ref.isJava = is_java != 0;
            ref.category = static_cast<guest::MemCategory>(category);
            snap.refs.push_back(ref);
        } else if (keyword == "end") {
            if (snap.refs.size() != snap.refStart.back())
                line.bad("last frame incomplete");
            line.expectFields(1, "bad end line");
            snap.totalResidentFrames =
                line.field<std::uint64_t>(1, "bad end line");
            got_end = true;
        } else {
            line.bad("unknown keyword");
        }
    }

    if (!got_header)
        badDump(line_no, "empty dump");
    if (!got_end)
        badDump(line_no, "missing end marker");
    return snap;
}

} // namespace jtps::analysis
