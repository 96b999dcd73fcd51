#include "base/stats.hh"

#include <cstdio>
#include <sstream>

#include "base/logging.hh"

namespace jtps
{

namespace
{

/** Find-or-insert by string_view: builds a key string only on insert. */
template <typename Map>
typename Map::mapped_type &
slot(Map &map, std::string_view name)
{
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name)
        it = map.emplace_hint(it, std::string(name),
                              typename Map::mapped_type{});
    return it->second;
}

} // namespace

void
StatSet::inc(std::string_view name, std::uint64_t delta)
{
    slot(counters_, name) += delta;
}

void
StatSet::dec(std::string_view name, std::uint64_t delta)
{
    auto it = counters_.find(name);
    jtps_assert(it != counters_.end() && it->second >= delta);
    it->second -= delta;
}

std::uint64_t &
StatSet::counter(std::string_view name)
{
    return slot(counters_, name);
}

void
StatSet::set(std::string_view name, std::uint64_t value)
{
    slot(counters_, name) = value;
}

void
StatSet::setScalar(std::string_view name, double value)
{
    slot(scalars_, name) = value;
}

std::uint64_t
StatSet::get(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
StatSet::getScalar(std::string_view name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
}

bool
StatSet::has(std::string_view name) const
{
    return counters_.count(name) || scalars_.count(name);
}

std::string
StatSet::render() const
{
    const std::string prefix = scope_.empty() ? "" : scope_ + ".";
    std::size_t width = 0;
    for (const auto &kv : counters_)
        width = std::max(width, prefix.size() + kv.first.size());
    for (const auto &kv : scalars_)
        width = std::max(width, prefix.size() + kv.first.size());

    std::ostringstream out;
    char buf[160];
    for (const auto &kv : counters_) {
        std::snprintf(buf, sizeof(buf), "%-*s %20llu\n",
                      static_cast<int>(width),
                      (prefix + kv.first).c_str(),
                      static_cast<unsigned long long>(kv.second));
        out << buf;
    }
    for (const auto &kv : scalars_) {
        std::snprintf(buf, sizeof(buf), "%-*s %20.4f\n",
                      static_cast<int>(width),
                      (prefix + kv.first).c_str(), kv.second);
        out << buf;
    }
    return out.str();
}

void
StatSet::clear()
{
    counters_.clear();
    scalars_.clear();
}

} // namespace jtps
