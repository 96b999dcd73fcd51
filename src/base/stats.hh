/**
 * @file
 * Minimal named-statistics registry.
 *
 * Components register counters ("ksm.pages_shared", "hv.cow_breaks") into
 * a StatSet owned by the scenario. Benches and tests read them by name;
 * the registry can dump itself as an aligned table.
 */

#ifndef JTPS_BASE_STATS_HH
#define JTPS_BASE_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace jtps
{

/**
 * A set of named 64-bit counters and floating-point scalars.
 *
 * The container is a std::map so that dump order is deterministic —
 * stat output is diffed by the determinism tests. Its transparent
 * comparator lets every accessor look a name up by string_view, so a
 * call with a literal never builds a temporary std::string.
 */
class StatSet
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void inc(std::string_view name, std::uint64_t delta = 1);

    /**
     * Stable reference to counter @p name (creating it at zero).
     *
     * Hot paths (the KSM scanner visits every guest page on every
     * pass) resolve their counters once and bump the reference, so the
     * per-event cost is one add instead of a string-keyed map lookup.
     * The map is node-based, so the reference stays valid across later
     * insertions; only clear() invalidates handles.
     */
    std::uint64_t &counter(std::string_view name);

    /** Subtract @p delta from counter @p name (must not underflow). */
    void dec(std::string_view name, std::uint64_t delta = 1);

    /** Set counter @p name to an absolute value. */
    void set(std::string_view name, std::uint64_t value);

    /** Set scalar @p name. */
    void setScalar(std::string_view name, double value);

    /** Read a counter; returns 0 if it was never touched. */
    std::uint64_t get(std::string_view name) const;

    /** Read a scalar; returns 0.0 if it was never touched. */
    double getScalar(std::string_view name) const;

    /** True if the counter exists. */
    bool has(std::string_view name) const;

    /**
     * Owner label for multi-host runs. When set, render() prefixes
     * every name with "<scope>." and the JSON exporter stamps a
     * "scope" field into the registry document, so registries from
     * different hosts stay distinguishable after merging. Names used
     * with inc()/get()/counters() are NOT prefixed — the scope is a
     * presentation property, which keeps single-host documents (empty
     * scope) byte-identical to the pre-scope format.
     */
    void setScope(std::string scope) { scope_ = std::move(scope); }

    /** The owner label ("" for single-host registries). */
    const std::string &scope() const { return scope_; }

    /** Render all stats as an aligned two-column table. */
    std::string render() const;

    /** Drop all stats. */
    void clear();

    using CounterMap = std::map<std::string, std::uint64_t, std::less<>>;
    using ScalarMap = std::map<std::string, double, std::less<>>;

    /** All counters, for iteration in tests. */
    const CounterMap &counters() const
    {
        return counters_;
    }

    /** All scalars, for iteration (JSON export, tests). */
    const ScalarMap &scalars() const
    {
        return scalars_;
    }

  private:
    CounterMap counters_;
    ScalarMap scalars_;
    std::string scope_;
};

/**
 * One counter of a StatSet, bound on first use. Per-event hot paths
 * (the hypervisor's write funnel, frame allocation, swap) bump it
 * through a cached pointer instead of a string-keyed lookup. Binding
 * lazily keeps the registry's key set exactly what StatSet::inc()
 * would produce: a counter that never fires never appears. @p name
 * must outlive the handle (pass a string literal); a handle on a null
 * StatSet does nothing.
 */
class StatCounter
{
  public:
    StatCounter(StatSet *stats, std::string_view name)
        : stats_(stats), name_(name)
    {
    }

    /** Add @p delta, creating the counter at zero first if needed. */
    void
    inc(std::uint64_t delta = 1)
    {
        if (std::uint64_t *c = bind())
            *c += delta;
    }

    /** Set the counter to an absolute value. */
    void
    set(std::uint64_t value)
    {
        if (std::uint64_t *c = bind())
            *c = value;
    }

    /**
     * Create the counter now (at zero if new), for counters every
     * registry must carry whether or not they ever fire.
     */
    void declare() { bind(); }

  private:
    std::uint64_t *
    bind()
    {
        if (slot_ == nullptr && stats_ != nullptr)
            slot_ = &stats_->counter(name_);
        return slot_;
    }

    StatSet *stats_;
    std::string_view name_;
    std::uint64_t *slot_ = nullptr;
};

} // namespace jtps

#endif // JTPS_BASE_STATS_HH
