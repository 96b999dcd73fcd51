#include "jvm/class_model.hh"

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace jtps::jvm
{

namespace
{

/**
 * Draw a class size around @p avg with a long-ish tail (most classes are
 * small; a few — generated EJB stubs, big framework classes — are much
 * larger), quantized to 64-byte chunks like a real class allocator.
 */
std::uint32_t
drawSize(Rng &rng, Bytes avg)
{
    // Mixture: 80% uniform in [avg/4, 1.5*avg], 20% tail up to 6*avg.
    double v;
    if (rng.bernoulli(0.8))
        v = avg * (0.25 + 1.25 * rng.nextDouble());
    else
        v = avg * (1.5 + 4.5 * rng.nextDouble());
    auto sz = static_cast<std::uint32_t>(v);
    sz = (sz + 63) & ~63u;
    return sz < 64 ? 64 : sz;
}

} // namespace

const char *
loaderName(LoaderKind kind)
{
    switch (kind) {
      case LoaderKind::Bootstrap:
        return "bootstrap";
      case LoaderKind::Middleware:
        return "middleware";
      case LoaderKind::WebApp:
        return "webapp";
      case LoaderKind::Ejb:
        return "ejb";
      case LoaderKind::NumLoaders:
        break;
    }
    return "?";
}

ClassSet
ClassSet::synthesize(const ClassSetSpec &spec)
{
    ClassSet set;
    set.program_ = spec.programName;

    // System and middleware classes derive from the middleware identity
    // (same JVM + WAS install => same classes in every program);
    // application classes derive from the program name.
    Rng mw_rng(hashCombine(stringTag("class-set-mw"),
                           stringTag(spec.middlewareName)));
    Rng app_rng(hashCombine(stringTag("class-set-app"),
                            stringTag(spec.programName)));

    const std::uint32_t total = spec.systemClasses +
                                spec.middlewareClasses + spec.appClasses;
    set.classes_.reserve(total);

    for (std::uint32_t id = 0; id < total; ++id) {
        ClassInfo ci;
        ci.id = id;
        if (id < spec.systemClasses)
            ci.origin = ClassOrigin::System;
        else if (id < spec.systemClasses + spec.middlewareClasses)
            ci.origin = ClassOrigin::Middleware;
        else
            ci.origin = ClassOrigin::Application;

        Rng &rng = ci.origin == ClassOrigin::Application ? app_rng
                                                         : mw_rng;
        ci.romBytes = drawSize(rng, spec.avgRomBytes);
        ci.ramBytes = drawSize(rng, spec.avgRamBytes);
        ci.cacheable = true;
        if (ci.origin == ClassOrigin::Application &&
            rng.bernoulli(spec.appUncacheableFraction)) {
            ci.cacheable = false; // EJB-style class loader
        }
        // Defining loader: system classes come from the bootstrap
        // loader, middleware classes from OSGi bundle loaders, and
        // application classes from web-module loaders — except the
        // EJB modules, whose loaders are not cache-aware (that is
        // exactly what makes them uncacheable above).
        switch (ci.origin) {
          case ClassOrigin::System:
            ci.loader = LoaderKind::Bootstrap;
            break;
          case ClassOrigin::Middleware:
            ci.loader = LoaderKind::Middleware;
            break;
          case ClassOrigin::Application:
            ci.loader = ci.cacheable ? LoaderKind::WebApp
                                     : LoaderKind::Ejb;
            break;
        }
        ci.startup = rng.bernoulli(spec.startupFraction);

        set.total_rom_ += ci.romBytes;
        set.classes_.push_back(ci);
    }
    return set;
}

const ClassInfo &
ClassSet::at(std::uint32_t id) const
{
    jtps_assert(id < classes_.size());
    return classes_[id];
}

std::vector<std::uint32_t>
ClassSet::canonicalOrder() const
{
    std::vector<std::uint32_t> order(classes_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    return order;
}

} // namespace jtps::jvm
