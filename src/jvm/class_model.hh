/**
 * @file
 * The Java class model.
 *
 * A ClassSet is the set of classes a given Java program (middleware +
 * application) loads, with per-class sizes split the way the J9/HotSpot
 * class representation splits them:
 *
 *  - ROM class: the immutable part — bytecodes, constant pool, string
 *    literals, debug data. This is what the class-sharing feature can
 *    place in the shared class cache (paper §IV.B: "we can automatically
 *    extract most of the read-only data in the class metadata").
 *  - RAM class: the mutable runtime part — vtables, itables, statics,
 *    resolution state ("the writable data structures, such as the method
 *    table, are created in private memory areas").
 *
 * A ClassSet is a property of the *program*, so one instance is shared
 * by every VM running that program; per-process differences come only
 * from load order and placement, which is the paper's point.
 */

#ifndef JTPS_JVM_CLASS_MODEL_HH
#define JTPS_JVM_CLASS_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "base/units.hh"

namespace jtps::jvm
{

/** Origin of a class, used for the paper's §V.A provenance breakdown. */
enum class ClassOrigin : std::uint8_t
{
    System,     //!< java.*, javax.*, sun.*, org.apache.harmony.*
    Middleware, //!< WAS / Tuscany, incl. OSGi framework and derby
    Application //!< the deployed app (DayTrader EJBs, servlets, ...)
};

/**
 * The class loader that defines a class. Each loader allocates class
 * metadata from its own segments, so the metaspace is really a set of
 * per-loader regions — and, per the paper (§V.A), the EJB application
 * loaders are the ones that are not shared-class-cache aware.
 */
enum class LoaderKind : std::uint8_t
{
    Bootstrap,  //!< JVM bootstrap loader: system classes
    Middleware, //!< WAS/OSGi bundle loaders (cache-aware)
    WebApp,     //!< servlet/web-module loaders (cache-aware)
    Ejb,        //!< EJB module loaders (NOT cache-aware)

    NumLoaders
};

/** Number of loader kinds, as an array size. */
constexpr std::size_t numLoaderKinds =
    static_cast<std::size_t>(LoaderKind::NumLoaders);

/** Printable loader name. */
const char *loaderName(LoaderKind kind);

/** One Java class. */
struct ClassInfo
{
    std::uint32_t id = 0;
    ClassOrigin origin = ClassOrigin::System;
    LoaderKind loader = LoaderKind::Bootstrap;
    std::uint32_t romBytes = 0; //!< immutable part (cacheable)
    std::uint32_t ramBytes = 0; //!< mutable runtime part (always private)
    /**
     * Whether the class-sharing feature can store this class. The paper
     * notes EJB application classes are not cacheable because their
     * class loaders are not shared-cache-aware.
     */
    bool cacheable = true;
    /** Loaded during middleware startup (vs. lazily under load). */
    bool startup = true;
};

/** Parameters for synthesizing a program's class set. */
struct ClassSetSpec
{
    std::string programName;     //!< e.g. "WAS+DayTrader"
    /**
     * Middleware identity. System and middleware classes derive from
     * this alone, so two programs on the same middleware (DayTrader and
     * TPC-W on WAS) have *identical* middleware class sets — the
     * property the paper's base-image cache deployment relies on.
     */
    std::string middlewareName = "WAS 7.0.0.15";
    std::uint32_t systemClasses = 2000;
    std::uint32_t middlewareClasses = 11000;
    std::uint32_t appClasses = 800;
    Bytes avgRomBytes = 8 * KiB + 512;
    Bytes avgRamBytes = 840;
    /** Fraction of application classes loaded by non-cache-aware
     *  (EJB) class loaders. */
    double appUncacheableFraction = 0.6;
    /** Fraction of all classes loaded during startup. */
    double startupFraction = 0.75;
};

/**
 * The classes of one Java program.
 */
class ClassSet
{
  public:
    /**
     * Deterministically synthesize a class set from @p spec: sizes and
     * flags derive from the program name only, so every VM running the
     * same program sees the same classes.
     */
    static ClassSet synthesize(const ClassSetSpec &spec);

    const std::vector<ClassInfo> &classes() const { return classes_; }
    const ClassInfo &at(std::uint32_t id) const;
    std::size_t size() const { return classes_.size(); }

    /** Canonical (first-use) load order: ids 0..n-1. */
    std::vector<std::uint32_t> canonicalOrder() const;

    /** Sum of ROM bytes over all classes. */
    Bytes totalRomBytes() const { return total_rom_; }

    /** Program name (stable content-tag base). */
    const std::string &programName() const { return program_; }

  private:
    std::string program_;
    std::vector<ClassInfo> classes_;
    Bytes total_rom_ = 0;
};

} // namespace jtps::jvm

#endif // JTPS_JVM_CLASS_MODEL_HH
