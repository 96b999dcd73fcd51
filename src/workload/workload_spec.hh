/**
 * @file
 * Workload specifications: the Java programs the paper measures
 * (Tables II and III), as complete parameter sets for the JVM model and
 * the client driver.
 *
 *  - Apache DayTrader 2.0 on WebSphere Application Server 7.0.0.15
 *    (the paper's primary workload; Intel and POWER variants),
 *  - SPECjEnterprise 2010 on WAS (injection rate 15, gencon GC with
 *    200 MB tenured + 530 MB nursery),
 *  - TPC-W (Wisconsin Java implementation) on WAS,
 *  - Apache Tuscany 1.6.2 bigbank demo (no WAS; a small SCA server).
 */

#ifndef JTPS_WORKLOAD_WORKLOAD_SPEC_HH
#define JTPS_WORKLOAD_WORKLOAD_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/units.hh"
#include "jvm/class_model.hh"
#include "jvm/java_vm.hh"
#include "jvm/shared_class_cache.hh"

namespace jtps::workload
{

/**
 * One operation type of a workload's request mix (DayTrader: quote,
 * portfolio, buy/sell...). Work multipliers scale the per-request
 * memory behaviour, so heavy operations (order placement) allocate
 * and touch more than cheap ones (quotes).
 */
struct RequestOp
{
    std::string name;
    std::uint32_t weight = 1;  //!< relative frequency
    double allocMul = 1.0;     //!< x allocPerRequestBytes
    double touchMul = 1.0;     //!< x per-request page touches
    double headerMul = 1.0;    //!< x per-request header mutations
};

/** Everything needed to run one Java server workload in one guest VM. */
struct WorkloadSpec
{
    std::string name;       //!< "DayTrader"
    std::string version;    //!< "2.0"
    std::string middleware; //!< "WAS 7.0.0.15" / "Tuscany 1.6.2"

    jvm::ClassSetSpec classSpec;
    std::vector<jvm::LibImage> libs;
    jvm::GcConfig gc;
    jvm::JitConfig jit;

    /** Shared class cache size when class sharing is on (Table III). */
    Bytes sharedCacheBytes = 120 * MiB;
    /** Use AOT bodies from the cache when the scenario provides them. */
    bool useAotCache = false;
    /** Cache name; WAS uses one predefined name for all its processes. */
    std::string cacheName = "webspherev70";

    Bytes mallocUsedBytes = 45 * MiB;
    Bytes bulkZeroBytes = 4 * MiB;
    Bytes nioBufferBytes = 4 * MiB;

    std::uint32_t threadCount = 90;

    /** Guest VM memory (Table II). */
    Bytes guestMemBytes = 1 * GiB;

    // --- client driver (Table III) ------------------------------------
    std::uint32_t clientThreads = 12;
    double serviceMs = 30.0;  //!< CPU time per request
    double thinkMs = 300.0;   //!< client think time
    double slaMs = 250.0;     //!< response-time service level
    Bytes allocPerRequestBytes = 512 * KiB;
    std::uint32_t touchHeapPages = 24;
    /**
     * Guest file-system activity per epoch (log appends, DB I/O, jar
     * re-reads): random page-cache touches that keep the kernel's
     * cache warm — without them the cache would be free eviction fodder
     * under overcommit and the Figs. 7-8 collapse would not reproduce.
     */
    std::uint32_t guestCacheTouchesPerEpoch = 1500;
    /** Lazy classes loaded per warm-up epoch. */
    std::uint32_t lazyClassesPerEpoch = 400;
    /** Methods JIT-compiled per warm-up epoch. */
    std::uint32_t jitCompilesPerEpoch = 120;

    /**
     * Request mix (empty = homogeneous requests). Weights are
     * relative; multipliers scale the per-request memory work.
     */
    std::vector<RequestOp> mix;

    /** Sum of mix weights (0 when the mix is empty). */
    std::uint32_t totalMixWeight() const;
};

/** DayTrader 2.0 in WAS, Intel/KVM configuration (Tables I-III). */
WorkloadSpec dayTraderIntel();

/** DayTrader 2.0 in WAS, POWER/PowerVM configuration (1 GB heap,
 *  25 client threads, 3.5 GB guests, 100 MB cache). */
WorkloadSpec dayTraderPower();

/** SPECjEnterprise 2010 in WAS (injection rate 15, gencon). */
WorkloadSpec specjEnterprise2010();

/** TPC-W (Java implementation) in WAS. */
WorkloadSpec tpcwJava();

/** Apache Tuscany bigbank demo (32 MB heap, 25 MB cache). */
WorkloadSpec tuscanyBigbank();

/**
 * Assemble the JavaVmConfig for running @p spec with the given class
 * set and (optional) shared class cache.
 */
jvm::JavaVmConfig makeJvmConfig(const WorkloadSpec &spec,
                                const jvm::ClassSet &classes,
                                const jvm::SharedClassCache *cache);

} // namespace jtps::workload

#endif // JTPS_WORKLOAD_WORKLOAD_SPEC_HH
