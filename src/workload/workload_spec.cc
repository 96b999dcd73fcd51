#include "workload/workload_spec.hh"

#include "base/hash.hh"

namespace jtps::workload
{

namespace
{

/** Native libraries common to the J9 JVM. */
std::vector<jvm::LibImage>
j9Libs()
{
    return {
        {"libj9vm24.so", 4 * MiB, 8 * MiB},
        {"libj9jit24.so", 3 * MiB, 6 * MiB},
        {"libj9gc24.so", 1536 * KiB, 3 * MiB},
        {"libj9prt24.so+misc", 1536 * KiB, 5 * MiB},
    };
}

/** WAS adds its own native pieces on top of the JVM's. */
std::vector<jvm::LibImage>
wasLibs()
{
    auto libs = j9Libs();
    libs.push_back({"was-native+channelfw", 4 * MiB, 9 * MiB});
    return libs;
}

/** Class population of a WAS-hosted application. */
jvm::ClassSetSpec
wasClassSpec(const std::string &program, std::uint32_t app_classes)
{
    jvm::ClassSetSpec cs;
    cs.programName = program;
    cs.middlewareName = "WAS 7.0.0.15 / J9 Java6 SR9";
    cs.systemClasses = 1600;
    cs.middlewareClasses = 11400;
    cs.appClasses = app_classes;
    cs.avgRomBytes = 5450; // -> ~7.9 KiB mean after the size mixture
    cs.avgRamBytes = 360;
    cs.appUncacheableFraction = 0.5;
    cs.startupFraction = 0.75;
    return cs;
}

/** The DayTrader 2.0 operation mix (per its TradeScenarioServlet). */
std::vector<RequestOp>
dayTraderMix()
{
    return {
        {"quote", 40, 0.5, 0.8, 0.5},
        {"home", 20, 0.8, 1.0, 1.0},
        {"portfolio", 12, 1.5, 1.4, 1.5},
        {"buy", 8, 2.0, 1.3, 2.0},
        {"sell", 8, 2.0, 1.3, 2.0},
        {"login-logout", 8, 1.0, 0.9, 1.0},
        {"account-update", 4, 1.5, 1.1, 1.5},
    };
}

} // namespace

std::uint32_t
WorkloadSpec::totalMixWeight() const
{
    std::uint32_t total = 0;
    for (const RequestOp &op : mix)
        total += op.weight;
    return total;
}

WorkloadSpec
dayTraderIntel()
{
    WorkloadSpec w;
    w.name = "DayTrader";
    w.version = "2.0";
    w.middleware = "WAS 7.0.0.15";
    w.classSpec = wasClassSpec("WAS+DayTrader2.0", 800);
    w.libs = wasLibs();

    w.gc.policy = jvm::GcConfig::Policy::OptThruput;
    w.gc.heapBytes = 530 * MiB;   // Table III
    w.gc.liveFraction = 0.55;
    w.gc.gcTriggerFraction = 0.90;

    w.sharedCacheBytes = 120 * MiB; // Table III
    w.cacheName = "webspherev70";
    w.guestMemBytes = 1 * GiB;      // Table II

    w.clientThreads = 12;           // Table III
    w.serviceMs = 30.0;
    w.thinkMs = 300.0;
    w.slaMs = 250.0;
    w.mix = dayTraderMix();
    return w;
}

WorkloadSpec
dayTraderPower()
{
    WorkloadSpec w = dayTraderIntel();
    w.name = "DayTrader(POWER)";
    w.gc.heapBytes = 1 * GiB;        // Table III: 1.0 GB heap
    w.sharedCacheBytes = 100 * MiB;  // §V.B: 100 MB cache
    w.guestMemBytes = 3584ULL * MiB; // Table II: 3.5 GB guests
    w.clientThreads = 25;            // Table III
    // Larger heap, more client threads: more JVM-internal state.
    w.mallocUsedBytes = 60 * MiB;
    w.threadCount = 120;
    return w;
}

WorkloadSpec
specjEnterprise2010()
{
    WorkloadSpec w;
    w.name = "SPECjEnterprise";
    w.version = "1.02";
    w.middleware = "WAS 7.0.0.15";
    w.classSpec = wasClassSpec("WAS+SPECjEnterprise2010", 1400);
    w.libs = wasLibs();

    // §V.C: generational GC, 200 MB tenured + 530 MB nursery.
    w.gc.policy = jvm::GcConfig::Policy::Gencon;
    w.gc.heapBytes = 730 * MiB;
    w.gc.nurseryBytes = 530 * MiB;
    w.gc.nurserySurvivorFraction = 0.08;
    w.gc.promoteFraction = 0.012;

    w.sharedCacheBytes = 120 * MiB;
    w.guestMemBytes = 1280ULL * MiB; // Table II: 1.25 GB

    // Injection rate 15 (Table III): a closed loop whose steady rate is
    // ~24 EjOPS on this machine when responsive.
    w.clientThreads = 15;
    w.serviceMs = 40.0;
    w.thinkMs = 585.0;
    w.slaMs = 200.0;
    w.allocPerRequestBytes = 700 * KiB;
    return w;
}

WorkloadSpec
tpcwJava()
{
    WorkloadSpec w;
    w.name = "TPC-W";
    w.version = "Java impl (1.0.1 base)";
    w.middleware = "WAS 7.0.0.15";
    w.classSpec = wasClassSpec("WAS+TPC-W", 450);
    w.libs = wasLibs();

    w.gc.policy = jvm::GcConfig::Policy::OptThruput;
    w.gc.heapBytes = 512 * MiB; // Table III
    w.sharedCacheBytes = 120 * MiB;
    w.guestMemBytes = 1 * GiB;

    w.clientThreads = 10; // Table III
    w.serviceMs = 28.0;
    w.thinkMs = 320.0;
    w.slaMs = 250.0;
    w.allocPerRequestBytes = 420 * KiB;
    return w;
}

WorkloadSpec
tuscanyBigbank()
{
    WorkloadSpec w;
    w.name = "Tuscany-bigbank";
    w.version = "1.6.2";
    w.middleware = "Tuscany 1.6.2";

    jvm::ClassSetSpec cs;
    cs.programName = "Tuscany+bigbank";
    cs.middlewareName = "Tuscany 1.6.2 / J9 Java6 SR9";
    cs.systemClasses = 1500;
    cs.middlewareClasses = 2100;
    cs.appClasses = 160;
    cs.avgRomBytes = 4200;
    cs.avgRamBytes = 420;
    cs.appUncacheableFraction = 0.3; // no EJB container
    cs.startupFraction = 0.8;
    w.classSpec = cs;

    w.libs = j9Libs(); // no WAS native pieces

    w.gc.policy = jvm::GcConfig::Policy::OptThruput;
    w.gc.heapBytes = 32 * MiB;    // Table III
    w.sharedCacheBytes = 25 * MiB; // Table III
    w.cacheName = "tuscany-bigbank";
    w.guestMemBytes = 1 * GiB;

    w.mallocUsedBytes = 18 * MiB;
    w.bulkZeroBytes = 3 * MiB;
    w.nioBufferBytes = 2 * MiB;
    w.threadCount = 24;
    w.jit.codeCacheBytes = 10 * MiB;
    w.jit.scratchBytes = 5 * MiB;
    w.jit.scratchZeroBytes = 2 * MiB;

    w.clientThreads = 7; // Table III
    w.serviceMs = 22.0;
    w.thinkMs = 300.0;
    w.slaMs = 250.0;
    w.allocPerRequestBytes = 96 * KiB;
    w.touchHeapPages = 8;
    w.lazyClassesPerEpoch = 150;
    w.jitCompilesPerEpoch = 40;
    return w;
}

jvm::JavaVmConfig
makeJvmConfig(const WorkloadSpec &spec, const jvm::ClassSet &classes,
              const jvm::SharedClassCache *cache)
{
    jvm::JavaVmConfig cfg;
    cfg.libs = spec.libs;
    cfg.gc = spec.gc;
    cfg.jit = spec.jit;
    cfg.classes = &classes;
    cfg.sharedCache = cache;
    cfg.useAotCache = spec.useAotCache;
    cfg.mallocUsedBytes = spec.mallocUsedBytes;
    cfg.bulkZeroBytes = spec.bulkZeroBytes;
    cfg.nioBufferBytes = spec.nioBufferBytes;
    cfg.nioPayloadTag = hashCombine(stringTag("nio-payload"),
                                    stringTag(spec.name + spec.version));
    cfg.threadCount = spec.threadCount;
    return cfg;
}

} // namespace jtps::workload
