/**
 * @file
 * Unit tests for the base library: hashing, RNG, units, stats, tables.
 */

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/hash.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"

using namespace jtps;

TEST(Hash, Mix64IsDeterministicAndDispersive)
{
    EXPECT_EQ(mix64(1), mix64(1));
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 10000u);
}

TEST(Hash, CombineOrderMatters)
{
    EXPECT_NE(hashCombine(mix64(1), 2), hashCombine(mix64(2), 1));
    EXPECT_NE(hash3(1, 2, 3), hash3(3, 2, 1));
    EXPECT_EQ(hash4(1, 2, 3, 4), hash4(1, 2, 3, 4));
}

TEST(Hash, StringTagStableAndDistinct)
{
    EXPECT_EQ(stringTag("libjvm.so"), stringTag("libjvm.so"));
    EXPECT_NE(stringTag("libjvm.so"), stringTag("libjvm.sa"));
    EXPECT_NE(stringTag(""), stringTag("a"));
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.nextBelow(17), 17u);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.nextRange(5, 9);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 9u);
    }
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, PerturbOrderPreservesElements)
{
    std::vector<std::uint32_t> order(500);
    for (std::uint32_t i = 0; i < 500; ++i)
        order[i] = i;
    Rng rng(3);
    rng.perturbOrder(order, 0.35, 8);

    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t i = 0; i < 500; ++i)
        ASSERT_EQ(sorted[i], i);
    // ...but the order must actually have changed somewhere.
    bool changed = false;
    for (std::uint32_t i = 0; i < 500; ++i)
        changed |= order[i] != i;
    EXPECT_TRUE(changed);
}

TEST(Rng, PerturbOrderIsLocal)
{
    std::vector<std::uint32_t> order(1000);
    for (std::uint32_t i = 0; i < 1000; ++i)
        order[i] = i;
    Rng rng(4);
    rng.perturbOrder(order, 0.5, 8);
    for (std::uint32_t i = 0; i < 1000; ++i) {
        // Each element can move at most `window` slots per swap and is
        // swapped at most a couple of times; allow generous slack.
        ASSERT_LT(std::abs(static_cast<long>(order[i]) -
                           static_cast<long>(i)),
                  64);
    }
}

TEST(Rng, PerturbDiffersBySeed)
{
    std::vector<std::uint32_t> a(200), b(200);
    for (std::uint32_t i = 0; i < 200; ++i)
        a[i] = b[i] = i;
    Rng ra(100), rb(101);
    ra.perturbOrder(a, 0.35, 8);
    rb.perturbOrder(b, 0.35, 8);
    EXPECT_NE(a, b);
}

TEST(Units, PageMath)
{
    EXPECT_EQ(bytesToPages(0), 0u);
    EXPECT_EQ(bytesToPages(1), 1u);
    EXPECT_EQ(bytesToPages(4096), 1u);
    EXPECT_EQ(bytesToPages(4097), 2u);
    EXPECT_EQ(pagesToBytes(3), 12288u);
    EXPECT_EQ(pageAlignUp(5000), 8192u);
    EXPECT_EQ(pageAlignUp(8192), 8192u);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2 * KiB), "2.0 KiB");
    EXPECT_EQ(formatBytes(3 * MiB), "3.0 MiB");
    EXPECT_EQ(formatMiB(1536 * KiB), "1.5");
}

TEST(Stats, CountersAndScalars)
{
    StatSet s;
    EXPECT_EQ(s.get("x"), 0u);
    EXPECT_FALSE(s.has("x"));
    s.inc("x");
    s.inc("x", 4);
    EXPECT_EQ(s.get("x"), 5u);
    s.dec("x", 2);
    EXPECT_EQ(s.get("x"), 3u);
    s.set("x", 100);
    EXPECT_EQ(s.get("x"), 100u);
    s.setScalar("pi", 3.25);
    EXPECT_DOUBLE_EQ(s.getScalar("pi"), 3.25);
    EXPECT_TRUE(s.has("pi"));
    EXPECT_NE(s.render().find("pi"), std::string::npos);
    s.clear();
    EXPECT_FALSE(s.has("x"));
}

TEST(Stats, CounterHandleIsStableAcrossInsertions)
{
    StatSet s;
    std::uint64_t &x = s.counter("hot.x");
    x += 3;
    // Insert many more counters: the handle must stay valid (node-based
    // map) and keep addressing the same counter.
    for (int i = 0; i < 200; ++i)
        s.inc("filler." + std::to_string(i));
    x += 2;
    EXPECT_EQ(s.get("hot.x"), 5u);
    s.inc("hot.x");
    EXPECT_EQ(x, 6u);
}

TEST(Stats, StatCounterBindsOnFirstUse)
{
    StatSet s;
    StatCounter quiet(&s, "lazy.quiet");
    StatCounter hot(&s, "lazy.hot");
    StatCounter gauge(&s, "lazy.gauge");
    StatCounter declared(&s, "lazy.declared");
    // Nothing exists until a handle fires (or is declared), so the
    // registry's key set matches what StatSet::inc() would produce.
    EXPECT_TRUE(s.counters().empty());
    declared.declare();
    hot.inc();
    hot.inc(4);
    gauge.set(9);
    gauge.set(7);
    EXPECT_FALSE(s.has("lazy.quiet"));
    EXPECT_TRUE(s.has("lazy.declared"));
    EXPECT_EQ(s.get("lazy.declared"), 0u);
    EXPECT_EQ(s.get("lazy.hot"), 5u);
    EXPECT_EQ(s.get("lazy.gauge"), 7u);
    // The handle and the string-keyed path address one counter.
    s.inc("lazy.hot");
    hot.inc();
    EXPECT_EQ(s.get("lazy.hot"), 7u);
    // A handle on no registry is a no-op.
    StatCounter none(nullptr, "lazy.none");
    none.inc();
    none.set(3);
    EXPECT_EQ(s.counters().size(), 3u);
}

TEST(Stats, StringViewLookupsKeepOrder)
{
    StatSet s;
    const std::string owned = "b.owned";
    const std::string_view view = "a.view";
    s.inc(owned);
    s.inc(view, 2);
    s.set(std::string_view("c.literal").substr(0, 3), 1); // "c.l"
    EXPECT_EQ(s.get("a.view"), 2u);
    EXPECT_EQ(s.get(std::string("b.owned")), 1u);
    EXPECT_TRUE(s.has("c.l"));
    std::vector<std::string> names;
    for (const auto &kv : s.counters())
        names.push_back(kv.first);
    EXPECT_EQ(names, (std::vector<std::string>{"a.view", "b.owned", "c.l"}));
}

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&done]() { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 100);

    // The pool is reusable after a wait().
    pool.submit([&done]() { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 101);
}

TEST(ThreadPool, ResultsLandInTheirOwnSlots)
{
    // The sweep() pattern: each job writes only its pre-assigned slot,
    // so the collected vector is identical at any thread count.
    std::vector<std::uint64_t> results(64, 0);
    ThreadPool pool(3);
    for (std::size_t i = 0; i < results.size(); ++i)
        pool.submit([&results, i]() { results[i] = mix64(i); });
    pool.wait();
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], mix64(i));
}

TEST(Table, AlignedRender)
{
    TextTable t;
    t.addRow({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvQuoting)
{
    TextTable t;
    t.addRow({"a,b", "plain", "with \"quote\""});
    std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("plain"), std::string::npos);
    EXPECT_NE(csv.find("\"with \"\"quote\"\"\""), std::string::npos);
}

TEST(Table, StackedBarScales)
{
    std::vector<BarSegment> segs = {{"x", 50, 'x'}, {"y", 50, 'y'}};
    std::string bar = renderStackedBar("L", segs, 100, 40);
    EXPECT_EQ(std::count(bar.begin(), bar.end(), 'x'), 20);
    EXPECT_EQ(std::count(bar.begin(), bar.end(), 'y'), 20);
    std::string legend = renderBarLegend(segs);
    EXPECT_NE(legend.find("x=x"), std::string::npos);
}
