/**
 * @file
 * Tests for the observability layer: the JSON writer, the trace
 * recorder, and the JSON export of stats / sharing series / traces.
 *
 * The key properties guarded here:
 *  - JSON output is byte-deterministic (two same-seed scenario runs
 *    serialize to identical strings);
 *  - serialized documents round-trip: a small in-test parser recovers
 *    exactly the values the registry / monitor held;
 *  - a disabled TraceBuffer records nothing and stays out of the way
 *    of the scan hot path.
 */

#include <cctype>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/json_export.hh"
#include "base/json_writer.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "core/scenario.hh"
#include "ksm/ksm_scanner.hh"

using namespace jtps;

namespace
{

// ---------------------------------------------------------------------
// A minimal JSON parser for the subset the writer emits (objects,
// arrays, strings with the writer's escapes, numbers, booleans, null).
// ---------------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        EXPECT_EQ(pos_, text_.size()) << "trailing garbage";
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        EXPECT_LT(pos_, text_.size()) << "unexpected end of document";
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        ASSERT_EQ(peek(), c);
        ++pos_;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            pos_ += 4;
            return JsonValue{};
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            JsonValue key = parseString();
            expect(':');
            v.object.emplace_back(key.string, parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseString()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                v.string.push_back(c);
                continue;
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case 'n':
                v.string.push_back('\n');
                break;
              case 't':
                v.string.push_back('\t');
                break;
              case 'r':
                v.string.push_back('\r');
                break;
              case 'u': {
                const std::string hex = text_.substr(pos_, 4);
                pos_ += 4;
                v.string.push_back(static_cast<char>(
                    std::stoi(hex, nullptr, 16)));
                break;
              }
              default:
                v.string.push_back(esc); // \" and \\ and \/
            }
        }
        expect('"');
        return v;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (text_[pos_] == 't') {
            v.boolean = true;
            pos_ += 4;
        } else {
            v.boolean = false;
            pos_ += 5;
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        std::size_t end = pos_;
        while (end < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                text_[end] == '-' || text_[end] == '+' ||
                text_[end] == '.' || text_[end] == 'e' ||
                text_[end] == 'E'))
            ++end;
        v.number = std::stod(text_.substr(pos_, end - pos_));
        pos_ = end;
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

core::ScenarioConfig
fastConfig()
{
    core::ScenarioConfig cfg;
    cfg.enableClassSharing = true;
    cfg.warmupMs = 6'000;
    cfg.steadyMs = 8'000;
    cfg.host.ramBytes = 6ULL * GiB;
    return cfg;
}

std::vector<workload::WorkloadSpec>
tuscanyVms(std::size_t n)
{
    return std::vector<workload::WorkloadSpec>(
        n, workload::tuscanyBigbank());
}

/** Serialize a traced + monitored scenario run the way jtps does. */
std::string
runAndSerialize()
{
    core::Scenario s(fastConfig(), tuscanyVms(2));
    s.build();
    s.trace().enable();
    s.attachSharingMonitor(2'000);
    s.run();

    JsonWriter w;
    w.beginObject();
    w.field("schema_version", analysis::jsonSchemaVersion);
    w.key("stats");
    analysis::writeStatsJson(w, s.stats());
    w.key("sharing_timeline");
    analysis::writeSharingSeriesJson(w, *s.monitor());
    w.key("trace");
    analysis::writeTraceJson(w, s.trace());
    w.endObject();
    return w.str();
}

} // namespace

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

TEST(JsonWriter, NestingAndKeyOrder)
{
    JsonWriter w;
    w.beginObject();
    w.field("b", 1);
    w.key("a").beginArray();
    w.value(1).value("two").value(3.5).value(true).valueNull();
    w.endArray();
    w.key("obj").beginObject();
    w.field("x", std::uint64_t{42});
    w.endObject();
    w.endObject();

    // Keys stay in emission order (not sorted); values keep their types.
    EXPECT_EQ(w.str(),
              "{\n"
              "  \"b\": 1,\n"
              "  \"a\": [\n"
              "    1,\n"
              "    \"two\",\n"
              "    3.5,\n"
              "    true,\n"
              "    null\n"
              "  ],\n"
              "  \"obj\": {\n"
              "    \"x\": 42\n"
              "  }\n"
              "}\n");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(JsonWriter::quote("plain"), "\"plain\"");
    EXPECT_EQ(JsonWriter::quote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(JsonWriter::quote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(JsonWriter::quote("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
    EXPECT_EQ(JsonWriter::quote(std::string_view("\x01", 1)),
              "\"\\u0001\"");
}

TEST(JsonWriter, FormatsDoubles)
{
    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0");
    EXPECT_EQ(JsonWriter::formatDouble(1.5), "1.5");
    // Non-finite values have no JSON representation; clamp to 0.
    EXPECT_EQ(JsonWriter::formatDouble(1.0 / 0.0), "0");
    // %.17g survives a strtod round-trip exactly.
    const double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(JsonWriter::formatDouble(v)), v);
}

TEST(JsonWriter, StringValuesRoundTrip)
{
    JsonWriter w;
    w.beginObject();
    w.field("s", "line1\nline2\t\"quoted\" back\\slash");
    w.endObject();
    JsonValue doc = JsonParser(w.str()).parse();
    ASSERT_NE(doc.find("s"), nullptr);
    EXPECT_EQ(doc.find("s")->string, "line1\nline2\t\"quoted\" back\\slash");
}

// ---------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------

TEST(TraceBuffer, DisabledRecordsNothing)
{
    TraceBuffer t;
    for (int i = 0; i < 1000; ++i)
        t.record(TraceEventType::CowBreak, 0, i, i);
    EXPECT_TRUE(t.events().empty());
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceBuffer, RecordsWithClockWhenEnabled)
{
    TraceBuffer t;
    Tick now = 100;
    t.setClock([&now]() { return now; });
    t.enable(16);
    t.record(TraceEventType::SwapOut, 3, 7, 9);
    now = 250;
    t.record(TraceEventType::SwapIn, 4, 8, 10);

    ASSERT_EQ(t.events().size(), 2u);
    EXPECT_EQ(t.events()[0].tick, 100u);
    EXPECT_EQ(t.events()[0].type, TraceEventType::SwapOut);
    EXPECT_EQ(t.events()[0].vm, 3u);
    EXPECT_EQ(t.events()[0].arg0, 7u);
    EXPECT_EQ(t.events()[0].arg1, 9u);
    EXPECT_EQ(t.events()[1].tick, 250u);
    EXPECT_EQ(t.countOf(TraceEventType::SwapOut), 1u);
    EXPECT_EQ(t.countOf(TraceEventType::SwapIn), 1u);
    EXPECT_EQ(t.countOf(TraceEventType::CowBreak), 0u);
}

TEST(TraceBuffer, DropsAtCapacity)
{
    TraceBuffer t;
    t.enable(4);
    for (int i = 0; i < 10; ++i)
        t.record(TraceEventType::GcGlobal, 0, i, 0);
    EXPECT_EQ(t.events().size(), 4u);
    EXPECT_EQ(t.dropped(), 6u);
    t.clear();
    EXPECT_TRUE(t.events().empty());
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_TRUE(t.enabled());
}

TEST(TraceBuffer, EventNamesAreStable)
{
    // These strings are the JSON vocabulary documented in
    // docs/METRICS.md; changing one is a schema change.
    EXPECT_STREQ(traceEventName(TraceEventType::KsmStableMerge),
                 "ksm_stable_merge");
    EXPECT_STREQ(traceEventName(TraceEventType::KsmUnstablePromotion),
                 "ksm_unstable_promotion");
    EXPECT_STREQ(traceEventName(TraceEventType::KsmFullScan),
                 "ksm_full_scan");
    EXPECT_STREQ(traceEventName(TraceEventType::CowBreak), "cow_break");
    EXPECT_STREQ(traceEventName(TraceEventType::SwapOut), "swap_out");
    EXPECT_STREQ(traceEventName(TraceEventType::SwapIn), "swap_in");
    EXPECT_STREQ(traceEventName(TraceEventType::BalloonInflate),
                 "balloon_inflate");
    EXPECT_STREQ(traceEventName(TraceEventType::BalloonDeflate),
                 "balloon_deflate");
    EXPECT_STREQ(traceEventName(TraceEventType::GcGlobal), "gc_global");
    EXPECT_STREQ(traceEventName(TraceEventType::GcMinor), "gc_minor");
}

TEST(TraceBuffer, DisabledStaysOutOfScanHotPath)
{
    // Semantic guard: a wired-but-disabled TraceBuffer must not change
    // what the scanner computes, and a generous timing bound catches a
    // gross regression of the disabled path (the precise <2% bound is
    // tracked by bench_micro_components).
    auto scan = [](TraceBuffer *trace, StatSet &stats) {
        hv::HostConfig host;
        host.ramBytes = 2ULL * GiB;
        host.reserveBytes = 0;
        hv::Hypervisor hv(host, stats);
        if (trace)
            hv.setTrace(trace);
        VmId a = hv.createVm("a", 64 * MiB, 0);
        VmId b = hv.createVm("b", 64 * MiB, 0);
        for (Gfn g = 0; g < 8192; ++g) {
            hv.writePage(a, g, mem::PageData::filled(4, g));
            hv.writePage(b, g, mem::PageData::filled(4, g));
        }
        ksm::KsmConfig cfg;
        cfg.pagesToScan = 1u << 30;
        ksm::KsmScanner scanner(hv, cfg, stats);
        const auto start = std::chrono::steady_clock::now();
        for (int pass = 0; pass < 4; ++pass)
            scanner.scanBatch();
        return std::chrono::steady_clock::now() - start;
    };

    StatSet plain_stats;
    const auto plain_time = scan(nullptr, plain_stats);

    TraceBuffer trace; // wired but never enabled
    StatSet wired_stats;
    const auto wired_time = scan(&trace, wired_stats);

    EXPECT_TRUE(trace.events().empty());
    EXPECT_EQ(trace.dropped(), 0u);
    EXPECT_EQ(plain_stats.counters(), wired_stats.counters());
    EXPECT_LT(wired_time.count(), plain_time.count() * 3 + 50'000'000);
}

// ---------------------------------------------------------------------
// JSON export round-trips
// ---------------------------------------------------------------------

TEST(JsonExport, StatsRoundTrip)
{
    StatSet stats;
    stats.inc("ksm.stable_merges", 12345);
    stats.inc("hv.cow_breaks", 7);
    stats.set("host.frames_allocated", 1ULL << 40);
    stats.setScalar("ksm.cpu_usage", 0.0215);
    stats.setScalar("bench.score", 148.25);

    JsonWriter w;
    analysis::writeStatsJson(w, stats);
    JsonValue doc = JsonParser(w.str()).parse();

    const JsonValue *counters = doc.find("counters");
    const JsonValue *scalars = doc.find("scalars");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(scalars, nullptr);
    ASSERT_EQ(counters->object.size(), stats.counters().size());
    ASSERT_EQ(scalars->object.size(), stats.scalars().size());

    // Every registry entry appears, in registry (sorted-name) order,
    // with the exact value.
    std::size_t i = 0;
    for (const auto &[name, value] : stats.counters()) {
        EXPECT_EQ(counters->object[i].first, name);
        EXPECT_EQ(counters->object[i].second.number,
                  static_cast<double>(value));
        ++i;
    }
    i = 0;
    for (const auto &[name, value] : stats.scalars()) {
        EXPECT_EQ(scalars->object[i].first, name);
        EXPECT_EQ(scalars->object[i].second.number, value);
        ++i;
    }
}

TEST(JsonExport, SharingSeriesAndTraceRoundTrip)
{
    core::Scenario s(fastConfig(), tuscanyVms(2));
    s.build();
    s.trace().enable();
    analysis::SharingMonitor &mon = s.attachSharingMonitor(2'000);
    s.run();

    ASSERT_FALSE(mon.samples().empty());
    ASSERT_FALSE(s.trace().events().empty());

    JsonWriter ws;
    analysis::writeSharingSeriesJson(ws, mon);
    JsonValue series = JsonParser(ws.str()).parse();
    ASSERT_EQ(series.array.size(), mon.samples().size());
    for (std::size_t i = 0; i < series.array.size(); ++i) {
        const JsonValue &row = series.array[i];
        const analysis::SharingSample &sample = mon.samples()[i];
        EXPECT_EQ(row.find("tick_ms")->number,
                  static_cast<double>(sample.tick));
        EXPECT_EQ(row.find("pages_shared")->number,
                  static_cast<double>(sample.pagesShared));
        EXPECT_EQ(row.find("pages_sharing")->number,
                  static_cast<double>(sample.pagesSharing));
        EXPECT_EQ(row.find("resident_bytes")->number,
                  static_cast<double>(sample.residentBytes));
        EXPECT_EQ(row.find("major_faults")->number,
                  static_cast<double>(sample.majorFaults));
        EXPECT_EQ(row.find("full_scans")->number,
                  static_cast<double>(sample.fullScans));
    }

    JsonWriter wt;
    analysis::writeTraceJson(wt, s.trace());
    JsonValue trace = JsonParser(wt.str()).parse();
    EXPECT_EQ(trace.find("dropped")->number,
              static_cast<double>(s.trace().dropped()));
    const JsonValue *events = trace.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), s.trace().events().size());
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &row = events->array[i];
        const TraceEvent &ev = s.trace().events()[i];
        EXPECT_EQ(row.find("tick_ms")->number,
                  static_cast<double>(ev.tick));
        EXPECT_EQ(row.find("type")->string, traceEventName(ev.type));
        if (ev.vm == invalidVm)
            EXPECT_EQ(row.find("vm")->kind, JsonValue::Kind::Null);
        else
            EXPECT_EQ(row.find("vm")->number,
                      static_cast<double>(ev.vm));
    }
}

TEST(JsonExport, SameSeedRunsSerializeByteIdentically)
{
    const std::string a = runAndSerialize();
    const std::string b = runAndSerialize();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "same-seed scenario JSON must be byte-identical";

    // And the document is well formed with the expected top-level keys.
    JsonValue doc = JsonParser(a).parse();
    EXPECT_NE(doc.find("schema_version"), nullptr);
    EXPECT_NE(doc.find("stats"), nullptr);
    EXPECT_NE(doc.find("sharing_timeline"), nullptr);
    EXPECT_NE(doc.find("trace"), nullptr);
}
