/**
 * @file
 * Tests for the INI configuration parser and the streaming JSON
 * writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "util/config.hh"
#include "util/json.hh"

using namespace cllm;

namespace {

const char *kSample = R"(# experiment description
[experiment]
model = 7b
backend = tdx
batch = 6
beam = 4          ; inline comment
amx = true
price = 0.0088

[machine]
name = emr1
sockets = 1
)";

} // namespace

TEST(Config, ParsesSectionsAndKeys)
{
    const auto r = Config::parse(kSample);
    ASSERT_TRUE(r.ok) << r.error;
    const Config &c = r.config;
    EXPECT_EQ(c.getString("experiment", "model"), "7b");
    EXPECT_EQ(c.getInt("experiment", "batch"), 6);
    EXPECT_EQ(c.getInt("experiment", "beam"), 4); // comment stripped
    EXPECT_TRUE(c.getBool("experiment", "amx"));
    EXPECT_NEAR(c.getDouble("experiment", "price"), 0.0088, 1e-12);
    EXPECT_EQ(c.getString("machine", "name"), "emr1");
}

TEST(Config, SectionAndKeyOrderPreserved)
{
    const auto r = Config::parse(kSample);
    ASSERT_TRUE(r.ok);
    const auto secs = r.config.sections();
    ASSERT_EQ(secs.size(), 2u);
    EXPECT_EQ(secs[0], "experiment");
    EXPECT_EQ(secs[1], "machine");
    const auto keys = r.config.keys("experiment");
    ASSERT_GE(keys.size(), 2u);
    EXPECT_EQ(keys[0], "model");
    EXPECT_EQ(keys[1], "backend");
}

TEST(Config, DefaultsWhenMissing)
{
    const auto r = Config::parse(kSample);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.config.getString("experiment", "nope", "dflt"), "dflt");
    EXPECT_EQ(r.config.getInt("nope", "x", 42), 42);
    EXPECT_FALSE(r.config.has("experiment", "nope"));
}

TEST(Config, LastDuplicateWins)
{
    const auto r = Config::parse("[s]\nk = 1\nk = 2\n");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.config.getInt("s", "k"), 2);
    EXPECT_EQ(r.config.keys("s").size(), 1u);
}

TEST(Config, ErrorsAreReported)
{
    EXPECT_FALSE(Config::parse("[unterminated\n").ok);
    EXPECT_FALSE(Config::parse("[]\n").ok);
    EXPECT_FALSE(Config::parse("no equals here\n").ok);
    EXPECT_FALSE(Config::parse("= value\n").ok);
    EXPECT_FALSE(Config::load("/nonexistent/path.ini").ok);
}

TEST(Config, GlobalSectionSupported)
{
    const auto r = Config::parse("top = 1\n[s]\nk = 2\n");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.config.getInt("", "top"), 1);
}

TEST(ConfigDeath, MalformedNumbersFatal)
{
    const auto r = Config::parse("[s]\nk = 12abc\nb = maybe\n");
    ASSERT_TRUE(r.ok);
    EXPECT_DEATH(r.config.getInt("s", "k"), "trailing junk");
    EXPECT_DEATH(r.config.getBool("s", "b"), "not a boolean");
}

TEST(ParseNumber, AcceptsWholeInRangeValues)
{
    EXPECT_EQ(parseNumber<unsigned>("n", "42"), 42u);
    EXPECT_EQ(parseNumber<long>("n", "-7"), -7);
    EXPECT_EQ(parseNumber<double>("f", "0.5", 0.0, 1.0), 0.5);
    EXPECT_EQ(parseNumber<std::uint64_t>("seed", "18446744073709551615"),
              UINT64_MAX);
}

TEST(ParseNumberDeath, RejectsJunkTrailingAndOutOfRange)
{
    EXPECT_DEATH(parseNumber<std::uint64_t>("--faults", "abc"),
                 "--faults = 'abc' is not a non-negative integer");
    EXPECT_DEATH(parseNumber<unsigned>("n", "12x"), "trailing junk");
    EXPECT_DEATH(parseNumber<unsigned>("n", "-1"),
                 "not a non-negative integer");
    EXPECT_DEATH(parseNumber<double>("f", "0.5x"), "trailing junk");
    EXPECT_DEATH(parseNumber<long>("n", ""), "not an integer");
    EXPECT_DEATH(parseNumber<unsigned>("n", "99999999999"),
                 "out of range");
    EXPECT_DEATH(parseNumber<double>("f", "1.5", 0.0, 1.0), "outside");
    EXPECT_DEATH(parseNumber<double>("f", "nan"), "outside");
    EXPECT_DEATH(parseNumber<double>("f", "inf"), "outside");
}

TEST(ConfigDeath, MalformedDoubleFatal)
{
    const auto r = Config::parse("[s]\nx = 0.5x\ny = pi\n");
    ASSERT_TRUE(r.ok);
    EXPECT_DEATH(r.config.getDouble("s", "x"),
                 "config \\[s\\] x = '0.5x' has trailing junk");
    EXPECT_DEATH(r.config.getDouble("s", "y"), "is not a number");
}

namespace {

/** Run one argv through the shared numeric bench-flag parsers. */
void
parseBenchFlag(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    bench::PrefixOptions prefix;
    bench::ChunkOptions chunk;
    bench::SpecOptions spec;
    for (int i = 1; i < argc; ++i) {
        if (!bench::parsePrefixArg(prefix, argc, argv.data(), i) &&
            !bench::parseChunkArg(chunk, argc, argv.data(), i) &&
            !bench::parseSpecArg(spec, argc, argv.data(), i))
            FAIL() << "unhandled flag " << argv[i];
    }
}

} // namespace

TEST(BenchFlags, WellFormedNumericFlagsParse)
{
    parseBenchFlag({"--prefix-tenants", "3", "--prefix-len", "0",
                    "--prefix-share", "1", "--chunk-tokens", "64",
                    "--chunk-budget", "0", "--spec-k", "2",
                    "--spec-ratio", "0.2", "--spec-accept", "0"});
}

TEST(BenchFlagsDeath, NumericFlagsAreStrict)
{
    EXPECT_DEATH(parseBenchFlag({"--prefix-tenants", "abc"}),
                 "--prefix-tenants = 'abc' is not");
    EXPECT_DEATH(parseBenchFlag({"--prefix-tenants", "0"}), "outside");
    EXPECT_DEATH(parseBenchFlag({"--prefix-len", "-1"}),
                 "--prefix-len = '-1' is not a non-negative integer");
    EXPECT_DEATH(parseBenchFlag({"--prefix-share", "0.5x"}),
                 "--prefix-share = '0.5x' has trailing junk");
    EXPECT_DEATH(parseBenchFlag({"--chunk-tokens", "12x"}),
                 "--chunk-tokens = '12x' has trailing junk");
    EXPECT_DEATH(parseBenchFlag({"--chunk-budget", "many"}),
                 "--chunk-budget = 'many' is not");
    EXPECT_DEATH(parseBenchFlag({"--spec-k", "0"}), "--spec-k = '0'");
    EXPECT_DEATH(parseBenchFlag({"--spec-ratio", "1"}),
                 "--spec-ratio outside");
    EXPECT_DEATH(parseBenchFlag({"--spec-accept", "1.5"}),
                 "--spec-accept = '1.5' outside");
    EXPECT_DEATH(parseBenchFlag({"--spec-k"}), "--spec-k needs a value");
}

TEST(Json, FlatObject)
{
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject();
        j.key("name").value("TDX");
        j.key("tput").value(46.63);
        j.key("batch").value(6);
        j.key("amx").value(true);
        j.key("note").null();
        j.endObject();
        EXPECT_TRUE(j.complete());
    }
    EXPECT_EQ(os.str(), "{\"name\":\"TDX\",\"tput\":46.63,"
                        "\"batch\":6,\"amx\":true,\"note\":null}");
}

TEST(Json, NestedArraysAndObjects)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.key("rows").beginArray();
    j.beginObject().key("x").value(1).endObject();
    j.beginObject().key("x").value(2).endObject();
    j.endArray();
    j.endObject();
    EXPECT_EQ(os.str(), "{\"rows\":[{\"x\":1},{\"x\":2}]}");
}

TEST(Json, EscapesStrings)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.key("s").value("a\"b\\c\nd\te");
    j.endObject();
    EXPECT_EQ(os.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, ControlCharactersEscapedAsUnicode)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginArray().value(std::string("\x01")).endArray();
    EXPECT_EQ(os.str(), "[\"\\u0001\"]");
}

TEST(Json, BackspaceAndFormFeedUseShortEscapes)
{
    // RFC 8259 defines two-character escapes for \b and \f; emitting
    // \u0008/\u000C would be valid but not byte-stable against other
    // producers.
    std::ostringstream os;
    JsonWriter j(os);
    j.beginArray().value(std::string("a\bb\fc")).endArray();
    EXPECT_EQ(os.str(), "[\"a\\bb\\fc\"]");
}

TEST(Json, FlatReaderRoundTripsEscapedKeys)
{
    // Keys exercising every escape class the writer emits: the short
    // escapes, a quote, a backslash, and a \u00XX control character.
    const std::map<std::string, double> original{
        {"plain", 1.5},
        {"quote\"slash\\", 2.0},
        {"short\b\f\n\r\t", -3.25},
        {std::string("ctl\x01\x1f"), 4.0},
    };
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject();
        for (const auto &[k, v] : original)
            j.key(k).value(v);
        j.endObject();
    }
    const std::map<std::string, double> parsed =
        parseFlatJsonNumbers(os.str());
    EXPECT_EQ(parsed, original);
}

TEST(JsonDeath, FlatReaderRejectsNonAsciiUnicodeEscape)
{
    EXPECT_DEATH(parseFlatJsonNumbers("{\"a\\u2603\": 1}"),
                 "\\\\u escape");
}

TEST(Json, NonFiniteBecomesNull)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginArray()
        .value(1.0 / 0.0)
        .value(std::nan(""))
        .endArray();
    EXPECT_EQ(os.str(), "[null,null]");
}

TEST(Json, ArrayOfScalars)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginArray().value(1).value(2.5).value("x").endArray();
    EXPECT_EQ(os.str(), "[1,2.5,\"x\"]");
}

TEST(JsonDeath, MisuseIsCaught)
{
    {
        std::ostringstream os;
        JsonWriter j(os);
        j.beginObject();
        EXPECT_DEATH(j.value(1), "without key");
        j.endObject();
    }
    {
        std::ostringstream os;
        JsonWriter j(os);
        j.beginArray();
        EXPECT_DEATH(j.key("k"), "outside object");
        j.endArray();
    }
    {
        std::ostringstream os;
        JsonWriter j(os);
        EXPECT_DEATH(j.endObject(), "outside object");
    }
}
