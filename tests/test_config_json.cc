/**
 * @file
 * Tests for the INI configuration parser, the streaming JSON writer
 * and the bench flag tables that share its strict number parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "examples/run_flags.hh"
#include "util/config.hh"
#include "flat_json.hh"
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
    EXPECT_EQ(c.getString("experiment", "batch"), "6");
    EXPECT_EQ(c.getString("experiment", "beam"), "4"); // comment stripped
    EXPECT_TRUE(c.getBool("experiment", "amx"));
    EXPECT_EQ(c.getString("experiment", "price"), "0.0088");
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
    EXPECT_EQ(r.config.getString("nope", "x", "42"), "42");
    EXPECT_FALSE(r.config.has("experiment", "nope"));
}

TEST(Config, LastDuplicateWins)
{
    const auto r = Config::parse("[s]\nk = 1\nk = 2\n");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.config.getString("s", "k"), "2");
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
    EXPECT_EQ(r.config.getString("", "top"), "1");
}

TEST(ConfigDeath, MalformedNumbersFatal)
{
    const auto r = Config::parse("[s]\nk = 12abc\nb = maybe\n");
    ASSERT_TRUE(r.ok);
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

namespace {

/** Run `args` through parseFlags as the argv of a tool named "bench". */
void
runFlags(const Flags &flags, std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    parseFlags("bench", "", flags, static_cast<int>(argv.size()),
               argv.data());
}

/** The policies the shared bench flags write into. */
struct BenchFlagTargets
{
    serve::SharedPrefixMix mix;
    serve::ChunkedPrefillPolicy chunk;
    serve::SpecDecodePolicy spec;
};

/** Run one argv through the shared bench flag table. */
BenchFlagTargets
parseBenchFlag(std::vector<std::string> args)
{
    BenchFlagTargets t;
    runFlags(concatFlags({bench::prefixMixFlags(t.mix),
                          bench::chunkFlags(t.chunk),
                          bench::specFlags(t.spec),
                          bench::draftFlags(t.spec)}),
             std::move(args));
    return t;
}

} // namespace

TEST(BenchFlags, WellFormedNumericFlagsParse)
{
    const BenchFlagTargets t = parseBenchFlag(
        {"--prefix-tenants", "3", "--prefix-len", "0",
         "--prefix-share", "1", "--chunk-tokens", "64",
         "--chunk-budget", "0", "--spec-k", "2",
         "--spec-ratio", "0.2", "--spec-accept", "0"});
    // Flags write straight into the serve:: policies; untouched
    // fields keep the policies' own defaults.
    EXPECT_EQ(t.mix.tenants, 3u);
    EXPECT_EQ(t.mix.prefixLen, 0u);
    EXPECT_EQ(t.mix.sharedFraction, 1.0);
    EXPECT_EQ(t.mix.promptsPerTenant,
              serve::SharedPrefixMix{}.promptsPerTenant);
    EXPECT_EQ(t.chunk.mode, serve::ChunkMode::Off);
    EXPECT_EQ(t.chunk.chunkTokens, 64u);
    EXPECT_EQ(t.chunk.stepTokenBudget, 0u);
    EXPECT_FALSE(t.spec.enabled);
    EXPECT_EQ(t.spec.draftTokens, 2u);
    EXPECT_EQ(t.spec.draftCostRatio, 0.2);
    EXPECT_EQ(t.spec.acceptProb, 0.0);
}

TEST(BenchFlags, ModeAndSwitchFlagsParse)
{
    const BenchFlagTargets t =
        parseBenchFlag({"--chunk", "prefill", "--spec"});
    EXPECT_EQ(t.chunk.mode, serve::ChunkMode::PrefillPriority);
    EXPECT_TRUE(t.spec.enabled);
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

TEST(BenchFlagsDeath, UnknownFlagExitsTwoWithUsage)
{
    EXPECT_EXIT(parseBenchFlag({"--prefix", "global"}),
                ::testing::ExitedWithCode(2),
                "bench: unknown argument '--prefix'");
    EXPECT_DEATH(
        parseBenchFlag({"--chunk", "bogus"}),
        "unknown chunk mode 'bogus' \\(off\\|decode\\|prefill\\)");
}

namespace {

enum class Pick { None, A, B };

/** A two-mode table plus an optional-operand flag, for the parser. */
struct PickTargets
{
    Pick pick = Pick::None;
    bool traced = false;
    std::string path;
};

PickTargets
parsePick(std::vector<std::string> args)
{
    PickTargets t;
    const Flags flags = {
        pickFlag("--a", t.pick, Pick::A, "mode a"),
        pickFlag("--b", t.pick, Pick::B, "mode b"),
        {"--trace", "[path]", "trace, optionally to path",
         [&t](const char *v) {
             t.traced = true;
             if (v)
                 t.path = v;
         }},
    };
    runFlags(flags, std::move(args));
    return t;
}

} // namespace

TEST(BenchFlags, OptionalOperandStopsAtTheNextFlag)
{
    PickTargets t = parsePick({"--trace", "--a"});
    EXPECT_TRUE(t.traced);
    EXPECT_EQ(t.path, "");
    EXPECT_EQ(t.pick, Pick::A);
    t = parsePick({"--a", "--a", "--trace", "out.json"});
    EXPECT_EQ(t.path, "out.json");
}

TEST(BenchFlags, NoteUseRecordsTheFlagGiven)
{
    serve::SharedPrefixMix mix;
    serve::ChunkedPrefillPolicy chunk;
    std::string mix_used, chunk_used;
    runFlags(concatFlags({noteUse(bench::prefixMixFlags(mix), mix_used),
                          noteUse(bench::chunkFlags(chunk), chunk_used)}),
             {"--prefix-len", "64"});
    EXPECT_EQ(mix_used, "--prefix-len");
    EXPECT_EQ(mix.prefixLen, 64u); // the row still applies its operand
    EXPECT_EQ(chunk_used, "");
}

TEST(BenchFlagsDeath, PickFlagsAreMutuallyExclusive)
{
    EXPECT_DEATH(parsePick({"--a", "--b"}),
                 "--a and --b are mutually exclusive");
}

TEST(BenchFlags, UsageIsGeneratedFromTheTable)
{
    serve::ChunkedPrefillPolicy chunk;
    std::ostringstream os;
    printUsage(os, "tool", "Synopsis.", bench::chunkFlags(chunk));
    const std::string usage = os.str();
    EXPECT_NE(usage.find("usage: tool [flags]\n\nSynopsis.\n"),
              std::string::npos);
    EXPECT_NE(usage.find("--chunk <off|decode|prefill>"),
              std::string::npos);
    EXPECT_NE(usage.find("(>= 1, default 256)"), std::string::npos);
    EXPECT_NE(usage.find("--help"), std::string::npos);
}

namespace {

/** What one [experiment:*] section's keys write into. */
struct RunTargets
{
    llm::RunParams p;
    llm::ModelPreset model = llm::llama2_7b;
    std::vector<core::Backend> backends = {core::Backend::Tdx};
};

/** Apply section "e" of `ini` through sweep_tool's run rows. */
RunTargets
applyRunSection(const std::string &ini)
{
    const auto r = Config::parse(ini);
    if (!r.ok)
        cllm_fatal(r.error);
    RunTargets t;
    applyConfigSection(r.config, "e",
                       cllm::runFlags(configPrefix("e"), t.p, t.model,
                                t.backends));
    return t;
}

} // namespace

TEST(ConfigFlags, SectionKeysParseThroughTheFlagRows)
{
    const RunTargets t = applyRunSection(
        "[e]\nmodel = 13b\nbackend = sgx\ndtype = int8\ninput = 512\n"
        "output = 64\nbeam = 4\nsockets = 2\ncores = 0\n");
    EXPECT_EQ(t.model, llm::kModelPresets.parse("13b"));
    EXPECT_EQ(t.backends, std::vector{core::Backend::Sgx});
    EXPECT_EQ(t.p.dtype, hw::Dtype::Int8);
    EXPECT_EQ(t.p.inLen, 512u);
    EXPECT_EQ(t.p.outLen, 64u);
    EXPECT_EQ(t.p.beam, 4u);
    EXPECT_EQ(t.p.sockets, 2u);
    EXPECT_EQ(t.p.cores, 0u);
    // Keys the section leaves out keep their defaults.
    EXPECT_EQ(t.p.batch, llm::RunParams{}.batch);
}

TEST(ConfigFlagsDeath, UnknownKeysAndBadValuesNameSectionAndKey)
{
    EXPECT_DEATH(applyRunSection("[e]\ndtyp = int8\n"),
                 "config \\[e\\] unknown key 'dtyp'");
    EXPECT_DEATH(applyRunSection("[e]\ninput = -1\n"),
                 "config \\[e\\] input = '-1' is not a non-negative");
    EXPECT_DEATH(applyRunSection("[e]\nbeam = 0\n"),
                 "config \\[e\\] beam = '0' outside");
    EXPECT_DEATH(applyRunSection("[e]\ndtype = int7\n"),
                 "config \\[e\\] dtype: unknown dtype 'int7'");
    EXPECT_DEATH(applyRunSection("[e]\nbackend = gpu\n"),
                 "config \\[e\\] backend: unknown backend 'gpu'");
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
        j.endObject();
        EXPECT_TRUE(j.complete());
    }
    EXPECT_EQ(os.str(), "{\"name\":\"TDX\",\"tput\":46.63,"
                        "\"batch\":6,\"amx\":true}");
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
        cllm::testing::parseFlatJsonNumbers(os.str());
    EXPECT_EQ(parsed, original);
}

TEST(JsonDeath, FlatReaderRejectsNonAsciiUnicodeEscape)
{
    EXPECT_DEATH(cllm::testing::parseFlatJsonNumbers("{\"a\\u2603\": 1}"),
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
