/**
 * @file
 * Shared golden-file plumbing for regression tests: flat
 * string→double maps written as JSON under `tests/golden/`, compared
 * at tight relative tolerance, regenerated in place with
 * CLLM_REGEN_GOLDEN=1.
 */

#ifndef CLLM_TESTS_GOLDEN_UTIL_HH
#define CLLM_TESTS_GOLDEN_UTIL_HH

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "flat_json.hh"

#ifndef CLLM_GOLDEN_DIR
#error "CLLM_GOLDEN_DIR must point at tests/golden"
#endif

namespace cllm::testing {

constexpr double kGoldenRelTol = 1e-9;

inline bool
regenRequested()
{
    const char *env = std::getenv("CLLM_REGEN_GOLDEN");
    return env && *env && std::string(env) != "0";
}

inline void
writeGolden(const std::string &path,
            const std::map<std::string, double> &values)
{
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << "{\n";
    std::size_t i = 0;
    for (const auto &[key, val] : values) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", val);
        os << "  \"" << key << "\": " << buf
           << (++i == values.size() ? "\n" : ",\n");
    }
    os << "}\n";
}

inline std::map<std::string, double>
loadGolden(const std::string &path)
{
    std::ifstream is(path);
    if (!is.good())
        ADD_FAILURE() << "missing golden file " << path
                      << " (run with CLLM_REGEN_GOLDEN=1 to create)";
    std::ostringstream text;
    text << is.rdbuf();
    return parseFlatJsonNumbers(text.str());
}

inline void
checkAgainstGolden(const std::string &file,
                   const std::map<std::string, double> &actual)
{
    const std::string path = std::string(CLLM_GOLDEN_DIR) + "/" + file;
    if (regenRequested()) {
        writeGolden(path, actual);
        GTEST_SKIP() << "regenerated " << path;
    }
    const auto expected = loadGolden(path);
    ASSERT_FALSE(expected.empty());
    // Both directions: a key that vanished from the experiment grid is
    // as much a regression as one that changed value.
    for (const auto &[key, val] : actual)
        EXPECT_TRUE(expected.count(key))
            << "key " << key << " missing from " << file
            << " (regenerate goldens?)";
    for (const auto &[key, want] : expected) {
        const auto it = actual.find(key);
        if (it == actual.end()) {
            ADD_FAILURE() << "golden key " << key
                          << " no longer produced";
            continue;
        }
        const double got = it->second;
        const double scale = std::max(std::abs(want), std::abs(got));
        const double rel =
            scale > 0.0 ? std::abs(got - want) / scale : 0.0;
        EXPECT_LE(rel, kGoldenRelTol)
            << key << ": expected " << want << ", got " << got;
    }
}

} // namespace cllm::testing

#endif // CLLM_TESTS_GOLDEN_UTIL_HH
