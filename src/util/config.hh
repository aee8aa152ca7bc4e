/**
 * @file
 * Minimal INI-style configuration: `[section]` headers and
 * `key = value` pairs with `#`/`;` comments. Powers the config-driven
 * experiment runner so reproductions can be described as data rather
 * than recompiled C++.
 */

#ifndef CLLM_UTIL_CONFIG_HH
#define CLLM_UTIL_CONFIG_HH

#include <charconv>
#include <limits>
#include <map>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace cllm {

/**
 * Parse the whole of `text` as a T in [lo, hi]. Fatal, naming `what`
 * (a flag or config key), when `text` is not a T, has trailing
 * characters, or lies outside the range; never defaults silently.
 * Unsigned T rejects a leading '-'.
 */
template <typename T>
T
parseNumber(const std::string &what, const std::string &text,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::invalid_argument) {
        cllm_fatal(what, " = '", text, "' is not ",
                   !std::is_integral_v<T> ? "a number"
                   : std::is_signed_v<T>  ? "an integer"
                                          : "a non-negative integer");
    }
    if (ec == std::errc::result_out_of_range)
        cllm_fatal(what, " = '", text, "' is out of range");
    if (stop != end)
        cllm_fatal(what, " = '", text, "' has trailing junk");
    if (!(v >= lo && v <= hi))
        cllm_fatal(what, " = '", text, "' outside [", lo, ", ", hi,
                   "]");
    return v;
}

/**
 * Parsed configuration with typed accessors.
 */
class Config
{
  public:
    struct ParseResult; // defined below (needs a complete Config)

    /** Parse INI text. */
    static ParseResult parse(const std::string &text);

    /** Load and parse a file. */
    static ParseResult load(const std::string &path);

    /** Whether a key exists. */
    bool has(const std::string &section, const std::string &key) const;

    /** String value or default. */
    std::string getString(const std::string &section,
                          const std::string &key,
                          const std::string &fallback = "") const;

    /** Boolean: true/false/yes/no/1/0. */
    bool getBool(const std::string &section, const std::string &key,
                 bool fallback = false) const;

    /** Section names in file order. */
    std::vector<std::string> sections() const;

    /** Keys of one section in file order. */
    std::vector<std::string> keys(const std::string &section) const;

  private:
    // section -> key -> value, plus orderings.
    std::map<std::string, std::map<std::string, std::string>> data_;
    std::vector<std::string> sectionOrder_;
    std::map<std::string, std::vector<std::string>> keyOrder_;
};

/** Outcome of parsing; `config` is valid only when ok. */
struct Config::ParseResult
{
    bool ok = false;
    std::string error;
    Config config;
};

} // namespace cllm

#endif // CLLM_UTIL_CONFIG_HH
