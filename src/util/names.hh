/**
 * @file
 * Name tables: the one place an enum (or preset) is spelled. A table
 * maps each value to its name and back; the `a|b|c` choice list that
 * CLI usage text and parse errors print is generated from it, so a
 * spelling can never drift between printer, parser and help.
 */

#ifndef CLLM_UTIL_NAMES_HH
#define CLLM_UTIL_NAMES_HH

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

#include "util/logging.hh"

namespace cllm {

/** One value and its spelling. */
template <typename T>
struct Named
{
    T value;
    const char *name;
};

/** Every spelling of one enum or preset family. */
template <typename T, std::size_t N>
struct NameTable
{
    const char *what; //!< e.g. "KV mode", used in parse errors
    std::array<Named<T>, N> entries;

    /** The spelling of `v` ("?" for a value the table lacks). */
    constexpr const char *
    name(T v) const
    {
        for (const Named<T> &e : entries)
            if (e.value == v)
                return e.name;
        return "?";
    }

    /** The entry spelled `text`, or null. */
    constexpr const Named<T> *
    find(std::string_view text) const
    {
        for (const Named<T> &e : entries)
            if (text == e.name)
                return &e;
        return nullptr;
    }

    /**
     * The value spelled `text`; fatal, listing the choices and naming
     * the flag or config key `flag` when given, if none.
     */
    T
    parse(const std::string &text, const std::string &flag = "") const
    {
        if (const Named<T> *e = find(text))
            return e->value;
        cllm_fatal(flag, flag.empty() ? "" : ": ", "unknown ", what, " '",
                   text, "' (", choices(), ")");
    }

    /** "a|b|c", in table order. */
    std::string
    choices() const
    {
        std::string out;
        for (const Named<T> &e : entries) {
            if (!out.empty())
                out += '|';
            out += e.name;
        }
        return out;
    }
};

/** Build a table, deducing its size: `nameTable<E>("what", {...})`. */
template <typename T, std::size_t N>
constexpr NameTable<T, N>
nameTable(const char *what, const Named<T> (&entries)[N])
{
    NameTable<T, N> t{what, {}};
    for (std::size_t i = 0; i < N; ++i)
        t.entries[i] = entries[i];
    return t;
}

} // namespace cllm

#endif // CLLM_UTIL_NAMES_HH
