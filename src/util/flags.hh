/**
 * @file
 * Declarative command-line flags for the bench and example CLIs: a
 * tool declares one table of flags (name, operand, range, help, and
 * where the operand goes) and calls `parseFlags`. Numbers parse
 * through the same strict `parseNumber` as config files, enum
 * operands through their `NameTable`, and the usage text is generated
 * from the table, so a flag cannot drift between parser and help.
 */

#ifndef CLLM_UTIL_FLAGS_HH
#define CLLM_UTIL_FLAGS_HH

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/config.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace cllm {

/**
 * One flag of a tool's declarative flag table. The table is the only
 * place a flag is defined: `parseFlags` is the only argv loop, the
 * usage text is generated from the rows, and each row's `set` writes
 * its operand straight into the caller's config (a `serve::` policy,
 * `llm::RunParams`, or a local).
 */
struct Flag
{
    std::string name; //!< e.g. "--chunk-tokens"

    /**
     * Operand hint for the usage text; it also sets the arity. Empty:
     * a switch. "[x]": an optional operand, taken unless the next
     * argument starts with "--". Anything else: a required operand.
     */
    std::string operand;

    std::string help; //!< one paragraph, wrapped by the usage text

    /** Apply the flag; `value` is null when no operand was given. */
    std::function<void(const char *value)> set;

    /** Flags sharing a non-null group are mutually exclusive. */
    const void *group = nullptr;
};

using Flags = std::vector<Flag>;

/** A switch that sets `target` to `value`. */
inline Flag
switchFlag(std::string name, bool &target, std::string help,
           bool value = true)
{
    return {std::move(name), "", std::move(help),
            [&target, value](const char *) { target = value; }};
}

/**
 * A switch that sets `target` to `value`. Every pickFlag (and any flag
 * grouped on the same target) is mutually exclusive with the others,
 * so two of them are a fatal instead of a silent last-one-wins.
 */
template <typename T>
Flag
pickFlag(std::string name, T &target, T value, std::string help)
{
    return {std::move(name), "", std::move(help),
            [&target, value](const char *) { target = value; }, &target};
}

/**
 * A number parsed strictly (cllm::parseNumber) into `target` within
 * [lo, hi], or (lo, hi) when `open`. The usage text gains the range
 * and the default, read from `target` itself.
 */
template <typename T>
Flag
numberFlag(std::string name, T &target, std::string help,
           std::type_identity_t<T> lo,
           std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
           bool open = false)
{
    std::ostringstream note;
    if (hi != std::numeric_limits<T>::max())
        note << "in " << (open ? "(" : "[") << lo << ", " << hi
             << (open ? ")" : "]") << ", ";
    else if (lo > 0)
        note << ">= " << lo << ", ";
    note << "default " << target;
    help += " (" + note.str() + ")";
    return {name, std::is_integral_v<T> ? "N" : "F", std::move(help),
            [&target, name, lo, hi, open](const char *v) {
                target = parseNumber<T>(name, v, lo, hi);
                if (open && (target == lo || target == hi))
                    cllm_fatal(name, " outside (", lo, ", ", hi, ")");
            }};
}

/** An operand spelled from `names` (and fatal on anything else). */
template <typename T, std::size_t N>
Flag
choiceFlag(std::string name, T &target, const NameTable<T, N> &names,
           std::string help)
{
    help += " (default " + std::string(names.name(target)) + ")";
    return {name, std::string("<") + names.choices() + ">",
            std::move(help), [&target, &names, name](const char *v) {
                target = names.parse(v, name);
            }};
}

/**
 * `flags` with each row also writing its name to `used` when given, so
 * a tool can reject a group of flags its chosen mode does not read.
 */
inline Flags
noteUse(Flags flags, std::string &used)
{
    for (Flag &f : flags)
        f.set = [set = std::move(f.set), name = f.name,
                 &used](const char *v) {
            used = name;
            set(v);
        };
    return flags;
}

/** Concatenate flag tables, keeping their order. */
inline Flags
concatFlags(std::initializer_list<Flags> parts)
{
    Flags out;
    for (const Flags &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

/** The row-name prefix of a config section's keys: "config [name] ". */
inline std::string
configPrefix(const std::string &section)
{
    return "config [" + section + "] ";
}

/**
 * Apply every key of `section` through the row named
 * `configPrefix(section) + key`, so a config key parses with the same
 * range and spelling as the flag built from that row. A key with no
 * row is fatal, naming the section and the key.
 */
inline void
applyConfigSection(const Config &cfg, const std::string &section,
                   const Flags &flags)
{
    const std::string prefix = configPrefix(section);
    for (const std::string &key : cfg.keys(section)) {
        const auto f = std::find_if(
            flags.begin(), flags.end(),
            [&](const Flag &row) { return row.name == prefix + key; });
        if (f == flags.end())
            cllm_fatal(prefix, "unknown key '", key, "'");
        f->set(cfg.getString(section, key).c_str());
    }
}

/** Usage text generated from a flag table. */
inline void
printUsage(std::ostream &os, const char *tool, const std::string &synopsis,
           const Flags &flags)
{
    constexpr std::size_t kHelpCol = 22, kWidth = 78;
    os << "usage: " << tool << " [flags]\n\n" << synopsis << "\n\n";
    const auto row = [&](std::string line, const std::string &help) {
        if (line.size() + 2 > kHelpCol) {
            os << line << "\n";
            line.clear();
        }
        std::istringstream words(help);
        for (std::string w; words >> w; line += w) {
            if (line.size() <= kHelpCol) {
                line.resize(kHelpCol, ' ');
            } else if (line.size() + 1 + w.size() > kWidth) {
                os << line << "\n";
                line.assign(kHelpCol, ' ');
            } else {
                line += ' ';
            }
        }
        os << line << "\n";
    };
    for (const Flag &f : flags)
        row("  " + f.name + (f.operand.empty() ? "" : " " + f.operand),
            f.help);
    row("  --help", "show this help");
}

/**
 * Parse argv against `flags`. `--help`/`-h` prints the usage and
 * exits 0; an unknown argument prints it to stderr and exits 2. A
 * missing or malformed operand, or two flags of one group, is fatal.
 */
inline void
parseFlags(const char *tool, const std::string &synopsis,
           const Flags &flags, int argc, char **argv)
{
    std::map<const void *, std::string> seen; // group -> first flag
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout, tool, synopsis, flags);
            std::exit(0);
        }
        const auto f =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &row) { return row.name == arg; });
        if (f == flags.end()) {
            std::cerr << tool << ": unknown argument '" << arg << "'\n";
            printUsage(std::cerr, tool, synopsis, flags);
            std::exit(2);
        }
        if (f->group) {
            const auto [it, first] = seen.emplace(f->group, f->name);
            if (!first && it->second != f->name)
                cllm_fatal(it->second, " and ", f->name,
                           " are mutually exclusive");
        }
        const char *value = nullptr;
        if (f->operand.starts_with("[")) {
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                value = argv[++i];
        } else if (!f->operand.empty()) {
            if (i + 1 >= argc)
                cllm_fatal(f->name, " needs a value (", f->operand, ")");
            value = argv[++i];
        }
        f->set(value);
    }
}

} // namespace cllm

#endif // CLLM_UTIL_FLAGS_HH
