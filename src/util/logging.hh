/**
 * @file
 * Logging and error-reporting helpers, following the gem5 convention:
 * panic() for internal library bugs (aborts), fatal() for user errors
 * (clean exit), warn() for diagnostics.
 */

#ifndef CLLM_UTIL_LOGGING_HH
#define CLLM_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace cllm {

namespace detail {

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

/**
 * Report an internal invariant violation (a cllm bug) and abort.
 * Mirrors gem5's panic(): never use for conditions a user can cause.
 */
#define cllm_panic(...) \
    ::cllm::detail::panicImpl(__FILE__, __LINE__, \
                              ::cllm::detail::concat(__VA_ARGS__))

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and exit(1). Mirrors gem5's fatal().
 */
#define cllm_fatal(...) \
    ::cllm::detail::fatalImpl(__FILE__, __LINE__, \
                              ::cllm::detail::concat(__VA_ARGS__))

/** Warn about suspicious but non-fatal conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace cllm

#endif // CLLM_UTIL_LOGGING_HH
