/**
 * @file
 * Minimal streaming JSON writer for exporting experiment results to
 * downstream tooling (plots, dashboards). Handles nesting, comma
 * placement, and string escaping; no DOM, no parsing.
 */

#ifndef CLLM_UTIL_JSON_HH
#define CLLM_UTIL_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace cllm {

/**
 * Streaming JSON emitter.
 *
 * @code
 *   JsonWriter j(os);
 *   j.beginObject();
 *   j.key("backend").value("TDX");
 *   j.key("tokens_per_s").value(46.6);
 *   j.key("latencies").beginArray().value(1.0).value(2.0).endArray();
 *   j.endObject();
 * @endcode
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os);

    /** Destructor panics if containers remain open (library bug). */
    ~JsonWriter();

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be inside an object. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v) { return value(std::int64_t{v}); }
    JsonWriter &value(unsigned v) { return value(std::int64_t{v}); }
    JsonWriter &value(bool v);

    /**
     * `key(name).value(v)` in one call — the shape every metrics
     * exporter in the tree wants. Counter types (std::size_t,
     * unsigned, ...) hit the integer overloads directly, so call
     * sites need no width casts.
     */
    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** Whether all containers are closed. */
    bool complete() const { return stack_.empty() && wroteRoot_; }

  private:
    enum class Frame { Object, Array };

    void beforeValue();
    void escape(const std::string &s);

    std::ostream &os_;
    std::vector<Frame> stack_;
    std::vector<bool> first_;
    bool pendingKey_ = false;
    bool wroteRoot_ = false;
};

} // namespace cllm

#endif // CLLM_UTIL_JSON_HH
