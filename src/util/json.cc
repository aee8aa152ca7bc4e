#include "util/json.hh"

#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace cllm {

JsonWriter::JsonWriter(std::ostream &os) : os_(os) {}

JsonWriter::~JsonWriter()
{
    if (!stack_.empty())
        cllm_panic("JsonWriter destroyed with open containers");
}

void
JsonWriter::beforeValue()
{
    if (stack_.empty()) {
        if (wroteRoot_)
            cllm_panic("JsonWriter: multiple root values");
        wroteRoot_ = true;
        return;
    }
    if (stack_.back() == Frame::Object && !pendingKey_)
        cllm_panic("JsonWriter: value in object without key");
    if (stack_.back() == Frame::Array) {
        if (!first_.back())
            os_ << ",";
        first_.back() = false;
    }
    pendingKey_ = false;
}

void
JsonWriter::escape(const std::string &s)
{
    os_ << '"';
    for (char raw : s) {
        const unsigned char c = static_cast<unsigned char>(raw);
        switch (raw) {
          case '"':
            os_ << "\\\"";
            break;
          case '\\':
            os_ << "\\\\";
            break;
          case '\b':
            os_ << "\\b";
            break;
          case '\f':
            os_ << "\\f";
            break;
          case '\n':
            os_ << "\\n";
            break;
          case '\r':
            os_ << "\\r";
            break;
          case '\t':
            os_ << "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os_ << buf;
            } else {
                os_ << raw;
            }
        }
    }
    os_ << '"';
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    os_ << "{";
    stack_.push_back(Frame::Object);
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Frame::Object)
        cllm_panic("JsonWriter: endObject outside object");
    if (pendingKey_)
        cllm_panic("JsonWriter: dangling key at endObject");
    os_ << "}";
    stack_.pop_back();
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    os_ << "[";
    stack_.push_back(Frame::Array);
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Frame::Array)
        cllm_panic("JsonWriter: endArray outside array");
    os_ << "]";
    stack_.pop_back();
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    if (stack_.empty() || stack_.back() != Frame::Object)
        cllm_panic("JsonWriter: key outside object");
    if (pendingKey_)
        cllm_panic("JsonWriter: consecutive keys");
    if (!first_.back())
        os_ << ",";
    first_.back() = false;
    escape(name);
    os_ << ":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    beforeValue();
    escape(v);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    if (!std::isfinite(v)) {
        os_ << "null"; // JSON has no inf/nan
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    os_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    os_ << (v ? "true" : "false");
    return *this;
}

} // namespace cllm
