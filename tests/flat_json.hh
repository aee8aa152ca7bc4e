/**
 * @file
 * Reader for the flat JSON objects of numbers that JsonWriter emits
 * for the golden expectation files under `tests/golden/`.
 */

#ifndef CLLM_TESTS_FLAT_JSON_HH
#define CLLM_TESTS_FLAT_JSON_HH

#include <cctype>
#include <map>
#include <string>

#include "util/logging.hh"

namespace cllm::testing {

/** Cursor over flat-JSON text with fatal diagnostics. */
struct FlatCursor
{
    const std::string &text;
    std::size_t pos = 0;

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        skipSpace();
        if (pos >= text.size())
            cllm_fatal("flat JSON: unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            cllm_fatal("flat JSON: expected '", c, "' at offset ",
                       pos, ", got '", text[pos], "'");
        ++pos;
    }

    std::string
    parseKey()
    {
        expect('"');
        std::string key;
        while (pos < text.size() && text[pos] != '"') {
            char ch = text[pos];
            if (ch == '\\') {
                ++pos;
                if (pos >= text.size())
                    cllm_fatal("flat JSON: unterminated key");
                // Mirror of JsonWriter::escape, so every key the
                // writer can emit reads back to the original bytes.
                switch (text[pos]) {
                  case '"': ch = '"'; break;
                  case '\\': ch = '\\'; break;
                  case '/': ch = '/'; break;
                  case 'b': ch = '\b'; break;
                  case 'f': ch = '\f'; break;
                  case 'n': ch = '\n'; break;
                  case 'r': ch = '\r'; break;
                  case 't': ch = '\t'; break;
                  case 'u': {
                    if (pos + 4 >= text.size())
                        cllm_fatal("flat JSON: truncated \\u escape "
                                   "in key");
                    unsigned code = 0;
                    for (int i = 1; i <= 4; ++i) {
                        const char h = text[pos + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a') +
                                    10u;
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A') +
                                    10u;
                        else
                            cllm_fatal("flat JSON: bad hex digit in "
                                       "\\u escape");
                    }
                    // The writer only ever emits \u00XX for ASCII
                    // control bytes; anything wider would need UTF-8
                    // re-encoding this flat reader does not do.
                    if (code > 0x7f)
                        cllm_fatal("flat JSON: non-ASCII \\u escape "
                                   "in key");
                    pos += 4;
                    ch = static_cast<char>(code);
                    break;
                  }
                  default:
                    cllm_fatal("flat JSON: unsupported escape in key");
                }
            }
            key.push_back(ch);
            ++pos;
        }
        if (pos >= text.size())
            cllm_fatal("flat JSON: unterminated key");
        ++pos; // closing quote
        return key;
    }

    double
    parseNumber()
    {
        skipSpace();
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E'))
            ++pos;
        if (pos == start)
            cllm_fatal("flat JSON: expected a number at offset ", pos);
        std::size_t used = 0;
        const std::string token = text.substr(start, pos - start);
        double v = 0.0;
        try {
            v = std::stod(token, &used);
        } catch (...) {
            cllm_fatal("flat JSON: malformed number '", token, "'");
        }
        if (used != token.size())
            cllm_fatal("flat JSON: malformed number '", token, "'");
        return v;
    }
};

/**
 * Parse a flat JSON object of numeric values — `{"a.b": 1.5, ...}` —
 * as written by JsonWriter for golden expectation files. Keys decode
 * every escape the writer emits (the RFC 8259 short escapes `\" \\
 * \/ \b \f \n \r \t` plus ASCII `\u00XX`), so writer->reader
 * round-trips are byte-exact; non-ASCII `\u` escapes, nesting, and
 * non-numeric values are rejected. Fatal on malformed input (golden
 * files are checked in, so damage is a repo bug, not a runtime
 * condition).
 */
inline std::map<std::string, double>
parseFlatJsonNumbers(const std::string &text)
{
    std::map<std::string, double> out;
    FlatCursor c{text};
    c.expect('{');
    if (c.peek() == '}') {
        ++c.pos;
        return out;
    }
    for (;;) {
        const std::string key = c.parseKey();
        c.expect(':');
        if (!out.emplace(key, c.parseNumber()).second)
            cllm_fatal("flat JSON: duplicate key '", key, "'");
        const char next = c.peek();
        if (next == ',') {
            ++c.pos;
            continue;
        }
        c.expect('}');
        break;
    }
    return out;
}

} // namespace cllm::testing

#endif // CLLM_TESTS_FLAT_JSON_HH
