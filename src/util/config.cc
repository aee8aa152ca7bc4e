#include "util/config.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace cllm {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

Config::ParseResult
Config::parse(const std::string &text)
{
    ParseResult result;
    Config &cfg = result.config;

    std::istringstream in(text);
    std::string line;
    std::string section; // "" = global section
    int line_no = 0;

    while (std::getline(in, line)) {
        ++line_no;
        const std::string t = trim(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        if (t.front() == '[') {
            if (t.back() != ']') {
                result.error = "line " + std::to_string(line_no) +
                               ": unterminated section header";
                return result;
            }
            section = trim(t.substr(1, t.size() - 2));
            if (section.empty()) {
                result.error = "line " + std::to_string(line_no) +
                               ": empty section name";
                return result;
            }
            if (!cfg.data_.count(section))
                cfg.sectionOrder_.push_back(section);
            cfg.data_[section]; // materialize
            continue;
        }
        const std::size_t eq = t.find('=');
        if (eq == std::string::npos) {
            result.error = "line " + std::to_string(line_no) +
                           ": expected key = value";
            return result;
        }
        const std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        // Strip trailing comments on value lines.
        const std::size_t hash = value.find_first_of("#;");
        if (hash != std::string::npos)
            value = trim(value.substr(0, hash));
        if (key.empty()) {
            result.error =
                "line " + std::to_string(line_no) + ": empty key";
            return result;
        }
        if (!cfg.data_.count(section) && section.empty())
            cfg.sectionOrder_.push_back(section);
        auto &sec = cfg.data_[section];
        if (!sec.count(key))
            cfg.keyOrder_[section].push_back(key);
        sec[key] = value;
    }
    result.ok = true;
    return result;
}

Config::ParseResult
Config::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        ParseResult r;
        r.error = "cannot open '" + path + "'";
        return r;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

bool
Config::has(const std::string &section, const std::string &key) const
{
    auto it = data_.find(section);
    return it != data_.end() && it->second.count(key) != 0;
}

std::string
Config::getString(const std::string &section, const std::string &key,
                  const std::string &fallback) const
{
    auto it = data_.find(section);
    if (it == data_.end())
        return fallback;
    auto kit = it->second.find(key);
    return kit == it->second.end() ? fallback : kit->second;
}

long
Config::getInt(const std::string &section, const std::string &key,
               long fallback) const
{
    if (!has(section, key))
        return fallback;
    return parseNumber<long>("config [" + section + "] " + key,
                             getString(section, key));
}

double
Config::getDouble(const std::string &section, const std::string &key,
                  double fallback) const
{
    if (!has(section, key))
        return fallback;
    return parseNumber<double>("config [" + section + "] " + key,
                               getString(section, key));
}

bool
Config::getBool(const std::string &section, const std::string &key,
                bool fallback) const
{
    if (!has(section, key))
        return fallback;
    std::string v = getString(section, key);
    for (auto &c : v)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (v == "true" || v == "yes" || v == "1" || v == "on")
        return true;
    if (v == "false" || v == "no" || v == "0" || v == "off")
        return false;
    cllm_fatal("config [", section, "] ", key, " = '", v,
               "' is not a boolean");
}

std::vector<std::string>
Config::sections() const
{
    return sectionOrder_;
}

std::vector<std::string>
Config::keys(const std::string &section) const
{
    auto it = keyOrder_.find(section);
    return it == keyOrder_.end() ? std::vector<std::string>{}
                                 : it->second;
}

} // namespace cllm
