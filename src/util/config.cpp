#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/log.hpp"

namespace ugnirt {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

template <class T>
std::optional<T> get_parsed(const Config& cfg, const std::string& key) {
  auto s = cfg.get_string(key);
  T v{};
  if (!s || !parse_value(*s, &v)) return std::nullopt;
  return v;
}

}  // namespace

std::string env_name(std::string_view key) {
  std::string out = "UGNIRT_";
  for (char c : key) {
    if (c == '.' || c == '-') {
      out.push_back('_');
    } else {
      out.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

bool parse_value(std::string_view text, bool* out) {
  std::string v(text);
  std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (v == "1" || v == "true" || v == "yes" || v == "on") {
    *out = true;
  } else if (v == "0" || v == "false" || v == "no" || v == "off") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

bool parse_value(std::string_view text, double* out) {
  const std::string s(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_value(std::string_view text, std::string* out) {
  *out = text;
  return true;
}

std::string format_value(bool v) { return v ? "true" : "false"; }

std::string format_value(double v) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

std::string format_value(const std::string& v) { return v; }

void warn_bad_value(std::string_view source, std::string_view text) {
  UGNIRT_WARN(source << "=\"" << text
                     << "\" is not a valid value; keeping the current one");
}

bool Config::parse_string(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      error_ = "line " + std::to_string(lineno) + ": missing '='";
      return false;
    }
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      error_ = "line " + std::to_string(lineno) + ": empty key";
      return false;
    }
    values_[key] = value;
  }
  return true;
}

bool Config::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    error_ = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_string(ss.str());
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::optional<std::string> Config::get_string(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> Config::get_int(const std::string& key) const {
  return get_parsed<std::int64_t>(*this, key);
}

std::optional<double> Config::get_double(const std::string& key) const {
  return get_parsed<double>(*this, key);
}

std::optional<bool> Config::get_bool(const std::string& key) const {
  return get_parsed<bool>(*this, key);
}

std::string Config::get_string_or(const std::string& key,
                                  const std::string& fallback) const {
  return get_string(key).value_or(fallback);
}

std::int64_t Config::get_int_or(const std::string& key,
                                std::int64_t fallback) const {
  return get_int(key).value_or(fallback);
}

double Config::get_double_or(const std::string& key, double fallback) const {
  return get_double(key).value_or(fallback);
}

bool Config::get_bool_or(const std::string& key, bool fallback) const {
  return get_bool(key).value_or(fallback);
}

std::string Config::dump() const {
  std::ostringstream out;
  for (const auto& [k, v] : values_) out << k << " = " << v << "\n";
  return out.str();
}

}  // namespace ugnirt
