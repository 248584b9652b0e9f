// Key=value configuration store and the one generic knob reader/writer.
//
// Every tunable in the machine model (latencies, bandwidths, thresholds,
// crossovers) and in the runtime subsystems lives in a plain config struct
// that lists its knobs exactly once, as a static visitor beside the fields:
//
//   template <class Self, class F>
//   static void for_each_knob(Self& s, F&& f) {
//     f("<prefix>.<field>", s.<field>);
//     ...
//   }
//
// and, when overrides need clamping, a `void normalize()` member.  The
// templates below serve every such struct: read_knobs() loads a Config
// (a file or a parsed string), write_knobs() exports one for provenance,
// and apply_env_knobs() applies `UGNIRT_<KEY>` environment overrides
// directly to the fields ("<prefix>.<field>" -> UGNIRT_<PREFIX>_<FIELD>).
// A malformed or out-of-range value logs one warning naming its key or
// variable and leaves the field as it was.  Integers are decimal or `0x`
// hex (a leading zero is still decimal); unsigned fields take their full
// range and reject a sign.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace ugnirt {

class Config {
 public:
  Config() = default;

  /// Parse "key = value" lines; '#' starts a comment; blank lines ignored.
  /// Returns false (and records an error) on malformed input.
  bool parse_string(const std::string& text);
  bool parse_file(const std::string& path);

  void set(const std::string& key, const std::string& value);

  /// Typed getters; the _or forms return the fallback when absent or
  /// malformed.
  std::optional<std::string> get_string(const std::string& key) const;
  std::optional<std::int64_t> get_int(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;
  std::optional<bool> get_bool(const std::string& key) const;

  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const;
  double get_double_or(const std::string& key, double fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  const std::string& last_error() const { return error_; }
  std::size_t size() const { return values_.size(); }

  /// Deterministic (sorted) dump used by tests and experiment logs.
  std::string dump() const;

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

// ---- value text <-> typed field ------------------------------------------

/// Parse `text` into `*out`; on failure return false and leave `*out` alone.
bool parse_value(std::string_view text, bool* out);
bool parse_value(std::string_view text, double* out);
bool parse_value(std::string_view text, std::string* out);

/// Integers: optional '-' (signed types only), then decimal digits or
/// `0x`/`0X` and hex digits; the value must fit in T.
template <class T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
bool parse_value(std::string_view text, T* out) {
  const bool neg = !text.empty() && text.front() == '-';
  if (neg) {
    if constexpr (std::is_unsigned_v<T>) return false;
    text.remove_prefix(1);
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  std::uint64_t mag = 0;
  const char* end = text.data() + text.size();
  auto [p, ec] = std::from_chars(text.data(), end, mag, base);
  if (text.empty() || ec != std::errc{} || p != end) return false;
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (mag > kMax + (neg ? 1 : 0)) return false;
  *out = neg ? static_cast<T>(std::uint64_t{0} - mag) : static_cast<T>(mag);
  return true;
}

/// Text that parses back to exactly `v` (doubles keep every bit).
std::string format_value(bool v);
std::string format_value(double v);
std::string format_value(const std::string& v);
template <class T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
std::string format_value(T v) {
  return std::to_string(v);
}

/// The variable that overrides config key `key`: "<prefix>.<field>" ->
/// "UGNIRT_<PREFIX>_<FIELD>".
std::string env_name(std::string_view key);

/// Log one warning that `source` (a config key or UGNIRT_* variable) held
/// the unusable value `text`, so its field kept the value it had.
void warn_bad_value(std::string_view source, std::string_view text);

// ---- the generic knob reader, writer and env applier -----------------------

namespace detail {
template <class V>
void assign(std::string_view source, std::string_view text, V& field) {
  if (!parse_value(text, &field)) warn_bad_value(source, text);
}

template <class T>
void normalize(T& obj) {
  if constexpr (requires { obj.normalize(); }) obj.normalize();
}
}  // namespace detail

/// Overwrite every knob of `obj` that `cfg` sets, then normalize.
template <class T>
void read_knobs(const Config& cfg, T& obj) {
  T::for_each_knob(obj, [&](const char* key, auto& field) {
    if (auto text = cfg.get_string(key)) detail::assign(key, *text, field);
  });
  detail::normalize(obj);
}

/// Set every knob of `obj` in `cfg`.
template <class T>
void write_knobs(const T& obj, Config& cfg) {
  T::for_each_knob(obj, [&](const char* key, const auto& field) {
    cfg.set(key, format_value(field));
  });
}

/// Apply each set `UGNIRT_<KEY>` variable to its knob, then normalize.
template <class T>
void apply_env_knobs(T& obj) {
  T::for_each_knob(obj, [](const char* key, auto& field) {
    const std::string name = env_name(key);
    if (const char* text = std::getenv(name.c_str())) {
      detail::assign(name, text, field);
    }
  });
  detail::normalize(obj);
}

}  // namespace ugnirt
