// YAML-subset configuration parser.
//
// Noxim loads its power model from a YAML file; the paper's Noxim++ keeps that
// mechanism ("users can modify the power values in external loaded YAML
// file").  We reproduce the same workflow with a small, dependency-free
// parser covering the subset those files actually use:
//
//   # comment
//   key: value            (scalar: int, float, bool, string)
//   section:
//     nested_key: 3.14    (one level of two-space indentation)
//
// Keys are exposed flattened as "section.nested_key".
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace snnmap::util {

/// Flattened key/value view of a YAML-subset document.
class Config {
 public:
  Config() = default;

  /// Parses text; throws std::runtime_error with a line number on malformed
  /// input (tabs, bad indentation, missing ':').
  static Config parse(const std::string& text);

  /// Loads and parses a file; throws std::runtime_error if unreadable.
  static Config load_file(const std::string& path);

  bool contains(const std::string& key) const;

  /// Typed getters return std::nullopt when the key is absent and throw
  /// std::runtime_error when present but not convertible.
  std::optional<std::string> get_string(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;
  std::optional<bool> get_bool(const std::string& key) const;

  /// Convenience getters with defaults.
  double double_or(const std::string& key, double def) const;
  bool bool_or(const std::string& key, bool def) const;
  /// Unsigned getter with a default, typed by the field it fills: the value
  /// must be a plain decimal that fits `UInt` (no sign, no wrap-around), or
  /// std::runtime_error names the key.
  template <typename UInt>
  UInt uint_or(const std::string& key, UInt def) const {
    static_assert(std::is_unsigned_v<UInt>, "uint_or fills unsigned fields");
    const auto v = get_uint(key, std::numeric_limits<UInt>::max());
    return v ? static_cast<UInt>(*v) : def;
  }

  /// Programmatic insertion (used by tests and by presets).
  void set(const std::string& key, const std::string& value);

  /// All flattened keys, sorted (deterministic iteration for dumps).
  std::vector<std::string> keys() const;

  /// Serializes back to the accepted subset (flat "a.b: v" lines).
  std::string dump() const;

 private:
  /// The value of `key` as a decimal in [0, max]; nullopt when absent.
  std::optional<std::uint64_t> get_uint(const std::string& key,
                                        std::uint64_t max) const;

  std::map<std::string, std::string> values_;
};

}  // namespace snnmap::util
