#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace snnmap::util {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::string strip_comment(const std::string& line) {
  // A '#' starts a comment unless it is inside a quoted string; the subset
  // we accept only quotes whole values, so scanning for an unquoted '#'
  // suffices.
  bool in_quote = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') in_quote = !in_quote;
    if (line[i] == '#' && !in_quote) return line.substr(0, i);
  }
  return line;
}

std::string unquote(const std::string& s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("config: line " + std::to_string(line_no) + ": " +
                           what);
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string raw;
  std::string section;  // current top-level section ("" at root)
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (raw.find('\t') != std::string::npos) {
      fail(line_no, "tabs are not allowed; use spaces");
    }
    const std::string line = strip_comment(raw);
    if (trim(line).empty()) continue;

    const std::size_t indent = line.find_first_not_of(' ');
    if (indent != 0 && indent != 2) {
      fail(line_no, "indentation must be 0 or 2 spaces");
    }
    const std::string body = trim(line);
    const auto colon = body.find(':');
    if (colon == std::string::npos) fail(line_no, "expected 'key: value'");
    const std::string key = trim(body.substr(0, colon));
    const std::string value = trim(body.substr(colon + 1));
    if (key.empty()) fail(line_no, "empty key");

    std::string full_key = key;
    if (indent == 0) {
      if (value.empty()) {
        section = key;  // opens a nested block
        continue;
      }
      section.clear();
    } else {
      if (section.empty()) fail(line_no, "nested key outside a section");
      if (value.empty()) fail(line_no, "nesting deeper than one level");
      full_key = section + "." + key;
    }
    // A repeated key (or a reopened section setting one again) would
    // otherwise silently override the earlier value.
    if (!cfg.values_.emplace(full_key, unquote(value)).second) {
      fail(line_no, "duplicate key '" + full_key + "'");
    }
  }
  return cfg;
}

Config Config::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::get_string(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> Config::get_double(const std::string& key) const {
  const auto s = get_string(key);
  if (!s) return std::nullopt;
  try {
    std::size_t pos = 0;
    const double v = std::stod(*s, &pos);
    if (pos != s->size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("config: key '" + key + "' is not a number: '" +
                             *s + "'");
  }
}

std::optional<std::uint64_t> Config::get_uint(const std::string& key,
                                              std::uint64_t max) const {
  const auto s = get_string(key);
  if (!s) return std::nullopt;
  // from_chars into an unsigned type rejects a sign, blanks and overflow.
  std::uint64_t v = 0;
  const char* first = s->data();
  const char* last = s->data() + s->size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last || v > max) {
    throw std::runtime_error("config: key '" + key +
                             "' is not an integer in [0, " +
                             std::to_string(max) + "]: '" + *s + "'");
  }
  return v;
}

std::optional<bool> Config::get_bool(const std::string& key) const {
  const auto s = get_string(key);
  if (!s) return std::nullopt;
  std::string lower = *s;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") {
    return true;
  }
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0") {
    return false;
  }
  throw std::runtime_error("config: key '" + key + "' is not a bool: '" + *s +
                           "'");
}

double Config::double_or(const std::string& key, double def) const {
  return get_double(key).value_or(def);
}

bool Config::bool_or(const std::string& key, bool def) const {
  return get_bool(key).value_or(def);
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::string Config::dump() const {
  std::ostringstream out;
  for (const auto& [k, v] : values_) out << k << ": " << v << '\n';
  return out.str();
}

}  // namespace snnmap::util
