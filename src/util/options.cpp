#include "util/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace asyncgt {

options::options(int argc, const char* const* argv,
                 std::initializer_list<std::string_view> flags) {
  const auto is_flag = [&](const std::string& key) {
    return std::find(flags.begin(), flags.end(), key) != flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(std::move(tok));
      continue;
    }
    tok = tok.substr(2);
    if (tok.empty()) throw std::invalid_argument("bare '--' is not an option");
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      values_[tok.substr(0, eq)] = tok.substr(eq + 1);
    } else if (!is_flag(tok) && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[tok] = argv[++i];
    } else {
      values_[tok] = "true";  // boolean flag form
    }
  }
}

bool options::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string options::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::invalid_argument("option --" + key +
                                " expects an integer, got '" + it->second +
                                "'");
  }
  return v;
}

double options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  const double v = std::stod(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::invalid_argument("option --" + key +
                                " expects a number, got '" + it->second + "'");
  }
  return v;
}

bool options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("option --" + key + " expects a boolean, got '" +
                              v + "'");
}

std::vector<std::int64_t> options::get_int_list(
    const std::string& key, const std::vector<std::int64_t>& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::istringstream is(it->second);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    out.push_back(std::stoll(item));
  }
  return out;
}

std::vector<std::string> options::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace asyncgt
