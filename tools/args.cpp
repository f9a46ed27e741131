#include "args.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <stdexcept>

namespace she::tools {

ArgMap ArgMap::parse(const std::vector<std::string>& tokens) {
  ArgMap args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected positional argument '" + tok + "'");
    std::string flag = tok.substr(2);
    if (flag.empty()) throw std::invalid_argument("empty flag '--'");
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      args.values_[flag] = tokens[++i];
    } else {
      args.values_[flag] = "";  // boolean flag
    }
    args.used_[flag] = false;
  }
  return args;
}

bool ArgMap::has(const std::string& flag) const {
  auto it = values_.find(flag);
  if (it == values_.end()) return false;
  used_[flag] = true;
  return true;
}

std::string ArgMap::get(const std::string& flag, const std::string& fallback) const {
  auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  used_[flag] = true;
  return it->second;
}

std::string ArgMap::require(const std::string& flag) const {
  auto it = values_.find(flag);
  if (it == values_.end())
    throw std::invalid_argument("missing required flag --" + flag);
  used_[flag] = true;
  return it->second;
}

std::uint64_t ArgMap::get_u64(const std::string& flag, std::uint64_t fallback) const {
  auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  used_[flag] = true;
  return parse_size(it->second);
}

double ArgMap::get_f64(const std::string& flag, double fallback) const {
  auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  used_[flag] = true;
  std::size_t pos = 0;
  double v = std::stod(it->second, &pos);
  if (pos != it->second.size())
    throw std::invalid_argument("malformed number for --" + flag + ": '" +
                                it->second + "'");
  return v;
}

std::vector<std::string> ArgMap::unused() const {
  std::vector<std::string> out;
  for (const auto& [flag, was_used] : used_)
    if (!was_used) out.push_back(flag);
  return out;
}

std::uint64_t ArgMap::parse_size(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("empty size value");
  if (!std::isdigit(static_cast<unsigned char>(text[0])))
    throw std::invalid_argument("malformed size '" + text + "'");
  std::size_t pos = 0;
  unsigned long long base = 0;
  try {
    base = std::stoull(text, &pos);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("size '" + text + "' overflows 64 bits");
  }
  std::string suffix = text.substr(pos);
  std::transform(suffix.begin(), suffix.end(), suffix.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  std::uint64_t mult = 1;
  if (suffix == "" ) {
    mult = 1;
  } else if (suffix == "K" || suffix == "KB") {
    mult = 1024;
  } else if (suffix == "M" || suffix == "MB") {
    mult = 1024 * 1024;
  } else if (suffix == "G" || suffix == "GB") {
    mult = 1024ull * 1024 * 1024;
  } else {
    throw std::invalid_argument("unknown size suffix '" + suffix + "'");
  }
  if (base > std::numeric_limits<std::uint64_t>::max() / mult)
    throw std::invalid_argument("size '" + text + "' overflows 64 bits");
  return base * mult;
}

}  // namespace she::tools
