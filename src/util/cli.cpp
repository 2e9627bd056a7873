#include "src/util/cli.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "src/util/contracts.hpp"

namespace upn {

Cli::Cli(int argc, const char* const* argv) {
  if (argc < 1) throw std::invalid_argument{"Cli: empty argv"};
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::invalid_argument{"Cli: expected --name[=value], got '" + token + "'"};
    }
    token.erase(0, 2);
    if (const auto eq = token.find('='); eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) != 0;
}

std::string Cli::get(const std::string& name, std::string fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

std::uint64_t Cli::get_u64(const std::string& name, std::uint64_t fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc::result_out_of_range) {
    throw std::invalid_argument{"Cli: --" + name + " is out of range: '" + text + "'"};
  }
  if (text.empty() || error != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument{"Cli: --" + name + " expects an unsigned integer, got '" +
                                text + "'"};
  }
  return value;
}

std::uint32_t Cli::get_u32(const std::string& name, std::uint32_t fallback) const {
  const std::uint64_t value = get_u64(name, fallback);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"Cli: --" + name + " is out of range: " +
                                std::to_string(value)};
  }
  UPN_ENSURE(value <= std::numeric_limits<std::uint32_t>::max());
  return static_cast<std::uint32_t>(value);
}

double Cli::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::stod(it->second);
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : values_) {
    if (!queried_.count(name)) names.push_back(name);
  }
  return names;
}

}  // namespace upn
