#include "common/args.hpp"

#include "common/check.hpp"
#include "common/textio.hpp"

namespace anadex {

namespace {

/// `parse(text)`, with a rejection message that names option `key`.
template <typename Parse>
auto parse_option(const std::string& key, const std::string& text, Parse parse) {
  try {
    return parse(text);
  } catch (const PreconditionError& error) {
    throw PreconditionError("option '--" + key + "': " + error.what());
  }
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      ANADEX_REQUIRE(!key.empty(), "empty option name '--'");
      ANADEX_REQUIRE(options_.find(key) == options_.end(),
                     "option '--" + key + "' given more than once");
      std::string value;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      options_[key] = value;
      touched_[key] = false;
    } else {
      positionals_.push_back(token);
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return false;
  touched_[key] = true;
  return true;
}

const std::string* ArgParser::value_of(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return nullptr;
  touched_[key] = true;
  ANADEX_REQUIRE(!it->second.empty(), "option '--" + key + "' needs a value");
  return &it->second;
}

std::string ArgParser::get(const std::string& key, const std::string& fallback) const {
  const std::string* text = value_of(key);
  return text != nullptr ? *text : fallback;
}

std::uint64_t ArgParser::get_count(const std::string& key, std::uint64_t fallback) const {
  const std::string* text = value_of(key);
  return text != nullptr ? parse_option(key, *text, textio::parse_u64) : fallback;
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const std::string* text = value_of(key);
  return text != nullptr ? parse_option(key, *text, textio::parse_double) : fallback;
}

bool ArgParser::get_flag(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return false;
  touched_[key] = true;
  ANADEX_REQUIRE(it->second.empty(),
                 "option '--" + key + "' is a flag and takes no value");
  return true;
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> result;
  for (const auto& [key, value] : options_) {
    if (!touched_[key]) result.push_back(key);
  }
  return result;
}

}  // namespace anadex
