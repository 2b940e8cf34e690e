#include "common/textio.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <sstream>

#include "common/check.hpp"

namespace anadex::textio {

std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

double parse_double(const std::string& token) {
  ANADEX_REQUIRE(!token.empty(), "empty token where a number was expected");
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  ANADEX_REQUIRE(end == token.c_str() + token.size(),
                 "'" + token + "' is not a valid floating-point value");
  return value;
}

std::uint64_t parse_u64(const std::string& token) {
  ANADEX_REQUIRE(!token.empty() && token.front() >= '0' && token.front() <= '9',
                 "'" + token + "' is not a valid non-negative integer");
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(token.c_str(), &end, 10);
  ANADEX_REQUIRE(end == token.c_str() + token.size(),
                 "'" + token + "' is not a valid non-negative integer");
  ANADEX_REQUIRE(errno != ERANGE, "'" + token + "' does not fit in 64 bits");
  return value;
}

std::string LineReader::line(const char* what) {
  if (has_buffered_) {
    has_buffered_ = false;
    return std::move(buffered_);
  }
  std::string text;
  while (std::getline(is_, text)) {
    if (!text.empty()) return text;
  }
  ANADEX_REQUIRE(false, std::string("truncated input: expected ") + what);
  return {};
}

std::vector<std::string> LineReader::tokens(const char* what) {
  std::istringstream ls(line(what));
  std::vector<std::string> parts;
  std::string token;
  while (ls >> token) parts.push_back(std::move(token));
  ANADEX_REQUIRE(!parts.empty(), std::string("blank line where ") + what + " was expected");
  return parts;
}

std::vector<std::string> LineReader::record(const char* keyword, std::size_t min_values) {
  auto parts = tokens(keyword);
  ANADEX_REQUIRE(parts.front() == keyword,
                 "expected '" + std::string(keyword) + "', found '" + parts.front() + "'");
  ANADEX_REQUIRE(parts.size() >= min_values + 1,
                 "'" + std::string(keyword) + "' record is missing values");
  return parts;
}

bool LineReader::at_end() {
  if (has_buffered_) return false;
  while (std::getline(is_, buffered_)) {
    if (!buffered_.empty()) {
      has_buffered_ = true;
      return false;
    }
  }
  return true;
}

}  // namespace anadex::textio
