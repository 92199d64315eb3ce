#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace dqm {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      return out;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitWhitespace(std::string_view input) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < input.size()) {
    while (i < input.size() &&
           std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < input.size() &&
           !std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(input.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view input) {
  std::string out(input);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

bool IsDigits(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

Result<uint64_t> ParseU64(std::string_view text, std::string_view what) {
  uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(StrFormat(
        "%.*s: '%.*s' is not an unsigned integer",
        static_cast<int>(what.size()), what.data(),
        static_cast<int>(text.size()), text.data()));
  }
  return value;
}

}  // namespace dqm
