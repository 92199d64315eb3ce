#ifndef DQM_COMMON_STRING_UTIL_H_
#define DQM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dqm {

/// Splits `input` on `delimiter`, keeping empty fields ("a,,b" -> 3 fields).
std::vector<std::string> Split(std::string_view input, char delimiter);

/// Splits on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view input);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view input);

/// ASCII upper-casing (locale independent).
std::string ToUpper(std::string_view input);

/// True iff `text` starts with / ends with `affix`.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/// True iff every character of `text` is an ASCII digit (and non-empty).
bool IsDigits(std::string_view text);

/// Parses a non-empty run of ASCII decimal digits (no sign, no whitespace)
/// that fits in 64 bits. InvalidArgument names `what` and echoes `text`;
/// digits too large for 64 bits read "... overflows uint64".
Result<uint64_t> ParseU64(std::string_view text, std::string_view what);

}  // namespace dqm

#endif  // DQM_COMMON_STRING_UTIL_H_
