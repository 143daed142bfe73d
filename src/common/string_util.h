#ifndef FREEHGC_COMMON_STRING_UTIL_H_
#define FREEHGC_COMMON_STRING_UTIL_H_

#include <cerrno>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace freehgc {

/// Joins string pieces with a separator ("a", "b" + "-" -> "a-b").
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Splits on a single-character separator; empty pieces are kept.
std::vector<std::string> Split(const std::string& s, char sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a byte count with a binary unit suffix (e.g. "1.5MB").
std::string HumanBytes(size_t bytes);

/// Terminal display width of a UTF-8 string: the number of code points,
/// i.e. bytes that are not continuation bytes. Multi-byte glyphs like "±"
/// count as one column, which is what byte-based padding gets wrong.
/// (Assumes single-column glyphs — true for everything the tables emit.)
size_t DisplayWidth(const std::string& s);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// Strict integer parse for command lines: true when the whole of `s` is
/// a base-10 integer in T's range (atoi would read "abc" as 0). On false
/// `*out` is untouched.
template <typename T>
bool ParseInt(const char* s, T* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || !std::in_range<T>(v)) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// Strict floating-point parse: true when the whole of `s` is a finite
/// number (atof would read "abc" as 0). On false `*out` is untouched.
bool ParseDouble(const char* s, double* out);

}  // namespace freehgc

#endif  // FREEHGC_COMMON_STRING_UTIL_H_
