// The text layer under the hMETIS and partition formats: a line reader and
// a field reader over an in-memory text, numbers read with std::from_chars
// and written with std::to_chars. No iostreams and no copy of the input.
//
// Field reads keep the rules of `istream >>`, which these formats were read
// with before, so a reader built on them accepts the same inputs and fails
// on the same lines:
//  * whitespace is ' ', '\t', '\n', '\v', '\f' and '\r';
//  * a number is read greedily and ends at the first character that cannot
//    extend it: `3x` reads 3 and leaves `x` to the next read, and the
//    caller decides whether what is left is junk;
//  * one leading '+' is accepted;
//  * a real is decimal: `inf`, `nan`, hex floats and values that overflow
//    to infinity do not read, and underflow rounds as strtod rounds it.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

namespace htp::text {

inline bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Splits a text into lines as std::getline does: '\n' ends a line and is
/// not part of it, and a last line without one still counts. Copying the
/// reader saves its position; assigning the copy back rewinds to it.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Reads the next line into `line`; false at the end of the text.
  bool Next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
    line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++line_no_;
    return true;
  }

  /// Lines read so far, so the 1-based number of the last one read.
  std::size_t line_no() const { return line_no_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

/// Reads whitespace-separated fields from one line. A failed read consumes
/// nothing.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// True when only whitespace is left.
  bool AtEnd() {
    SkipSpace();
    return p_ == end_;
  }

  /// The next run of non-whitespace characters.
  bool Word(std::string_view& out) {
    SkipSpace();
    const char* start = p_;
    while (p_ != end_ && !IsSpace(*p_)) ++p_;
    out = std::string_view(start, static_cast<std::size_t>(p_ - start));
    return p_ != start;
  }

  /// A decimal integer; fails on overflow.
  bool Int(long long& out) {
    SkipSpace();
    const auto [ptr, ec] = std::from_chars(SkipPlus(), end_, out);
    if (ec != std::errc()) return false;
    p_ = ptr;
    return true;
  }

  /// A decimal real (see the file comment).
  bool Real(double& out) {
    SkipSpace();
    const char* first = SkipPlus();
    const char* mantissa = first != end_ && *first == '-' ? first + 1 : first;
    if (mantissa == end_ || !(IsDigit(*mantissa) || *mantissa == '.'))
      return false;  // from_chars would read inf and nan
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, end_, value);
    if (ec == std::errc::invalid_argument) return false;
    if (ec == std::errc::result_out_of_range) {
      value = std::strtod(std::string(first, ptr).c_str(), nullptr);
      if (std::isinf(value)) return false;
    }
    out = value;
    p_ = ptr;
    return true;
  }

 private:
  void SkipSpace() {
    while (p_ != end_ && IsSpace(*p_)) ++p_;
  }
  // from_chars takes '-' but not '+'.
  const char* SkipPlus() const {
    const bool plus = p_ != end_ && *p_ == '+' && p_ + 1 != end_ &&
                      (IsDigit(p_[1]) || p_[1] == '.');
    return plus ? p_ + 1 : p_;
  }

  const char* p_;
  const char* end_;
};

/// The number of decimal digits of `value`.
inline std::size_t DecimalDigits(std::uint64_t value) {
  std::size_t digits = 1;
  for (; value >= 10; value /= 10) ++digits;
  return digits;
}

/// Appends the decimal rendering of an integer.
template <typename Int>
void AppendInt(std::string& out, Int value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, ptr);
}

}  // namespace htp::text
