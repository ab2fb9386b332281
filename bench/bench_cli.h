// Strict argv parsing shared by the bench harnesses that write BENCH_*.json:
// a typo or an unknown flag must stop the run before it overwrites a
// committed result file with numbers from the wrong workload.

#ifndef PSK_BENCH_BENCH_CLI_H_
#define PSK_BENCH_BENCH_CLI_H_

#include <charconv>
#include <cstddef>
#include <string_view>

namespace psk {

/// Exit status for a rejected command line (nothing was run or written).
constexpr int kUsageExit = 2;

/// Parses a positive decimal count ("4000"); rejects empty text, signs,
/// trailing characters, overflow and zero.
inline bool ParseCount(std::string_view text, size_t* out) {
  size_t value = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || end != text.data() + text.size() || value == 0) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace psk

#endif  // PSK_BENCH_BENCH_CLI_H_
