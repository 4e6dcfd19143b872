#ifndef DMRPC_COMMON_UNITS_H_
#define DMRPC_COMMON_UNITS_H_

#include <cstdint>
#include <string>

namespace dmrpc {

/// Virtual simulation time in nanoseconds.
using TimeNs = int64_t;

inline constexpr TimeNs kNanosecond = 1;
inline constexpr TimeNs kMicrosecond = 1000;
inline constexpr TimeNs kMillisecond = 1000 * kMicrosecond;
inline constexpr TimeNs kSecond = 1000 * kMillisecond;

inline constexpr uint64_t KiB(uint64_t n) { return n * 1024; }
inline constexpr uint64_t MiB(uint64_t n) { return n * 1024 * 1024; }
inline constexpr uint64_t GiB(uint64_t n) { return n * 1024 * 1024 * 1024; }

/// Converts gigabits-per-second to bytes-per-nanosecond.
inline constexpr double GbpsToBytesPerNs(double gbps) { return gbps / 8.0; }

/// Nanoseconds needed to move `bytes` at `bytes_per_ns` (ceiling, >= 0).
inline constexpr TimeNs TransferNs(uint64_t bytes, double bytes_per_ns) {
  if (bytes == 0 || bytes_per_ns <= 0.0) return 0;
  double ns = static_cast<double>(bytes) / bytes_per_ns;
  TimeNs t = static_cast<TimeNs>(ns);
  return (static_cast<double>(t) < ns) ? t + 1 : t;
}

/// "1.50 us", "2.30 ms", ... human-readable duration.
std::string FormatDuration(TimeNs ns);

/// "4.0K", "32K", "1.0M" ... human-readable byte size.
std::string FormatBytes(uint64_t bytes);

}  // namespace dmrpc

#endif  // DMRPC_COMMON_UNITS_H_
