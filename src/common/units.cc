#include "common/units.h"

#include <cstdio>

namespace dmrpc {

std::string FormatDuration(TimeNs ns) {
  char buf[64];
  if (ns < kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%lld ns", static_cast<long long>(ns));
  } else if (ns < kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.2f us",
                  static_cast<double>(ns) / kMicrosecond);
  } else if (ns < kSecond) {
    std::snprintf(buf, sizeof(buf), "%.2f ms",
                  static_cast<double>(ns) / kMillisecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s",
                  static_cast<double>(ns) / kSecond);
  }
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < MiB(1)) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(bytes) / 1024);
  } else if (bytes < GiB(1)) {
    std::snprintf(buf, sizeof(buf), "%.1fM",
                  static_cast<double>(bytes) / MiB(1));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fG",
                  static_cast<double>(bytes) / GiB(1));
  }
  return buf;
}

}  // namespace dmrpc
