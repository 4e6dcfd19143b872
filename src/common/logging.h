#ifndef DMRPC_COMMON_LOGGING_H_
#define DMRPC_COMMON_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

namespace dmrpc {

/// Log severities in increasing order of importance.
enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarning = 3,
  kError = 4,
  kFatal = 5,
};

/// Process-wide minimum severity; messages below it are dropped.
/// Defaults to kInfo.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {

/// Stream-style log line builder; emits on destruction. kFatal aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Discards all streamed input; used when a level is compiled/filtered out.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

#define DMRPC_LOG_ENABLED(level) \
  (static_cast<int>(level) >= static_cast<int>(::dmrpc::GetLogLevel()))

#define DMRPC_LOG(level)                                                  \
  if (!DMRPC_LOG_ENABLED(::dmrpc::LogLevel::level)) {                     \
  } else                                                                  \
    ::dmrpc::internal::LogMessage(::dmrpc::LogLevel::level, __FILE__,     \
                                  __LINE__)                               \
        .stream()

#define LOG_TRACE DMRPC_LOG(kTrace)
#define LOG_DEBUG DMRPC_LOG(kDebug)
#define LOG_INFO DMRPC_LOG(kInfo)
#define LOG_WARN DMRPC_LOG(kWarning)
#define LOG_ERROR DMRPC_LOG(kError)
#define LOG_FATAL                                                      \
  ::dmrpc::internal::LogMessage(::dmrpc::LogLevel::kFatal, __FILE__,   \
                                __LINE__)                              \
      .stream()

/// Invariant check that is always on (simulation correctness depends on it).
#define DMRPC_CHECK(cond)                                        \
  if (cond) {                                                    \
  } else                                                         \
    LOG_FATAL << "check failed: " #cond << " "

#define DMRPC_CHECK_EQ(a, b) DMRPC_CHECK((a) == (b))
#define DMRPC_CHECK_NE(a, b) DMRPC_CHECK((a) != (b))
#define DMRPC_CHECK_LT(a, b) DMRPC_CHECK((a) < (b))
#define DMRPC_CHECK_LE(a, b) DMRPC_CHECK((a) <= (b))
#define DMRPC_CHECK_GT(a, b) DMRPC_CHECK((a) > (b))
#define DMRPC_CHECK_GE(a, b) DMRPC_CHECK((a) >= (b))

}  // namespace dmrpc

#endif  // DMRPC_COMMON_LOGGING_H_
