#pragma once

#include <cstdio>
#include <string>
#include <type_traits>

#include "common/types.hpp"

/// \file logging.hpp
/// Tiny leveled logger. Deterministic simulations produce identical logs for
/// identical seeds, which makes `Debug` level genuinely useful for protocol
/// forensics. Logging is globally off by default so tests and benchmarks
/// stay quiet; hot-path call sites pass lambdas so that a disabled level
/// costs one comparison and no string formatting.

namespace fastbft {

enum class LogLevel : int { Off = 0, Error = 1, Info = 2, Debug = 3 };

class Log {
 public:
  static LogLevel level;

  /// Current simulated time for log prefixes; the scheduler keeps it fresh.
  static TimePoint now_hint;

  static void write(LogLevel lvl, const std::string& component,
                    const std::string& msg);
};

namespace detail {
/// A log argument is either text or a callable returning it; the callable
/// runs only after the level check, so a disabled line formats nothing.
template <class T>
decltype(auto) log_text(const T& arg) {
  if constexpr (std::is_invocable_v<const T&>) {
    return arg();
  } else {
    return (arg);
  }
}
}  // namespace detail

template <class Component, class Message>
void log_at(LogLevel lvl, const Component& component, const Message& msg) {
  if (Log::level >= lvl) {
    Log::write(lvl, detail::log_text(component), detail::log_text(msg));
  }
}
template <class Component, class Message>
void log_error(const Component& component, const Message& msg) {
  log_at(LogLevel::Error, component, msg);
}
template <class Component, class Message>
void log_info(const Component& component, const Message& msg) {
  log_at(LogLevel::Info, component, msg);
}
template <class Component, class Message>
void log_debug(const Component& component, const Message& msg) {
  log_at(LogLevel::Debug, component, msg);
}

}  // namespace fastbft
