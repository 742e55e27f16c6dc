#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/engine.h"

/// \file int_flag.h
/// The integer-flag parser shared by saber_cli and saber_server.

namespace saber {

/// Parses the value of integer flag `name` into `*out`: decimal digits only
/// (no sign, no blanks, no overflow of T) and within [lo, hi]. On anything
/// else prints the accepted range to stderr and returns false; both tools
/// then print their usage and exit 2. Unchecked, a value fails later and
/// worse: `--task-size -1` would wrap and spin the dispatcher forever,
/// `--tuples -1` would die on std::length_error, and `--port abc` would
/// listen on an ephemeral port.
template <typename T>
bool ParseIntFlag(const char* name, const char* text, T lo, T hi, T* out) {
  const char* end = text + std::strlen(text);
  T v{};
  const auto [last, ec] = std::from_chars(text, end, v);
  if (*text < '0' || *text > '9' || ec != std::errc() || last != end ||
      v < lo || v > hi) {
    std::fprintf(stderr, "%s must be an integer in [%s, %s]\n", name,
                 std::to_string(lo).c_str(), std::to_string(hi).c_str());
    return false;
  }
  *out = v;
  return true;
}

/// `--task-size`: at least 64 bytes and at most the default
/// `EngineOptions::input_buffer_size`, which the engine requires φ not to
/// exceed.
inline bool ParseTaskSizeFlag(const char* text, size_t* out) {
  return ParseIntFlag("--task-size", text, size_t{64},
                      EngineOptions().input_buffer_size, out);
}

}  // namespace saber
