#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>

#include "core/engine.h"

/// \file task_size_flag.h
/// The `--task-size` flag shared by saber_cli and saber_server.

namespace saber {

/// Parses a `--task-size` value into `*out`: decimal digits only (no sign,
/// no overflow), at least 64 bytes and at most the default
/// `EngineOptions::input_buffer_size`, which the engine requires φ not to
/// exceed. On anything else prints the accepted range to stderr and returns
/// false. An unchecked `-1` would wrap to 2^64 - 1, which the dispatcher
/// reads as a negative φ and loops on forever.
inline bool ParseTaskSizeFlag(const char* text, size_t* out) {
  constexpr size_t kMin = 64;
  const size_t max = EngineOptions().input_buffer_size;
  const char* end = text + std::strlen(text);
  size_t v = 0;
  const auto [last, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || last != end || v < kMin || v > max) {
    std::fprintf(stderr, "--task-size must be an integer in [%zu, %zu]\n",
                 kMin, max);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace saber
