// Command-line flag parsing shared by lambdastore-server and
// lambdastore-coordinator. Flags are spelled `--name=value`; an unknown
// flag or a malformed value prints "bad flag: <flag>" and exits 2.
#pragma once

#include <stdio.h>
#include <string.h>

#include <charconv>
#include <cstdlib>
#include <string>

namespace lo::flags {

[[noreturn]] inline void BadFlag(const char* arg) {
  fprintf(stderr, "bad flag: %s\n", arg);
  exit(2);
}

/// True if `arg` is `--<name>=...`; stores the text after '=' in `out`.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

/// Stores the whole of `value` as a number (base 10 for integers);
/// anything else (trailing junk, overflow, a sign on an unsigned)
/// rejects `arg`.
template <typename T>
void ParseNumber(const char* arg, const std::string& value, T* out) {
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  if (ec != std::errc() || ptr != end) BadFlag(arg);
}

}  // namespace lo::flags
