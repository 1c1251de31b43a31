#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lo::crc32c {
namespace {

// Table-driven CRC32C, polynomial 0x1EDC6F41 (reflected: 0x82F63B78).
constexpr uint32_t kPoly = 0x82F63B78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; bit++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same CRC32C, 8 bytes a step.
// Words are loaded with memcpy: `data` has no alignment guarantee.
__attribute__((target("sse4.2")))
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; i < n; i++) crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(data[i]));
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn SelectExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return ExtendHardware;
#endif
  return ExtendTable;
}

// Chosen once, from the CPU, on first use.
ExtendFn SelectedExtend() {
  static const ExtendFn extend = SelectExtend();
  return extend;
}

}  // namespace

uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ static_cast<uint8_t>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return SelectedExtend()(init_crc, data, n);
}

bool UsesHardware() { return SelectedExtend() != ExtendTable; }

}  // namespace lo::crc32c
