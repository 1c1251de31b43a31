// CRC32C (Castagnoli). Used to protect WAL records, SSTable blocks and
// manifest entries against torn writes and bit rot, with the LevelDB-style
// mask for checksums stored alongside the data they cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lo::crc32c {

/// CRC of data, seeded with `init_crc` (pass 0 for a fresh CRC). Uses the
/// CPU's crc32 instruction where it has one (SSE4.2 on x86-64) and the
/// table loop otherwise; both give identical values.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The byte-at-a-time table loop: Extend's path on CPUs without the
/// instruction, and the reference the hardware path is tested against.
uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n);

/// True when Extend runs on the crc32 instruction.
bool UsesHardware();

inline uint32_t Value(std::string_view data) {
  return Extend(0, data.data(), data.size());
}

// A stored CRC must not checksum bytes that themselves contain that CRC;
// masking makes embedded CRCs safe (same constant as LevelDB).
constexpr uint32_t kMaskDelta = 0xa282ead8u;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace lo::crc32c
