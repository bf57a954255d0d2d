#ifndef DLS_COMMON_CHECKSUM_H_
#define DLS_COMMON_CHECKSUM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace dls {

/// Incremental CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib
/// convention). Used by the on-disk segment format (ir/segment.h) to
/// verify every section before any of its bytes are trusted; a
/// mismatch is reported as kCorruption, never acted on.
///
/// Slicing-by-8: eight bytes per step through eight 256-entry tables
/// (table k holds the CRC of a byte followed by k zero bytes), then a
/// byte-at-a-time loop over the tail. The values are those of the
/// byte-at-a-time algorithm for every input and every split of it
/// across Update() calls; the step assembles its words from bytes in
/// little-endian order, so they do not depend on the host's byte
/// order either.
///
/// Not cryptographic: a CRC catches torn writes, truncation and bit
/// rot, not a deliberately crafted file. Structural validation in the
/// segment loader covers the hostile case.
class Crc32 {
 public:
  void Update(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    const Tables& t = GetTables();
    uint32_t crc = state_;
    for (; len >= 8; len -= 8, p += 8) {
      const uint32_t lo = crc ^ Le32(p);
      const uint32_t hi = Le32(p + 4);
      crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
            t[0][hi >> 24];
    }
    for (; len > 0; --len, ++p) {
      crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
    }
    state_ = crc;
  }

  /// The CRC of everything Update()ed so far.
  uint32_t value() const { return state_ ^ 0xffffffffu; }

  void Reset() { state_ = 0xffffffffu; }

  /// One-shot convenience.
  static uint32_t Of(const void* data, size_t len) {
    Crc32 crc;
    crc.Update(data, len);
    return crc.value();
  }

 private:
  using Tables = std::array<std::array<uint32_t, 256>, 8>;

  static uint32_t Le32(const uint8_t* p) {
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
           uint32_t{p[3]} << 24;
  }

  static const Tables& GetTables() {
    static const Tables tables = [] {
      Tables t{};
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
          c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
        }
        t[0][i] = c;
      }
      for (size_t k = 1; k < 8; ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
          const uint32_t prev = t[k - 1][i];
          t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
        }
      }
      return t;
    }();
    return tables;
  }

  uint32_t state_ = 0xffffffffu;
};

}  // namespace dls

#endif  // DLS_COMMON_CHECKSUM_H_
