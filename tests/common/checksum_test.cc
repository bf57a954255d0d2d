#include "common/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace dls {
namespace {

/// The textbook byte-at-a-time CRC-32 (reflected, polynomial
/// 0xEDB88320, bit by bit): the reference the sliced Crc32 must equal.
uint32_t ReferenceCrc(const uint8_t* p, size_t len) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32Test, CheckValue) {
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32::Of(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32::Of(kCheck, 0), 0u);
}

TEST(Crc32Test, MatchesByteReferenceAtEveryLengthOffsetAndSplit) {
  Rng rng(20011);
  std::vector<uint8_t> buffer(64 + 16);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next());
  for (size_t len = 0; len <= 64; ++len) {
    for (int trial = 0; trial < 8; ++trial) {
      // A random start offset, so the 8-byte steps see every alignment.
      const uint8_t* data = buffer.data() + rng.Uniform(16);
      const uint32_t want = ReferenceCrc(data, len);
      ASSERT_EQ(Crc32::Of(data, len), want) << "len " << len;

      // The same bytes fed through a random split into up to 4 Updates.
      Crc32 crc;
      size_t done = 0;
      for (int piece = 0; piece < 3 && done < len; ++piece) {
        const size_t take = rng.Uniform(len - done + 1);
        crc.Update(data + done, take);
        done += take;
      }
      crc.Update(data + done, len - done);
      ASSERT_EQ(crc.value(), want) << "len " << len << " split";
    }
  }
}

TEST(Crc32Test, ResetStartsOver) {
  const uint8_t bytes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  Crc32 crc;
  crc.Update(bytes, sizeof(bytes));
  crc.Reset();
  crc.Update(bytes, 5);
  EXPECT_EQ(crc.value(), ReferenceCrc(bytes, 5));
}

}  // namespace
}  // namespace dls
