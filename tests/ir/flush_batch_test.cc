// Flush() packs only the postings its batch appended: a posting list
// is append-only and its packed blocks decode independently, so
// encoding the new tail onto the previous encoding writes exactly the
// bytes a from-scratch encoding would. Indexing the same documents at
// any flush batch size must therefore give the same segment file.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ir/index.h"
#include "ir/segment.h"

namespace dls::ir {
namespace {

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(FlushBatchTest, SegmentsAreByteIdenticalAtEveryBatchSize) {
  constexpr size_t kDocs = 700;
  Rng rng(20261019);
  ZipfSampler zipf(900, 1.0);
  std::vector<std::string> bodies;
  for (size_t d = 0; d < kDocs; ++d) {
    std::string body;
    for (size_t w = 0, words = 5 + rng.Uniform(60); w < words; ++w) {
      body += StrFormat("term%04zu ", zipf.Sample(&rng));
    }
    // A few runs of one word push tfs past the one-byte escape.
    if (d % 97 == 0) {
      for (int r = 0; r < 300; ++r) body += "flood ";
    }
    bodies.push_back(std::move(body));
  }

  struct Built {
    size_t batch;
    std::vector<uint8_t> bytes;
    size_t resident;
  };
  std::vector<Built> built;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{32}, kDocs + 1}) {
    TextIndex::Options options;
    options.flush_batch = batch;
    TextIndex index(options);
    for (size_t d = 0; d < kDocs; ++d) {
      index.AddDocument(StrFormat("doc%04zu", d), bodies[d]);
    }
    index.Flush();
    const std::string path = testing::TempDir() + "dls_flush_batch_" +
                             std::to_string(batch) + ".seg";
    ASSERT_TRUE(index.FlushToDisk(path).ok()) << batch;
    built.push_back(Built{batch, ReadFile(path), index.bytes_resident()});
    std::remove(path.c_str());
  }

  // The header's mutation_epoch counts flushes, so it — and the header
  // CRC over it — is the one field that legitimately differs: bytes
  // [64, 72) and [80, 84). Everything else, section table and sections
  // included, is byte-identical to the one-fold build.
  const Built& one_fold = built.back();
  ASSERT_GT(one_fold.bytes.size(), kSegmentHeaderBytes);
  for (const Built& b : built) {
    ASSERT_EQ(one_fold.bytes.size(), b.bytes.size()) << "batch " << b.batch;
    for (size_t i = 0; i < b.bytes.size(); ++i) {
      if ((i >= 64 && i < 72) || (i >= 80 && i < 84)) continue;
      ASSERT_EQ(one_fold.bytes[i], b.bytes[i])
          << "batch " << b.batch << " byte " << i;
    }
    // Incremental packing reserves each flush's new postings only, so
    // the heap footprint never exceeds the one-fold build's.
    EXPECT_LE(b.resident, one_fold.resident) << "batch " << b.batch;
  }
}

}  // namespace
}  // namespace dls::ir
