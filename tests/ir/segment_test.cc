// Persistence contract of the on-disk segment format (ir/segment.h):
// a loaded, mmap-served index must rank bit-identically to the heap
// index it was flushed from and to a from-scratch rebuild — across
// scalar/block/packed kernels, pruned and exhaustive, at every level
// (TextIndex, FragmentedIndex, ClusterIndex) — and hostile files
// (truncated at any byte, bit-flipped, crafted offsets) must be
// rejected with kCorruption/kUnsupported, never UB. The Segment*
// suite runs under TSan and ASan+UBSan via ci/check.sh, including the
// DLS_KERNEL=packed reruns.
#include "ir/segment.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"

namespace dls::ir {
namespace {

TextIndex::Options RawOptions() {
  TextIndex::Options options;
  options.stem = false;
  options.stop = false;
  return options;
}

void BuildCorpus(TextIndex* index, int docs, int words_per_doc, size_t vocab,
                 uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(vocab, 1.1);
  for (int d = 0; d < docs; ++d) {
    std::string body;
    for (int w = 0; w < words_per_doc; ++w) {
      body += StrFormat("term%04zu ", zipf.Sample(&rng));
    }
    index->AddDocument(StrFormat("doc%05d", d), body);
  }
  index->Flush();
}

std::vector<std::vector<std::string>> SeededQueries(int count, int words,
                                                    size_t vocab,
                                                    uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(vocab, 1.1);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < count; ++q) {
    std::vector<std::string> query;
    for (int w = 0; w < words; ++w) {
      query.push_back(StrFormat("term%04zu", zipf.Sample(&rng)));
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

void ExpectBitIdentical(const std::vector<ScoredDoc>& a,
                        const std::vector<ScoredDoc>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << what << " rank " << i;
    // Bit-identical, not approximately equal: that is the contract.
    EXPECT_EQ(a[i].score, b[i].score) << what << " rank " << i;
  }
}

std::string TempPath(const std::string& name) {
  // Per-process uniqueness: two concurrent runs of this suite (e.g. a
  // sanitizer build alongside a release build) must not truncate a
  // file the other still has mmapped — that is a SIGBUS, not a fail.
  return testing::TempDir() + "dls_segment_test_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

uint64_t GetU64At(const std::vector<uint8_t>& b, size_t off) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | b[off + static_cast<size_t>(i)];
  return v;
}

void PutU32At(std::vector<uint8_t>* b, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) (*b)[off + static_cast<size_t>(i)] =
      static_cast<uint8_t>(v >> (8 * i));
}

void PutU64At(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*b)[off + static_cast<size_t>(i)] =
      static_cast<uint8_t>(v >> (8 * i));
}

/// Rewrites every section CRC, the table CRC and the header CRC so a
/// deliberate patch elsewhere in the file survives checksum
/// verification — the way a *crafted* (not merely corrupted) file
/// would look. Tests use this to prove the structural validation
/// behind the checksums holds on its own.
void RecomputeCrcs(std::vector<uint8_t>* bytes) {
  ASSERT_GE(bytes->size(), kSegmentHeaderBytes +
                               kSegmentSectionCount * kSegmentSectionEntryBytes);
  for (size_t s = 0; s < kSegmentSectionCount; ++s) {
    const size_t entry = kSegmentHeaderBytes + s * kSegmentSectionEntryBytes;
    const uint64_t offset = GetU64At(*bytes, entry);
    const uint64_t length = GetU64At(*bytes, entry + 8);
    ASSERT_LE(offset + length, bytes->size());
    PutU32At(bytes, entry + 16, Crc32::Of(bytes->data() + offset, length));
  }
  PutU32At(bytes, 76,
           Crc32::Of(bytes->data() + kSegmentHeaderBytes,
                     kSegmentSectionCount * kSegmentSectionEntryBytes));
  PutU32At(bytes, 80, Crc32::Of(bytes->data(), 80));
}

/// Appends `tail` to section `s` of a segment image, moving every later
/// section by whole 8-byte words so each stays aligned. Section lengths
/// change, so callers RecomputeCrcs() afterwards.
void AppendToSection(std::vector<uint8_t>* b, size_t s,
                     const std::vector<uint8_t>& tail) {
  const size_t entry = kSegmentHeaderBytes + s * kSegmentSectionEntryBytes;
  const uint64_t end = GetU64At(*b, entry) + GetU64At(*b, entry + 8);
  const uint64_t padded = (end + 7) & ~uint64_t{7};
  const uint64_t grown = (end + tail.size() + 7) & ~uint64_t{7};
  b->insert(b->begin() + static_cast<ptrdiff_t>(padded), grown - padded, 0);
  std::copy(tail.begin(), tail.end(), b->begin() + static_cast<ptrdiff_t>(end));
  PutU64At(b, entry + 8, GetU64At(*b, entry + 8) + tail.size());
  for (size_t t = 0; t < kSegmentSectionCount; ++t) {
    const size_t other = kSegmentHeaderBytes + t * kSegmentSectionEntryBytes;
    if (t != s && GetU64At(*b, other) >= padded) {
      PutU64At(b, other, GetU64At(*b, other) + (grown - padded));
    }
  }
}

/// File offsets of every entry of a varint(len)+bytes section (D or T),
/// read with a decoder of the test's own.
std::vector<size_t> EntryStarts(const std::vector<uint8_t>& b, size_t s) {
  const size_t entry = kSegmentHeaderBytes + s * kSegmentSectionEntryBytes;
  const size_t begin = GetU64At(b, entry);
  const size_t end = begin + GetU64At(b, entry + 8);
  std::vector<size_t> starts;
  for (size_t p = begin; p < end;) {
    starts.push_back(p);
    size_t len = 0;
    for (int shift = 0;; shift += 7) {
      const uint8_t byte = b[p++];
      len |= static_cast<size_t>(byte & 0x7fu) << shift;
      if ((byte & 0x80u) == 0) break;
    }
    p += len;
  }
  return starts;
}

StatusCode LoadCode(const std::string& path, bool verify = true) {
  SegmentLoadOptions options;
  options.verify = verify;
  Result<std::unique_ptr<TextIndex>> loaded =
      TextIndex::LoadFromSegment(path, options);
  return loaded.ok() ? StatusCode::kOk : loaded.status().code();
}

// ---- round-trip bit-identity ---------------------------------------

TEST(SegmentTest, RoundTripBitIdenticalAcrossKernelsAndPruning) {
  const std::string path = TempPath("roundtrip.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 700, 40, 300, 11);
  ASSERT_TRUE(built.FlushToDisk(path).ok());

  // From-scratch rebuild of the same corpus: the third leg of the
  // bit-identity triangle.
  TextIndex rebuilt(RawOptions());
  BuildCorpus(&rebuilt, 700, 40, 300, 11);

  Result<std::unique_ptr<TextIndex>> loaded_or = TextIndex::LoadFromSegment(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const TextIndex& loaded = *loaded_or.value();

  EXPECT_TRUE(loaded.loaded_from_segment());
  EXPECT_EQ(loaded.vocabulary_size(), built.vocabulary_size());
  EXPECT_EQ(loaded.document_count(), built.document_count());
  EXPECT_EQ(loaded.flushed_document_count(), built.flushed_document_count());
  EXPECT_EQ(loaded.collection_length(), built.collection_length());
  EXPECT_EQ(loaded.max_inv_doc_length(), built.max_inv_doc_length());
  EXPECT_EQ(loaded.mutation_epoch(), built.mutation_epoch());
  EXPECT_EQ(loaded.options().stem, false);
  EXPECT_EQ(loaded.options().stop, false);
  for (DocId d = 0; d < 700; d += 97) {
    EXPECT_EQ(loaded.url(d), built.url(d));
    EXPECT_EQ(loaded.doc_length(d), built.doc_length(d));
  }
  for (TermId t = 0; t < loaded.vocabulary_size(); t += 13) {
    EXPECT_EQ(loaded.term(t), built.term(t));
    EXPECT_EQ(loaded.df(t), built.df(t));
    EXPECT_EQ(loaded.postings(t).size(), built.postings(t).size());
  }

  for (const auto& query : SeededQueries(25, 3, 300, 12)) {
    for (ScoreKernel kernel :
         {ScoreKernel::kScalar, ScoreKernel::kBlock, ScoreKernel::kPacked}) {
      for (bool prune : {false, true}) {
        RankOptions options;
        options.kernel = kernel;
        options.prune = prune;
        const std::string what =
            StrFormat("query '%s' kernel %d prune %d", query[0].c_str(),
                      static_cast<int>(kernel), prune);
        std::vector<ScoredDoc> from_heap = built.RankTopN(query, 10, options);
        ExpectBitIdentical(loaded.RankTopN(query, 10, options), from_heap,
                           "mmap vs heap " + what);
        ExpectBitIdentical(rebuilt.RankTopN(query, 10, options), from_heap,
                           "rebuild vs heap " + what);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, FragmentedIndexOverLoadedSegmentMatchesHeap) {
  const std::string path = TempPath("fragments.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 400, 50, 250, 21);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  Result<std::unique_ptr<TextIndex>> loaded = TextIndex::LoadFromSegment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  FragmentedIndex heap_fragments(&built, 4);
  FragmentedIndex mmap_fragments(loaded.value().get(), 4);
  for (const auto& query : SeededQueries(15, 3, 250, 22)) {
    for (size_t cut = 1; cut <= 4; ++cut) {
      for (bool prune : {false, true}) {
        RankOptions options;
        options.prune = prune;
        ExpectBitIdentical(
            mmap_fragments.RankTopN(query, 10, cut, nullptr, options),
            heap_fragments.RankTopN(query, 10, cut, nullptr, options),
            StrFormat("cut %zu prune %d", cut, prune));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, ClusterRoundTripMatchesInProcessCluster) {
  const std::string prefix = TempPath("cluster");
  ClusterIndex built(3, 4, RawOptions());
  {
    Rng rng(31);
    ZipfSampler zipf(300, 1.1);
    for (int d = 0; d < 360; ++d) {
      std::string body;
      for (int w = 0; w < 40; ++w) {
        body += StrFormat("term%04zu ", zipf.Sample(&rng));
      }
      built.AddDocument(StrFormat("doc%05d", d), body);
    }
    built.Finalize();
  }
  ASSERT_TRUE(built.FlushToDisk(prefix).ok());

  std::vector<std::string> paths;
  for (size_t i = 0; i < 3; ++i) {
    paths.push_back(ClusterIndex::SegmentPath(prefix, i));
  }
  Result<std::unique_ptr<ClusterIndex>> loaded_or =
      ClusterIndex::LoadFromSegments(paths, 4);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  ClusterIndex& loaded = *loaded_or.value();
  EXPECT_EQ(loaded.document_count(), built.document_count());
  EXPECT_EQ(loaded.mutation_epoch(), built.mutation_epoch());
  EXPECT_EQ(loaded.global_collection_length(),
            built.global_collection_length());

  for (const auto& query : SeededQueries(15, 3, 300, 32)) {
    for (size_t cut : {size_t{2}, size_t{4}}) {
      for (bool prune : {false, true}) {
        RankOptions options;
        options.prune = prune;
        std::vector<ClusterScoredDoc> want =
            built.Query(query, 10, cut, nullptr, options);
        std::vector<ClusterScoredDoc> got =
            loaded.Query(query, 10, cut, nullptr, options);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].url, want[i].url) << "rank " << i;
          EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
        }
      }
    }
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

// Run under TSan by ci/check.sh: concurrent queries against one
// mmap-served cluster, with the shared-θ pruning protocol on — the
// borrowed views must be as data-race-free as the heap they replace.
TEST(SegmentTest, ConcurrentQueriesOnLoadedClusterStayExact) {
  const std::string prefix = TempPath("parallel");
  ClusterIndex built(4, 2, RawOptions());
  {
    Rng rng(41);
    ZipfSampler zipf(200, 1.1);
    for (int d = 0; d < 240; ++d) {
      std::string body;
      for (int w = 0; w < 30; ++w) {
        body += StrFormat("term%04zu ", zipf.Sample(&rng));
      }
      built.AddDocument(StrFormat("doc%05d", d), body);
    }
    built.Finalize();
  }
  ASSERT_TRUE(built.FlushToDisk(prefix).ok());
  std::vector<std::string> paths;
  for (size_t i = 0; i < 4; ++i) {
    paths.push_back(ClusterIndex::SegmentPath(prefix, i));
  }
  Result<std::unique_ptr<ClusterIndex>> loaded_or =
      ClusterIndex::LoadFromSegments(paths, 2);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  ClusterIndex& loaded = *loaded_or.value();
  loaded.EnableParallelism(3);

  RankOptions options;
  options.prune = true;
  options.shared_threshold = true;
  for (const auto& query : SeededQueries(10, 3, 200, 42)) {
    std::vector<ClusterScoredDoc> want =
        built.Query(query, 10, 2, nullptr, options);
    std::vector<ClusterScoredDoc> got =
        loaded.Query(query, 10, 2, nullptr, options);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].url, want[i].url) << "rank " << i;
      EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
    }
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

TEST(SegmentTest, EmptyIndexRoundTrips) {
  const std::string path = TempPath("empty.seg");
  TextIndex empty;
  empty.Flush();
  ASSERT_TRUE(empty.FlushToDisk(path).ok());
  Result<std::unique_ptr<TextIndex>> loaded = TextIndex::LoadFromSegment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->document_count(), 0u);
  EXPECT_EQ(loaded.value()->vocabulary_size(), 0u);
  EXPECT_TRUE(loaded.value()->RankTopN({"anything"}, 10).empty());
  std::remove(path.c_str());
}

TEST(SegmentTest, ResavingLoadedIndexIsByteIdentical) {
  const std::string path = TempPath("resave1.seg");
  const std::string path2 = TempPath("resave2.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 120, 30, 150, 51);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  Result<std::unique_ptr<TextIndex>> loaded = TextIndex::LoadFromSegment(path);
  ASSERT_TRUE(loaded.ok());
  // The loaded index writes through its borrowed views; the bytes it
  // serialises must be the bytes it serves.
  ASSERT_TRUE(loaded.value()->FlushToDisk(path2).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(SegmentTest, ReleasedHeapIndexFlushesIdentically) {
  const std::string path = TempPath("released1.seg");
  const std::string path2 = TempPath("released2.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 120, 30, 150, 61);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  built.ReleaseUnpackedPostings();
  ASSERT_TRUE(built.FlushToDisk(path2).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(SegmentTest, BytesAccountingSplitsHeapFromMapping) {
  const std::string path = TempPath("accounting.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 300, 40, 200, 71);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  EXPECT_GT(built.bytes_resident(), 0u);
  EXPECT_EQ(built.bytes_mapped(), 0u);

  Result<std::unique_ptr<TextIndex>> loaded = TextIndex::LoadFromSegment(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->bytes_mapped(), ReadFileBytes(path).size());
  // The mmap-served index holds only per-term objects, df and the D/T
  // offsets and stem table on the heap — a fraction of the full
  // SoA-plus-sidecar heap build.
  EXPECT_LT(loaded.value()->bytes_resident(), built.bytes_resident() / 2);
  std::remove(path.c_str());
}

TEST(SegmentTest, LoadedHeapDoesNotGrowWithUrlLength) {
  // Identical postings under 20-byte and 200-byte URLs: a loaded index
  // serves the URL bytes from the mapping and keeps 4 bytes per
  // document on the heap either way; a heap-built one owns them.
  constexpr int kDocs = 300;
  constexpr int kShort = 20, kLong = 200;
  auto build = [](TextIndex* index, int url_bytes) {
    Rng rng(161);
    ZipfSampler zipf(200, 1.1);
    for (int d = 0; d < kDocs; ++d) {
      std::string body;
      for (int w = 0; w < 40; ++w) {
        body += StrFormat("term%04zu ", zipf.Sample(&rng));
      }
      index->AddDocument(StrFormat("doc%0*d", url_bytes - 3, d), body);
    }
    index->Flush();
  };
  TextIndex short_urls(RawOptions()), long_urls(RawOptions());
  build(&short_urls, kShort);
  build(&long_urls, kLong);
  ASSERT_EQ(short_urls.url(7).size(), size_t{kShort});
  ASSERT_EQ(long_urls.url(7).size(), size_t{kLong});
  EXPECT_GE(long_urls.bytes_resident(),
            short_urls.bytes_resident() + kDocs * (kLong - kShort));

  const std::string short_path = TempPath("short_urls.seg");
  const std::string long_path = TempPath("long_urls.seg");
  ASSERT_TRUE(short_urls.FlushToDisk(short_path).ok());
  ASSERT_TRUE(long_urls.FlushToDisk(long_path).ok());
  Result<std::unique_ptr<TextIndex>> short_loaded =
      TextIndex::LoadFromSegment(short_path);
  Result<std::unique_ptr<TextIndex>> long_loaded =
      TextIndex::LoadFromSegment(long_path);
  ASSERT_TRUE(short_loaded.ok()) << short_loaded.status().ToString();
  ASSERT_TRUE(long_loaded.ok()) << long_loaded.status().ToString();
  EXPECT_EQ(short_loaded.value()->bytes_resident(),
            long_loaded.value()->bytes_resident());
  EXPECT_EQ(long_loaded.value()->url(7), long_urls.url(7));
  std::remove(short_path.c_str());
  std::remove(long_path.c_str());
}

TEST(SegmentTest, OverwritingAServedSegmentKeepsItsReaderExact) {
  // A is served off `path` while a different, larger index B is
  // flushed to the same path. Publishing by rename leaves A's mapping
  // on A's bytes, so A answers exactly as before, and a fresh load of
  // `path` serves B.
  const std::string path = TempPath("overwrite.seg");
  TextIndex a(RawOptions());
  BuildCorpus(&a, 300, 30, 200, 151);
  ASSERT_TRUE(a.FlushToDisk(path).ok());
  Result<std::unique_ptr<TextIndex>> served = TextIndex::LoadFromSegment(path);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  TextIndex b(RawOptions());
  BuildCorpus(&b, 500, 40, 250, 152);
  ASSERT_TRUE(b.FlushToDisk(path).ok());

  const TextIndex& reader = *served.value();
  for (DocId d = 0; d < a.document_count(); ++d) {
    ASSERT_EQ(reader.doc_length(d), a.doc_length(d)) << "doc " << d;
    ASSERT_EQ(reader.url(d), a.url(d)) << "doc " << d;
  }
  for (TermId t = 0; t < a.vocabulary_size(); ++t) {
    ASSERT_EQ(reader.term(t), a.term(t)) << "term " << t;
  }
  Result<std::unique_ptr<TextIndex>> fresh = TextIndex::LoadFromSegment(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value()->document_count(), b.document_count());
  for (const auto& query : SeededQueries(20, 3, 250, 153)) {
    for (bool prune : {false, true}) {
      RankOptions options;
      options.prune = prune;
      const std::string what = StrFormat("prune %d", prune);
      ExpectBitIdentical(reader.RankTopN(query, 10, options),
                         a.RankTopN(query, 10, options), "served A " + what);
      ExpectBitIdentical(fresh.value()->RankTopN(query, 10, options),
                         b.RankTopN(query, 10, options), "fresh B " + what);
    }
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, ReadSegmentInfoReportsSectionSizes) {
  const std::string path = TempPath("info.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 200, 40, 150, 81);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  Result<SegmentInfo> info = ReadSegmentInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, kSegmentVersion);
  EXPECT_FALSE(info.value().stem);
  EXPECT_FALSE(info.value().stop);
  EXPECT_EQ(info.value().doc_count, 200u);
  EXPECT_EQ(info.value().vocabulary, built.vocabulary_size());
  EXPECT_EQ(info.value().file_bytes, ReadFileBytes(path).size());
  uint64_t postings = 0;
  for (TermId t = 0; t < built.vocabulary_size(); ++t) {
    postings += built.postings(t).size();
  }
  EXPECT_EQ(info.value().total_postings, postings);
  EXPECT_GT(info.value().postings_bytes(), 0u);
  EXPECT_LT(info.value().postings_bytes(), info.value().file_bytes);
  std::remove(path.c_str());
}

// ---- hostile files -------------------------------------------------

/// Truncation fuzz in the spirit of tests/net/wire_test.cc: every
/// prefix of a real segment file must be rejected with a status error,
/// with and without payload verification (the prefix/bounds checks
/// alone must already catch every truncation).
TEST(SegmentTest, TruncationAtEveryByteIsRejected) {
  const std::string path = TempPath("trunc.seg");
  const std::string cut = TempPath("trunc_cut.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 40, 20, 60, 91);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kSegmentHeaderBytes);

  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(cut,
                   std::vector<uint8_t>(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<ptrdiff_t>(len)));
    for (bool verify : {true, false}) {
      const StatusCode code = LoadCode(cut, verify);
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kUnsupported)
          << "verify " << verify << ", truncated to " << len << " of "
          << bytes.size() << " bytes: " << StatusCodeName(code);
    }
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(SegmentTest, BadMagicAndForeignVersionAreRejected) {
  const std::string path = TempPath("magic.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 40, 20, 60, 101);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  for (size_t i = 0; i < 8; ++i) {
    std::vector<uint8_t> patched = bytes;
    patched[i] ^= 0x5a;
    WriteFileBytes(path, patched);
    EXPECT_EQ(LoadCode(path), StatusCode::kCorruption) << "magic byte " << i;
  }

  // A future version, CRCs made self-consistent: must be refused as
  // unsupported, not misread.
  std::vector<uint8_t> future = bytes;
  PutU32At(&future, 8, kSegmentVersion + 1);
  RecomputeCrcs(&future);
  WriteFileBytes(path, future);
  EXPECT_EQ(LoadCode(path), StatusCode::kUnsupported);
  std::remove(path.c_str());
}

TEST(SegmentTest, BitFlipAnywhereInAnySectionIsRejected) {
  const std::string path = TempPath("bitflip.seg");
  const std::string patched_path = TempPath("bitflip_patched.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 40, 20, 60, 111);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  // One flip in the middle of every non-empty section, plus the header
  // and table themselves.
  std::vector<size_t> targets = {20, kSegmentHeaderBytes + 5};
  for (size_t s = 0; s < kSegmentSectionCount; ++s) {
    const size_t entry = kSegmentHeaderBytes + s * kSegmentSectionEntryBytes;
    const uint64_t offset = GetU64At(bytes, entry);
    const uint64_t length = GetU64At(bytes, entry + 8);
    if (length > 0) targets.push_back(offset + length / 2);
  }
  for (size_t target : targets) {
    std::vector<uint8_t> patched = bytes;
    patched[target] ^= 0x40;
    WriteFileBytes(patched_path, patched);
    EXPECT_EQ(LoadCode(patched_path), StatusCode::kCorruption)
        << "flipped byte " << target;
  }
  std::remove(path.c_str());
  std::remove(patched_path.c_str());
}

TEST(SegmentTest, CraftedSectionTableIsRejected) {
  const std::string path = TempPath("table.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 40, 20, 60, 121);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  const size_t doc_bytes_entry =
      kSegmentHeaderBytes + kSectionDocBytes * kSegmentSectionEntryBytes;

  // Offset pushed past EOF, CRCs self-consistent → bounds check.
  {
    std::vector<uint8_t> patched = bytes;
    PutU64At(&patched, doc_bytes_entry, bytes.size() + 8);
    PutU32At(&patched, 76,
             Crc32::Of(patched.data() + kSegmentHeaderBytes,
                       kSegmentSectionCount * kSegmentSectionEntryBytes));
    PutU32At(&patched, 80, Crc32::Of(patched.data(), 80));
    WriteFileBytes(path, patched);
    EXPECT_EQ(LoadCode(path), StatusCode::kCorruption);
    EXPECT_EQ(LoadCode(path, /*verify=*/false), StatusCode::kCorruption);
  }
  // Misaligned offset → alignment check (borrowed casts require it).
  {
    std::vector<uint8_t> patched = bytes;
    PutU64At(&patched, doc_bytes_entry, GetU64At(bytes, doc_bytes_entry) + 4);
    PutU32At(&patched, 76,
             Crc32::Of(patched.data() + kSegmentHeaderBytes,
                       kSegmentSectionCount * kSegmentSectionEntryBytes));
    PutU32At(&patched, 80, Crc32::Of(patched.data(), 80));
    WriteFileBytes(path, patched);
    EXPECT_EQ(LoadCode(path), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, CraftedOffsetsAndRecordsFailStructuralValidation) {
  const std::string path = TempPath("crafted.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 40, 20, 60, 131);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  // A block offset pointing outside its term's stream, all CRCs
  // recomputed: only the structural pass can catch this.
  {
    std::vector<uint8_t> patched = bytes;
    const size_t entry =
        kSegmentHeaderBytes + kSectionBlockOffsets * kSegmentSectionEntryBytes;
    const uint64_t offset = GetU64At(patched, entry);
    ASSERT_GT(GetU64At(patched, entry + 8), 0u);
    PutU32At(&patched, offset, 0x7fffffffu);  // first block's doc_begin
    RecomputeCrcs(&patched);
    WriteFileBytes(path, patched);
    EXPECT_EQ(LoadCode(path), StatusCode::kCorruption);
  }
  // A term record whose posting count disagrees with its block count.
  {
    std::vector<uint8_t> patched = bytes;
    const size_t entry =
        kSegmentHeaderBytes + kSectionTermRecords * kSegmentSectionEntryBytes;
    const uint64_t offset = GetU64At(patched, entry);
    PutU64At(&patched, offset, GetU64At(patched, offset) + 1000);
    RecomputeCrcs(&patched);
    WriteFileBytes(path, patched);
    EXPECT_EQ(LoadCode(path), StatusCode::kCorruption);
    // Record tiling is metadata, checked even without payload verify.
    EXPECT_EQ(LoadCode(path, /*verify=*/false), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, CraftedDictionaryAndUrlSectionsAreRejected) {
  // Each patch keeps every checksum self-consistent, so only the walk
  // that builds the D and T offsets can refuse it — and it runs under
  // both verify modes, because every url()/term() read trusts it.
  const std::string path = TempPath("crafted_dt.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 40, 20, 60, 171);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  // The message must name the column: the refusal has to come from its
  // walk, not from a section the patch knocked out of place.
  auto expect_rejected = [&](std::vector<uint8_t> patched,
                             const std::string& column,
                             const std::string& what) {
    RecomputeCrcs(&patched);
    WriteFileBytes(path, patched);
    for (bool verify : {true, false}) {
      SegmentLoadOptions options;
      options.verify = verify;
      const Result<std::unique_ptr<TextIndex>> loaded =
          TextIndex::LoadFromSegment(path, options);
      ASSERT_FALSE(loaded.ok()) << what << ", verify " << verify;
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << what << ", verify " << verify;
      EXPECT_NE(loaded.status().message().find(column), std::string::npos)
          << what << ", verify " << verify << ": "
          << loaded.status().ToString();
    }
  };

  // A stem repeated: entry 1 overwritten with entry 0 (same length).
  {
    const std::vector<size_t> starts = EntryStarts(bytes, kSectionTermDict);
    ASSERT_GE(starts.size(), 2u);
    ASSERT_EQ(starts[1] - starts[0], starts[2] - starts[1]);
    std::vector<uint8_t> patched = bytes;
    std::copy(bytes.begin() + static_cast<ptrdiff_t>(starts[0]),
              bytes.begin() + static_cast<ptrdiff_t>(starts[1]),
              patched.begin() + static_cast<ptrdiff_t>(starts[1]));
    expect_rejected(patched, "term dictionary", "duplicate stem");
  }
  const struct {
    size_t section;
    size_t count_at;  // header offset of the section's entry count
    const char* name;
  } kColumns[] = {{kSectionTermDict, 24, "term dictionary"},
                  {kSectionDocUrls, 16, "url table"}};
  for (const auto& column : kColumns) {
    const std::vector<size_t> starts = EntryStarts(bytes, column.section);
    ASSERT_FALSE(starts.empty()) << column.name;
    const std::string name = column.name;
    // The last entry's length one past the section end.
    {
      std::vector<uint8_t> patched = bytes;
      ASSERT_LT(patched[starts.back()], 0x7f) << name;
      ++patched[starts.back()];
      expect_rejected(patched, name, name + ": entry past the section end");
    }
    // An overlong varint: five bytes, the 5th still continuing.
    {
      std::vector<uint8_t> patched = bytes;
      std::fill_n(patched.begin() + static_cast<ptrdiff_t>(starts[0]), 5,
                  uint8_t{0x80});
      expect_rejected(patched, name, name + ": overlong varint");
    }
    // One byte after the last entry.
    {
      std::vector<uint8_t> patched = bytes;
      AppendToSection(&patched, column.section, {0x00});
      expect_rejected(patched, name, name + ": trailing byte");
    }
    // A header count one above the section's entries.
    {
      std::vector<uint8_t> patched = bytes;
      PutU64At(&patched, column.count_at,
               GetU64At(bytes, column.count_at) + 1);
      expect_rejected(patched, name, name + ": count above the entries");
    }
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, UnverifiedLoadTrustsPayloadByContract) {
  const std::string path = TempPath("trusted.seg");
  TextIndex built(RawOptions());
  BuildCorpus(&built, 40, 20, 60, 141);
  ASSERT_TRUE(built.FlushToDisk(path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);

  // Flip the low bit of the first doc-gap varint and fix the CRCs:
  // the first term's first doc id shifts by one, so the stored block
  // doc_min can no longer match and the verifying load rejects the
  // file — while the trusted-file fast path by contract does not read
  // the payload at load time. This is the documented trade —
  // verify=false is only for files you wrote. (A flip that leaves the
  // payload structurally self-consistent would load under both modes;
  // CRCs, not structure, are what catch accidental damage.)
  const size_t entry =
      kSegmentHeaderBytes + kSectionDocBytes * kSegmentSectionEntryBytes;
  const uint64_t offset = GetU64At(bytes, entry);
  const uint64_t length = GetU64At(bytes, entry + 8);
  ASSERT_GT(length, 0u);
  bytes[offset] ^= 0x01;
  RecomputeCrcs(&bytes);
  WriteFileBytes(path, bytes);
  EXPECT_EQ(LoadCode(path, /*verify=*/true), StatusCode::kCorruption);
  EXPECT_EQ(LoadCode(path, /*verify=*/false), StatusCode::kOk);
  std::remove(path.c_str());
}

TEST(SegmentTest, MissingAndEmptyFilesAreStatusErrors) {
  EXPECT_EQ(LoadCode(TempPath("does_not_exist.seg")), StatusCode::kNotFound);
  const std::string path = TempPath("empty_file.seg");
  WriteFileBytes(path, {});
  EXPECT_EQ(LoadCode(path), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dls::ir
