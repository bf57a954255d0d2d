// Persistent-segment cold start at scale: build a million-document
// synthetic index (ir/segment.h regenerates it from five numbers — no
// stored corpus artifact), flush it to one segment file, and compare
//
//   rebuild     tokenize + index + pack every document from source text
//   load        mmap the segment with full payload verification (the
//               default, paranoid path)
//   load(trust) mmap with verify=false — the restart path for a file
//               this process wrote earlier
//
// plus what serving from the mapping costs: bytes/posting on disk,
// the heap a load allocates per document, resident-set before and
// after queries, and first-touch ("cold", page-cache-warm but
// mapping-cold — a disk-cold start would add I/O) vs warmed query
// latency.
//
// Gated by ci/bench_gate.py: exact.* booleans (bit-identity of the
// loaded index, byte-identical re-save, every sampled truncation
// rejected), the 3.0 bytes/posting disk ceiling, the 10x
// load-vs-rebuild speedup floor and the 16 bytes/document ceiling on
// a load's heap. Wall-clock leaves are reported but not ratio-gated —
// a multi-minute build timing is too noisy for a 15% window.
//
// DLS_SEGMENT_DOCS overrides the corpus size (CI smoke vs the full
// million). Prints a human summary and writes machine-readable JSON
// (default BENCH_segment.json, or argv[1]).
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "ir/index.h"
#include "ir/segment.h"
#include "synth/corpus.h"

namespace dls {
namespace {

constexpr size_t kQueryPool = 64;
constexpr size_t kTermsPerQuery = 3;
constexpr size_t kTopN = 10;

/// VmRSS of this process in bytes (0 if /proc is unavailable).
uint64_t ResidentSetBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

/// Bytes malloc has handed out and not taken back: in-use chunks plus
/// the blocks it served straight from mmap (large vectors).
uint64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

bool BitIdentical(const std::vector<ir::ScoredDoc>& a,
                  const std::vector<ir::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i].score, sizeof(bits_a));
    std::memcpy(&bits_b, &b[i].score, sizeof(bits_b));
    if (a[i].doc != b[i].doc || bits_a != bits_b) return false;
  }
  return true;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(got);
  return bytes;
}

/// Mean per-query latency (us) of one pass over the pool.
double QueryPassUs(const ir::TextIndex& index,
                   const std::vector<std::vector<std::string>>& queries,
                   const ir::RankOptions& options) {
  Timer timer;
  for (const auto& query : queries) {
    index.RankTopN(query, kTopN, options);
  }
  return timer.ElapsedSeconds() * 1e6 / queries.size();
}

/// Copies the segment, then truncates the copy at `points` descending
/// and requires every cut to fail the load under both verify modes.
bool TruncationsRejected(const std::string& path, uint64_t file_bytes) {
  const std::string cut = path + ".cut";
  std::remove(cut.c_str());
  {
    const std::vector<uint8_t> bytes = ReadAll(path);
    std::FILE* f = std::fopen(cut.c_str(), "wb");
    if (f == nullptr) return false;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  std::vector<uint64_t> points = {file_bytes - 1, ir::kSegmentHeaderBytes,
                                  ir::kSegmentHeaderBytes - 1, 8, 1, 0};
  for (int i = 1; i < 24; ++i) {
    points.push_back(file_bytes * static_cast<uint64_t>(24 - i) / 24);
  }
  bool all_rejected = true;
  for (const uint64_t point : points) {  // descending: truncate in place
    if (truncate(cut.c_str(), static_cast<off_t>(point)) != 0) return false;
    for (const bool verify : {true, false}) {
      ir::SegmentLoadOptions load;
      load.verify = verify;
      if (ir::TextIndex::LoadFromSegment(cut, load).ok()) {
        std::fprintf(stderr, "truncation to %llu bytes loaded (verify=%d)\n",
                     static_cast<unsigned long long>(point), verify);
        all_rejected = false;
      }
    }
  }
  std::remove(cut.c_str());
  return all_rejected;
}

}  // namespace
}  // namespace dls

int main(int argc, char** argv) {
  using namespace dls;
  const char* json_path = argc > 1 ? argv[1] : "BENCH_segment.json";
  const std::string segment_path = "/tmp/dls_bench_segment.seg";
  const std::string resave_path = segment_path + ".resave";

  synth::CorpusSpec spec;
  if (const char* docs_env = std::getenv("DLS_SEGMENT_DOCS")) {
    spec.documents = static_cast<size_t>(std::strtoull(docs_env, nullptr, 10));
  }
  const synth::SyntheticCorpus corpus(spec);

  ir::TextIndex::Options options;
  options.stem = false;
  options.stop = false;
  // Bulk load: one Flush at the end. The incremental default (32-doc
  // batches) re-packs every hot posting list per batch — quadratic in
  // corpus size, and not what a from-scratch rebuild would ever do.
  options.flush_batch = spec.documents + 1;

  std::vector<std::vector<std::string>> queries;
  for (size_t q = 0; q < kQueryPool; ++q) {
    queries.push_back(corpus.Query(q, kTermsPerQuery));
  }
  ir::RankOptions rank;
  rank.prune = true;

  // -- rebuild: the cold start this format exists to avoid ------------
  double rebuild_s = 0, flush_s = 0, heap_warm_us = 0;
  double load_verified_s = 0;
  uint64_t heap_resident = 0, rss_heap = 0;
  bool bit_identical = true, resave_identical = true;
  std::vector<std::vector<ir::ScoredDoc>> expected;
  {
    ir::TextIndex built(options);
    Timer build_timer;
    corpus.ForEach(0, spec.documents,
                   [&](size_t, const std::string& url,
                       const std::string& body) { built.AddDocument(url, body); });
    built.Flush();
    rebuild_s = build_timer.ElapsedSeconds();
    heap_resident = built.bytes_resident();
    rss_heap = ResidentSetBytes();

    QueryPassUs(built, queries, rank);  // warm the heap index
    heap_warm_us = QueryPassUs(built, queries, rank);
    for (const auto& query : queries) {
      expected.push_back(built.RankTopN(query, kTopN, rank));
    }

    Timer flush_timer;
    Status status = built.FlushToDisk(segment_path);
    flush_s = flush_timer.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "flush: %s\n", status.ToString().c_str());
      return 1;
    }

    // -- verified load, checked against the live heap index ----------
    Timer load_timer;
    Result<std::unique_ptr<ir::TextIndex>> loaded =
        ir::TextIndex::LoadFromSegment(segment_path);
    load_verified_s = load_timer.ElapsedSeconds();
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!BitIdentical(loaded.value()->RankTopN(queries[q], kTopN, rank),
                        expected[q])) {
        bit_identical = false;
      }
    }
    if (!loaded.value()->FlushToDisk(resave_path).ok() ||
        ReadAll(resave_path) != ReadAll(segment_path)) {
      resave_identical = false;
    }
    std::remove(resave_path.c_str());
  }  // heap + verified copies freed: the mapped run stands alone

  Result<ir::SegmentInfo> info = ir::ReadSegmentInfo(segment_path);
  if (!info.ok()) {
    std::fprintf(stderr, "info: %s\n", info.status().ToString().c_str());
    return 1;
  }
  const double bytes_per_posting_disk =
      info.value().total_postings > 0
          ? static_cast<double>(info.value().postings_bytes()) /
                static_cast<double>(info.value().total_postings)
          : 0;
  const double file_bytes_per_posting =
      info.value().total_postings > 0
          ? static_cast<double>(info.value().file_bytes) /
                static_cast<double>(info.value().total_postings)
          : 0;

  // -- trusted load: the restart path, measured free of the heap -----
  ir::SegmentLoadOptions trusted;
  trusted.verify = false;
  // Hand the freed heap and verified copies back to the kernel, so the
  // mapped RSS below counts the mapping, not heap glibc kept.
  malloc_trim(0);
  const uint64_t heap_before_load = HeapInUseBytes();
  Timer trusted_timer;
  Result<std::unique_ptr<ir::TextIndex>> mapped =
      ir::TextIndex::LoadFromSegment(segment_path, trusted);
  const double load_trusted_s = trusted_timer.ElapsedSeconds();
  // What the loaded index keeps on the heap, per document: everything
  // else it serves from the mapping.
  const double load_heap_bytes_per_doc =
      (static_cast<double>(HeapInUseBytes()) -
       static_cast<double>(heap_before_load)) /
      static_cast<double>(spec.documents);
  if (!mapped.ok()) {
    std::fprintf(stderr, "trusted load: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  const uint64_t rss_mapped_cold = ResidentSetBytes();
  const double mmap_cold_us = QueryPassUs(*mapped.value(), queries, rank);
  const double mmap_warm_us = QueryPassUs(*mapped.value(), queries, rank);
  const uint64_t rss_mapped_warm = ResidentSetBytes();
  bool mapped_bit_identical = true;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!BitIdentical(mapped.value()->RankTopN(queries[q], kTopN, rank),
                      expected[q])) {
      mapped_bit_identical = false;
    }
  }
  bit_identical = bit_identical && mapped_bit_identical;
  const uint64_t bytes_mapped = mapped.value()->bytes_mapped();
  const uint64_t mapped_resident = mapped.value()->bytes_resident();

  const bool truncations_rejected =
      TruncationsRejected(segment_path, info.value().file_bytes);
  std::remove(segment_path.c_str());

  const double speedup = load_verified_s > 0 ? rebuild_s / load_verified_s : 0;
  const double speedup_trusted =
      load_trusted_s > 0 ? rebuild_s / load_trusted_s : 0;

  std::printf(
      "segment cold start: %zu docs, %zu words/doc, vocab %zu\n\n"
      "  rebuild      %8.2f s   (tokenize + index + pack)\n"
      "  flush        %8.2f s   -> %.1f MB on disk\n"
      "  load         %8.3f s   (verify everything)   %7.0fx vs rebuild\n"
      "  load(trust)  %8.3f s   (verify=false)        %7.0fx vs rebuild\n\n"
      "  disk    %.2f bytes/posting (postings sections), %.2f whole file\n"
      "  memory  heap %.1f MB resident | mapped %.1f MB + %.2f MB resident"
      " (load heap %.1f B/doc)\n"
      "  rss     heap %.1f MB | mapped cold %.1f MB -> warm %.1f MB\n"
      "  query   heap %.0f us | mmap first-touch %.0f us -> warm %.0f us\n\n"
      "exact: bit_identical=%s resave_byte_identical=%s "
      "truncations_rejected=%s\n",
      spec.documents, spec.words_per_doc, spec.vocabulary, rebuild_s, flush_s,
      info.value().file_bytes / 1e6, load_verified_s, speedup, load_trusted_s,
      speedup_trusted, bytes_per_posting_disk, file_bytes_per_posting,
      heap_resident / 1e6, bytes_mapped / 1e6, mapped_resident / 1e6,
      load_heap_bytes_per_doc, rss_heap / 1e6, rss_mapped_cold / 1e6,
      rss_mapped_warm / 1e6, heap_warm_us, mmap_cold_us, mmap_warm_us,
      bit_identical ? "true" : "false", resave_identical ? "true" : "false",
      truncations_rejected ? "true" : "false");

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"segment\",\n"
      "  \"corpus\": {\"docs\": %zu, \"words_per_doc\": %zu, \"vocab\": %zu, "
      "\"zipf_theta\": %.2f, \"seed\": %llu, \"query_pool\": %zu, "
      "\"terms_per_query\": %zu, \"top_n\": %zu},\n"
      "  \"disk\": {\n"
      "    \"file_bytes\": %llu,\n"
      "    \"total_postings\": %llu,\n"
      "    \"total_blocks\": %llu,\n"
      "    \"bytes_per_posting_disk\": %.4f,\n"
      "    \"file_bytes_per_posting\": %.4f\n"
      "  },\n"
      "  \"cold_start\": {\n"
      "    \"rebuild_s\": %.3f,\n"
      "    \"flush_s\": %.3f,\n"
      "    \"load_verified_s\": %.4f,\n"
      "    \"load_trusted_s\": %.5f,\n"
      "    \"speedup_load_vs_rebuild\": %.1f,\n"
      "    \"speedup_trusted_load_vs_rebuild\": %.1f\n"
      "  },\n"
      "  \"memory\": {\n"
      "    \"heap_bytes_resident\": %llu,\n"
      "    \"mapped_bytes_resident\": %llu,\n"
      "    \"bytes_mapped\": %llu,\n"
      "    \"rss_heap_bytes\": %llu,\n"
      "    \"rss_mapped_cold_bytes\": %llu,\n"
      "    \"rss_mapped_warm_bytes\": %llu,\n"
      "    \"load_heap_bytes_per_doc\": %.2f\n"
      "  },\n"
      "  \"latency\": {\"heap_warm_us\": %.1f, \"mmap_cold_us\": %.1f, "
      "\"mmap_warm_us\": %.1f},\n"
      "  \"exact\": {\"bit_identical\": %s, \"resave_byte_identical\": %s, "
      "\"truncations_rejected\": %s}\n"
      "}\n",
      spec.documents, spec.words_per_doc, spec.vocabulary, spec.zipf_theta,
      static_cast<unsigned long long>(spec.seed), kQueryPool, kTermsPerQuery,
      kTopN, static_cast<unsigned long long>(info.value().file_bytes),
      static_cast<unsigned long long>(info.value().total_postings),
      static_cast<unsigned long long>(info.value().total_blocks), //
      bytes_per_posting_disk, file_bytes_per_posting, rebuild_s, flush_s,
      load_verified_s, load_trusted_s, speedup, speedup_trusted,
      static_cast<unsigned long long>(heap_resident),
      static_cast<unsigned long long>(mapped_resident),
      static_cast<unsigned long long>(bytes_mapped),
      static_cast<unsigned long long>(rss_heap),
      static_cast<unsigned long long>(rss_mapped_cold),
      static_cast<unsigned long long>(rss_mapped_warm),
      load_heap_bytes_per_doc, heap_warm_us,
      mmap_cold_us, mmap_warm_us, bit_identical ? "true" : "false",
      resave_identical ? "true" : "false",
      truncations_rejected ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return (bit_identical && resave_identical && truncations_rejected) ? 0 : 1;
}
