#include "ir/segment.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/mmap.h"
#include "common/strings.h"
#include "ir/codec.h"
#include "ir/index.h"
#include "ir/postings.h"

namespace dls::ir {
namespace {

// The borrowed sections are served by casting mapped bytes to these
// types — their layout is the file format, so pin it down.
static_assert(sizeof(PostingBlockMeta) == 16 && alignof(PostingBlockMeta) <= 8,
              "BlockMeta section layout (v2: +score_key)");
static_assert(sizeof(PackedPostingBlocks::BlockOffsets) == 8 &&
                  alignof(PackedPostingBlocks::BlockOffsets) <= 8,
              "BlockOffsets section layout");
static_assert(sizeof(double) == 8 && sizeof(int64_t) == 8,
              "per-document table layout");

constexpr uint32_t kFlagStem = 1u << 0;
constexpr uint32_t kFlagStop = 1u << 1;
constexpr size_t kSectionTableBytes =
    kSegmentSectionCount * kSegmentSectionEntryBytes;
// First section starts at the next 8-byte boundary past the table.
constexpr size_t kSectionsBegin =
    (kSegmentHeaderBytes + kSectionTableBytes + 7) & ~size_t{7};

// The format is little-endian and the serving path casts mapped bytes
// directly, so both ends require an LE host (kUnsupported otherwise —
// correct and honest, vs. silently serving garbage).
bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  uint8_t byte;
  std::memcpy(&byte, &probe, 1);
  return byte == 1;
}

// ---- little-endian scalar encoding ---------------------------------

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---- header / section table ----------------------------------------

struct SegmentHeader {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t doc_count = 0;
  uint64_t vocabulary = 0;
  int64_t collection_length = 0;
  uint64_t total_postings = 0;
  uint64_t total_blocks = 0;
  double max_inv_doc_length = 0.0;
  uint64_t mutation_epoch = 0;
  uint32_t table_crc = 0;
};

struct SectionEntry {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
};

// Serialises header + table into the fixed-size prefix. The header CRC
// covers its own first 80 bytes; the table CRC (stored in the header)
// covers the raw table bytes — so a patched table cannot masquerade as
// the one the header was written with.
std::vector<uint8_t> EncodePrefix(const SegmentHeader& h,
                                  const SectionEntry* table) {
  std::vector<uint8_t> tbl;
  tbl.reserve(kSectionTableBytes);
  for (size_t s = 0; s < kSegmentSectionCount; ++s) {
    PutU64(&tbl, table[s].offset);
    PutU64(&tbl, table[s].length);
    PutU32(&tbl, table[s].crc);
  }

  std::vector<uint8_t> out;
  out.reserve(kSectionsBegin);
  out.insert(out.end(), kSegmentMagic, kSegmentMagic + 8);
  PutU32(&out, kSegmentVersion);
  PutU32(&out, h.flags);
  PutU64(&out, h.doc_count);
  PutU64(&out, h.vocabulary);
  PutU64(&out, static_cast<uint64_t>(h.collection_length));
  PutU64(&out, h.total_postings);
  PutU64(&out, h.total_blocks);
  PutF64(&out, h.max_inv_doc_length);
  PutU64(&out, h.mutation_epoch);
  PutU32(&out, static_cast<uint32_t>(kSegmentSectionCount));
  PutU32(&out, Crc32::Of(tbl.data(), tbl.size()));
  PutU32(&out, Crc32::Of(out.data(), out.size()));  // header crc over [0,80)
  PutU32(&out, 0);                                  // pad to 88
  out.insert(out.end(), tbl.begin(), tbl.end());
  out.resize(kSectionsBegin, 0);
  return out;
}

// Validates everything that can be validated without touching section
// contents: magic, version, header CRC, host byte order, table CRC,
// and that every section lies inside the file, 8-byte aligned.
Status ParsePrefix(const uint8_t* base, size_t size, SegmentHeader* h,
                   SectionEntry* table) {
  if (size < 8 || std::memcmp(base, kSegmentMagic, 8) != 0) {
    return Status::Corruption("not a DLS segment file (bad magic)");
  }
  if (size < kSegmentHeaderBytes) {
    return Status::Corruption("segment header truncated");
  }
  h->version = GetU32(base + 8);
  if (h->version != kSegmentVersion) {
    return Status::Unsupported(
        StrFormat("segment version %u (this build reads version %u)",
                  h->version, kSegmentVersion));
  }
  const uint32_t stored_header_crc = GetU32(base + 80);
  if (Crc32::Of(base, 80) != stored_header_crc) {
    return Status::Corruption("segment header checksum mismatch");
  }
  if (!HostIsLittleEndian()) {
    return Status::Unsupported("segment files require a little-endian host");
  }
  h->flags = GetU32(base + 12);
  h->doc_count = GetU64(base + 16);
  h->vocabulary = GetU64(base + 24);
  h->collection_length = static_cast<int64_t>(GetU64(base + 32));
  h->total_postings = GetU64(base + 40);
  h->total_blocks = GetU64(base + 48);
  h->max_inv_doc_length = GetF64(base + 56);
  h->mutation_epoch = GetU64(base + 64);
  const uint32_t section_count = GetU32(base + 72);
  h->table_crc = GetU32(base + 76);
  if (section_count != kSegmentSectionCount) {
    return Status::Corruption(
        StrFormat("segment declares %u sections, format has %zu",
                  section_count, kSegmentSectionCount));
  }
  if (size < kSegmentHeaderBytes + kSectionTableBytes) {
    return Status::Corruption("segment section table truncated");
  }
  const uint8_t* tbl = base + kSegmentHeaderBytes;
  if (Crc32::Of(tbl, kSectionTableBytes) != h->table_crc) {
    return Status::Corruption("segment section table checksum mismatch");
  }
  for (size_t s = 0; s < kSegmentSectionCount; ++s) {
    const uint8_t* e = tbl + s * kSegmentSectionEntryBytes;
    table[s].offset = GetU64(e);
    table[s].length = GetU64(e + 8);
    table[s].crc = GetU32(e + 16);
    if (table[s].offset % 8 != 0) {
      return Status::Corruption(
          StrFormat("section %zu misaligned (offset %llu)", s,
                    static_cast<unsigned long long>(table[s].offset)));
    }
    if (table[s].offset > size || table[s].length > size - table[s].offset) {
      return Status::Corruption(
          StrFormat("section %zu [%llu, +%llu) exceeds file size %zu", s,
                    static_cast<unsigned long long>(table[s].offset),
                    static_cast<unsigned long long>(table[s].length), size));
    }
  }
  return Status::Ok();
}

// ---- streaming section writer --------------------------------------

/// Writes sections sequentially through a running CRC, padding every
/// section start to an 8-byte boundary.
class SectionWriter {
 public:
  explicit SectionWriter(std::FILE* f, uint64_t pos) : f_(f), pos_(pos) {}

  void BeginSection() {
    static const uint8_t kZeros[8] = {};
    const size_t pad = (8 - pos_ % 8) % 8;
    if (pad > 0) Write(kZeros, pad);
    crc_.Reset();
    section_begin_ = pos_;
  }

  void Append(const void* data, size_t len) {
    crc_.Update(data, len);
    Write(data, len);
  }

  SectionEntry EndSection() const {
    return SectionEntry{section_begin_, pos_ - section_begin_, crc_.value()};
  }

  uint64_t pos() const { return pos_; }
  bool ok() const { return ok_; }

 private:
  void Write(const void* data, size_t len) {
    if (!ok_ || len == 0) return;
    if (std::fwrite(data, 1, len, f_) != len) ok_ = false;
    pos_ += len;
  }

  std::FILE* f_;
  uint64_t pos_;
  uint64_t section_begin_ = 0;
  Crc32 crc_;
  bool ok_ = true;
};

// ---- atomic publish -------------------------------------------------

/// Creates a new file beside `path` for writing and names it in
/// `*tmp`. The name carries the process id and a per-process counter,
/// and O_EXCL refuses a name a crashed writer left behind, so no two
/// writers share a temp file. Mode 0666 lets the umask apply as it did
/// for fopen (mkstemp would make the segment 0600). Null when no file
/// can be created.
std::FILE* CreateTempBeside(const std::string& path, std::string* tmp) {
  static std::atomic<uint64_t> next{0};
  for (int attempt = 0; attempt < 16; ++attempt) {
    *tmp = StrFormat("%s.tmp-%ld-%llu", path.c_str(),
                     static_cast<long>(::getpid()),
                     static_cast<unsigned long long>(next.fetch_add(1)));
    const int fd =
        ::open(tmp->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0) {
      std::FILE* f = ::fdopen(fd, "wb");
      if (f == nullptr) {
        ::close(fd);
        std::remove(tmp->c_str());
      }
      return f;
    }
    if (errno != EEXIST) return nullptr;
  }
  return nullptr;
}

// ---- hostile-input helpers -----------------------------------------

/// One parsed per-term record (section 4).
struct TermRecord {
  uint64_t count;
  uint64_t block_begin;
  uint64_t num_blocks;
  uint64_t doc_begin;
  uint64_t doc_len;
  uint64_t tf_begin;
  uint64_t tf_len;
  uint32_t max_tf;
};

TermRecord GetTermRecord(const uint8_t* p) {
  TermRecord r;
  r.count = GetU64(p);
  r.block_begin = GetU64(p + 8);
  r.num_blocks = GetU64(p + 16);
  r.doc_begin = GetU64(p + 24);
  r.doc_len = GetU64(p + 32);
  r.tf_begin = GetU64(p + 40);
  r.tf_len = GetU64(p + 48);
  r.max_tf = GetU32(p + 56);
  return r;
}

constexpr uint8_t kTfEscape = 0xff;

/// Fully decodes one term's packed streams with the checked decoder,
/// proving every byte the unchecked hot path will later touch is in
/// bounds and every decoded value is one the scoring kernels can use
/// (doc < doc_count, 0 <= tf <= INT32_MAX, blocks tile the streams
/// exactly, block metadata consistent with the contents). This is what
/// makes a *crafted* file with self-consistent checksums safe to load.
Status VerifyTermPostings(const TermRecord& r, const uint8_t* doc_stream,
                          const uint8_t* tf_stream,
                          const PackedPostingBlocks::BlockOffsets* offsets,
                          const PostingBlockMeta* meta,
                          const double* inv_doc_lengths, uint64_t doc_count,
                          size_t term) {
  auto corrupt = [term](const char* what) {
    return Status::Corruption(
        StrFormat("term %zu: packed stream invalid (%s)", term, what));
  };
  uint64_t prev_last_doc = 0;
  int32_t term_max_tf = 0;
  for (uint64_t b = 0; b < r.num_blocks; ++b) {
    const uint64_t begin = b * kPostingBlockSize;
    const uint64_t n = std::min<uint64_t>(kPostingBlockSize, r.count - begin);
    const uint64_t doc_end =
        b + 1 < r.num_blocks ? offsets[b + 1].doc_begin : r.doc_len;
    const uint64_t tf_end =
        b + 1 < r.num_blocks ? offsets[b + 1].tf_begin : r.tf_len;
    if (b == 0 && (offsets[0].doc_begin != 0 || offsets[0].tf_begin != 0)) {
      return corrupt("first block offset not 0");
    }
    if (offsets[b].doc_begin > doc_end || doc_end > r.doc_len ||
        offsets[b].tf_begin > tf_end || tf_end > r.tf_len) {
      return corrupt("block offsets out of bounds or not ascending");
    }

    // Doc-id stream: first absolute, then gaps; ascending, < doc_count.
    const uint8_t* p = doc_stream + offsets[b].doc_begin;
    const uint8_t* p_end = doc_stream + doc_end;
    uint64_t doc = 0;
    uint32_t first = 0, last = 0;
    uint32_t block_docs[kPostingBlockSize];
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t v;
      p = CheckedVarint32(p, p_end, &v);
      if (p == nullptr) return corrupt("malformed doc varint");
      doc = i == 0 ? v : doc + v;
      if (doc >= doc_count) return corrupt("doc id out of range");
      if (i == 0) first = static_cast<uint32_t>(doc);
      last = static_cast<uint32_t>(doc);
      block_docs[i] = static_cast<uint32_t>(doc);
    }
    if (p != p_end) return corrupt("doc stream length mismatch");
    if (b > 0 && first < prev_last_doc) return corrupt("blocks not ascending");
    prev_last_doc = last;

    // tf stream: one byte, or the escape byte followed by a varint.
    const uint8_t* q = tf_stream + offsets[b].tf_begin;
    const uint8_t* q_end = tf_stream + tf_end;
    int32_t block_max_tf = 0;
    float block_key = 0.0f;
    for (uint64_t i = 0; i < n; ++i) {
      if (q == q_end) return corrupt("tf stream truncated");
      const uint8_t byte = *q++;
      uint32_t tf = byte;
      if (byte == kTfEscape) {
        uint32_t rest;
        q = CheckedVarint32(q, q_end, &rest);
        if (q == nullptr) return corrupt("malformed tf varint");
        if (rest > static_cast<uint32_t>(INT32_MAX) - kTfEscape) {
          return corrupt("tf out of range");
        }
        tf = kTfEscape + rest;
      }
      block_max_tf = std::max(block_max_tf, static_cast<int32_t>(tf));
      block_key = std::max(
          block_key, RoundUpToFloat(static_cast<double>(tf) *
                                    inv_doc_lengths[block_docs[i]]));
    }
    if (q != q_end) return corrupt("tf stream length mismatch");

    // Metadata drives the pruning evaluators' skip decisions; wrong
    // metadata would silently break ranking exactness (a too-small
    // score_key makes a "sound" bound unsound), so all of it — the
    // doc range, max_tf, and the block-max score key, bit for bit —
    // is part of the contract.
    const PostingBlockMeta& m = meta[b];
    if (m.min_doc != first || m.max_doc != last ||
        m.max_tf != block_max_tf) {
      return corrupt("block metadata inconsistent with contents");
    }
    if (std::memcmp(&m.score_key, &block_key, sizeof(float)) != 0) {
      return corrupt("block score key inconsistent with contents");
    }
    term_max_tf = std::max(term_max_tf, block_max_tf);
  }
  if (term_max_tf != static_cast<int32_t>(r.max_tf)) {
    return corrupt("term max_tf inconsistent with blocks");
  }
  return Status::Ok();
}

}  // namespace

// ---- writer --------------------------------------------------------

Status TextIndex::FlushToDisk(const std::string& path) const {
  if (!pending_.empty()) {
    return Status::InvalidArgument(
        "FlushToDisk requires a flushed index (call Flush() first)");
  }
  if (!HostIsLittleEndian()) {
    return Status::Unsupported("segment files require a little-endian host");
  }

  SegmentHeader h;
  h.flags = (options_.stem ? kFlagStem : 0) | (options_.stop ? kFlagStop : 0);
  h.doc_count = urls_.size();
  h.vocabulary = terms_.size();
  h.collection_length = collection_length_;
  h.max_inv_doc_length = max_inv_doc_length_;
  h.mutation_epoch = mutation_epoch_;
  for (const PostingList& list : postings_) {
    if (!list.is_packed()) {
      return Status::InvalidArgument("FlushToDisk requires packed postings");
    }
    if (!list.has_block_bounds()) {
      // v2 carries the block-max score keys; a list without them would
      // serialise zeros and make every loaded bound unsound.
      return Status::InvalidArgument(
          "FlushToDisk requires finalised block bounds (Flush() computes "
          "them)");
    }
    h.total_postings += list.size();
    h.total_blocks += list.num_blocks();
  }

  // Publish atomically: write a temp file beside `path`, then rename(2)
  // it over `path`. A reader still mapping an older file at `path`
  // keeps that file's bytes, instead of seeing it truncated and
  // rewritten under its borrowed views. On any error only the temp file
  // is removed.
  std::string tmp;
  std::FILE* f = CreateTempBeside(path, &tmp);
  if (f == nullptr) {
    return Status::Internal("cannot create a temp file beside '" + path + "'");
  }
  auto fail = [&](const std::string& what) {
    if (f != nullptr) std::fclose(f);
    std::remove(tmp.c_str());
    return Status::Internal(what);
  };

  // Reserve the prefix; the real header + table are written last, once
  // every section's offset, length and CRC is known.
  SectionEntry table[kSegmentSectionCount];
  std::vector<uint8_t> prefix(kSectionsBegin, 0);
  SectionWriter w(f, 0);
  w.Append(prefix.data(), prefix.size());

  // 0/1: term dictionary and document URLs. Both columns already hold
  // their section's encoding, owned or borrowed, so they go out as is.
  w.BeginSection();
  w.Append(terms_.column().data(), terms_.column().byte_size());
  table[kSectionTermDict] = w.EndSection();
  w.BeginSection();
  w.Append(urls_.data(), urls_.byte_size());
  table[kSectionDocUrls] = w.EndSection();

  // 2/3: per-document length tables, raw (the loader serves these by
  // pointer, so bytes on disk == bytes in memory, bit for bit).
  w.BeginSection();
  w.Append(doc_length_data(), urls_.size() * sizeof(int64_t));
  table[kSectionDocLengths] = w.EndSection();
  w.BeginSection();
  w.Append(inv_doc_length_data(), urls_.size() * sizeof(double));
  table[kSectionInvDocLengths] = w.EndSection();

  // 4: per-term records — running sums into the block/byte sections.
  w.BeginSection();
  {
    uint64_t block_begin = 0, doc_begin = 0, tf_begin = 0;
    std::vector<uint8_t> rec;
    for (const PostingList& list : postings_) {
      const PackedPostingBlocks& packed = list.packed_blocks();
      rec.clear();
      PutU64(&rec, list.size());
      PutU64(&rec, block_begin);
      PutU64(&rec, list.num_blocks());
      PutU64(&rec, doc_begin);
      PutU64(&rec, packed.doc_stream_size());
      PutU64(&rec, tf_begin);
      PutU64(&rec, packed.tf_stream_size());
      PutU32(&rec, static_cast<uint32_t>(list.max_tf()));
      PutU32(&rec, 0);
      w.Append(rec.data(), rec.size());
      block_begin += list.num_blocks();
      doc_begin += packed.doc_stream_size();
      tf_begin += packed.tf_stream_size();
    }
  }
  table[kSectionTermRecords] = w.EndSection();

  // 5: block metadata, 6: block offsets, 7/8: packed byte streams —
  // each the concatenation over terms, in term order.
  w.BeginSection();
  for (const PostingList& list : postings_) {
    if (list.num_blocks() > 0) {
      w.Append(list.block_meta_data(),
               list.num_blocks() * sizeof(PostingBlockMeta));
    }
  }
  table[kSectionBlockMeta] = w.EndSection();

  w.BeginSection();
  for (const PostingList& list : postings_) {
    const PackedPostingBlocks& packed = list.packed_blocks();
    if (packed.num_blocks() > 0) {
      w.Append(packed.block_offsets(),
               packed.num_blocks() *
                   sizeof(PackedPostingBlocks::BlockOffsets));
    }
  }
  table[kSectionBlockOffsets] = w.EndSection();

  w.BeginSection();
  for (const PostingList& list : postings_) {
    const PackedPostingBlocks& packed = list.packed_blocks();
    w.Append(packed.doc_stream(), packed.doc_stream_size());
  }
  table[kSectionDocBytes] = w.EndSection();

  w.BeginSection();
  for (const PostingList& list : postings_) {
    const PackedPostingBlocks& packed = list.packed_blocks();
    w.Append(packed.tf_stream(), packed.tf_stream_size());
  }
  table[kSectionTfBytes] = w.EndSection();

  if (!w.ok()) return fail("short write to '" + tmp + "'");

  // Now the real prefix.
  prefix = EncodePrefix(h, table);
  if (std::fseek(f, 0, SEEK_SET) != 0 ||
      std::fwrite(prefix.data(), 1, prefix.size(), f) != prefix.size() ||
      std::fflush(f) != 0) {
    return fail("cannot finalise '" + tmp + "'");
  }
  const int closed = std::fclose(f);
  f = nullptr;  // closed either way
  if (closed != 0) return fail("cannot close '" + tmp + "'");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return Status::Ok();
}

// ---- loader --------------------------------------------------------

Result<SegmentInfo> ReadSegmentInfo(const std::string& path) {
  DLS_ASSIGN_OR_RETURN(MappedFile mapped, MappedFile::Open(path));
  SegmentHeader h;
  SectionEntry table[kSegmentSectionCount];
  DLS_RETURN_IF_ERROR(ParsePrefix(mapped.data(), mapped.size(), &h, table));
  SegmentInfo info;
  info.version = h.version;
  info.stem = (h.flags & kFlagStem) != 0;
  info.stop = (h.flags & kFlagStop) != 0;
  info.doc_count = h.doc_count;
  info.vocabulary = h.vocabulary;
  info.collection_length = h.collection_length;
  info.total_postings = h.total_postings;
  info.total_blocks = h.total_blocks;
  info.mutation_epoch = h.mutation_epoch;
  info.file_bytes = mapped.size();
  for (size_t s = 0; s < kSegmentSectionCount; ++s) {
    info.section_bytes[s] = table[s].length;
  }
  return info;
}

Result<std::unique_ptr<TextIndex>> TextIndex::LoadFromSegment(
    const std::string& path, const SegmentLoadOptions& load_options) {
  DLS_ASSIGN_OR_RETURN(MappedFile mapped_file, MappedFile::Open(path));
  auto mapped = std::make_shared<MappedFile>(std::move(mapped_file));
  const uint8_t* base = mapped->data();
  const size_t size = mapped->size();

  SegmentHeader h;
  SectionEntry table[kSegmentSectionCount];
  DLS_RETURN_IF_ERROR(ParsePrefix(base, size, &h, table));

  if (load_options.verify) {
    // One sequential pass checksums every section before its contents
    // are believed (torn writes, truncation past the prefix, bit rot).
    mapped->AdviseSequential();
    for (size_t s = 0; s < kSegmentSectionCount; ++s) {
      if (Crc32::Of(base + table[s].offset, table[s].length) != table[s].crc) {
        return Status::Corruption(
            StrFormat("section %zu checksum mismatch", s));
      }
    }
  }

  Options options;
  options.stem = (h.flags & kFlagStem) != 0;
  options.stop = (h.flags & kFlagStop) != 0;
  auto index = std::make_unique<TextIndex>(options);

  // 0/1: term dictionary and document URLs, borrowed. The walk that
  // validates every entry (and refuses a count the section cannot
  // hold before sizing anything from it) builds the offsets, and for T
  // the stem table. A URL section under 4 GiB also keeps doc_count
  // inside the 32-bit doc id space.
  DLS_RETURN_IF_ERROR(index->terms_.Borrow(
      base + table[kSectionTermDict].offset, table[kSectionTermDict].length,
      h.vocabulary, "term dictionary"));
  DLS_RETURN_IF_ERROR(index->urls_.Borrow(
      base + table[kSectionDocUrls].offset, table[kSectionDocUrls].length,
      h.doc_count, "url table"));

  // 2/3: per-document tables, borrowed straight from the mapping.
  if (table[kSectionDocLengths].length != h.doc_count * sizeof(int64_t) ||
      table[kSectionInvDocLengths].length != h.doc_count * sizeof(double)) {
    return Status::Corruption("document table size mismatch");
  }
  index->doc_lengths_view_ =
      reinterpret_cast<const int64_t*>(base + table[kSectionDocLengths].offset);
  index->inv_doc_lengths_view_ = reinterpret_cast<const double*>(
      base + table[kSectionInvDocLengths].offset);

  // 5/6: block tables, borrowed.
  if (table[kSectionBlockMeta].length !=
          h.total_blocks * sizeof(PostingBlockMeta) ||
      table[kSectionBlockOffsets].length !=
          h.total_blocks * sizeof(PackedPostingBlocks::BlockOffsets)) {
    return Status::Corruption("block table size mismatch");
  }
  const PostingBlockMeta* all_meta = reinterpret_cast<const PostingBlockMeta*>(
      base + table[kSectionBlockMeta].offset);
  const auto* all_offsets =
      reinterpret_cast<const PackedPostingBlocks::BlockOffsets*>(
          base + table[kSectionBlockOffsets].offset);
  const uint8_t* doc_section = base + table[kSectionDocBytes].offset;
  const uint8_t* tf_section = base + table[kSectionTfBytes].offset;

  // 4: term records — must tile the block/byte sections exactly.
  if (table[kSectionTermRecords].length !=
      h.vocabulary * kSegmentTermRecordBytes) {
    return Status::Corruption("term record section size mismatch");
  }
  index->postings_.resize(h.vocabulary);
  index->df_.reserve(h.vocabulary);
  {
    uint64_t blocks_seen = 0, doc_bytes_seen = 0, tf_bytes_seen = 0;
    uint64_t postings_seen = 0;
    const uint8_t* rec_base = base + table[kSectionTermRecords].offset;
    for (uint64_t t = 0; t < h.vocabulary; ++t) {
      const TermRecord r =
          GetTermRecord(rec_base + t * kSegmentTermRecordBytes);
      const uint64_t want_blocks =
          (r.count + kPostingBlockSize - 1) / kPostingBlockSize;
      if (r.num_blocks != want_blocks || r.count > h.doc_count ||
          r.max_tf > static_cast<uint32_t>(INT32_MAX)) {
        return Status::Corruption(
            StrFormat("term %llu record inconsistent",
                      static_cast<unsigned long long>(t)));
      }
      if (r.block_begin != blocks_seen || r.doc_begin != doc_bytes_seen ||
          r.tf_begin != tf_bytes_seen) {
        return Status::Corruption(
            StrFormat("term %llu record does not tile its sections",
                      static_cast<unsigned long long>(t)));
      }
      blocks_seen += r.num_blocks;
      doc_bytes_seen += r.doc_len;
      tf_bytes_seen += r.tf_len;
      postings_seen += r.count;
      if (blocks_seen > h.total_blocks ||
          doc_bytes_seen > table[kSectionDocBytes].length ||
          tf_bytes_seen > table[kSectionTfBytes].length) {
        return Status::Corruption(
            StrFormat("term %llu record exceeds its sections",
                      static_cast<unsigned long long>(t)));
      }

      if (load_options.verify) {
        DLS_RETURN_IF_ERROR(VerifyTermPostings(
            r, doc_section + r.doc_begin, tf_section + r.tf_begin,
            all_offsets + r.block_begin, all_meta + r.block_begin,
            index->inv_doc_lengths_view_, h.doc_count,
            static_cast<size_t>(t)));
      }

      index->df_.push_back(static_cast<int32_t>(r.count));
      index->postings_[t].AdoptPackedView(
          all_meta + r.block_begin, r.num_blocks,
          all_offsets + r.block_begin, doc_section + r.doc_begin, r.doc_len,
          tf_section + r.tf_begin, r.tf_len, r.count,
          static_cast<int32_t>(r.max_tf));
    }
    if (blocks_seen != h.total_blocks ||
        doc_bytes_seen != table[kSectionDocBytes].length ||
        tf_bytes_seen != table[kSectionTfBytes].length ||
        postings_seen != h.total_postings) {
      return Status::Corruption("term records do not cover their sections");
    }
  }

  if (load_options.verify) {
    // Re-derive the per-document scoring inputs: lengths non-negative,
    // inv_doc_length bit-identical to 1/length, collection length and
    // the WAND bound consistent — the values every score depends on.
    int64_t collection = 0;
    double max_inv = 0.0;
    for (uint64_t d = 0; d < h.doc_count; ++d) {
      const int64_t len = index->doc_lengths_view_[d];
      const double inv = index->inv_doc_lengths_view_[d];
      if (len < 0 || collection > INT64_MAX - len) {
        return Status::Corruption("document length out of range");
      }
      const double want = len > 0 ? 1.0 / static_cast<double>(len) : 0.0;
      if (std::memcmp(&inv, &want, sizeof(double)) != 0) {
        return Status::Corruption("inverse document length inconsistent");
      }
      collection += len;
      max_inv = std::max(max_inv, inv);
    }
    if (collection != h.collection_length) {
      return Status::Corruption("collection length inconsistent");
    }
    double want_max = max_inv;
    if (std::memcmp(&want_max, &h.max_inv_doc_length, sizeof(double)) != 0) {
      return Status::Corruption("max inverse document length inconsistent");
    }
  }

  index->collection_length_ = h.collection_length;
  index->max_inv_doc_length_ = h.max_inv_doc_length;
  index->flushed_docs_ = h.doc_count;
  index->mutation_epoch_ = h.mutation_epoch;
  index->segment_ = std::move(mapped);
  return index;
}

}  // namespace dls::ir
