#ifndef DLS_IR_SEGMENT_H_
#define DLS_IR_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace dls::ir {

/// On-disk segment format (version 2) — the persistent form of one
/// frozen TextIndex, written by TextIndex::FlushToDisk() and served
/// straight off mmap by TextIndex::LoadFromSegment().
///
/// Version history: v2 widened PostingBlockMeta from 12 to 16 bytes,
/// adding the per-block `score_key` upper bound the pruning
/// evaluators skip with (ir/kernel.h) — block-max pruning decisions
/// read only this borrowed metadata, so a skipped block is a page
/// never faulted in. v1 files are rejected as kUnsupported (rewrite
/// with the current builder); there is no in-place upgrade path.
///
/// Layout (all integers little-endian; every section 8-byte aligned,
/// zero-padded between sections):
///
///   ┌────────────────────────────────────────────────────────┐
///   │ header (88 B)                                          │
///   │   magic "DLSSEG01" · version · flags (stem/stop)       │
///   │   doc_count · vocabulary · collection_length           │
///   │   total_postings · total_blocks · max_inv_doc_length   │
///   │   mutation_epoch · section_count · table_crc · crc     │
///   ├────────────────────────────────────────────────────────┤
///   │ section table (9 × 20 B: offset · length · crc32)      │
///   ├────────────────────────────────────────────────────────┤
///   │ 0 TermDict        varint(len)+bytes per stem           │
///   │ 1 DocUrls         varint(len)+bytes per url            │
///   │ 2 DocLengths      int64[doc_count]                     │
///   │ 3 InvDocLengths   double[doc_count]  (raw IEEE bits)   │
///   │ 4 TermRecords     64 B fixed record per term           │
///   │ 5 BlockMeta       PostingBlockMeta[total_blocks]       │
///   │ 6 BlockOffsets    {u32 doc, u32 tf}[total_blocks]      │
///   │ 7 DocBytes        packed delta/varint doc-id streams   │
///   │ 8 TfBytes         packed escape-coded tf streams       │
///   └────────────────────────────────────────────────────────┘
///
/// Per-term record (section 4): posting count, first block index and
/// block count into sections 5/6, byte ranges into sections 7/8, and
/// the term-level max_tf. Records tile their sections exactly (block
/// indexes and byte offsets are running sums), which the loader
/// enforces — a record pointing anywhere unexpected is kCorruption.
///
/// Serving: every section but the term records (4), which are parsed
/// into the per-term PostingLists, is *borrowed* — the loaded index
/// keeps raw pointers into the mapping (PostingList::AdoptPackedView)
/// and the OS pages bytes in on first touch. Sections 0/1 are served
/// through a StringColumn (ir/string_column.h): the load's validation
/// walk builds a 4-byte offset per entry, and for section 0 the stem
/// -> term-oid table, while the entries' bytes stay in the file. A
/// heap-built index keeps D and T in the same encoding, so the writer
/// copies both sections as they are. The file stores the same packed
/// bytes the heap sidecar holds, so rankings are bit-identical across
/// heap-built, released and mmap-loaded indexes.
///
/// Publishing: FlushToDisk() writes a temp file beside the target and
/// rename(2)s it over the target, so a process still serving an older
/// file at that path keeps reading that file's bytes.
///
/// Integrity: the header carries a CRC of itself and one of the
/// section table; the table carries a CRC per section. A verifying
/// load (SegmentLoadOptions::verify, the default) checksums every
/// section and structurally validates the packed streams before any
/// byte is trusted — truncation at *any* byte, bit rot, or an offset
/// table pointing out of bounds all surface as kCorruption (or
/// kUnsupported for foreign versions/byte orders), never as UB.
/// Checksums are not signatures: a trusted-file fast path can skip the
/// payload passes, but only the verifying load is safe on hostile
/// input (segment_test fuzzes this).

inline constexpr uint8_t kSegmentMagic[8] = {'D', 'L', 'S', 'S',
                                             'E', 'G', '0', '1'};
inline constexpr uint32_t kSegmentVersion = 2;
inline constexpr size_t kSegmentHeaderBytes = 88;
inline constexpr size_t kSegmentSectionCount = 9;
inline constexpr size_t kSegmentSectionEntryBytes = 20;  // offset, len, crc
inline constexpr size_t kSegmentTermRecordBytes = 64;

/// Section indexes into the section table.
enum SegmentSection : size_t {
  kSectionTermDict = 0,
  kSectionDocUrls = 1,
  kSectionDocLengths = 2,
  kSectionInvDocLengths = 3,
  kSectionTermRecords = 4,
  kSectionBlockMeta = 5,
  kSectionBlockOffsets = 6,
  kSectionDocBytes = 7,
  kSectionTfBytes = 8,
};

/// Parsed header + section table of a segment file — what a tool (or
/// bench_segment's bytes-per-posting accounting) needs without paying
/// for a full load. ReadSegmentInfo validates the header and table
/// (magic, version, both CRCs, section bounds) but not section
/// contents.
struct SegmentInfo {
  uint32_t version = 0;
  bool stem = false;
  bool stop = false;
  uint64_t doc_count = 0;
  uint64_t vocabulary = 0;
  int64_t collection_length = 0;
  uint64_t total_postings = 0;
  uint64_t total_blocks = 0;
  uint64_t mutation_epoch = 0;
  uint64_t file_bytes = 0;
  uint64_t section_bytes[kSegmentSectionCount] = {};

  /// Bytes attributable to the postings themselves: the packed
  /// streams, the per-block offset/metadata tables and the per-term
  /// records — the numerator of the bytes/posting-on-disk gate.
  /// Per-document tables and the dictionary scale with docs and
  /// vocabulary, not postings, and are reported separately.
  uint64_t postings_bytes() const {
    return section_bytes[kSectionTermRecords] +
           section_bytes[kSectionBlockMeta] +
           section_bytes[kSectionBlockOffsets] +
           section_bytes[kSectionDocBytes] + section_bytes[kSectionTfBytes];
  }
};

/// Reads and validates the header + section table of `path`.
Result<SegmentInfo> ReadSegmentInfo(const std::string& path);

}  // namespace dls::ir

#endif  // DLS_IR_SEGMENT_H_
