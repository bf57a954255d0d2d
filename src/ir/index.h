#ifndef DLS_IR_INDEX_H_
#define DLS_IR_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ir/postings.h"
#include "ir/string_column.h"

namespace dls {
class MappedFile;
}  // namespace dls

namespace dls::ir {

/// Heterogeneous (transparent) string hasher: lets a std::string-keyed
/// map (the cluster-wide df tables) answer string_view lookups without
/// materialising a std::string per probe.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const char* s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// A scored document in a ranking.
struct ScoredDoc {
  DocId doc;
  double score;
};

/// Which implementation of the posting-scan scoring kernel to run.
/// All three produce bit-identical scores (same per-posting
/// operations, no FP contraction); the block mode strip-mines over SoA
/// posting blocks so the compiler can vectorise the arithmetic, and
/// the packed mode decodes one compressed block (see codec.h) into a
/// scratch buffer before running the identical strip-mined loop.
enum class ScoreKernel {
  kScalar,  ///< one posting at a time — the reference order
  kBlock,   ///< block-at-a-time straight-line kernel (auto-vectorised)
  kPacked,  ///< decode a delta/varint block, then the kBlock loop
};

/// Compile-time default for ScoreKernel: cmake -DDLS_KERNEL=scalar or
/// =packed defines DLS_KERNEL_SCALAR / DLS_KERNEL_PACKED and flips the
/// whole tree (exactness stays testable per call via
/// RankOptions::kernel).
#if defined(DLS_KERNEL_SCALAR)
inline constexpr ScoreKernel kCompiledScoreKernel = ScoreKernel::kScalar;
#elif defined(DLS_KERNEL_PACKED)
inline constexpr ScoreKernel kCompiledScoreKernel = ScoreKernel::kPacked;
#else
inline constexpr ScoreKernel kCompiledScoreKernel = ScoreKernel::kBlock;
#endif

/// How LoadFromSegment treats the file's payload sections.
struct SegmentLoadOptions {
  /// Verify every section checksum and structurally validate the
  /// packed streams (offsets in range, varints well-formed, doc ids
  /// ascending and < doc_count, block metadata consistent) before any
  /// byte is served. One sequential pass over the file — still orders
  /// of magnitude cheaper than a rebuild (bench_segment measures it).
  /// Turning this off skips the *payload* passes (header, section
  /// table and metadata sections are always validated) so load time
  /// and initial page-ins stay O(metadata) for corpora bigger than
  /// RAM; only do that for files you trust — an unvalidated hostile
  /// payload can make the block decoder read out of bounds.
  bool verify = true;
};

/// Which evaluation strategy a ranked query runs under
/// (RankOptions::strategy). Every strategy returns the bit-identical
/// ranking — same documents, same scores — they differ only in how
/// much work they do and how it is shaped:
///
///   kTaat    term-at-a-time: the exhaustive accumulator scan with the
///            vectorised block kernel. Reads every posting; fastest
///            per posting, no pruning.
///   kWand    document-at-a-time WAND with block-max bounds: skips
///            postings and whole blocks that provably cannot enter the
///            top N. Wins when the threshold rises quickly (rare
///            terms, small N).
///   kAuto    a per-query cost model picks kTaat or kWand from the
///            query's df profile and N (see PlanStrategy in
///            ir/kernel.h). Without RankOptions::prune it always
///            plans kTaat, preserving the historical default.
enum class RankStrategy : uint8_t {
  kAuto = 0,
  kTaat = 1,
  kWand = 2,
};

/// Work accounting of a ranked evaluation, shared by every strategy:
/// the one record of an evaluation's work, carried whole by a shard's
/// answer (ShardResult::work), a live node's sum over its parts and a
/// shard server's running total (net::StatsResponse::work).
struct RankStats {
  size_t postings_touched = 0;  ///< postings actually scored
  size_t blocks_skipped = 0;    ///< whole blocks jumped without reading
  /// Packed blocks decompressed into a cursor's scratch buffer (0 on
  /// the uncompressed cursors). Skipped blocks are never decoded —
  /// blocks_decoded + blocks_skipped accounts for the decode work a
  /// pruned packed evaluation saves.
  size_t blocks_decoded = 0;
  /// Pivot selections of the WAND loop. 0 under kTaat — the
  /// exhaustive scan has no pivots.
  size_t pivot_iterations = 0;
  /// Cursor repositionings: galloped seeks, batched-run advances and
  /// single-posting steps. 0 under kTaat.
  size_t cursor_advances = 0;

  RankStats& operator+=(const RankStats& other) {
    postings_touched += other.postings_touched;
    blocks_skipped += other.blocks_skipped;
    blocks_decoded += other.blocks_decoded;
    pivot_iterations += other.pivot_iterations;
    cursor_advances += other.cursor_advances;
    return *this;
  }
  bool operator==(const RankStats&) const = default;
};

/// Immutable-after-build bitmap over node-local doc ids: the candidate
/// set a federated plan pushes down into text evaluation
/// (RankOptions::doc_filter). A filtered ranking returns exactly the
/// documents of the exhaustive ranking that are in the filter, with
/// bit-identical scores — a document's score depends only on its own
/// postings, every strategy still sums its contributions in the
/// canonical order, and the pruning thresholds are fed only from
/// filtered documents, so they stay lower bounds of the filtered n-th
/// best. A live node's part holds its live set in the same form
/// (ingest::LiveIndex): a delete clears the document's bit.
class DocFilter {
 public:
  DocFilter() = default;
  /// An empty bitmap over documents [0, num_docs).
  explicit DocFilter(size_t num_docs)
      : num_docs_(num_docs), words_((num_docs + 63) / 64, 0) {}

  /// A bitmap holding every document of [0, num_docs).
  static DocFilter All(size_t num_docs) {
    DocFilter all(num_docs);
    all.words_.assign(all.words_.size(), ~uint64_t{0});
    all.count_ = num_docs;
    return all;
  }

  /// Sets `doc`'s bit. Ids outside [0, num_docs) are ignored, matching
  /// Contains(): a federated snapshot can hold DocRefs to documents a
  /// live node ingested after this bitmap's universe was fixed, and an
  /// unrepresentable candidate can only be dropped from the filter —
  /// writing its bit would corrupt memory past words_.
  void Set(DocId doc) {
    if (doc >= num_docs_) return;
    uint64_t& word = words_[doc >> 6];
    const uint64_t bit = uint64_t{1} << (doc & 63);
    count_ += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  }

  /// Clears `doc`'s bit; ids outside [0, num_docs) are ignored.
  void Clear(DocId doc) {
    if (!Contains(doc)) return;
    words_[doc >> 6] &= ~(uint64_t{1} << (doc & 63));
    --count_;
  }

  bool Contains(DocId doc) const {
    return doc < num_docs_ && ((words_[doc >> 6] >> (doc & 63)) & 1) != 0;
  }

  size_t num_docs() const { return num_docs_; }
  /// Number of documents in the filter.
  size_t count() const { return count_; }

 private:
  size_t num_docs_ = 0;
  size_t count_ = 0;
  std::vector<uint64_t> words_;
};

/// Runtime default for RankOptions::kernel: the DLS_KERNEL environment
/// variable ("scalar" | "block" | "packed") when set and valid, else
/// the compile-time default. Read once per process, so every ranking
/// path can be flipped to a different kernel for a bisection or a CI
/// pass without rebuilding. An unknown value falls back to the
/// compiled default rather than aborting.
ScoreKernel DefaultScoreKernel();

/// Ranking parameters of the Hiemstra-derived tf·idf variant (see
/// Ranker below).
struct RankOptions {
  /// Interpolation weight of the document model (Hiemstra's λ).
  double lambda = 0.15;
  /// Posting-scan kernel implementation (see ScoreKernel).
  ScoreKernel kernel = DefaultScoreKernel();
  /// WAND-style top-N pruning: skip postings/blocks whose score bound
  /// cannot enter the current top N. Exact — returns the identical
  /// ranking (docs and scores) as the exhaustive evaluation — but
  /// work stats (postings_touched, blocks_skipped) reflect the skips.
  bool prune = false;
  /// With prune, when the shard coordinator (ir::CoordinateBatch) runs
  /// a cluster's nodes concurrently through an executor, give each
  /// query one atomic threshold θ (monotone max) shared by its nodes:
  /// each node publishes its running n-th best score and prunes
  /// against the cluster-wide max. The merged ranking stays exact
  /// (every published value is a lower bound of the final global n-th
  /// best) but the work stats become timing-dependent. Nodes called in
  /// turn use the sequential threshold feedback instead, so the flag
  /// only matters under an executor. An in-process execution policy:
  /// ignored by single-index rankings and not part of the wire query
  /// contract (a remote call ignores the θ; remote nodes are separate
  /// processes).
  bool shared_threshold = false;
  /// Evaluation strategy (see RankStrategy). kAuto defers to the
  /// per-query cost model when `prune` is set and to the exhaustive
  /// TAAT scan otherwise; an explicit kTaat/kWand forces that
  /// evaluation regardless of `prune`. All choices are bit-identical.
  RankStrategy strategy = RankStrategy::kAuto;
  /// Candidate-set pushdown (non-owning; null = no filter): restrict
  /// the ranking to documents in this node-local bitmap. The result is
  /// bit-identical to evaluating exhaustively and then dropping
  /// documents outside the filter (see DocFilter). Like
  /// shared_threshold, this is an in-process execution policy, not
  /// part of the wire query contract — doc ids are node-local, so the
  /// federated executor builds one bitmap per node (ClusterDocFilter)
  /// and the remote shard path never carries one.
  const DocFilter* doc_filter = nullptr;
};

/// The full-text index: an implementation of the paper's five
/// relations —
///   T   term-oid -> stemmed term          (vocabulary)
///   D   doc-oid  -> doc-url               (document index)
///   DT  (doc-oid, term-oid, pair-oid)     (document term list)
///   TF  pair-oid -> tf
///   IDF term-oid -> idf = 1/df
/// — with DT⋈TF stored clustered by term (posting lists), which is the
/// layout the fragmented/distributed layers operate on.
///
/// Indexing is incremental in the paper's sense: AddDocument buffers
/// per-document term counts and Flush() (called automatically every
/// `flush_batch` documents) folds them into the posting lists and
/// updates df/idf. Queries observe only flushed documents. Within one
/// batch each distinct raw token is normalised and interned once; the
/// relations are exactly those of normalising every token.
///
/// Thread-safety contract (the read path of the parallel execution
/// engine relies on this): the index is *frozen for reads* once
/// Flush()/ClusterIndex::Finalize() returns — any number of threads
/// may then call the const accessors and RankTopN concurrently, as
/// long as no thread mutates (AddDocument/Flush) at the same time.
/// Every mutation bumps mutation_epoch(), which read-side views
/// (FragmentedIndex) record at build time and debug-assert against, so
/// a mutate-after-freeze bug trips immediately in debug builds.
class TextIndex {
 public:
  struct Options {
    /// Fold pending documents into the relations every N additions
    /// ("every time the storage manager has parsed a certain number of
    /// document bodies").
    size_t flush_batch = 32;
    /// Apply the Porter stemmer before lookup/insert.
    bool stem = true;
    /// Drop stopwords.
    bool stop = true;
  };

  /// Constructs with default options.
  TextIndex();
  explicit TextIndex(Options options);

  /// Registers a document body under `url`; returns its doc id. The
  /// URLs, and separately the distinct stems, of one index must encode
  /// to less than 4 GiB (their offsets are 32-bit; asserted).
  DocId AddDocument(std::string_view url, std::string_view text);

  /// Folds all buffered documents into the relations. Also (re)packs
  /// every touched posting list's delta/varint sidecar (codec.h), so a
  /// flushed index always supports the packed scoring kernel.
  void Flush();

  /// Frees the uncompressed SoA posting payload of every list, keeping
  /// the packed encodings and block metadata — the memory footprint of
  /// DT⋈TF drops to the packed bytes (bench_codec reports the ratio).
  /// Every ranking path keeps working, reading through the per-block
  /// decoder regardless of RankOptions::kernel, and stays
  /// bit-identical. The index must be flushed and becomes immutable:
  /// adding documents afterwards is a programming error (asserts in
  /// debug builds).
  void ReleaseUnpackedPostings();

  /// Serialises the frozen index (Flush()ed, so every list is packed)
  /// into the versioned segment file format of ir/segment.h:
  /// checksummed sections holding the term dictionary, document
  /// tables, per-block offsets/metadata and the packed delta/varint
  /// streams. The file round-trips bit-exactly: LoadFromSegment()
  /// serves the identical rankings. Works on released and on loaded
  /// indexes too (re-save), since only the packed sidecar is written.
  Status FlushToDisk(const std::string& path) const;

  /// Maps a segment written by FlushToDisk() and serves straight from
  /// the mapping: posting payloads, block offsets/metadata, the
  /// per-document length tables and the D and T entries' bytes stay in
  /// the file (borrowed-bytes mode, see PostingList::AdoptPackedView
  /// and StringColumn::Borrow). The heap holds only what the file does
  /// not: one PostingList per term, df, a 4-byte offset per URL and
  /// per stem, and the stem -> term-oid table. The loaded index is
  /// frozen: AddDocument/Flush are programming errors (assert).
  /// Corrupt or truncated files are rejected with kCorruption (or
  /// kUnsupported for a format this build cannot read) before any
  /// byte is trusted.
  static Result<std::unique_ptr<TextIndex>> LoadFromSegment(
      const std::string& path, const SegmentLoadOptions& load_options = {});

  /// True when this index serves from an mmap'd segment.
  bool loaded_from_segment() const { return segment_ != nullptr; }

  /// Heap footprint of the index structures this object owns, by
  /// capacity: posting payloads until released, packed sidecars, the D
  /// and T arenas with their offsets and the stem table, document
  /// stats. Borrowed segment bytes are excluded, so a loaded index
  /// counts its URLs and stems at 4 bytes each, whatever their length.
  size_t bytes_resident() const;
  /// Bytes of the backing segment mapping (0 for heap-built indexes).
  /// Resident-on-demand: the kernel pages them in on first touch and
  /// may evict them under pressure, so bytes_mapped() is a ceiling,
  /// not a working-set measurement.
  size_t bytes_mapped() const;

  /// Normalises a raw query word the same way indexing does. Returns
  /// nullopt for stopwords.
  std::optional<std::string> NormalizeWord(std::string_view word) const;

  /// The normalisation/flush configuration this index was built with.
  const Options& options() const { return options_; }

  /// T-relation lookup: stem -> term oid.
  std::optional<TermId> LookupTerm(std::string_view stem) const;

  /// The T and D entries. A view stays valid until the next
  /// AddDocument() on a heap-built index (which may grow the arena it
  /// points into), and for the index's life once it is frozen or
  /// loaded from a segment. Copy it to keep it past that.
  std::string_view term(TermId t) const { return terms_[t]; }
  size_t vocabulary_size() const { return terms_.size(); }
  std::string_view url(DocId d) const { return urls_[d]; }
  size_t document_count() const { return urls_.size(); }
  size_t flushed_document_count() const { return flushed_docs_; }

  /// Incremented by every mutation (AddDocument, non-empty Flush).
  /// Stable epoch == frozen index; see the class comment. Atomic so an
  /// observer thread (the serve-layer warmer) may poll it while another
  /// thread mutates; the index data itself is still single-writer.
  uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }

  /// Document frequency / idf (1/df per the paper) of a term.
  int32_t df(TermId t) const { return df_[t]; }
  double idf(TermId t) const { return 1.0 / static_cast<double>(df_[t]); }

  const PostingList& postings(TermId t) const { return postings_[t]; }

  /// Total number of indexed term occurrences in a document.
  int64_t doc_length(DocId d) const { return doc_length_data()[d]; }
  /// Σ over documents of doc_length.
  int64_t collection_length() const { return collection_length_; }

  /// Per-document lengths; points into the segment mapping for a
  /// loaded index, into the heap vector otherwise.
  const int64_t* doc_length_data() const {
    return doc_lengths_view_ != nullptr ? doc_lengths_view_
                                        : doc_lengths_.data();
  }
  /// Precomputed 1/doc_length per document (0 for empty documents):
  /// the scoring kernel multiplies instead of dividing per posting.
  const double* inv_doc_length_data() const {
    return inv_doc_lengths_view_ != nullptr ? inv_doc_lengths_view_
                                            : inv_doc_lengths_.data();
  }
  double inv_doc_length(DocId d) const { return inv_doc_length_data()[d]; }
  /// Largest 1/doc_length of any flushed document — equivalently the
  /// reciprocal of the shortest document; the WAND score upper bounds
  /// are evaluated at this point.
  double max_inv_doc_length() const { return max_inv_doc_length_; }

  /// Normalises every raw query word, resolves it against T, and
  /// de-duplicates: a repeated query word contributes once (scoring a
  /// duplicate twice would double-count its postings — see DESIGN.md
  /// for the chosen semantics). Order of first occurrence is kept, so
  /// score summation order — and thus FP-exact results — is stable.
  std::vector<TermId> ResolveQuery(
      const std::vector<std::string>& query_words) const;

  /// Ranks all flushed documents against the (raw, unstemmed) query
  /// words and returns the top `n` by descending score. Exact
  /// evaluation over full posting lists; the fragmented index layers
  /// cut this cost down, and options.prune skips work that provably
  /// cannot change the top `n`.
  std::vector<ScoredDoc> RankTopN(const std::vector<std::string>& query_words,
                                  size_t n,
                                  const RankOptions& options = {}) const;

  /// As above, reporting the evaluation's work accounting (postings
  /// touched, blocks skipped/decoded, pivot iterations, cursor
  /// advances — see RankStats) through `stats`.
  std::vector<ScoredDoc> RankTopN(const std::vector<std::string>& query_words,
                                  size_t n, const RankOptions& options,
                                  RankStats* stats) const;

 private:
  TermId InternTerm(std::string_view stem);

  Options options_;

  /// T and D in their segment encoding (ir/string_column.h): an owned
  /// arena on a heap-built index, borrowed section bytes on a loaded
  /// one, so FlushToDisk writes either as it is.
  StringDictionary terms_;             // T, with stem -> term oid
  StringColumn urls_;                  // D
  std::vector<PostingList> postings_;  // DT ⋈ TF, block-structured SoA
  std::vector<int32_t> df_;            // IDF source
  std::vector<int64_t> doc_lengths_;
  std::vector<double> inv_doc_lengths_;  // 1/doc_length (kernel input)
  /// Borrowed per-document tables of a loaded index: they point into
  /// segment_'s mapping and the heap vectors above stay empty.
  const int64_t* doc_lengths_view_ = nullptr;
  const double* inv_doc_lengths_view_ = nullptr;
  double max_inv_doc_length_ = 0.0;      // 1/min doc_length (WAND bounds)
  int64_t collection_length_ = 0;
  size_t flushed_docs_ = 0;
  std::atomic<uint64_t> mutation_epoch_{0};
  /// Keeps the mmap'd segment alive for every borrowed view above and
  /// in the posting lists. Null for heap-built indexes.
  std::shared_ptr<MappedFile> segment_;

  /// Documents awaiting Flush(): document i's distinct terms, ascending,
  /// each with its tf, are pending_counts_[pending_[i-1].counts_end,
  /// pending_[i].counts_end).
  struct PendingDoc {
    DocId doc;
    size_t counts_end;
  };
  std::vector<PendingDoc> pending_;
  std::vector<std::pair<TermId, int32_t>> pending_counts_;
  /// Normalisation memo of the pending batch: raw lowercased token i of
  /// memo_tokens_ maps to memo_terms_[i], its term id or kInvalidTerm
  /// for a token normalisation drops (a stopword). Filling the memo
  /// allocates only when a buffer grows, and Flush() frees it together
  /// with the pending documents, so a flushed index holds no memo.
  StringDictionary memo_tokens_;
  std::vector<TermId> memo_terms_;
};

/// Scores one (tf, df, doclen) triple under the Hiemstra-derived model:
///
///   score contribution of a matching term =
///     log(1 + λ·tf·collection_length / ((1-λ)·df·doclen))
///
/// which is the monotonic rewrite of Hiemstra's interpolated language
/// model P(q|d) = Π (1-λ)P(t) + λP(t|d) in which only terms present in
/// the document contribute — the property that makes idf-ordered
/// fragment cut-off sound.
double TermScore(int32_t tf, int32_t df, int64_t doclen,
                 int64_t collection_length, const RankOptions& options);

/// The configurable normalisation pipeline every index path shares:
/// lowercase, optionally drop stopwords, optionally Porter-stem.
/// TextIndex::NormalizeWord applies it with the index's own options;
/// query resolution applies it through NormalizeQuery with the options
/// of the index the query runs against (for a remote cluster, the ones
/// the shards advertise in the stats handshake), so resolution matches
/// indexing whatever the configuration.
std::optional<std::string> NormalizeWordAs(std::string_view word, bool stem,
                                           bool stop);

/// A query's stems: each word through NormalizeWordAs, repeats dropped
/// keeping the first occurrence (each unique term scores once). Every
/// cluster centre resolves through it, and so do the serving cache
/// keys — a key cannot drift from the resolution it stands for.
std::vector<std::string> NormalizeQuery(const std::vector<std::string>& words,
                                        bool stem, bool stop);

/// Standalone stem+stop normalisation with the default pipeline
/// (lowercase, stopword filter, Porter stem). nullopt for stopwords.
std::optional<std::string> NormalizeWord(std::string_view word);

}  // namespace dls::ir

#endif  // DLS_IR_INDEX_H_
