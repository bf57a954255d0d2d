#include "ingest/live_index.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "common/strings.h"
#include "common/timer.h"
#include "ir/kernel.h"
#include "ir/tokenizer.h"

namespace dls::ingest {

namespace {

/// Per-stem term counts of a document body under the index's
/// normalisation — the pipeline TextIndex::AddDocument runs
/// (ForEachToken + NormalizeWordAs), so the df/length bookkeeping a
/// tombstone reverses is exactly what indexing once added.
std::unordered_map<std::string, int32_t> TermCounts(std::string_view text,
                                                    bool stem, bool stop,
                                                    int64_t* length) {
  std::unordered_map<std::string, int32_t> counts;
  int64_t total = 0;
  ir::ForEachToken(text, [&](std::string_view token) {
    std::optional<std::string> norm = ir::NormalizeWordAs(token, stem, stop);
    if (!norm) return;
    ++counts[*norm];
    ++total;
  });
  if (length != nullptr) *length = total;
  return counts;
}

/// The StatsDelta of a document's term counts: its distinct stems in
/// ascending order and its length.
StatsDelta DeltaOf(const std::unordered_map<std::string, int32_t>& counts,
                   int64_t length) {
  StatsDelta delta;
  delta.length = length;
  delta.stems.reserve(counts.size());
  for (const auto& [stem, tf] : counts) delta.stems.push_back(stem);
  std::sort(delta.stems.begin(), delta.stems.end());
  return delta;
}

void AddRankStats(const ir::RankStats& from, ir::RankStats* into) {
  into->postings_touched += from.postings_touched;
  into->blocks_skipped += from.blocks_skipped;
  into->blocks_decoded += from.blocks_decoded;
  into->pivot_iterations += from.pivot_iterations;
  into->cursor_advances += from.cursor_advances;
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot

int64_t LiveIndex::Snapshot::collection_length() const {
  int64_t sum = 0;
  for (const std::shared_ptr<const Part>& p : parts_) {
    sum += p->index->collection_length();
  }
  return sum - cl_minus_;
}

size_t LiveIndex::Snapshot::delta_docs() const {
  size_t sum = 0;
  for (const std::shared_ptr<const Part>& p : parts_) {
    if (!p->frozen) sum += p->global_ids.size();
  }
  return sum;
}

int32_t LiveIndex::Snapshot::EffectiveDf(std::string_view stem) const {
  int64_t df = 0;
  for (const std::shared_ptr<const Part>& p : parts_) {
    std::optional<ir::TermId> t = p->index->LookupTerm(stem);
    if (t) df += p->index->df(*t);
  }
  auto it = df_minus_->find(std::string(stem));
  if (it != df_minus_->end()) df -= it->second;
  return static_cast<int32_t>(df);
}

std::unordered_map<std::string, int32_t>
LiveIndex::Snapshot::EffectiveDfTable() const {
  std::unordered_map<std::string, int32_t> table;
  for (const std::shared_ptr<const Part>& p : parts_) {
    const size_t vocab = p->index->vocabulary_size();
    for (ir::TermId t = 0; t < vocab; ++t) {
      table[p->index->term(t)] += p->index->df(t);
    }
  }
  for (const auto& [stem, minus] : *df_minus_) {
    auto it = table.find(stem);
    if (it == table.end()) continue;
    it->second -= minus;
    if (it->second <= 0) table.erase(it);
  }
  return table;
}

std::vector<LiveScoredDoc> LiveIndex::Snapshot::Query(
    const std::vector<std::string>& words, size_t n,
    const ir::RankOptions& options, ir::RankStats* stats) const {
  if (stats != nullptr) *stats = ir::RankStats{};
  if (n == 0) return {};

  // Normalise and de-duplicate on first occurrence — the same query
  // resolution TextIndex::ResolveQuery applies, so the canonical term
  // order below matches a rebuild's.
  const std::vector<std::string> stems =
      ir::NormalizeQuery(words, stem_, stop_);
  if (stems.empty()) return {};

  // Resolve per part and compute effective df. Stems whose live df is
  // 0 (absent everywhere, or every holder tombstoned) are dropped —
  // the rebuild's vocabulary would not contain them either.
  const int64_t eff_cl = collection_length();
  std::vector<int32_t> eff_df(stems.size(), 0);
  std::vector<std::vector<std::optional<ir::TermId>>> resolved(
      parts_.size(), std::vector<std::optional<ir::TermId>>(stems.size()));
  for (size_t i = 0; i < stems.size(); ++i) {
    int64_t df = 0;
    for (size_t pi = 0; pi < parts_.size(); ++pi) {
      std::optional<ir::TermId> t = parts_[pi]->index->LookupTerm(stems[i]);
      resolved[pi][i] = t;
      if (t) df += parts_[pi]->index->df(*t);
    }
    auto it = df_minus_->find(stems[i]);
    if (it != df_minus_->end()) df -= it->second;
    eff_df[i] = static_cast<int32_t>(df);
  }

  // Evaluate each part independently: per-part top (n + tombstones in
  // the part) under the global effective statistics and the local
  // doc-id tie order (local order is global order within a part), then
  // filter tombstoned hits. The over-fetch makes the filter exact: at
  // most part_tombstones_ dead documents can outrank a live one.
  struct Cand {
    double score;
    uint64_t id;
    const Part* part;
    ir::DocId local;
  };
  std::vector<Cand> cands;
  for (size_t pi = 0; pi < parts_.size(); ++pi) {
    const Part& part = *parts_[pi];
    std::vector<ir::EvalTerm> terms;
    terms.reserve(stems.size());
    for (size_t i = 0; i < stems.size(); ++i) {
      if (eff_df[i] <= 0) continue;
      const std::optional<ir::TermId>& t = resolved[pi][i];
      if (!t) continue;
      terms.push_back(ir::EvalTerm{
          &part.index->postings(*t),
          ir::TermWeight(eff_df[i], eff_cl, options), eff_df[i]});
    }
    if (terms.empty()) continue;
    const size_t want = n + part_tombstones_[pi];
    ir::RankStats part_stats;
    std::vector<ir::ScoredDoc> top = ir::EvaluateTopN(
        std::move(terms), part.index->document_count(),
        part.index->inv_doc_length_data(), part.index->max_inv_doc_length(),
        want, /*initial_threshold=*/0.0, ir::DocIdTieLess{}, options,
        &part_stats);
    if (stats != nullptr) AddRankStats(part_stats, stats);
    size_t kept = 0;
    for (const ir::ScoredDoc& d : top) {
      const uint64_t id = part.global_ids[d.doc];
      if (IsDeleted(id)) continue;
      cands.push_back(Cand{d.score, id, &part, d.doc});
      if (++kept == n) break;
    }
  }

  // Merge on (score desc, global id asc): global ids are insertion
  // order, i.e. exactly a rebuild's doc-id tie order.
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  if (cands.size() > n) cands.resize(n);
  std::vector<LiveScoredDoc> out;
  out.reserve(cands.size());
  for (const Cand& c : cands) {
    out.push_back(LiveScoredDoc{c.id, c.part->index->url(c.local), c.score});
  }
  return out;
}

// ---------------------------------------------------------------------------
// LiveIndex

LiveIndex::LiveIndex(LiveIndexOptions options)
    : options_(std::move(options)) {
  if (options_.delta_seal_docs == 0) options_.delta_seal_docs = 1;
  tombstones_ = std::make_shared<const std::unordered_set<uint64_t>>();
  df_minus_ =
      std::make_shared<const std::unordered_map<std::string, int32_t>>();
  auto snap = std::make_shared<Snapshot>();
  snap->tombstones_ = tombstones_;
  snap->df_minus_ = df_minus_;
  snap->stem_ = options_.node.stem;
  snap->stop_ = options_.node.stop;
  {
    std::lock_guard<std::mutex> snap_lock(snap_mu_);
    snapshot_ = std::move(snap);
  }
  if (options_.auto_merge_docs > 0) {
    merge_thread_ = std::thread([this] { MergeLoop(); });
  }
}

LiveIndex::~LiveIndex() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  merge_cv_.notify_all();
  if (merge_thread_.joinable()) merge_thread_.join();
}

std::shared_ptr<ir::TextIndex> LiveIndex::BuildPart(
    const std::vector<std::pair<std::string, std::string>>& docs) const {
  ir::TextIndex::Options opts = options_.node;
  opts.flush_batch = docs.size() + 1;  // one fold at the end
  auto index = std::make_shared<ir::TextIndex>(opts);
  for (const auto& [url, text] : docs) index->AddDocument(url, text);
  index->Flush();
  return index;
}

void LiveIndex::PublishLocked(std::shared_ptr<Snapshot> snap) {
  snap->parts_ = parts_;
  snap->part_tombstones_ = part_tombstones_;
  snap->tombstones_ = tombstones_;
  snap->df_minus_ = df_minus_;
  snap->cl_minus_ = cl_minus_;
  snap->total_docs_ = 0;
  for (const auto& p : parts_) snap->total_docs_ += p->global_ids.size();
  snap->epoch_ = ++epoch_;
  snap->stem_ = options_.node.stem;
  snap->stop_ = options_.node.stop;
  std::lock_guard<std::mutex> snap_lock(snap_mu_);
  snapshot_ = std::move(snap);
}

Result<uint64_t> LiveIndex::Insert(std::string_view url,
                                   std::string_view text, StatsDelta* delta) {
  // The delta depends on the body alone, so it is tokenised before the
  // writer lock is taken.
  StatsDelta inserted;
  if (delta != nullptr) {
    int64_t length = 0;
    const std::unordered_map<std::string, int32_t> counts =
        TermCounts(text, options_.node.stem, options_.node.stop, &length);
    inserted = DeltaOf(counts, length);
  }
  std::unique_lock<std::mutex> lock(mu_);
  std::string key(url);
  auto it = url_to_id_.find(key);
  if (it != url_to_id_.end() && docs_[it->second].alive) {
    return Status::AlreadyExists(
        StrFormat("live document already has url '%s'", key.c_str()));
  }
  const uint64_t id = docs_.size();
  docs_.push_back(StoredDoc{key, std::string(text), true});
  url_to_id_[key] = id;
  active_ids_.push_back(id);

  // Rebuild the active delta part with the new document. The part
  // object is replaced wholesale — published snapshots keep the old
  // one, so readers never observe a mutating index.
  std::vector<std::pair<std::string, std::string>> bodies;
  bodies.reserve(active_ids_.size());
  for (uint64_t d : active_ids_) {
    bodies.emplace_back(docs_[d].url, docs_[d].text);
  }
  auto part = std::make_shared<Part>();
  part->index = BuildPart(bodies);
  part->global_ids = active_ids_;
  part->frozen = false;
  uint32_t dead = 0;
  for (uint64_t d : active_ids_) {
    if (tombstones_->count(d) != 0) ++dead;
  }
  if (active_part_ != nullptr) {
    assert(!parts_.empty() && parts_.back() == active_part_);
    parts_.back() = part;
    part_tombstones_.back() = dead;
  } else {
    parts_.push_back(part);
    part_tombstones_.push_back(dead);
  }
  active_part_ = part;
  if (active_ids_.size() >= options_.delta_seal_docs) {
    active_part_ = nullptr;  // sealed: the next insert opens a new part
    active_ids_.clear();
  }
  PublishLocked(std::make_shared<Snapshot>());

  bool wake = false;
  if (options_.auto_merge_docs > 0) {
    size_t delta = 0;
    for (const auto& p : parts_) {
      if (!p->frozen) delta += p->global_ids.size();
    }
    wake = delta >= options_.auto_merge_docs;
  }
  lock.unlock();
  if (wake) merge_cv_.notify_all();
  if (delta != nullptr) *delta = std::move(inserted);
  return id;
}

bool LiveIndex::Delete(std::string_view url, StatsDelta* delta) {
  if (delta != nullptr) *delta = StatsDelta{};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = url_to_id_.find(std::string(url));
  if (it == url_to_id_.end()) return false;
  const uint64_t id = it->second;
  if (!docs_[id].alive) return false;
  docs_[id].alive = false;

  auto tomb = std::make_shared<std::unordered_set<uint64_t>>(*tombstones_);
  tomb->insert(id);
  tombstones_ = std::move(tomb);

  // Reverse the document's statistics contribution: every part keeps
  // counting it (postings are immutable), so queries subtract it from
  // df and the collection length to score against live-only stats.
  int64_t length = 0;
  std::unordered_map<std::string, int32_t> counts = TermCounts(
      docs_[id].text, options_.node.stem, options_.node.stop, &length);
  auto minus =
      std::make_shared<std::unordered_map<std::string, int32_t>>(*df_minus_);
  for (const auto& [stem, tf] : counts) ++(*minus)[stem];
  df_minus_ = std::move(minus);
  cl_minus_ += length;
  if (delta != nullptr) *delta = DeltaOf(counts, length);

  for (size_t pi = 0; pi < parts_.size(); ++pi) {
    const std::vector<uint64_t>& ids = parts_[pi]->global_ids;
    if (std::binary_search(ids.begin(), ids.end(), id)) {
      ++part_tombstones_[pi];
      break;
    }
  }
  PublishLocked(std::make_shared<Snapshot>());
  return true;
}

void LiveIndex::Merge() {
  // One merge at a time (foreground callers vs the background thread);
  // mutations keep flowing — mu_ is held only to claim and to swap.
  std::lock_guard<std::mutex> merge_lock(merge_mu_);

  struct ClaimedDoc {
    uint64_t id;
    bool alive;
    std::string url;
    std::string text;
  };
  std::vector<std::shared_ptr<const Part>> claimed;
  std::vector<ClaimedDoc> cdocs;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t claimed_docs = 0;
    for (const auto& p : parts_) {
      if (p->frozen) continue;
      claimed.push_back(p);
      claimed_docs += p->global_ids.size();
    }
    // Fold the newest frozen runs while each holds at most twice the
    // documents claimed so far. The first larger run stops the walk, so
    // every kept run holds more than twice the new one and a node of N
    // documents holds at most 1 + log2(N) runs.
    for (auto it = parts_.rbegin(); it != parts_.rend(); ++it) {
      if (!(*it)->frozen) continue;
      if ((*it)->global_ids.size() > 2 * claimed_docs) break;
      claimed.push_back(*it);
      claimed_docs += (*it)->global_ids.size();
    }
    for (const auto& p : claimed) {
      for (uint64_t id : p->global_ids) {
        cdocs.push_back(
            ClaimedDoc{id, docs_[id].alive, docs_[id].url, docs_[id].text});
      }
    }
    // Seal the active part: inserts landing during the build go to a
    // fresh delta part that the swap below leaves untouched.
    active_part_ = nullptr;
    active_ids_.clear();
    seq = run_seq_++;
  }
  std::sort(cdocs.begin(), cdocs.end(),
            [](const ClaimedDoc& a, const ClaimedDoc& b) {
              return a.id < b.id;
            });

  // Build the packed run from the claimed parts' live documents —
  // outside every lock, so queries and mutations never stall on the
  // rebuild ("no stop-the-world").
  std::shared_ptr<Part> run;
  {
    std::string segment_path;
    std::vector<std::pair<std::string, std::string>> bodies;
    std::vector<uint64_t> ids;
    for (const ClaimedDoc& d : cdocs) {
      if (!d.alive) continue;
      bodies.emplace_back(d.url, d.text);
      ids.push_back(d.id);
    }
    if (!bodies.empty()) {
      std::shared_ptr<ir::TextIndex> index = BuildPart(bodies);
      if (!options_.segment_dir.empty()) {
        const std::string path =
            StrFormat("%s/run-%llu.seg", options_.segment_dir.c_str(),
                      static_cast<unsigned long long>(seq));
        if (index->FlushToDisk(path).ok()) {
          Result<std::unique_ptr<ir::TextIndex>> loaded =
              ir::TextIndex::LoadFromSegment(path);
          if (loaded.ok()) {
            index = std::shared_ptr<ir::TextIndex>(
                std::move(loaded).value().release());
            segment_path = path;
          }
          // A failed write/load keeps the heap-built run: the merge
          // must never lose documents over an I/O error.
        }
      }
      run = std::make_shared<Part>();
      run->segment_path = std::move(segment_path);
      run->fragments = std::make_shared<ir::FragmentedIndex>(
          index.get(), options_.num_fragments);
      run->index = std::move(index);
      run->global_ids = std::move(ids);
      run->frozen = true;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Documents tombstoned at claim time were excluded from the run:
    // they are gone physically, so their tombstones and statistics
    // corrections are reversed. Documents deleted *during* the build
    // are inside the run and keep their tombstones — still exact.
    auto tomb = std::make_shared<std::unordered_set<uint64_t>>(*tombstones_);
    auto minus = std::make_shared<std::unordered_map<std::string, int32_t>>(
        *df_minus_);
    for (const ClaimedDoc& d : cdocs) {
      if (d.alive) continue;
      tomb->erase(d.id);
      int64_t length = 0;
      std::unordered_map<std::string, int32_t> counts = TermCounts(
          d.text, options_.node.stem, options_.node.stop, &length);
      for (const auto& [stem, tf] : counts) {
        auto it = minus->find(stem);
        if (it != minus->end() && --it->second <= 0) minus->erase(it);
      }
      cl_minus_ -= length;
    }

    std::vector<std::shared_ptr<const Part>> new_parts;
    std::vector<uint32_t> new_counts;
    bool placed = false;
    auto is_claimed = [&claimed](const std::shared_ptr<const Part>& p) {
      return std::find(claimed.begin(), claimed.end(), p) != claimed.end();
    };
    for (size_t pi = 0; pi < parts_.size(); ++pi) {
      if (is_claimed(parts_[pi])) {
        if (!placed && run != nullptr) {
          uint32_t dead = 0;
          for (uint64_t id : run->global_ids) {
            if (tomb->count(id) != 0) ++dead;
          }
          new_parts.push_back(run);
          new_counts.push_back(dead);
        }
        placed = true;
        continue;
      }
      new_parts.push_back(parts_[pi]);
      new_counts.push_back(part_tombstones_[pi]);
    }
    parts_ = std::move(new_parts);
    part_tombstones_ = std::move(new_counts);
    tombstones_ = std::move(tomb);
    df_minus_ = std::move(minus);
    PublishLocked(std::make_shared<Snapshot>());
    merges_.fetch_add(1, std::memory_order_relaxed);
  }
  // Folded runs are out of the published parts list. Readers pinned to
  // an older epoch keep their mapping: unlinking removes the name, not
  // the pages.
  for (const auto& p : claimed) {
    if (!p->segment_path.empty()) ::unlink(p->segment_path.c_str());
  }
}

std::shared_ptr<const LiveIndex::Snapshot> LiveIndex::Pin() const {
  std::lock_guard<std::mutex> snap_lock(snap_mu_);
  return snapshot_;
}

std::vector<LiveScoredDoc> LiveIndex::Query(
    const std::vector<std::string>& words, size_t n,
    const ir::RankOptions& options, ir::RankStats* stats) const {
  return Pin()->Query(words, n, options, stats);
}

LiveIndexStats LiveIndex::Stats() const {
  std::shared_ptr<const Snapshot> snap = Pin();
  LiveIndexStats stats;
  stats.epoch = snap->epoch();
  stats.live_docs = snap->live_docs();
  stats.total_docs = snap->total_docs();
  stats.tombstones = snap->tombstone_count();
  stats.parts = snap->parts().size();
  stats.collection_length = snap->collection_length();
  stats.merges = merges_.load(std::memory_order_relaxed);
  for (const auto& p : snap->parts()) {
    if (!p->frozen) {
      ++stats.delta_parts;
      stats.delta_docs += p->global_ids.size();
    }
    stats.bytes_resident += p->index->bytes_resident();
    stats.bytes_mapped += p->index->bytes_mapped();
  }
  return stats;
}

void LiveIndex::MergeLoop() {
  const auto poll = std::chrono::milliseconds(
      options_.merge_poll_ms > 0 ? options_.merge_poll_ms : 1);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    merge_cv_.wait_for(lock, poll);
    if (stop_) break;
    size_t delta = 0;
    for (const auto& p : parts_) {
      if (!p->frozen) delta += p->global_ids.size();
    }
    if (delta < options_.auto_merge_docs) continue;
    lock.unlock();
    Merge();
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Cluster shard evaluation

ir::ShardResult EvaluateLiveShardQuery(const LiveIndex::Snapshot& snapshot,
                                       const ir::ShardQuery& query) {
  Timer timer;
  ir::ShardResult result;
  const std::vector<std::string>& stems = query.stems;
  const ir::RankOptions& options = query.options;
  result.stem_evaluated.assign(stems.size(), true);

  struct Cand {
    std::string url;
    double score;
  };
  std::vector<Cand> cands;
  const std::vector<std::shared_ptr<const LiveIndex::Part>>& parts =
      snapshot.parts();
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    const LiveIndex::Part& part = *parts[pi];
    std::vector<ir::EvalTerm> terms;
    terms.reserve(stems.size());
    for (size_t i = 0; i < stems.size(); ++i) {
      std::optional<ir::TermId> t = part.index->LookupTerm(stems[i]);
      // Fragment cut-off applies to merged runs (delta parts are tiny
      // and always evaluated exactly); a skipped stem counts against
      // the a-priori quality estimate like on a frozen node.
      if (t && part.fragments != nullptr &&
          part.fragments->FragmentOf(*t) >= query.max_fragments) {
        result.stem_evaluated[i] = false;
        continue;
      }
      if (!t) continue;  // unknown in this part
      if (query.stem_global_df[i] <= 0) continue;
      terms.push_back(ir::EvalTerm{
          &part.index->postings(*t),
          ir::TermWeight(query.stem_global_df[i], query.collection_length,
                         options),
          query.stem_global_df[i]});
    }
    if (terms.empty()) continue;
    const ir::ErasedTieLess url_less{
        [](const void* ctx, ir::DocId a, ir::DocId b) {
          const ir::TextIndex& idx = *static_cast<const ir::TextIndex*>(ctx);
          return idx.url(a) < idx.url(b);
        },
        part.index.get()};
    // Over-fetch by the part's tombstone count so the post-filter
    // top-n is exact (see LiveIndex::Snapshot::Query).
    const uint32_t dead = snapshot.part_tombstones()[pi];
    ir::RankStats rank_stats;
    std::vector<ir::ScoredDoc> local = ir::EvaluateTopN(
        std::move(terms), part.index->document_count(),
        part.index->inv_doc_length_data(), part.index->max_inv_doc_length(),
        query.n + dead, query.threshold, url_less, options, &rank_stats);
    result.postings_touched += rank_stats.postings_touched;
    result.blocks_skipped += rank_stats.blocks_skipped;
    result.blocks_decoded += rank_stats.blocks_decoded;
    result.pivot_iterations += rank_stats.pivot_iterations;
    result.cursor_advances += rank_stats.cursor_advances;
    size_t kept = 0;
    for (const ir::ScoredDoc& d : local) {
      if (snapshot.IsDeleted(part.global_ids[d.doc])) continue;
      cands.push_back(Cand{part.index->url(d.doc), d.score});
      if (++kept == query.n) break;
    }
  }

  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.url < b.url;
  });
  if (cands.size() > query.n) cands.resize(query.n);
  result.top.reserve(cands.size());
  for (Cand& c : cands) {
    result.top.push_back(ir::ClusterScoredDoc{std::move(c.url), c.score});
  }
  result.elapsed_us = timer.ElapsedSeconds() * 1e6;
  return result;
}

}  // namespace dls::ingest
