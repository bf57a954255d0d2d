#include "ingest/live_index.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "common/timer.h"
#include "ir/kernel.h"
#include "ir/tokenizer.h"

namespace dls::ingest {

namespace {

/// The StatsDelta of a document body: its distinct stems in ascending
/// order and its length, under the index's normalisation — the
/// pipeline TextIndex::AddDocument runs (ForEachToken +
/// NormalizeWordAs), so the df/length a delete hides is exactly what
/// indexing once added.
StatsDelta DocStats(std::string_view text, bool stem, bool stop) {
  StatsDelta stats;
  ir::ForEachToken(text, [&](std::string_view token) {
    std::optional<std::string> norm = ir::NormalizeWordAs(token, stem, stop);
    if (norm) stats.stems.push_back(std::move(*norm));
  });
  stats.length = static_cast<int64_t>(stats.stems.size());
  std::sort(stats.stems.begin(), stats.stems.end());
  stats.stems.erase(std::unique(stats.stems.begin(), stats.stems.end()),
                    stats.stems.end());
  return stats;
}

/// A deletion record of `part` with nothing deleted yet.
std::shared_ptr<LiveIndex::PartDeletes> NoDeletes(
    const LiveIndex::Part& part) {
  return std::make_shared<LiveIndex::PartDeletes>(LiveIndex::PartDeletes{
      ir::DocFilter::All(part.global_ids.size()),
      std::vector<int32_t>(part.index->vocabulary_size(), 0), 0});
}

/// Marks local document `doc` of `part` dead in `deletes`, an
/// unpublished record: clears its live bit and adds `stats`, its
/// body's StatsDelta, to the dead df and length.
void MarkDead(const LiveIndex::Part& part, ir::DocId doc,
              const StatsDelta& stats, LiveIndex::PartDeletes* deletes) {
  deletes->live.Clear(doc);
  for (const std::string& stem : stats.stems) {
    const std::optional<ir::TermId> t = part.index->LookupTerm(stem);
    assert(t && "a part's vocabulary holds every stem of its documents");
    ++deletes->dead_df[*t];
  }
  deletes->dead_length += stats.length;
}

/// The df of term `t` among a part's live documents.
int32_t LiveDf(const ir::TextIndex& index,
               const LiveIndex::PartDeletes* deletes, ir::TermId t) {
  return index.df(t) - (deletes == nullptr ? 0 : deletes->dead_df[t]);
}

/// The part holding global id `id` and its local doc id there, if any
/// part still holds it. Parts hold ascending global ids.
std::optional<std::pair<size_t, ir::DocId>> Locate(
    const std::vector<std::shared_ptr<const LiveIndex::Part>>& parts,
    uint64_t id) {
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    const std::vector<uint64_t>& ids = parts[pi]->global_ids;
    auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it != ids.end() && *it == id) {
      return std::make_pair(pi, static_cast<ir::DocId>(it - ids.begin()));
    }
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot

std::shared_ptr<const LiveIndex::Snapshot> LiveIndex::Snapshot::Frozen(
    std::shared_ptr<const ir::TextIndex> index,
    std::shared_ptr<const ir::FragmentedIndex> fragments) {
  auto snap = std::make_shared<Snapshot>();
  snap->total_docs_ = index->flushed_document_count();
  snap->epoch_ = index->mutation_epoch();
  snap->stem_ = index->options().stem;
  snap->stop_ = index->options().stop;
  snap->parts_.push_back(std::make_shared<const Part>(
      Part{std::move(index), std::move(fragments), {}, /*frozen=*/true, {}}));
  snap->deletes_.resize(1);
  snap->part_tombstones_.resize(1);
  return snap;
}

bool LiveIndex::Snapshot::IsDeleted(uint64_t id) const {
  const auto at = Locate(parts_, id);
  if (!at) return false;
  const ir::DocFilter* live = part_live(at->first);
  return live != nullptr && !live->Contains(at->second);
}

int64_t LiveIndex::Snapshot::collection_length() const {
  int64_t sum = 0;
  for (size_t pi = 0; pi < parts_.size(); ++pi) {
    sum += parts_[pi]->index->collection_length();
    if (deletes_[pi] != nullptr) sum -= deletes_[pi]->dead_length;
  }
  return sum;
}

int32_t LiveIndex::Snapshot::EffectiveDf(std::string_view stem) const {
  int32_t df = 0;
  for (size_t pi = 0; pi < parts_.size(); ++pi) {
    const ir::TextIndex& index = *parts_[pi]->index;
    std::optional<ir::TermId> t = index.LookupTerm(stem);
    if (t) df += LiveDf(index, deletes_[pi].get(), *t);
  }
  return df;
}

std::unordered_map<std::string, int32_t>
LiveIndex::Snapshot::EffectiveDfTable() const {
  // A part's stored df is at least 1 and its dead df at most that, so
  // skipping the parts' zero live dfs leaves exactly the stems whose
  // effective df is positive.
  std::unordered_map<std::string, int32_t> table;
  for (size_t pi = 0; pi < parts_.size(); ++pi) {
    const ir::TextIndex& index = *parts_[pi]->index;
    for (ir::TermId t = 0; t < index.vocabulary_size(); ++t) {
      const int32_t df = LiveDf(index, deletes_[pi].get(), t);
      if (df > 0) table[std::string(index.term(t))] += df;
    }
  }
  return table;
}

std::vector<std::pair<std::string, int32_t>>
LiveIndex::Snapshot::EffectiveDfList() const {
  std::vector<std::pair<std::string, int32_t>> list;
  if (parts_.size() == 1 && deletes_[0] == nullptr) {
    const ir::TextIndex& index = *parts_[0]->index;
    list.reserve(index.vocabulary_size());
    for (ir::TermId t = 0; t < index.vocabulary_size(); ++t) {
      list.emplace_back(index.term(t), index.df(t));
    }
    return list;
  }
  for (auto& [stem, df] : EffectiveDfTable()) list.emplace_back(stem, df);
  std::sort(list.begin(), list.end());
  return list;
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

  // Stems whose live df is 0 (absent everywhere, or every holder
  // tombstoned) are dropped — the rebuild's vocabulary would not
  // contain them either.
  const int64_t eff_cl = collection_length();
  std::vector<int32_t> eff_df;
  for (const std::string& stem : stems) eff_df.push_back(EffectiveDf(stem));

  // Evaluate each part independently: its live top n under the global
  // effective statistics and the local doc-id tie order (local order is
  // global order within a part).
  std::vector<LiveScoredDoc> out;
  for (size_t pi = 0; pi < parts_.size(); ++pi) {
    const Part& part = *parts_[pi];
    std::vector<ir::EvalTerm> terms;
    terms.reserve(stems.size());
    for (size_t i = 0; i < stems.size(); ++i) {
      if (eff_df[i] <= 0) continue;
      std::optional<ir::TermId> t = part.index->LookupTerm(stems[i]);
      if (!t) continue;
      terms.push_back(ir::EvalTerm{
          &part.index->postings(*t),
          ir::TermWeight(eff_df[i], eff_cl, options), eff_df[i]});
    }
    if (terms.empty()) continue;
    ir::RankOptions part_options = options;
    part_options.doc_filter = part_live(pi);
    ir::RankStats part_stats;
    std::vector<ir::ScoredDoc> top = ir::EvaluateTopN(
        std::move(terms), part.index->document_count(),
        part.index->inv_doc_length_data(), part.index->max_inv_doc_length(),
        n, /*initial_threshold=*/0.0, ir::DocIdTieLess{}, part_options,
        &part_stats);
    if (stats != nullptr) *stats += part_stats;
    for (const ir::ScoredDoc& d : top) {
      out.push_back(LiveScoredDoc{part.global_id(d.doc),
                                  std::string(part.index->url(d.doc)),
                                  d.score});
    }
  }

  // Merge on (score desc, global id asc): global ids are insertion
  // order, i.e. exactly a rebuild's doc-id tie order.
  std::sort(out.begin(), out.end(),
            [](const LiveScoredDoc& a, const LiveScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

// ---------------------------------------------------------------------------
// LiveIndex

LiveIndex::LiveIndex(LiveIndexOptions options)
    : options_(std::move(options)) {
  if (options_.delta_seal_docs == 0) options_.delta_seal_docs = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PublishLocked();  // the empty epoch 0
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

std::shared_ptr<const LiveIndex::PartDeletes> LiveIndex::DeletesLocked(
    const Part& part) const {
  std::shared_ptr<PartDeletes> deletes;
  for (size_t local = 0; local < part.global_ids.size(); ++local) {
    const StoredDoc& doc = docs_[part.global_ids[local]];
    if (doc.alive) continue;
    if (deletes == nullptr) deletes = NoDeletes(part);
    MarkDead(part, static_cast<ir::DocId>(local),
             DocStats(doc.text, options_.node.stem, options_.node.stop),
             deletes.get());
  }
  return deletes;
}

void LiveIndex::PublishLocked() {
  auto snap = std::make_shared<Snapshot>();
  snap->parts_ = parts_;
  snap->deletes_ = deletes_;
  snap->part_tombstones_.resize(parts_.size());
  for (size_t pi = 0; pi < parts_.size(); ++pi) {
    const size_t docs = parts_[pi]->global_ids.size();
    const size_t dead =
        deletes_[pi] == nullptr ? 0 : docs - deletes_[pi]->live.count();
    snap->part_tombstones_[pi] = static_cast<uint32_t>(dead);
    snap->total_docs_ += docs;
    snap->tombstones_ += dead;
  }
  snap->epoch_ = epoch_++;
  snap->stem_ = options_.node.stem;
  snap->stop_ = options_.node.stop;
  std::shared_ptr<const Snapshot> replaced;
  {
    std::lock_guard<std::mutex> snap_lock(snap_mu_);
    replaced = std::exchange(snapshot_, std::move(snap));
  }
  // When no reader pins it, the replaced snapshot (and whatever part
  // or record only it held) is freed here, after snap_mu_ is released:
  // Pin() never waits on a teardown.
}

Result<uint64_t> LiveIndex::Insert(std::string_view url,
                                   std::string_view text, StatsDelta* delta) {
  // The delta depends on the body alone, so it is tokenised before the
  // writer lock is taken.
  StatsDelta inserted;
  if (delta != nullptr) {
    inserted = DocStats(text, options_.node.stem, options_.node.stop);
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
  auto part = std::make_shared<const Part>(
      Part{BuildPart(bodies), nullptr, active_ids_, /*frozen=*/false, {}});
  // The rebuilt part keeps the deletes its predecessor carried.
  std::shared_ptr<const PartDeletes> deletes = DeletesLocked(*part);
  if (active_part_ != nullptr) {
    assert(!parts_.empty() && parts_.back() == active_part_);
    parts_.back() = part;
    deletes_.back() = std::move(deletes);
  } else {
    parts_.push_back(part);
    deletes_.push_back(std::move(deletes));
  }
  active_part_ = part;
  if (active_ids_.size() >= options_.delta_seal_docs) {
    active_part_ = nullptr;  // sealed: the next insert opens a new part
    active_ids_.clear();
  }
  PublishLocked();

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

  // Its part keeps counting the document (postings are immutable), so a
  // copy of that part's record clears its live bit and adds its stems
  // and length to the dead statistics that queries subtract.
  const auto at = Locate(parts_, id);
  assert(at && "every live document sits in a part");
  const auto& [pi, local] = *at;
  std::shared_ptr<PartDeletes> deletes =
      deletes_[pi] != nullptr ? std::make_shared<PartDeletes>(*deletes_[pi])
                              : NoDeletes(*parts_[pi]);
  StatsDelta removed =
      DocStats(docs_[id].text, options_.node.stem, options_.node.stop);
  MarkDead(*parts_[pi], local, removed, deletes.get());
  deletes_[pi] = std::move(deletes);
  if (delta != nullptr) *delta = std::move(removed);
  PublishLocked();
  return true;
}

void LiveIndex::Merge() {
  // One merge at a time (foreground callers vs the background thread);
  // mutations keep flowing — mu_ is held only to claim and to swap.
  std::lock_guard<std::mutex> merge_lock(merge_mu_);

  struct ClaimedDoc {
    uint64_t id;
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
    // Documents tombstoned at claim time leave with their parts.
    for (const auto& p : claimed) {
      for (uint64_t id : p->global_ids) {
        if (!docs_[id].alive) continue;
        cdocs.push_back(ClaimedDoc{id, docs_[id].url, docs_[id].text});
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
  std::shared_ptr<const Part> run;
  {
    std::string segment_path;
    std::vector<std::pair<std::string, std::string>> bodies;
    std::vector<uint64_t> ids;
    for (const ClaimedDoc& d : cdocs) {
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
      auto fragments = std::make_shared<const ir::FragmentedIndex>(
          index.get(), options_.num_fragments);
      run = std::make_shared<const Part>(
          Part{std::move(index), std::move(fragments), std::move(ids),
               /*frozen=*/true, std::move(segment_path)});
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // The claimed parts — the newest runs and every delta part of claim
    // time — still sit together in parts_; the run takes their place,
    // and their records go with them. Documents deleted *during* the
    // build are inside the run and make up its record.
    const size_t at =
        std::find_if(parts_.begin(), parts_.end(),
                     [&claimed](const auto& p) {
                       return std::find(claimed.begin(), claimed.end(), p) !=
                              claimed.end();
                     }) -
        parts_.begin();
    parts_.erase(parts_.begin() + at, parts_.begin() + at + claimed.size());
    deletes_.erase(deletes_.begin() + at,
                   deletes_.begin() + at + claimed.size());
    if (run != nullptr) {
      parts_.insert(parts_.begin() + at, run);
      deletes_.insert(deletes_.begin() + at, DeletesLocked(*run));
    }
    PublishLocked();
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
  const auto evaluate = [&](size_t pi) {
    const LiveIndex::Part& part = *snapshot.parts()[pi];
    return ir::EvaluateShardQuery(*part.index, part.fragments.get(), query,
                                  /*shared_theta=*/nullptr,
                                  snapshot.part_live(pi));
  };
  const size_t parts = snapshot.parts().size();
  if (parts == 1) return evaluate(0);
  Timer timer;
  ir::ShardResult result;
  result.stem_evaluated.assign(query.stems.size(), true);
  std::vector<ir::ShardResult> per_part;
  per_part.reserve(parts);
  for (size_t pi = 0; pi < parts; ++pi) {
    ir::ShardResult r = evaluate(pi);
    result.work += r.work;
    for (size_t i = 0; i < r.stem_evaluated.size(); ++i) {
      if (!r.stem_evaluated[i]) result.stem_evaluated[i] = false;
    }
    per_part.push_back(std::move(r));
  }
  // A url is live in at most one part, so the merge's node tie-break
  // never decides between two live copies.
  result.top = ir::MergeShardResults(&per_part, query.n);
  result.elapsed_us = timer.ElapsedSeconds() * 1e6;
  return result;
}

}  // namespace dls::ingest
