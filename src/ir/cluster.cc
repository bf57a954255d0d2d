#include "ir/cluster.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "ir/accumulator.h"
#include "ir/kernel.h"

namespace dls::ir {

ClusterIndex::ClusterIndex(size_t num_nodes, size_t num_fragments)
    : ClusterIndex(num_nodes, num_fragments, TextIndex::Options()) {}

ClusterIndex::ClusterIndex(size_t num_nodes, size_t num_fragments,
                           TextIndex::Options node_options)
    : num_fragments_(num_fragments == 0 ? 1 : num_fragments) {
  assert(num_nodes > 0);
  nodes_.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    Node node;
    node.index = std::make_unique<TextIndex>(node_options);
    nodes_.push_back(std::move(node));
  }
}

ClusterIndex::~ClusterIndex() = default;

void ClusterIndex::SetExecutor(ThreadPool* pool) {
  executor_ = pool;
  if (pool == nullptr) owned_pool_.reset();
}

void ClusterIndex::EnableParallelism(size_t num_threads) {
  owned_pool_ = std::make_unique<ThreadPool>(num_threads);
  executor_ = owned_pool_.get();
}

void ClusterIndex::ForEachNode(const std::function<void(size_t)>& fn) const {
  if (executor_ != nullptr && nodes_.size() > 1) {
    executor_->ParallelFor(0, nodes_.size(), fn);
  } else {
    for (size_t i = 0; i < nodes_.size(); ++i) fn(i);
  }
}

void ClusterIndex::AddDocument(std::string_view url, std::string_view text) {
  nodes_[total_docs_ % nodes_.size()].index->AddDocument(url, text);
  ++total_docs_;
  finalized_ = false;
}

void ClusterIndex::Finalize() {
  // Per-node flush + fragmentation is shared-nothing work: fan it out.
  ForEachNode([this](size_t i) {
    Node& node = nodes_[i];
    node.index->Flush();
    if (node.fragments == nullptr) {
      node.fragments =
          std::make_unique<FragmentedIndex>(node.index.get(), num_fragments_);
    } else {
      node.fragments->Rebuild();
    }
  });

  // The global statistics aggregate sequentially in node order so the
  // df table iteration state is deterministic.
  global_.df.clear();
  global_.collection_length = 0;
  global_.node_docs.clear();
  for (Node& node : nodes_) {
    global_.collection_length += node.index->collection_length();
    global_.node_docs.push_back(node.index->document_count());
    for (TermId t = 0; t < node.index->vocabulary_size(); ++t) {
      global_.df[std::string(node.index->term(t))] += node.index->df(t);
    }
  }
  finalized_ = true;
}

std::string ClusterIndex::SegmentPath(const std::string& prefix, size_t node) {
  return StrFormat("%s.node%zu.seg", prefix.c_str(), node);
}

Status ClusterIndex::FlushToDisk(const std::string& path_prefix) const {
  if (!finalized_) {
    return Status::InvalidArgument("FlushToDisk requires a finalized cluster");
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    DLS_RETURN_IF_ERROR(nodes_[i].index->FlushToDisk(SegmentPath(path_prefix, i)));
  }
  return Status::Ok();
}

Result<std::unique_ptr<ClusterIndex>> ClusterIndex::LoadFromSegments(
    const std::vector<std::string>& paths, size_t num_fragments,
    const SegmentLoadOptions& load_options) {
  if (paths.empty()) {
    return Status::InvalidArgument("LoadFromSegments needs at least one path");
  }
  auto cluster = std::unique_ptr<ClusterIndex>(
      new ClusterIndex(paths.size(), num_fragments));
  size_t total_docs = 0;
  for (size_t i = 0; i < paths.size(); ++i) {
    DLS_ASSIGN_OR_RETURN(cluster->nodes_[i].index,
                         TextIndex::LoadFromSegment(paths[i], load_options));
    total_docs += cluster->nodes_[i].index->flushed_document_count();
  }
  cluster->total_docs_ = total_docs;
  // Finalize rebuilds fragmentation and the global df table; the
  // per-node Flush() inside is a no-op on loaded (frozen) indexes.
  cluster->Finalize();
  return cluster;
}

size_t ClusterIndex::bytes_resident() const {
  size_t bytes = 0;
  for (const Node& node : nodes_) bytes += node.index->bytes_resident();
  return bytes;
}

size_t ClusterIndex::bytes_mapped() const {
  size_t bytes = 0;
  for (const Node& node : nodes_) bytes += node.index->bytes_mapped();
  return bytes;
}

ShardResult EvaluateShardQuery(const TextIndex& index,
                               const FragmentedIndex* fragments,
                               const ShardQuery& query,
                               std::atomic<double>* shared_theta,
                               const DocFilter* live) {
  Timer timer;
  ShardResult result;
  const std::vector<std::string>& stems = query.stems;
  RankOptions options = query.options;
  if (live != nullptr) options.doc_filter = live;

  // Resolve the pushed stems against the node-local vocabulary and drop
  // terms behind the fragment cut-off. Scoring uses *global* term
  // statistics (df, collection length) so the local rankings merge into
  // the exact global ranking.
  // Scoring (the weight) *and* the canonical evaluation order / cost
  // model (the df) both use the global statistics — every node must
  // partition and order the query identically or the per-document
  // summation orders would diverge across nodes and strategies.
  std::vector<EvalTerm> eval_terms;
  eval_terms.reserve(stems.size());
  result.stem_evaluated.assign(stems.size(), true);
  for (size_t i = 0; i < stems.size(); ++i) {
    std::optional<TermId> term = index.LookupTerm(stems[i]);
    if (term && fragments != nullptr &&
        fragments->FragmentOf(*term) >= query.max_fragments) {
      result.stem_evaluated[i] = false;
      continue;
    }
    if (!term) continue;  // unknown locally; may match on other nodes
    eval_terms.push_back(
        EvalTerm{&index.postings(*term),
                 TermWeight(query.stem_global_df[i], query.collection_length,
                            options),
                 query.stem_global_df[i]});
  }

  // Local selection uses the same (score desc, url asc) order as the
  // central merge, so the node ships exactly the tuples the merge
  // needs — tie-breaks cannot depend on node-local doc numbering.
  // ErasedTieLess keeps the call on the hot pre-instantiated
  // evaluators; the indirection only runs on heap tie decisions.
  const ErasedTieLess url_less{
      [](const void* ctx, DocId a, DocId b) {
        const TextIndex& idx = *static_cast<const TextIndex*>(ctx);
        return idx.url(a) < idx.url(b);
      },
      &index};

  std::vector<ScoredDoc> local = EvaluateTopN(
      std::move(eval_terms), index.document_count(),
      index.inv_doc_length_data(), index.max_inv_doc_length(), query.n,
      query.threshold, url_less, options, &result.work, shared_theta);
  result.top.reserve(local.size());
  for (const ScoredDoc& d : local) {
    result.top.push_back(
        ClusterScoredDoc{std::string(index.url(d.doc)), d.score});
  }
  result.elapsed_us = timer.ElapsedSeconds() * 1e6;
  return result;
}

std::vector<ClusterScoredDoc> MergeShardResults(
    std::vector<ShardResult>* results, size_t n) {
  std::vector<ShardResult>& responses = *results;
  // Bounded k-way merge of the per-node top-N lists (each sorted by
  // (score desc, url asc)) into the master ranking. Node id is the
  // last tie-break so exact (score, url) duplicates across nodes merge
  // deterministically regardless of evaluation order.
  struct Cursor {
    size_t node;
    size_t pos;
  };
  auto better = [&responses](const Cursor& a, const Cursor& b) {
    const ClusterScoredDoc& da = responses[a.node].top[a.pos];
    const ClusterScoredDoc& db = responses[b.node].top[b.pos];
    if (da.score != db.score) return da.score > db.score;
    if (da.url != db.url) return da.url < db.url;
    return a.node < b.node;
  };
  auto heap_less = [&better](const Cursor& a, const Cursor& b) {
    return better(b, a);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(heap_less)> heads(
      heap_less);
  size_t available = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    available += responses[i].top.size();
    if (!responses[i].top.empty()) heads.push(Cursor{i, 0});
  }
  std::vector<ClusterScoredDoc> merged;
  merged.reserve(std::min(n, available));
  while (!heads.empty() && merged.size() < n) {
    Cursor head = heads.top();
    heads.pop();
    merged.push_back(std::move(responses[head.node].top[head.pos]));
    if (head.pos + 1 < responses[head.node].top.size()) {
      heads.push(Cursor{head.node, head.pos + 1});
    }
  }
  return merged;
}

double ResolveShardQuery(
    const std::vector<std::string>& words, bool stem, bool stop,
    const std::function<int32_t(std::string_view)>& global_df,
    ShardQuery* query) {
  double idf_mass = 0;
  for (std::string& norm : NormalizeQuery(words, stem, stop)) {
    const int32_t df = global_df(norm);
    if (df <= 0) continue;  // not in the global vocabulary
    query->stems.push_back(std::move(norm));
    query->stem_global_df.push_back(df);
    idf_mass += 1.0 / static_cast<double>(df);
  }
  return idf_mass;
}

std::vector<double> ResolveShardBatch(
    const std::vector<std::vector<std::string>>& queries, bool stem, bool stop,
    int64_t collection_length, size_t n, size_t max_fragments,
    const RankOptions& options,
    const std::function<int32_t(std::string_view)>& global_df,
    std::vector<ShardQuery>* batch) {
  *batch = std::vector<ShardQuery>(queries.size());
  std::vector<double> idf_masses(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ShardQuery& query = (*batch)[q];
    query.collection_length = collection_length;
    query.n = n;
    query.max_fragments = max_fragments;
    query.options = options;
    idf_masses[q] =
        ResolveShardQuery(queries[q], stem, stop, global_df, &query);
  }
  return idf_masses;
}

std::vector<std::vector<ClusterScoredDoc>> CoordinateBatch(
    std::vector<ShardQuery> batch, const std::vector<double>& idf_masses,
    const std::vector<uint64_t>& node_docs, ThreadPool* executor,
    const ShardCall& call, ClusterQueryStats* stats,
    std::vector<ClusterQueryStats>* per_query) {
  const size_t nodes = node_docs.size();
  // One slot per node; nodes running concurrently write only their own.
  struct NodeSlot {
    std::vector<ShardResult> results;  // one per query
    ClusterQueryStats exchange;
    bool alive = false;
  };
  std::vector<NodeSlot> slots(nodes);
  const auto call_node = [&](size_t i, std::atomic<double>* thetas) {
    slots[i].alive =
        call(i, batch, thetas, &slots[i].results, &slots[i].exchange);
  };
  if (executor == nullptr || nodes <= 1) {
    // Nodes in turn with threshold feedback: per pruning query, keep
    // the n best scores returned so far and push the running n-th best
    // as that query's threshold at the next node. A document scoring
    // strictly below it provably cannot enter the merged top-n.
    std::vector<std::priority_queue<double, std::vector<double>,
                                    std::greater<double>>>
        best(batch.size());
    for (size_t i = 0; i < nodes; ++i) {
      call_node(i, nullptr);
      if (!slots[i].alive) continue;
      for (size_t q = 0; q < batch.size(); ++q) {
        ShardQuery& query = batch[q];
        if (!query.options.prune || query.n == 0) continue;
        for (const ClusterScoredDoc& d : slots[i].results[q].top) {
          if (best[q].size() < query.n) {
            best[q].push(d.score);
          } else if (d.score > best[q].top()) {
            best[q].pop();
            best[q].push(d.score);
          }
        }
        if (best[q].size() == query.n) query.threshold = best[q].top();
      }
    }
  } else {
    // Concurrent nodes; under shared_threshold each query's nodes prune
    // against one atomic θ that each publishes its running n-th best
    // into (monotone max inside WandTopN).
    const bool share =
        std::any_of(batch.begin(), batch.end(), [](const ShardQuery& q) {
          return q.options.prune && q.options.shared_threshold && q.n > 0;
        });
    std::unique_ptr<std::atomic<double>[]> thetas;
    if (share) thetas.reset(new std::atomic<double>[batch.size()]());
    executor->ParallelFor(0, nodes,
                          [&](size_t i) { call_node(i, thetas.get()); });
  }

  // Work counters fold the same way into the batch and into a rider.
  // Critical paths differ: a rider's is its slowest node, the batch's
  // is the node that spent longest on the whole batch.
  const auto add_work = [](const RankStats& w, ClusterQueryStats* s) {
    s->postings_touched_total += w.postings_touched;
    s->postings_touched_max_node =
        std::max(s->postings_touched_max_node, w.postings_touched);
    s->blocks_skipped += w.blocks_skipped;
    s->blocks_decoded += w.blocks_decoded;
    s->pivot_iterations += w.pivot_iterations;
    s->cursor_advances += w.cursor_advances;
  };
  ClusterQueryStats total;
  if (per_query != nullptr) {
    per_query->assign(batch.size(), ClusterQueryStats());
  }
  uint64_t all_docs = 0, alive_docs = 0;
  const std::vector<ShardResult>* first_alive = nullptr;
  for (size_t i = 0; i < nodes; ++i) {
    const ClusterQueryStats& e = slots[i].exchange;
    total.messages += e.messages;
    total.bytes_shipped += e.bytes_shipped;
    total.hedges_fired += e.hedges_fired;
    total.hedge_wins += e.hedge_wins;
    total.failovers += e.failovers;
    all_docs += node_docs[i];
    if (!slots[i].alive) continue;
    if (first_alive == nullptr) first_alive = &slots[i].results;
    alive_docs += node_docs[i];
    double node_elapsed = 0;
    for (size_t q = 0; q < batch.size(); ++q) {
      const ShardResult& r = slots[i].results[q];
      add_work(r.work, &total);
      node_elapsed += r.elapsed_us;
      if (per_query == nullptr) continue;
      ClusterQueryStats& rider = (*per_query)[q];
      add_work(r.work, &rider);
      rider.critical_path_us = std::max(rider.critical_path_us, r.elapsed_us);
      rider.total_cpu_us += r.elapsed_us;
    }
    total.critical_path_us = std::max(total.critical_path_us, node_elapsed);
    total.total_cpu_us += node_elapsed;
  }

  // A-priori quality from the first answering node's cut-off decisions
  // (fragmentation is per node, but the idf boundaries coincide
  // closely), scaled by the surviving document share — losing a node
  // loses its share of the collection.
  const double alive_share =
      alive_docs == all_docs
          ? 1.0
          : static_cast<double>(alive_docs) / static_cast<double>(all_docs);
  double idf_total = 0, idf_read = 0;
  for (size_t q = 0; q < batch.size(); ++q) {
    double idf_read_q = 0;
    if (first_alive != nullptr) {
      const std::vector<bool>& mask = (*first_alive)[q].stem_evaluated;
      for (size_t s = 0; s < batch[q].stems.size(); ++s) {
        if (s < mask.size() && mask[s]) {
          idf_read_q += 1.0 / static_cast<double>(batch[q].stem_global_df[s]);
        }
      }
    }
    idf_total += idf_masses[q];
    idf_read += idf_read_q;
    if (per_query != nullptr) {
      (*per_query)[q].predicted_quality =
          (idf_masses[q] > 0 ? idf_read_q / idf_masses[q] : 1.0) * alive_share;
    }
  }
  total.predicted_quality =
      (idf_total > 0 ? idf_read / idf_total : 1.0) * alive_share;
  if (stats != nullptr) *stats = total;

  // Lost nodes contribute an empty ShardResult — the merge just never
  // draws from them.
  std::vector<std::vector<ClusterScoredDoc>> merged;
  merged.reserve(batch.size());
  for (size_t q = 0; q < batch.size(); ++q) {
    std::vector<ShardResult> responses(nodes);
    for (size_t i = 0; i < nodes; ++i) {
      if (slots[i].alive) responses[i] = std::move(slots[i].results[q]);
    }
    merged.push_back(MergeShardResults(&responses, batch[q].n));
  }
  return merged;
}

std::vector<ClusterScoredDoc> ClusterIndex::Query(
    const std::vector<std::string>& query_words, size_t n,
    size_t max_fragments, ClusterQueryStats* stats,
    const RankOptions& options, const ClusterDocFilter* filter) const {
  return std::move(QueryBatch({query_words}, n, max_fragments, stats, options,
                              /*per_query_stats=*/nullptr, filter)
                       .front());
}

std::vector<std::vector<ClusterScoredDoc>> ClusterIndex::QueryBatch(
    const std::vector<std::vector<std::string>>& queries, size_t n,
    size_t max_fragments, ClusterQueryStats* stats, const RankOptions& options,
    std::vector<ClusterQueryStats>* per_query_stats,
    const ClusterDocFilter* filter) const {
  assert(finalized_ && "call Finalize() before Query()");
  assert(options.doc_filter == nullptr &&
         "cluster queries take per-node bitmaps via ClusterDocFilter");
  assert((filter == nullptr || filter->per_node.size() == nodes_.size()) &&
         "ClusterDocFilter needs one bitmap per node");
  // Any node's normaliser is configured identically; use node 0's.
  const TextIndex::Options& norm = nodes_[0].index->options();
  std::vector<ShardQuery> batch;
  const std::vector<double> idf_masses = ResolveShardBatch(
      queries, norm.stem, norm.stop, global_.collection_length, n,
      max_fragments, options,
      [this](std::string_view stem) { return global_df(stem); }, &batch);
  // Node i evaluates in-process under its own bitmap (doc ids are
  // node-local). No frames are shipped, so messages and bytes_shipped
  // stay 0.
  const ShardCall call = [&](size_t i, const std::vector<ShardQuery>& b,
                             std::atomic<double>* thetas,
                             std::vector<ShardResult>* results,
                             ClusterQueryStats*) {
    const Node& node = nodes_[i];
    const DocFilter* candidates =
        filter == nullptr ? nullptr : &filter->per_node[i];
    results->resize(b.size());
    for (size_t q = 0; q < b.size(); ++q) {
      std::atomic<double>* theta = thetas == nullptr ? nullptr : &thetas[q];
      (*results)[q] = EvaluateShardQuery(*node.index, node.fragments.get(),
                                         b[q], theta, candidates);
    }
    return true;
  };
  return CoordinateBatch(std::move(batch), idf_masses, global_.node_docs,
                         executor_, call, stats, per_query_stats);
}

}  // namespace dls::ir
