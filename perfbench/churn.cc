// churn: writes beside reads. 4 live shards (ShardServer::AddLiveNode,
// default LiveIndexOptions: heap runs, no fsync, auto-merge off) over
// localhost TCP, preloaded by one thread per shard and merged, behind a
// RemoteClusterIndex that calls its shards one after another (as in
// search) and a default Frontend (warmer on). One client runs a fixed
// sequence: rounds of 8 searches (half from a 16-query hot set, half
// fresh) and one insert, a delete after every 4th insert, and MergeAll
// after every kMergeEvery-th insert.
//
// Correctness: every write must be acknowledged, and after the measured
// phase the quiesced rankings of the hot set and a sample of fresh
// queries must be bit-identical to a clean per-shard rebuild of
// the acknowledged live documents (the tests/net/live_cluster_test.cc
// reference).

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ingest/live_index.h"
#include "ir/fragments.h"
#include "net/remote_cluster.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "synth/corpus.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kPreloadDocs = 20'000;
constexpr size_t kTopN = 10;
constexpr size_t kFragments = 4;  // LiveIndexOptions::num_fragments
constexpr size_t kHotQueries = 16;
constexpr size_t kSearchesPerInsert = 8;
constexpr size_t kInsertsPerDelete = 4;
constexpr size_t kMergeEvery = 24;
constexpr size_t kWarmupRounds = 2;
/// Fresh queries of the sequence also checked against the rebuild.
constexpr size_t kCheckedFresh = 48;
/// Operations every run completes: the per-query work counters cover
/// them, and index_mb is read right after the last of them.
constexpr int64_t kWorkPrefix = 300;
constexpr size_t kMaxOps = 40'000;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetUps = 3;

enum OpKind : int { kHotSearch, kFreshSearch, kInsert, kDelete, kMerge };

struct ChurnOp {
  OpKind kind = kHotSearch;
  size_t query = 0;  ///< searches: index into the query table
  size_t doc = 0;    ///< insert/delete: corpus document id
};

dls::synth::CorpusSpec ChurnCorpus() {
  dls::synth::CorpusSpec spec;
  spec.seed = 2002;
  spec.documents = kPreloadDocs + kMaxOps;
  spec.words_per_doc = 40;
  spec.vocabulary = 50'000;
  spec.zipf_theta = 1.1;
  return spec;
}

dls::ir::RankOptions QueryOptions() {
  dls::ir::RankOptions options;
  options.prune = true;
  return options;
}

/// The fixed operation sequence of one seed. Queries [0, kHotQueries)
/// are the hot set; fresh queries follow.
struct Sequence {
  std::vector<std::vector<std::string>> queries;
  std::vector<ChurnOp> ops;
};

Sequence MakeSequence(const dls::synth::SyntheticCorpus& corpus, uint64_t seed) {
  Sequence seq;
  QueryGenerator generator(
      [&](size_t rank) { return corpus.word(rank); }, corpus.spec().vocabulary,
      corpus.spec().zipf_theta, StreamSeed(seed, 2));
  for (size_t i = 0; i < kHotQueries; ++i) seq.queries.push_back(generator.Next());
  dls::Rng rng(StreamSeed(seed, 3));
  std::vector<size_t> live;  // documents live at this point of the sequence
  for (size_t d = 0; d < kPreloadDocs; ++d) live.push_back(d);
  size_t next_doc = kPreloadDocs;
  size_t inserts = 0;
  while (seq.ops.size() < kMaxOps) {
    std::vector<OpKind> round;
    for (size_t i = 0; i < kSearchesPerInsert; ++i) {
      round.push_back(i % 2 == 0 ? kHotSearch : kFreshSearch);
    }
    rng.Shuffle(&round);
    for (OpKind kind : round) {
      ChurnOp op;
      op.kind = kind;
      if (kind == kHotSearch) {
        op.query = rng.Uniform(kHotQueries);
      } else {
        op.query = seq.queries.size();
        seq.queries.push_back(generator.Next());
      }
      seq.ops.push_back(op);
    }
    seq.ops.push_back({kInsert, 0, next_doc});
    live.push_back(next_doc++);
    ++inserts;
    if (inserts % kInsertsPerDelete == 0) {
      const size_t pick = rng.Uniform(live.size());
      seq.ops.push_back({kDelete, 0, live[pick]});
      live[pick] = live.back();
      live.pop_back();
    }
    if (inserts % kMergeEvery == 0) seq.ops.push_back({kMerge, 0, 0});
  }
  return seq;
}

struct Cluster {
  std::vector<std::unique_ptr<dls::ingest::LiveIndex>> lives;
  std::vector<std::unique_ptr<TracedShardServer>> servers;
  std::vector<std::unique_ptr<TracedTransport>> transports;
  std::unique_ptr<dls::net::RemoteClusterIndex> remote;
  std::unique_ptr<dls::serve::RemoteBackend> backend;
  std::unique_ptr<TracedBackend> traced;
  std::unique_ptr<dls::serve::Frontend> frontend;
  double preload_s = 0, merge_s = 0, connect_s = 0;
};

bool SetUp(const dls::synth::SyntheticCorpus& corpus, Cluster* c) {
  std::vector<dls::net::RemoteClusterIndex::Shard> shards;
  for (size_t s = 0; s < kShards; ++s) {
    c->lives.push_back(std::make_unique<dls::ingest::LiveIndex>());
    c->servers.push_back(std::make_unique<TracedShardServer>(static_cast<int>(s)));
    c->servers[s]->AddLiveNode(c->lives[s].get());
  }
  for (size_t s = 0; s < kShards; ++s) {
    if (!c->servers[s]->Start(0).ok()) return false;
    c->transports.push_back(std::make_unique<TracedTransport>(
        std::make_unique<dls::net::TcpTransport>("127.0.0.1",
                                                 c->servers[s]->port()),
        static_cast<int>(s)));
    shards.push_back({c->transports.back().get(), 0});
  }
  c->remote = std::make_unique<dls::net::RemoteClusterIndex>(std::move(shards));

  // Preload: one thread per shard inserts the documents the routing
  // hash gives its shard, in corpus order, then merges them.
  std::vector<bool> ok(kShards, true);
  std::vector<double> merge(kShards);
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      for (size_t d = 0; d < kPreloadDocs; ++d) {
        const std::string url = corpus.Url(d);
        if (c->remote->ShardForUrl(url) != s) continue;
        if (!c->lives[s]->Insert(url, corpus.Body(d)).ok()) ok[s] = false;
      }
      const int64_t m0 = NowNs();
      c->lives[s]->Merge();
      merge[s] = static_cast<double>(NowNs() - m0) / 1e9;
    });
  }
  for (std::thread& t : threads) t.join();
  c->preload_s = static_cast<double>(NowNs() - t0) / 1e9;
  c->merge_s = *std::max_element(merge.begin(), merge.end());
  for (size_t s = 0; s < kShards; ++s) {
    if (!ok[s]) return false;
  }

  const int64_t t1 = NowNs();
  const dls::Status connected = c->remote->Connect();
  c->connect_s = static_cast<double>(NowNs() - t1) / 1e9;
  if (!connected.ok()) {
    std::fprintf(stderr, "churn: connect: %s\n", connected.ToString().c_str());
    return false;
  }
  c->backend = std::make_unique<dls::serve::RemoteBackend>(c->remote.get());
  c->traced = std::make_unique<TracedBackend>(c->backend.get());
  c->frontend = std::make_unique<dls::serve::Frontend>(c->traced.get());
  return true;
}

void RunOp(Cluster* c, const dls::synth::SyntheticCorpus& corpus,
           const Sequence& seq, int64_t index, OpRecord* r) {
  const ChurnOp& op = seq.ops[index];
  r->kind = op.kind;
  r->start_ns = NowNs();
  switch (op.kind) {
    case kHotSearch:
    case kFreshSearch: {
      dls::serve::SearchQuery q;
      q.words = seq.queries[op.query];
      q.n = kTopN;
      q.max_fragments = kFragments;
      q.options = QueryOptions();
      dls::serve::SearchResult result = c->frontend->Search(q);
      r->end_ns = NowNs();
      r->ok = result.status.ok();
      RecordClientSpan(SpanKind::kSearch, index, r->start_ns, r->end_ns, q.words);
      return;
    }
    case kInsert:
      r->ok = c->remote->Insert(corpus.Url(op.doc), corpus.Body(op.doc)).ok();
      break;
    case kDelete: {
      dls::Result<bool> found = c->remote->Delete(corpus.Url(op.doc));
      r->ok = found.ok() && found.value();
      break;
    }
    case kMerge:
      r->ok = c->remote->MergeAll().ok();
      break;
  }
  r->end_ns = NowNs();
  RecordClientSpan(SpanKind::kWrite, index, r->start_ns, r->end_ns, {});
}

/// Clean-rebuild reference for the acknowledged documents: one TextIndex
/// per shard over its live documents in insertion order, global
/// statistics aggregated as the handshake does, in-process shard
/// evaluation and merge.
class Rebuild {
 public:
  Rebuild(const dls::net::RemoteClusterIndex& remote,
          const std::vector<std::pair<std::string, std::string>>& live_docs) {
    for (size_t s = 0; s < kShards; ++s) {
      dls::ir::TextIndex::Options options;
      options.flush_batch = live_docs.size() + 2;
      indexes_.push_back(std::make_unique<dls::ir::TextIndex>(options));
    }
    for (const auto& [url, text] : live_docs) {
      indexes_[remote.ShardForUrl(url)]->AddDocument(url, text);
    }
    for (auto& index : indexes_) {
      index->Flush();
      collection_length_ += index->collection_length();
      fragments_.push_back(
          std::make_unique<dls::ir::FragmentedIndex>(index.get(), kFragments));
    }
  }

  std::vector<dls::ir::ClusterScoredDoc> Query(
      const std::vector<std::string>& words) const {
    dls::ir::ShardQuery query;
    query.n = kTopN;
    query.max_fragments = kFragments;
    query.collection_length = collection_length_;
    query.options = QueryOptions();
    for (const std::string& word : words) {
      std::optional<std::string> stem = dls::ir::NormalizeWordAs(word, true, true);
      if (!stem || std::find(query.stems.begin(), query.stems.end(), *stem) !=
                       query.stems.end()) {
        continue;
      }
      int32_t df = 0;
      for (const auto& index : indexes_) {
        std::optional<dls::ir::TermId> t = index->LookupTerm(*stem);
        if (t) df += index->df(*t);
      }
      if (df == 0) continue;
      query.stems.push_back(*stem);
      query.stem_global_df.push_back(df);
    }
    std::vector<dls::ir::ShardResult> results(kShards);
    for (size_t s = 0; s < kShards; ++s) {
      results[s] = dls::ir::EvaluateShardQuery(*indexes_[s], *fragments_[s], query);
    }
    return dls::ir::MergeShardResults(&results, kTopN);
  }

 private:
  std::vector<std::unique_ptr<dls::ir::TextIndex>> indexes_;
  std::vector<std::unique_ptr<dls::ir::FragmentedIndex>> fragments_;
  int64_t collection_length_ = 0;
};

/// Replays the completed prefix of the sequence into the acknowledged
/// live documents (insertion order) and compares quiesced rankings with
/// the rebuild. Returns the number of mismatching queries.
uint64_t CheckQuiesced(Cluster* c, const dls::synth::SyntheticCorpus& corpus,
                       const Sequence& seq, int64_t completed) {
  std::vector<size_t> order;
  std::vector<bool> alive(corpus.spec().documents, false);
  for (size_t d = 0; d < kPreloadDocs; ++d) {
    order.push_back(d);
    alive[d] = true;
  }
  std::vector<size_t> fresh;
  for (int64_t i = 0; i < completed; ++i) {
    const ChurnOp& op = seq.ops[i];
    if (op.kind == kInsert) {
      order.push_back(op.doc);
      alive[op.doc] = true;
    } else if (op.kind == kDelete) {
      alive[op.doc] = false;
    } else if (op.kind == kFreshSearch && fresh.size() < kCheckedFresh) {
      fresh.push_back(op.query);
    }
  }
  std::vector<std::pair<std::string, std::string>> live_docs;
  for (size_t d : order) {
    if (alive[d]) live_docs.emplace_back(corpus.Url(d), corpus.Body(d));
  }
  const Rebuild rebuild(*c->remote, live_docs);
  std::vector<size_t> checked;
  for (size_t q = 0; q < kHotQueries; ++q) checked.push_back(q);
  checked.insert(checked.end(), fresh.begin(), fresh.end());
  uint64_t mismatches = 0;
  for (size_t q : checked) {
    const std::vector<dls::ir::ClusterScoredDoc> got = c->remote->Query(
        seq.queries[q], kTopN, kFragments, nullptr, QueryOptions());
    if (!SameRanking(got, rebuild.Query(seq.queries[q]))) ++mismatches;
  }
  return mismatches;
}

double IndexMb(const Cluster& c) {
  double bytes = 0;
  for (const auto& live : c.lives) {
    const dls::ingest::LiveIndexStats stats = live->Stats();
    bytes += static_cast<double>(stats.bytes_resident + stats.bytes_mapped);
  }
  return bytes / 1e6;
}

}  // namespace

RunReport RunChurn(const RunOptions& options) {
  RunReport report;
  const dls::synth::SyntheticCorpus corpus(ChurnCorpus());
  double setup_s = 0;
  std::unique_ptr<Cluster> built = SetUpRepeatedly<Cluster>(
      kSetUps, [&](Cluster* c) { return SetUp(corpus, c); }, &setup_s);
  if (built == nullptr) {
    report.correct = false;
    return report;
  }
  Cluster& cluster = *built;
  report.end_to_end["setup_s"] = setup_s;

  const Sequence seq = MakeSequence(corpus, options.seed);
  // Warm-up, untimed: the hot set twice (fills the cache and the hot-key
  // tracker) and a few fresh queries of a separate stream.
  {
    QueryGenerator warm(
        [&](size_t rank) { return corpus.word(rank); }, corpus.spec().vocabulary,
        corpus.spec().zipf_theta, StreamSeed(options.seed, 4));
    for (size_t round = 0; round < kWarmupRounds; ++round) {
      for (size_t q = 0; q < kHotQueries; ++q) {
        dls::serve::SearchQuery query;
        query.words = seq.queries[q];
        query.n = kTopN;
        query.max_fragments = kFragments;
        query.options = QueryOptions();
        cluster.frontend->Search(query);
        query.words = warm.Next();
        cluster.frontend->Search(query);
      }
    }
  }

  // The index after a fixed prefix of the sequence: its inserts,
  // deletes, delta parts and merges, identical on every run of a seed.
  auto drive = [&](int64_t first, double seconds, int64_t min_ops) {
    return RunClosedLoop(
        1, first, static_cast<int64_t>(seq.ops.size()), seconds, min_ops, 1,
        [&](int64_t op, OpRecord* r) {
          RunOp(&cluster, corpus, seq, op, r);
          if (op == kWorkPrefix - 1) {
            report.end_to_end["index_mb"] = IndexMb(cluster);
          }
        });
  };

  PhaseMeter phase;
  const dls::serve::ServeStats before = cluster.frontend->Stats();
  if (options.trace) Tracer().SetEnabled(true);
  phase.Begin();
  const std::vector<OpRecord> records = drive(0, options.seconds, kWorkPrefix);
  phase.End();
  Tracer().SetEnabled(false);
  const dls::serve::ServeStats after = cluster.frontend->Stats();

  LatencySamples done, search, write;
  double merge_ms = 0;
  size_t merges = 0;
  for (const OpRecord& r : records) {
    if (!r.ok) continue;
    done.Add(r.start_ns, r.end_ns);
    if (r.kind == kHotSearch || r.kind == kFreshSearch) {
      search.Add(r.start_ns, r.end_ns);
    } else if (r.kind == kInsert || r.kind == kDelete) {
      write.Add(r.start_ns, r.end_ns);
    } else {
      merge_ms += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
      ++merges;
    }
  }
  const uint64_t completed = done.ms.size();
  FillPhaseMetrics(phase, done, search, &report);
  FillEnvironment(phase, &report);
  if (!write.ms.empty()) {
    std::fprintf(stderr, "churn: %zu writes, write p50 %.3f ms p95 %.3f ms, "
                 "%zu merges\n", write.ms.size(), Quantile(write.ms, 0.5),
                 Quantile(write.ms, 0.95), merges);
  }

  if (options.trace) {
    Metrics& m = report.per_layer;
    const double ops = static_cast<double>(std::max<size_t>(records.size(), 1));
    const std::vector<Span> spans = Tracer().Take();
    const Breakdown bd = Analyze(spans, cluster.backend->NormStem(),
                                 cluster.backend->NormStop());
    WriteSpans(options.RecordPath("trace.jsonl"), spans, bd.parent);
    FillServeLayer(before, after, ops, &m);
    FillTraceLayers(bd, ops, &m);
    m["net.connect_s"] = cluster.connect_s;
    m["ir.build_s"] = cluster.merge_s;
    m["ir.mapped_rss_mb"] = MappedSegmentRssMb();
    // Fresh queries only: a hot key's latest evaluation depends on when
    // the warmer last ran.
    std::vector<const std::vector<std::string>*> prefix;
    for (size_t i = 0; i < static_cast<size_t>(kWorkPrefix); ++i) {
      if (seq.ops[i].kind == kFreshSearch) {
        prefix.push_back(&seq.queries[seq.ops[i].query]);
      }
    }
    FillWorkLayer(*cluster.traced, prefix, &m);

    auto handle_mean = [&](dls::net::MessageType type) {
      auto it = bd.handle_by_type.find(static_cast<uint8_t>(type));
      return it == bd.handle_by_type.end()
                 ? 0.0
                 : Share(it->second.first, static_cast<double>(it->second.second));
    };
    m["ingest.insert_ms"] = handle_mean(dls::net::MessageType::kInsertRequest);
    m["ingest.delete_ms"] = handle_mean(dls::net::MessageType::kDeleteRequest);
    m["ingest.live_eval_ms"] = handle_mean(dls::net::MessageType::kQueryRequest);
    m["ingest.merge_ms"] = Share(merge_ms, static_cast<double>(merges));
    m["ingest.preload_s"] = cluster.preload_s;
    double parts = 0;
    for (const auto& live : cluster.lives) {
      parts += static_cast<double>(live->Stats().parts);
    }
    m["ingest.parts"] = parts / kShards;

    PhaseMeter untraced;
    untraced.Begin();
    const std::vector<OpRecord> plain =
        drive(records.back().op + 1, options.seconds, 0);
    untraced.End();
    const double traced_rate =
        static_cast<double>(records.size()) / phase.wall_seconds();
    const double plain_rate =
        static_cast<double>(plain.size()) / untraced.wall_seconds();
    m["trace.overhead_share"] = 1.0 - Share(traced_rate, plain_rate);
    // Write latency as the client sees it, over both legs: one leg holds
    // too few writes for ten samples beyond its p95.
    for (const OpRecord& r : plain) {
      if (r.ok && (r.kind == kInsert || r.kind == kDelete)) {
        write.Add(r.start_ns, r.end_ns);
      }
    }
    if (!write.ms.empty()) {
      m["ingest.write_p50_ms"] = Quantile(write.ms, 0.50);
      m["ingest.write_p95_ms"] = Quantile(write.ms, 0.95);
    }
    std::fprintf(stderr,
                 "churn trace: %zu searches (%zu linked), latency %.3f ms = "
                 "serve %.3f + refresh %.3f + coord %.3f + wire %.3f + shard "
                 "%.3f, %zu refreshes of %.3f ms, %zu unlinked exchanges\n",
                 bd.searches, bd.linked, bd.latency_ms, bd.serve_self_ms,
                 bd.stats_refresh_ms, bd.coord_ms, bd.wire_ms, bd.shard_ms,
                 bd.refreshes, bd.refresh_each_ms, bd.unlinked_exchanges);
    // The untraced leg extended the sequence; the check covers it too.
    report.attempted = records.size() + plain.size();
    uint64_t plain_failed = 0;
    for (const OpRecord& r : plain) plain_failed += r.ok ? 0 : 1;
    const uint64_t mismatches = CheckQuiesced(
        &cluster, corpus, seq,
        plain.empty() ? records.size() : plain.back().op + 1);
    report.failed = (records.size() - completed) + plain_failed + mismatches;
  } else {
    report.attempted = records.size();
    const uint64_t mismatches = CheckQuiesced(
        &cluster, corpus, seq, static_cast<int64_t>(records.size()));
    report.failed = (records.size() - completed) + mismatches;
  }
  report.correct = report.failed == 0;
  cluster.frontend->Stop();
  return report;
}

}  // namespace perfbench
