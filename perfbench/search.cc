// search: 1M synthetic documents as mmap segments behind 4 ShardServers
// on localhost TCP, a RemoteClusterIndex and a default Frontend, driven
// by 1 closed-loop client with fresh 3-term, top-10, pruned, exact (all
// fragments) queries.
//
// The RemoteClusterIndex calls its shards one after another. With 2
// clients and a fan-out thread per shard, up to 8 shard evaluations ran
// at once on 4 hardware threads and each query waited for the slowest
// of its 4, so host CPU steal of 20% halved throughput. One client and
// a sequential fan-out keep about one thread runnable at a time: a
// stalled hardware thread holds up one shard call, not every query.
//
// Set-up: one indexing thread per shard indexes its round-robin share of
// the corpus in a single fold (flush_batch above the shard size), writes
// a segment, frees the heap index, and the shard server loads the
// segment; then the client connects. Correctness: every answered
// ranking is compared bit for bit with the same shards queried through
// a LoopbackTransport RemoteClusterIndex, after the measured phase.

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/remote_cluster.h"
#include "net/tcp.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "synth/corpus.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kFragments = 4;
constexpr size_t kTopN = 10;
constexpr size_t kClients = 1;
constexpr size_t kWarmupQueries = 400;
/// Operations whose per-query work counters are reported: a prefix
/// every run completes, so the counts repeat exactly.
constexpr int64_t kWorkPrefix = 200;
/// Length of the generated query sequence (both phases of a traced run
/// draw from it; far more than a phase completes).
constexpr int64_t kMaxOps = 50'000;
/// Queries per reference QueryBatch in the correctness check.
constexpr size_t kCheckBatch = 32;

dls::synth::CorpusSpec SearchCorpus() {
  dls::synth::CorpusSpec spec;
  spec.seed = 2001;
  spec.documents = 1'000'000;
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

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

struct Cluster {
  std::vector<std::unique_ptr<TracedShardServer>> servers;
  std::vector<std::unique_ptr<TracedTransport>> transports;
  std::unique_ptr<dls::net::RemoteClusterIndex> remote;
  std::unique_ptr<dls::serve::RemoteBackend> backend;
  std::unique_ptr<TracedBackend> traced;
  std::unique_ptr<dls::serve::Frontend> frontend;
  std::vector<std::string> segment_paths;
  double build_s = 0, flush_s = 0, load_s = 0, connect_s = 0;
};

/// Runs fn(shard) on one thread per shard and returns the wall time.
template <typename Fn>
double PerShard(Fn fn) {
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kShards; ++s) threads.emplace_back(fn, s);
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

bool SetUp(const dls::synth::SyntheticCorpus& corpus,
           const std::string& work_dir, Cluster* c) {
  const size_t docs = corpus.spec().documents;
  for (size_t s = 0; s < kShards; ++s) {
    c->segment_paths.push_back(work_dir + "/search-shard" +
                               std::to_string(s) + ".seg");
  }
  std::vector<double> build(kShards), flush(kShards);
  std::vector<bool> flushed(kShards, false);
  PerShard([&](size_t s) {
    dls::ir::TextIndex::Options options;
    options.flush_batch = docs / kShards + 2;  // one fold per shard
    dls::ir::TextIndex index(options);
    const int64_t t0 = NowNs();
    for (size_t d = s; d < docs; d += kShards) {
      index.AddDocument(corpus.Url(d), corpus.Body(d));
    }
    index.Flush();
    const int64_t t1 = NowNs();
    flushed[s] = index.FlushToDisk(c->segment_paths[s]).ok();
    build[s] = static_cast<double>(t1 - t0) / 1e9;
    flush[s] = static_cast<double>(NowNs() - t1) / 1e9;
  });
  for (size_t s = 0; s < kShards; ++s) {
    if (!flushed[s]) {
      std::fprintf(stderr, "search: writing shard %zu failed\n", s);
      return false;
    }
  }
  c->build_s = *std::max_element(build.begin(), build.end());
  c->flush_s = *std::max_element(flush.begin(), flush.end());

  std::vector<bool> loaded(kShards, false);
  for (size_t s = 0; s < kShards; ++s) {
    c->servers.push_back(std::make_unique<TracedShardServer>(static_cast<int>(s)));
  }
  c->load_s = PerShard([&](size_t s) {
    loaded[s] =
        c->servers[s]->AddNodeFromSegment(c->segment_paths[s], kFragments).ok();
  });
  std::vector<dls::net::RemoteClusterIndex::Shard> shards;
  for (size_t s = 0; s < kShards; ++s) {
    if (!loaded[s] || !c->servers[s]->Start(0).ok()) {
      std::fprintf(stderr, "search: serving shard %zu failed\n", s);
      return false;
    }
    c->transports.push_back(std::make_unique<TracedTransport>(
        std::make_unique<dls::net::TcpTransport>("127.0.0.1",
                                                 c->servers[s]->port()),
        static_cast<int>(s)));
    shards.push_back({c->transports.back().get(), 0});
  }
  c->remote = std::make_unique<dls::net::RemoteClusterIndex>(std::move(shards));
  const int64_t t0 = NowNs();
  const dls::Status connected = c->remote->Connect();
  c->connect_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!connected.ok()) {
    std::fprintf(stderr, "search: connect: %s\n", connected.ToString().c_str());
    return false;
  }
  c->backend = std::make_unique<dls::serve::RemoteBackend>(c->remote.get());
  c->traced = std::make_unique<TracedBackend>(c->backend.get());
  c->frontend = std::make_unique<dls::serve::Frontend>(c->traced.get());
  return true;
}

/// One phase of the closed loop over queries[first, ...).
std::vector<OpRecord> Drive(Cluster* c,
                            const std::vector<std::vector<std::string>>& queries,
                            int64_t first, double seconds) {
  return RunClosedLoop(
      kClients, first, static_cast<int64_t>(queries.size()), seconds,
      kWorkPrefix, 1, [&](int64_t op, OpRecord* r) {
        dls::serve::SearchQuery q;
        q.words = queries[op];
        q.n = kTopN;
        q.max_fragments = kFragments;
        q.options = QueryOptions();
        r->start_ns = NowNs();
        dls::serve::SearchResult result = c->frontend->Search(q);
        r->end_ns = NowNs();
        r->ok = result.status.ok();
        r->results = std::move(result.results);
        RecordClientSpan(SpanKind::kSearch, op, r->start_ns, r->end_ns, q.words);
      });
}

/// Compares every answered ranking with the loopback reference; returns
/// the number of mismatches.
uint64_t CheckRankings(Cluster* c,
                       const std::vector<std::vector<std::string>>& queries,
                       const std::vector<OpRecord>& records) {
  std::vector<std::unique_ptr<dls::net::LoopbackTransport>> loopbacks;
  std::vector<dls::net::RemoteClusterIndex::Shard> shards;
  for (size_t s = 0; s < kShards; ++s) {
    loopbacks.push_back(
        std::make_unique<dls::net::LoopbackTransport>(c->servers[s]->Handler()));
    shards.push_back({loopbacks.back().get(), 0});
  }
  dls::net::RemoteClusterIndex reference(std::move(shards));
  reference.EnableParallelism(kShards);
  if (!reference.Connect().ok()) return records.size();
  uint64_t mismatches = 0;
  for (size_t begin = 0; begin < records.size(); begin += kCheckBatch) {
    const size_t end = std::min(records.size(), begin + kCheckBatch);
    std::vector<std::vector<std::string>> batch;
    for (size_t i = begin; i < end; ++i) batch.push_back(queries[records[i].op]);
    const std::vector<std::vector<dls::ir::ClusterScoredDoc>> expected =
        reference.QueryBatch(batch, kTopN, kFragments, nullptr, QueryOptions());
    for (size_t i = begin; i < end; ++i) {
      if (records[i].ok && !SameRanking(records[i].results, expected[i - begin])) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

}  // namespace

RunReport RunSearch(const RunOptions& options) {
  RunReport report;
  const dls::synth::SyntheticCorpus corpus(SearchCorpus());
  // One set-up: it takes about 12 s, and repeating it would overrun the
  // time a run may take.
  double setup_s = 0;
  std::unique_ptr<Cluster> built = SetUpRepeatedly<Cluster>(
      1, [&](Cluster* c) { return SetUp(corpus, options.work_dir, c); },
      &setup_s);
  if (built == nullptr) {
    report.correct = false;
    return report;
  }
  Cluster& cluster = *built;
  report.end_to_end["setup_s"] = setup_s;
  double index_bytes = 0;
  for (const std::string& path : cluster.segment_paths) {
    index_bytes += static_cast<double>(FileBytes(path));
  }
  report.end_to_end["index_mb"] = index_bytes / 1e6;

  // The operation sequence: warm-up queries, then the measured ones —
  // all distinct, drawn from the corpus vocabulary with its own skew.
  QueryGenerator generator(
      [&](size_t rank) { return corpus.word(rank); }, corpus.spec().vocabulary,
      corpus.spec().zipf_theta, StreamSeed(options.seed, 1));
  std::vector<std::vector<std::string>> warmup;
  for (size_t i = 0; i < kWarmupQueries; ++i) warmup.push_back(generator.Next());
  std::vector<std::vector<std::string>> queries;
  queries.reserve(kMaxOps);
  for (int64_t i = 0; i < kMaxOps; ++i) queries.push_back(generator.Next());

  Drive(&cluster, warmup, 0, 1e9);  // untimed: pages in, pools spun up

  PhaseMeter phase;
  const dls::serve::ServeStats before = cluster.frontend->Stats();
  if (options.trace) Tracer().SetEnabled(true);
  phase.Begin();
  const std::vector<OpRecord> records = Drive(&cluster, queries, 0, options.seconds);
  phase.End();
  Tracer().SetEnabled(false);
  const dls::serve::ServeStats after = cluster.frontend->Stats();

  LatencySamples search;
  for (const OpRecord& r : records) {
    if (r.ok) search.Add(r.start_ns, r.end_ns);
  }
  const uint64_t completed = search.ms.size();
  FillPhaseMetrics(phase, search, search, &report);
  FillEnvironment(phase, &report);
  const double mapped_rss_mb = MappedSegmentRssMb();

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
    std::vector<const std::vector<std::string>*> prefix;
    for (size_t op = 0; op < static_cast<size_t>(kWorkPrefix); ++op) {
      prefix.push_back(&queries[op]);
    }
    FillWorkLayer(*cluster.traced, prefix, &m);
    m["ir.build_s"] = cluster.build_s;
    m["ir.flush_s"] = cluster.flush_s;
    m["ir.load_s"] = cluster.load_s;
    m["ir.mapped_rss_mb"] = mapped_rss_mb;

    // Tracing overhead: the same queries again, untraced, through a
    // fresh frontend (an empty cache, so they do the same work).
    cluster.frontend = std::make_unique<dls::serve::Frontend>(cluster.traced.get());
    std::vector<std::vector<std::string>> replay(
        queries.begin(), queries.begin() + static_cast<int64_t>(records.size()));
    PhaseMeter untraced;
    untraced.Begin();
    Drive(&cluster, replay, 0, 1e9);
    untraced.End();
    m["trace.overhead_share"] =
        1.0 - Share(untraced.wall_seconds(), phase.wall_seconds());
    std::fprintf(stderr,
                 "search trace: %zu searches (%zu linked), latency %.3f ms = "
                 "serve %.3f + coord %.3f + wire %.3f + shard %.3f, "
                 "%zu unlinked exchanges\n",
                 bd.searches, bd.linked, bd.latency_ms, bd.serve_self_ms,
                 bd.coord_ms, bd.wire_ms, bd.shard_ms, bd.unlinked_exchanges);
  }

  report.attempted = records.size();
  const uint64_t mismatches = CheckRankings(&cluster, queries, records);
  report.failed = (records.size() - completed) + mismatches;
  report.correct = report.failed == 0;

  cluster.frontend->Stop();
  for (const std::string& path : cluster.segment_paths) std::remove(path.c_str());
  return report;
}

}  // namespace perfbench
