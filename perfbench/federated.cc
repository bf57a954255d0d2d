// federated: the mediator and its three backends plus the result cache,
// with no wire. A 4-node in-process ClusterIndex over 10k entities x 2
// documents built with the default folding (flush_batch 32, as every
// in-process caller builds it), a WebspaceInstance of Article objects
// and a COBRA event table, with a Frontend and AttachMediator in front,
// driven by 1 closed-loop client. Query forms rotate text-only,
// +webspace, +cobra and all-three; each block of 10 operations holds 3
// queries from a 32-query hot set warmed before timing and 7 fresh ones,
// and a phase always ends on a block boundary, so the hit share is
// exactly 0.3.
//
// 10k entities, not more: the webspace filter walks every object of the
// class through the id-ordered object map, and at 50k entities that
// walk no longer fits the cache — its cost then swung 1.6x between runs
// of one seed with the host's memory latency, while text and cobra
// steps held steady.
//
// The frozen in-process cluster never changes its epoch, so the
// frontend's warmer is off (warm_top_k = 0): it would only poll. Nodes
// evaluate in order on the frontend worker (no executor): with one
// client, a per-query fan-out over 4 pool threads made runs slower and
// far more sensitive to host CPU steal, without exercising anything the
// search workload does not.
//
// Correctness: every answer is compared bit for bit with the post-filter
// oracle — the exhaustive text ranking with the non-text predicates
// applied afterwards, from the generated attribute tables.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "federate/backend.h"
#include "federate/executor.h"
#include "ir/cluster.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "trace.h"
#include "webspace/objects.h"
#include "webspace/schema.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kCorpusSeed = 2003;
constexpr size_t kEntities = 10'000;
constexpr size_t kDocsPerEntity = 2;
constexpr size_t kVocab = 3000;
constexpr size_t kWordsPerDoc = 30;
constexpr double kZipfTheta = 1.1;
constexpr size_t kNodes = 4;
constexpr size_t kFragments = 4;
constexpr size_t kTopN = 10;
constexpr size_t kTopics = 40;
constexpr double kMinRally = 5.0;
constexpr size_t kHotQueries = 32;
constexpr int64_t kBlock = 10;
constexpr size_t kHotPerBlock = 3;
constexpr size_t kWarmupFresh = 100;
constexpr size_t kMaxOps = 30'000;
constexpr size_t kOracleThreads = 4;
/// Set-ups per run; setup_s is their median. One takes under a second,
/// and the host's speed comes in phases of a few seconds (0.60 s per
/// set-up, then 0.85 s, within one run), so the set-ups span about ten.
constexpr size_t kSetUps = 15;

constexpr const char kSchema[] = R"(
webspace Bench;
class Article {
  topic: varchar(20);
  score: varchar(10);
}
)";

dls::ir::RankOptions QueryOptions() {
  dls::ir::RankOptions options;
  options.prune = true;
  return options;
}

std::string Word(size_t rank) { return dls::StrFormat("term%04zu", rank); }

/// One federated query: its words, which non-text levels it adds, and
/// its query-language text.
struct FedQuery {
  std::vector<std::string> words;
  bool webspace = false;
  bool cobra = false;
  size_t topic = 0;
  std::string text;
};

FedQuery MakeQuery(std::vector<std::string> words, size_t form, size_t topic) {
  FedQuery q;
  q.words = std::move(words);
  q.webspace = form == 1 || form == 3;
  q.cobra = form == 2 || form == 3;
  q.topic = topic;
  q.text = "text(\"";
  for (size_t i = 0; i < q.words.size(); ++i) {
    if (i != 0) q.text += ' ';
    q.text += q.words[i];
  }
  q.text += "\")";
  if (q.webspace) {
    q.text += dls::StrFormat(" AND webspace(class=Article, topic=topic%02zu)", topic);
  }
  if (q.cobra) {
    q.text += dls::StrFormat(" AND cobra(event=rally, min_len=%.0fs)", kMinRally);
  }
  return q;
}

struct World {
  World() : cluster(kNodes, kFragments) {}
  dls::ir::ClusterIndex cluster;
  dls::webspace::Schema schema;
  std::unique_ptr<dls::webspace::WebspaceInstance> instance;
  std::unique_ptr<dls::federate::TextBackend> text;
  std::unique_ptr<dls::federate::WebspaceBackend> web;
  std::unique_ptr<dls::federate::CobraBackend> cobra;
  std::unique_ptr<dls::federate::Mediator> mediator;
  std::unique_ptr<dls::serve::LocalBackend> backend;
  std::unique_ptr<TracedBackend> traced;
  std::unique_ptr<dls::serve::Frontend> frontend;
  /// Oracle tables: each entity's topic and longest rally (-1: none).
  std::vector<size_t> topic;
  std::vector<double> rally;
  double build_s = 0, federate_build_s = 0;
};

std::unique_ptr<dls::serve::Frontend> MakeFrontend(World* w) {
  dls::serve::FrontendOptions options;
  options.warm_top_k = 0;
  auto frontend = std::make_unique<dls::serve::Frontend>(w->traced.get(), options);
  frontend->AttachMediator(w->mediator.get());
  return frontend;
}

bool SetUp(World* w) {
  dls::Rng rng(kCorpusSeed);
  dls::ZipfSampler zipf(kVocab, kZipfTheta);
  dls::webspace::DocumentView view;
  view.document_url = "bench/corpus";
  std::vector<dls::federate::CobraEvent> events;
  std::vector<std::pair<std::string, std::string>> docs;
  w->topic.resize(kEntities);
  w->rally.assign(kEntities, -1.0);
  for (size_t e = 0; e < kEntities; ++e) {
    const std::string id = dls::StrFormat("obj%05zu", e);
    for (size_t d = 0; d < kDocsPerEntity; ++d) {
      std::string body;
      for (size_t i = 0; i < kWordsPerDoc; ++i) {
        if (i != 0) body += ' ';
        body += Word(zipf.Sample(&rng));
      }
      docs.emplace_back(dls::StrFormat("%s#f%zu", id.c_str(), d), std::move(body));
    }
    w->topic[e] = e % kTopics;
    dls::webspace::WebObject o;
    o.cls = "Article";
    o.id = id;
    o.attributes = {{"topic", dls::StrFormat("topic%02zu", w->topic[e]), ""},
                    {"score", dls::StrFormat("%llu", static_cast<unsigned long long>(
                                                         rng.Next() % 100)), ""}};
    view.objects.push_back(std::move(o));
    if (rng.Next() % 4 == 0) {
      w->rally[e] = static_cast<double>(rng.Next() % 100) / 10.0;
      events.push_back({id, "rally", w->rally[e]});
    }
    if (rng.Next() % 8 == 0) {
      events.push_back({id, "ace", static_cast<double>(rng.Next() % 30) / 10.0});
    }
  }

  const int64_t t0 = NowNs();
  for (const auto& [url, body] : docs) w->cluster.AddDocument(url, body);
  w->cluster.Finalize();
  const int64_t t1 = NowNs();
  w->build_s = static_cast<double>(t1 - t0) / 1e9;
  docs.clear();
  docs.shrink_to_fit();

  dls::Result<dls::webspace::Schema> schema = dls::webspace::ParseSchema(kSchema);
  if (!schema.ok()) return false;
  w->schema = std::move(schema).value();
  w->instance = std::make_unique<dls::webspace::WebspaceInstance>(&w->schema);
  if (!w->instance->Merge(view).ok()) return false;
  w->text = std::make_unique<dls::federate::TextBackend>(&w->cluster);
  w->web = std::make_unique<dls::federate::WebspaceBackend>(w->instance.get());
  w->cobra = std::make_unique<dls::federate::CobraBackend>(std::move(events));
  w->mediator = std::make_unique<dls::federate::Mediator>(
      dls::federate::BackendSet{w->text.get(), w->web.get(), w->cobra.get()});
  w->federate_build_s = static_cast<double>(NowNs() - t1) / 1e9;

  w->backend = std::make_unique<dls::serve::LocalBackend>(&w->cluster);
  w->traced = std::make_unique<TracedBackend>(w->backend.get());
  w->frontend = MakeFrontend(w);
  return true;
}

/// Query table ([0, kHotQueries) is the hot set) and the operation
/// sequence: per block of kBlock operations, kHotPerBlock hot picks and
/// fresh queries for the rest, in a seeded order.
struct Sequence {
  std::vector<FedQuery> queries;
  std::vector<size_t> ops;  ///< query index per operation
  std::vector<FedQuery> warmup;
};

Sequence MakeSequence(uint64_t seed) {
  Sequence seq;
  QueryGenerator generator(Word, kVocab, kZipfTheta, StreamSeed(seed, 5));
  dls::Rng rng(StreamSeed(seed, 6));
  auto next = [&](size_t form) {
    return MakeQuery(generator.Next(), form, rng.Uniform(kTopics));
  };
  for (size_t q = 0; q < kHotQueries; ++q) seq.queries.push_back(next(q % 4));
  for (size_t q = 0; q < kWarmupFresh; ++q) seq.warmup.push_back(next(q % 4));
  while (seq.ops.size() < kMaxOps) {
    std::vector<char> hot(kBlock, 0);
    for (size_t i = 0; i < kHotPerBlock; ++i) hot[i] = 1;
    rng.Shuffle(&hot);
    for (char h : hot) {
      if (h) {
        seq.ops.push_back(rng.Uniform(kHotQueries));
      } else {
        seq.ops.push_back(seq.queries.size());
        seq.queries.push_back(next(seq.queries.size() % 4));
      }
    }
  }
  return seq;
}

dls::serve::SearchResult Ask(World* w, const FedQuery& q) {
  dls::serve::SearchQuery query;
  query.structured = q.text;
  query.n = kTopN;
  query.max_fragments = kFragments;
  query.options = QueryOptions();
  return w->frontend->Search(query);
}

/// Untimed warm-up: fills the cache with the hot set and runs a few
/// fresh queries of their own.
void Warm(World* w, const Sequence& seq) {
  for (size_t q = 0; q < kHotQueries; ++q) Ask(w, seq.queries[q]);
  for (const FedQuery& q : seq.warmup) Ask(w, q);
}

/// Post-filter oracle: the exhaustive (unpruned, unfiltered) ranking,
/// deepened until it holds kTopN admitted documents or is complete,
/// then filtered with the generated attribute tables.
std::vector<dls::ir::ClusterScoredDoc> Oracle(const World& w, const FedQuery& q) {
  dls::ir::RankOptions exhaustive;
  const size_t total = w.cluster.document_count();
  for (size_t depth = 64;; depth *= 4) {
    std::vector<dls::ir::ClusterScoredDoc> ranked =
        w.cluster.Query(q.words, std::min(depth, total), kFragments, nullptr,
                        exhaustive);
    std::vector<dls::ir::ClusterScoredDoc> kept;
    for (dls::ir::ClusterScoredDoc& d : ranked) {
      const size_t e = std::stoul(d.url.substr(3, d.url.find('#') - 3));
      if (q.webspace && w.topic[e] != q.topic) continue;
      if (q.cobra && w.rally[e] < kMinRally) continue;
      kept.push_back(std::move(d));
      if (kept.size() == kTopN) break;
    }
    if (kept.size() == kTopN || ranked.size() < depth || depth >= total) {
      return kept;
    }
  }
}

uint64_t CheckRankings(const World& w, const Sequence& seq,
                       const std::vector<OpRecord>& records) {
  // One oracle evaluation per distinct query, spread over a few threads.
  std::vector<size_t> distinct;
  std::vector<int> slot(seq.queries.size(), -1);
  for (const OpRecord& r : records) {
    const size_t q = seq.ops[r.op];
    if (slot[q] < 0) {
      slot[q] = static_cast<int>(distinct.size());
      distinct.push_back(q);
    }
  }
  std::vector<std::vector<dls::ir::ClusterScoredDoc>> expected(distinct.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kOracleThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < distinct.size(); i = next.fetch_add(1)) {
        expected[i] = Oracle(w, seq.queries[distinct[i]]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t mismatches = 0;
  for (const OpRecord& r : records) {
    if (r.ok && !SameRanking(r.results, expected[slot[seq.ops[r.op]]])) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

RunReport RunFederated(const RunOptions& options) {
  RunReport report;
  double setup_s = 0;
  std::unique_ptr<World> built =
      SetUpRepeatedly<World>(kSetUps, SetUp, &setup_s);
  if (built == nullptr) {
    report.correct = false;
    return report;
  }
  World& world = *built;
  report.end_to_end["setup_s"] = setup_s;
  report.end_to_end["index_mb"] =
      static_cast<double>(world.backend->BytesResident() +
                          world.backend->BytesMapped()) /
      1e6;

  const Sequence seq = MakeSequence(options.seed);
  Warm(&world, seq);

  auto drive = [&](int64_t first, double seconds, int64_t end) {
    return RunClosedLoop(1, first, end, seconds, 0, kBlock,
                         [&](int64_t op, OpRecord* r) {
      const FedQuery& q = seq.queries[seq.ops[op]];
      r->start_ns = NowNs();
      dls::serve::SearchResult result = Ask(&world, q);
      r->end_ns = NowNs();
      r->ok = result.status.ok();
      r->results = std::move(result.results);
      RecordClientSpan(SpanKind::kSearch, op, r->start_ns, r->end_ns, q.words);
    });
  };

  PhaseMeter phase;
  const dls::serve::ServeStats before = world.frontend->Stats();
  if (options.trace) Tracer().SetEnabled(true);
  phase.Begin();
  const std::vector<OpRecord> records =
      drive(0, options.seconds, static_cast<int64_t>(seq.ops.size()));
  phase.End();
  Tracer().SetEnabled(false);
  const dls::serve::ServeStats after = world.frontend->Stats();

  LatencySamples search;
  for (const OpRecord& r : records) {
    if (r.ok) search.Add(r.start_ns, r.end_ns);
  }
  const uint64_t completed = search.ms.size();
  FillPhaseMetrics(phase, search, search, &report);
  FillEnvironment(phase, &report);

  if (options.trace) {
    Metrics& m = report.per_layer;
    const double ops = static_cast<double>(std::max<size_t>(records.size(), 1));
    const std::vector<Span> spans = Tracer().Take();
    WriteSpans(options.RecordPath("trace.jsonl"), spans, {});
    FillServeLayer(before, after, ops, &m);
    // A miss waits from admission until a frontend worker (any thread
    // but the client's) reads the epoch to start its evaluation.
    std::vector<const Span*> epochs;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kEpoch) epochs.push_back(&s);
    }
    std::sort(epochs.begin(), epochs.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    double latency_ms = 0, queue_wait_ms = 0;
    for (const Span& s : spans) {
      if (s.kind != SpanKind::kSearch) continue;
      latency_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      auto it = std::lower_bound(
          epochs.begin(), epochs.end(), s.start_ns,
          [](const Span* e, int64_t t) { return e->start_ns < t; });
      for (; it != epochs.end() && (*it)->start_ns <= s.end_ns; ++it) {
        if ((*it)->thread == s.thread) continue;
        queue_wait_ms += static_cast<double>((*it)->start_ns - s.start_ns) / 1e6;
        break;
      }
    }
    // Layer split from the ServeStats federated timers: the mediator's
    // three backends, and everything else in the serve layer.
    using dls::serve::ServeStats;
    const double text_ms = Grew(before, after, &ServeStats::federated_text_us) / 1e3;
    const double webspace_ms =
        Grew(before, after, &ServeStats::federated_webspace_us) / 1e3;
    const double cobra_ms = Grew(before, after, &ServeStats::federated_cobra_us) / 1e3;
    const double evaluated = Grew(before, after, &ServeStats::federated_queries);
    m["serve.self_ms"] = (latency_ms - text_ms - webspace_ms - cobra_ms) / ops;
    m["serve.queue_wait_ms"] = queue_wait_ms / ops;
    m["federate.text_ms"] = Share(text_ms, evaluated);
    m["federate.webspace_ms"] = Share(webspace_ms, evaluated);
    m["federate.cobra_ms"] = Share(cobra_ms, evaluated);
    m["federate.filter_docs_per_query"] =
        Share(Grew(before, after, &ServeStats::federated_filter_docs), evaluated);
    m["federate.build_s"] = world.federate_build_s;
    m["ir.build_s"] = world.build_s;
    m["ir.mapped_rss_mb"] = MappedSegmentRssMb();

    // Tracing overhead: the same operations again, untraced, through a
    // fresh frontend warmed like the first (so they do the same work).
    world.frontend = MakeFrontend(&world);
    Warm(&world, seq);
    PhaseMeter untraced;
    untraced.Begin();
    drive(0, 1e9, static_cast<int64_t>(records.size()));
    untraced.End();
    m["trace.overhead_share"] =
        1.0 - Share(untraced.wall_seconds(), phase.wall_seconds());
  }

  report.attempted = records.size();
  report.failed = (records.size() - completed) + CheckRankings(world, seq, records);
  report.correct = report.failed == 0;
  world.frontend->Stop();
  return report;
}

}  // namespace perfbench
