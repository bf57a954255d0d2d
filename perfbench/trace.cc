#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "harness.h"
#include "ir/index.h"
#include "net/wire.h"

namespace perfbench {
namespace {

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

uint8_t FrameType(const std::vector<uint8_t>& frame) {
  return frame.size() > dls::net::kFrameHeaderBytes
             ? frame[dls::net::kFrameHeaderBytes]
             : 0;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

bool Contains(const Span& outer, const Span& inner) {
  return outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns;
}

/// Normalised, de-duplicated, sorted stems of a word list.
std::vector<std::string> StemSet(const std::vector<std::string>& words,
                                 bool stem, bool stop) {
  std::vector<std::string> stems;
  for (const std::string& word : words) {
    std::optional<std::string> norm = dls::ir::NormalizeWordAs(word, stem, stop);
    if (norm) stems.push_back(std::move(*norm));
  }
  std::sort(stems.begin(), stems.end());
  stems.erase(std::unique(stems.begin(), stems.end()), stems.end());
  return stems;
}

std::vector<std::string> SplitWords(const std::string& joined) {
  std::vector<std::string> words;
  size_t begin = 0;
  while (begin <= joined.size()) {
    const size_t end = joined.find('\x1f', begin);
    const size_t stop = end == std::string::npos ? joined.size() : end;
    if (stop > begin) words.push_back(joined.substr(begin, stop - begin));
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return words;
}

/// Sorted stems of the first query a QueryRequest frame carries.
std::vector<std::string> FirstQueryStems(const std::vector<uint8_t>& frame) {
  dls::net::MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  if (!dls::net::DecodeFrame(frame, &type, &body, &len).ok()) return {};
  dls::Result<dls::net::QueryRequest> request =
      dls::net::DecodeQueryRequest(body, len);
  if (!request.ok() || request.value().queries.empty()) return {};
  std::vector<std::string> stems = request.value().queries.front().stems;
  std::sort(stems.begin(), stems.end());
  return stems;
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSearch:
      return "client.search";
    case SpanKind::kWrite:
      return "client.write";
    case SpanKind::kBatch:
      return "serve.batch";
    case SpanKind::kExchange:
      return "net.exchange";
    case SpanKind::kHandle:
      return "shard.handle";
    case SpanKind::kEpoch:
      return "serve.epoch";
  }
  return "unknown";
}

}  // namespace

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

SpanLog& Tracer() {
  static SpanLog log;
  return log;
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string key;
  for (size_t i = 0; i < words.size(); ++i) {
    if (i != 0) key += '\x1f';
    key += words[i];
  }
  return key;
}

dls::Result<std::vector<uint8_t>> TracedTransport::Call(
    const std::vector<uint8_t>& request_frame, dls::Deadline deadline) {
  if (!Tracer().enabled()) return inner_->Call(request_frame, deadline);
  Span span;
  span.kind = SpanKind::kExchange;
  span.thread = ThreadTag();
  span.shard = shard_;
  span.start_ns = NowNs();
  dls::Result<std::vector<uint8_t>> result =
      inner_->Call(request_frame, deadline);
  span.end_ns = NowNs();
  span.frame_type = FrameType(request_frame);
  span.frame_hash = Fnv1a(request_frame);
  span.bytes = request_frame.size() + (result.ok() ? result.value().size() : 0);
  if (span.frame_type ==
      static_cast<uint8_t>(dls::net::MessageType::kQueryRequest)) {
    span.frame = request_frame;
  }
  Tracer().Add(std::move(span));
  return result;
}

dls::Result<std::vector<uint8_t>> TracedShardServer::HandleFrame(
    const std::vector<uint8_t>& frame) const {
  if (!Tracer().enabled()) return ShardServer::HandleFrame(frame);
  Span span;
  span.kind = SpanKind::kHandle;
  span.thread = ThreadTag();
  span.shard = shard_;
  span.start_ns = NowNs();
  dls::Result<std::vector<uint8_t>> result = ShardServer::HandleFrame(frame);
  span.end_ns = NowNs();
  span.frame_type = FrameType(frame);
  span.frame_hash = Fnv1a(frame);
  Tracer().Add(std::move(span));
  return result;
}

uint64_t TracedBackend::Epoch() const {
  if (Tracer().enabled()) {
    Span span;
    span.kind = SpanKind::kEpoch;
    span.thread = ThreadTag();
    span.start_ns = span.end_ns = NowNs();
    Tracer().Add(std::move(span));
  }
  return inner_->Epoch();
}

std::vector<std::vector<dls::ir::ClusterScoredDoc>> TracedBackend::QueryBatch(
    const std::vector<std::vector<std::string>>& queries, size_t n,
    size_t max_fragments, dls::ir::ClusterQueryStats* stats,
    std::vector<dls::ir::ClusterQueryStats>* per_query_stats,
    const dls::ir::RankOptions& options) const {
  if (!Tracer().enabled()) {
    return inner_->QueryBatch(queries, n, max_fragments, stats,
                              per_query_stats, options);
  }
  std::vector<dls::ir::ClusterQueryStats> local;
  std::vector<dls::ir::ClusterQueryStats>* per_query =
      per_query_stats != nullptr ? per_query_stats : &local;
  Span span;
  span.kind = SpanKind::kBatch;
  span.thread = ThreadTag();
  span.start_ns = NowNs();
  std::vector<std::vector<dls::ir::ClusterScoredDoc>> result =
      inner_->QueryBatch(queries, n, max_fragments, stats, per_query, options);
  span.end_ns = NowNs();
  for (const std::vector<std::string>& words : queries) {
    span.words.push_back(JoinWords(words));
  }
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    for (size_t q = 0; q < queries.size() && q < per_query->size(); ++q) {
      const dls::ir::ClusterQueryStats& s = (*per_query)[q];
      work_[span.words[q]] = {s.postings_touched_total, s.blocks_decoded,
                              s.blocks_skipped};
    }
  }
  Tracer().Add(std::move(span));
  return result;
}

void RecordClientSpan(SpanKind kind, int64_t op, int64_t start_ns,
                      int64_t end_ns, const std::vector<std::string>& words) {
  if (!Tracer().enabled()) return;
  Span span;
  span.kind = kind;
  span.thread = ThreadTag();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.op = op;
  if (kind == SpanKind::kSearch) span.words = words;
  Tracer().Add(std::move(span));
}

void FillWorkLayer(const TracedBackend& backend,
                   const std::vector<const std::vector<std::string>*>& queries,
                   Metrics* m) {
  double postings = 0, decoded = 0, skipped = 0, counted = 0;
  for (const std::vector<std::string>* words : queries) {
    QueryWork w;
    if (!backend.WorkOf(*words, &w)) continue;
    postings += static_cast<double>(w.postings);
    decoded += static_cast<double>(w.blocks_decoded);
    skipped += static_cast<double>(w.blocks_skipped);
    counted += 1;
  }
  if (counted == 0) return;
  (*m)["ir.postings_per_query"] = postings / counted;
  (*m)["ir.blocks_decoded_per_query"] = decoded / counted;
  (*m)["ir.blocks_skipped_per_query"] = skipped / counted;
}

bool TracedBackend::WorkOf(const std::vector<std::string>& words,
                           QueryWork* work) const {
  std::lock_guard<std::mutex> lock(work_mu_);
  auto it = work_.find(JoinWords(words));
  if (it == work_.end()) return false;
  *work = it->second;
  return true;
}

Breakdown Analyze(const std::vector<Span>& spans, bool norm_stem,
                  bool norm_stop) {
  Breakdown out;
  out.parent.assign(spans.size(), -1);
  constexpr size_t kNone = static_cast<size_t>(-1);

  // ---- index the batches and server spans --------------------------
  std::vector<size_t> batches;
  std::vector<std::vector<std::vector<std::string>>> batch_stems;
  std::map<std::string, std::vector<size_t>> batch_by_key;
  std::unordered_map<std::string, std::vector<size_t>> batch_by_stem;
  std::map<uint32_t, std::vector<size_t>> batch_by_thread;
  std::map<std::pair<int32_t, uint64_t>, std::vector<size_t>> handle_by_frame;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.kind == SpanKind::kHandle) {
      handle_by_frame[{s.shard, s.frame_hash}].push_back(i);
      auto& [sum, count] = out.handle_by_type[s.frame_type];
      sum += Ms(s.end_ns - s.start_ns);
      count += 1;
    }
    if (s.kind != SpanKind::kBatch) continue;
    const size_t b = batches.size();
    batches.push_back(i);
    batch_by_thread[s.thread].push_back(b);
    std::vector<std::vector<std::string>> stems;
    for (const std::string& joined : s.words) {
      stems.push_back(StemSet(SplitWords(joined), norm_stem, norm_stop));
      batch_by_key[JoinWords(stems.back())].push_back(b);
      for (const std::string& stem : stems.back()) {
        std::vector<size_t>& list = batch_by_stem[stem];
        if (list.empty() || list.back() != b) list.push_back(b);
      }
    }
    batch_stems.push_back(std::move(stems));
  }

  // ---- link exchanges to their server span and batch ---------------
  struct BatchLinks {
    size_t stats_calls = 0;
    int64_t first_stats_ns = 0;  ///< start of the first handshake exchange
    int64_t first_query_ns = 0;  ///< start of the first query exchange
    /// The batch's query exchanges (span index) and their server spans.
    std::vector<std::pair<size_t, double>> queries;
    /// The handshake's share of the batch: from its first exchange to
    /// the fan-out (so decoding and aggregating the df tables count
    /// too), or 0 without a handshake.
    double stats_ms() const {
      if (stats_calls == 0 || first_query_ns == 0) return 0;
      return Ms(first_query_ns - first_stats_ns);
    }
  };
  std::vector<BatchLinks> links(batches.size());
  for (size_t ei = 0; ei < spans.size(); ++ei) {
    const Span& e = spans[ei];
    if (e.kind != SpanKind::kExchange) continue;
    out.frames += 2;
    out.bytes += e.bytes;
    double handle_ms = 0;
    bool handle_found = false;
    auto hit = handle_by_frame.find({e.shard, e.frame_hash});
    if (hit != handle_by_frame.end()) {
      for (size_t h : hit->second) {
        if (Contains(e, spans[h])) {
          handle_ms = Ms(spans[h].end_ns - spans[h].start_ns);
          handle_found = true;
          out.parent[h] = static_cast<int64_t>(ei);
          break;
        }
      }
    }
    const auto type = static_cast<dls::net::MessageType>(e.frame_type);
    size_t parent = kNone;
    if (type == dls::net::MessageType::kStatsRequest) {
      // The handshake runs on the thread that called QueryBatch.
      auto tit = batch_by_thread.find(e.thread);
      if (tit != batch_by_thread.end()) {
        for (size_t b : tit->second) {
          if (Contains(spans[batches[b]], e)) parent = b;
        }
      }
      if (parent != kNone) {
        BatchLinks& l = links[parent];
        if (l.stats_calls == 0 || e.start_ns < l.first_stats_ns) {
          l.first_stats_ns = e.start_ns;
        }
        l.stats_calls += 1;
      }
    } else if (type == dls::net::MessageType::kQueryRequest) {
      const std::vector<std::string> stems = FirstQueryStems(e.frame);
      if (!stems.empty()) {
        auto sit = batch_by_stem.find(stems.front());
        if (sit != batch_by_stem.end()) {
          for (size_t b : sit->second) {
            if (!Contains(spans[batches[b]], e)) continue;
            for (const std::vector<std::string>& q : batch_stems[b]) {
              if (std::includes(q.begin(), q.end(), stems.begin(),
                                stems.end())) {
                if (parent == kNone ||
                    spans[batches[b]].start_ns >
                        spans[batches[parent]].start_ns) {
                  parent = b;
                }
                break;
              }
            }
          }
        }
      }
      if (parent != kNone) {
        BatchLinks& l = links[parent];
        if (l.first_query_ns == 0 || e.start_ns < l.first_query_ns) {
          l.first_query_ns = e.start_ns;
        }
        l.queries.emplace_back(ei, handle_ms);
      }
    } else {
      continue;  // mutations travel outside batches
    }
    if (parent != kNone) out.parent[ei] = static_cast<int64_t>(batches[parent]);
    if (parent == kNone || !handle_found) out.unlinked_exchanges += 1;
  }

  // ---- per-request breakdown ---------------------------------------
  for (size_t si = 0; si < spans.size(); ++si) {
    const Span& s = spans[si];
    if (s.kind != SpanKind::kSearch) continue;
    const double latency = Ms(s.end_ns - s.start_ns);
    out.searches += 1;
    out.latency_ms += latency;
    size_t batch = kNone;
    auto kit = batch_by_key.find(JoinWords(StemSet(s.words, norm_stem, norm_stop)));
    if (kit != batch_by_key.end()) {
      for (size_t b : kit->second) {
        const Span& candidate = spans[batches[b]];
        if (!Contains(s, candidate)) continue;
        if (batch == kNone || candidate.end_ns > spans[batches[batch]].end_ns) {
          batch = b;
        }
      }
    }
    if (batch == kNone) {  // answered from the cache
      out.serve_self_ms += latency;
      continue;
    }
    out.linked += 1;
    out.parent[batches[batch]] = static_cast<int64_t>(si);
    const Span& b = spans[batches[batch]];
    const BatchLinks& l = links[batch];
    const double batch_ms = Ms(b.end_ns - b.start_ns);
    // The critical path through the query exchanges: the one that ended
    // last, then the one that ended last before it started, and so on —
    // one exchange of a parallel fan-out, every exchange of a
    // sequential one.
    double exchange_ms = 0, shard = 0;
    int64_t before = b.end_ns;
    while (true) {
      const std::pair<size_t, double>* next = nullptr;
      for (const auto& q : l.queries) {
        const Span& e = spans[q.first];
        if (e.end_ns <= before &&
            (next == nullptr || e.end_ns > spans[next->first].end_ns)) {
          next = &q;
        }
      }
      if (next == nullptr) break;
      const Span& e = spans[next->first];
      exchange_ms += Ms(e.end_ns - e.start_ns);
      shard += next->second;
      before = e.start_ns;
    }
    const double stats_ms = l.stats_ms();
    out.serve_self_ms += latency - batch_ms;
    out.queue_wait_ms += Ms(b.start_ns - s.start_ns);
    out.stats_refresh_ms += stats_ms;
    out.coord_ms += batch_ms - exchange_ms - stats_ms;
    out.wire_ms += exchange_ms - shard;
    out.shard_ms += shard;
  }
  for (const BatchLinks& l : links) {
    if (l.stats_calls == 0) continue;
    out.refreshes += 1;
    out.refresh_each_ms += l.stats_ms();
  }
  if (out.refreshes > 0) out.refresh_each_ms /= out.refreshes;
  if (out.searches > 0) {
    const double n = static_cast<double>(out.searches);
    out.latency_ms /= n;
    out.serve_self_ms /= n;
    out.queue_wait_ms /= n;
    out.stats_refresh_ms /= n;
    out.coord_ms /= n;
    out.wire_ms /= n;
    out.shard_ms /= n;
  }
  return out;
}

void FillTraceLayers(const Breakdown& bd, double ops, Metrics* m) {
  (*m)["serve.queue_wait_ms"] = bd.queue_wait_ms;
  (*m)["serve.self_ms"] = bd.serve_self_ms;
  (*m)["net.coord_ms"] = bd.coord_ms;
  (*m)["net.wire_ms"] = bd.wire_ms;
  (*m)["net.bytes_per_op"] = static_cast<double>(bd.bytes) / ops;
  (*m)["net.frames_per_op"] = static_cast<double>(bd.frames) / ops;
  (*m)["net.stats_refresh_ms"] = bd.refresh_each_ms;
  (*m)["net.stats_refreshes_per_op"] = static_cast<double>(bd.refreshes) / ops;
  (*m)["ir.shard_eval_ms"] = bd.shard_ms;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& parent) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"thread\":%u,\"shard\":%d,\"frame_type\":%u,"
                 "\"op\":%lld}\n",
                 i, static_cast<long long>(i < parent.size() ? parent[i] : -1),
                 SpanName(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread, s.shard,
                 static_cast<unsigned>(s.frame_type),
                 static_cast<long long>(s.op));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
