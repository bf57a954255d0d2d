// Distributed search, end to end: a 4-node cluster behind TCP
// ShardServers on localhost, a RemoteClusterIndex dialling them, and a
// serving Frontend (src/serve) standing in front of it all behind its
// own FrontendServer wire endpoint — the paper's deployment picture in
// one process:
//
//   client --SearchRequest--> FrontendServer -> Frontend
//     (admission / batcher / result cache)
//       -> RemoteClusterIndex --QueryRequest--> ShardServers -> nodes
//
// The walkthrough shows the full ladder: bit-identical remote ranking,
// a cache miss then a cache hit on the same wire query, an overload
// burst that gets load-shed with kUnavailable + retry-after, the
// ServeStats frame, batched fan-out, graceful degradation when a shard
// machine dies, and finally live ingestion: shards that accept
// Insert/Delete/Merge frames while serving, with the merge provably
// changing no ranking.
//
// In a real deployment each ShardServer is its own process/machine and
// the FrontendServer a third; one process keeps the example
// self-contained while still exercising every wire hop.
//
// Every check sets the exit code (0 = all held), so ctest runs this
// as an end-to-end test over real localhost TCP on ephemeral ports.
//
// Build & run:  ./build/examples/remote_search
#include <stdlib.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "net/remote_cluster.h"
#include "net/shard_server.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "serve/frontend_server.h"

namespace {

/// A fresh directory under the system temp dir, removed with
/// everything in it when this goes out of scope.
struct TempDir {
  TempDir() {
    path = (std::filesystem::temp_directory_path() / "remote_search_XXXXXX")
               .string();
    if (mkdtemp(path.data()) == nullptr) path.clear();
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path.empty()) std::filesystem::remove_all(path, ignored);
  }
  std::string path;
};

bool SameRanking(const std::vector<dls::ir::ClusterScoredDoc>& a,
                 const std::vector<dls::ir::ClusterScoredDoc>& b) {
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].url == b[i].url && a[i].score == b[i].score;
  }
  return same;
}

/// One SearchRequest/SearchResponse exchange with a FrontendServer.
dls::Result<dls::net::SearchResponse> SearchOverWire(
    dls::net::Transport* transport, const dls::net::SearchRequest& request) {
  using namespace dls;
  Result<std::vector<uint8_t>> frame = net::EncodeSearchRequest(request);
  if (!frame.ok()) return frame.status();
  Result<std::vector<uint8_t>> reply =
      transport->Call(frame.value(), Deadline::After(5000));
  if (!reply.ok()) return reply.status();
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  if (Status s = net::DecodeFrame(reply.value(), &type, &body, &body_len);
      !s.ok()) {
    return s;
  }
  if (type != net::MessageType::kSearchResponse) {
    return Status::Internal("unexpected frame type");
  }
  return net::DecodeSearchResponse(body, body_len);
}

}  // namespace

int main() {
  using namespace dls;

  // ---- Build the shared-nothing cluster: documents round-robin over
  // 4 nodes, 4 score fragments per node.
  ir::ClusterIndex cluster(4, 4);
  Rng rng(7);
  ZipfSampler zipf(500, 1.1);
  for (int d = 0; d < 400; ++d) {
    std::string body;
    for (int w = 0; w < 60; ++w) {
      body += StrFormat("term%03zu ", zipf.Sample(&rng));
    }
    cluster.AddDocument(StrFormat("http://site/doc%03d", d), body);
  }
  cluster.Finalize();

  // ---- Serve the nodes over TCP (port 0 = ephemeral): nodes 0..2 on
  // one "machine", node 3 on another we will later take down.
  net::ShardServer server, doomed;
  for (size_t i = 0; i < 3; ++i) {
    server.AddNode(&cluster.node_index(i), &cluster.node_fragments(i));
  }
  doomed.AddNode(&cluster.node_index(3), &cluster.node_fragments(3));
  if (Status s = server.Start(0); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = doomed.Start(0); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("shard servers on 127.0.0.1:%u (3 nodes) and :%u (1 node)\n",
              server.port(), doomed.port());

  // ---- Dial them: one transport per shard, then the stats handshake.
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<net::RemoteClusterIndex::Shard> shards;
  for (size_t i = 0; i < 3; ++i) {
    transports.push_back(
        std::make_unique<net::TcpTransport>("127.0.0.1", server.port()));
    shards.push_back({transports[i].get(), static_cast<uint32_t>(i)});
  }
  transports.push_back(
      std::make_unique<net::TcpTransport>("127.0.0.1", doomed.port()));
  shards.push_back({transports[3].get(), 0});  // node 0 of its server
  net::RemoteClusterIndex::Options options;
  options.timeout_ms = 500;
  options.retries = 1;
  net::RemoteClusterIndex remote(std::move(shards), options);
  if (Status s = remote.Connect(); !s.ok()) {
    std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("connected: %zu docs, global vocabulary aggregated\n\n",
              remote.document_count());

  // ---- The same query, both paths.
  const std::vector<std::string> query = {"term003", "term017", "term042"};
  ir::ClusterQueryStats stats;
  std::vector<ir::ClusterScoredDoc> over_wire =
      remote.Query(query, 5, 4, &stats);
  std::vector<ir::ClusterScoredDoc> in_process = cluster.Query(query, 5, 4);

  std::printf("top 5 over TCP (%zu messages, %zu bytes on the wire):\n",
              stats.messages, stats.bytes_shipped);
  for (size_t i = 0; i < over_wire.size(); ++i) {
    const bool same = i < in_process.size() &&
                      in_process[i].url == over_wire[i].url &&
                      in_process[i].score == over_wire[i].score;
    std::printf("  %zu. %-24s %.6f  %s\n", i + 1, over_wire[i].url.c_str(),
                over_wire[i].score, same ? "== in-process" : "MISMATCH");
  }
  if (!SameRanking(over_wire, in_process)) {
    std::fprintf(stderr, "over-TCP ranking differs from the in-process one\n");
    return 1;
  }

  // ---- Cold restart from disk: flush every node to a segment file,
  // stand up a FRESH shard server that mmaps the segments instead of
  // holding heap-built indexes (the instant-start path a real shard
  // machine takes after a reboot), and prove the wire answers are
  // byte-for-byte the ones the live indexes gave.
  const TempDir segment_dir;
  if (segment_dir.path.empty()) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string segment_prefix = segment_dir.path + "/node";
  if (Status s = cluster.FlushToDisk(segment_prefix); !s.ok()) {
    std::fprintf(stderr, "flush: %s\n", s.ToString().c_str());
    return 1;
  }
  net::ShardServer reloaded;
  for (size_t i = 0; i < 4; ++i) {
    const std::string path = ir::ClusterIndex::SegmentPath(segment_prefix, i);
    Result<uint32_t> node = reloaded.AddNodeFromSegment(path, 4);
    if (!node.ok()) {
      std::fprintf(stderr, "load %s: %s\n", path.c_str(),
                   node.status().ToString().c_str());
      return 1;
    }
  }
  if (Status s = reloaded.Start(0); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  {
    std::vector<std::unique_ptr<net::TcpTransport>> dials;
    std::vector<net::RemoteClusterIndex::Shard> reloaded_shards;
    for (size_t i = 0; i < 4; ++i) {
      dials.push_back(
          std::make_unique<net::TcpTransport>("127.0.0.1", reloaded.port()));
      reloaded_shards.push_back({dials[i].get(), static_cast<uint32_t>(i)});
    }
    net::RemoteClusterIndex from_disk(std::move(reloaded_shards), options);
    if (Status s = from_disk.Connect(); !s.ok()) {
      std::fprintf(stderr, "connect reloaded: %s\n", s.ToString().c_str());
      return 1;
    }
    const bool identical =
        SameRanking(from_disk.Query(query, 5, 4), over_wire);
    std::printf(
        "\ncold restart: 4 segments flushed, mmap-loaded, served over "
        "TCP — ranking %s\n",
        identical ? "identical to the live indexes" : "MISMATCH");
    if (!identical) return 1;
  }
  reloaded.Stop();

  // ---- Stand the serving frontend in front of the remote cluster and
  // put it on the wire too. A deliberately tiny frontend — one worker,
  // a one-deep queue — so overload is easy to provoke.
  serve::RemoteBackend backend(&remote);
  serve::FrontendOptions frontend_options;
  frontend_options.num_workers = 1;
  frontend_options.max_batch = 4;
  frontend_options.max_queue = 1;
  frontend_options.degrade_watermark = 0;
  serve::Frontend frontend(&backend, frontend_options);
  serve::FrontendServer frontend_server(&frontend);
  if (Status s = frontend_server.Start(0); !s.ok()) {
    std::fprintf(stderr, "frontend start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nfrontend server on 127.0.0.1:%u\n", frontend_server.port());

  net::TcpTransport frontend_dial("127.0.0.1", frontend_server.port());
  net::SearchRequest request;
  request.words = query;
  request.n = 5;
  request.max_fragments = 4;

  // First exchange evaluates through the whole ladder; the repeat is
  // answered from the epoch-keyed result cache, bit-identical.
  auto first = SearchOverWire(&frontend_dial, request);
  auto second = SearchOverWire(&frontend_dial, request);
  if (!first.ok() || !second.ok()) {
    std::fprintf(stderr, "frontend search failed\n");
    return 1;
  }
  const bool cached_same = SameRanking(second.value().results, over_wire);
  std::printf("search #1: cache_hit=%s   search #2: cache_hit=%s (%s)\n",
              first.value().cache_hit ? "true" : "false",
              second.value().cache_hit ? "true" : "false",
              cached_same ? "bit-identical to the direct ranking"
                          : "MISMATCH");
  if (!cached_same) return 1;

  // ---- Overload: six impatient clients, each on its own connection,
  // all with fresh (uncacheable) queries against the 1-worker/1-queue
  // frontend. The ones that cannot be admitted are shed *now* with
  // kUnavailable and a retry-after hint — bounded latency instead of
  // an unbounded queue.
  std::atomic<int> answered{0}, shed{0};
  std::atomic<uint32_t> retry_hint{0};
  for (int round = 0; round < 20 && shed.load() == 0; ++round) {
    std::vector<std::thread> clients;
    for (int c = 0; c < 6; ++c) {
      clients.emplace_back([&, round, c] {
        net::TcpTransport dial("127.0.0.1", frontend_server.port());
        net::SearchRequest burst;
        burst.words = {StrFormat("term%03d", (round * 6 + c) % 500),
                       StrFormat("term%03d", (round * 6 + c + 250) % 500)};
        burst.n = 5;
        burst.max_fragments = 4;
        auto response = SearchOverWire(&dial, burst);
        if (!response.ok()) return;
        if (response.value().status.ok()) {
          answered.fetch_add(1);
        } else if (response.value().status.code() ==
                   StatusCode::kUnavailable) {
          shed.fetch_add(1);
          retry_hint.store(response.value().retry_after_ms);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  std::printf("overload burst: %d answered, %d shed kUnavailable "
              "(retry-after hint %u ms)\n",
              answered.load(), shed.load(), retry_hint.load());

  // ---- The operator's view, over the same wire: a ServeStats frame.
  auto stats_reply = frontend_dial.Call(
      net::EncodeServeStatsRequest(net::ServeStatsRequest{}),
      Deadline::After(5000));
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  if (!stats_reply.ok() ||
      !net::DecodeFrame(stats_reply.value(), &type, &body, &body_len).ok() ||
      type != net::MessageType::kServeStatsResponse) {
    std::fprintf(stderr, "no ServeStats frame came back\n");
    return 1;
  }
  Result<serve::ServeStats> serve_stats =
      net::DecodeServeStatsResponse(body, body_len);
  if (!serve_stats.ok()) {
    std::fprintf(stderr, "serve stats: %s\n",
                 serve_stats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "serve stats: %llu submitted, %llu completed, %llu cache hits, "
      "%llu shed, p99 %llu us\n",
      static_cast<unsigned long long>(serve_stats.value().submitted),
      static_cast<unsigned long long>(serve_stats.value().completed),
      static_cast<unsigned long long>(serve_stats.value().cache_hits),
      static_cast<unsigned long long>(serve_stats.value().shed_queue_full +
                                      serve_stats.value().shed_deadline),
      static_cast<unsigned long long>(serve_stats.value().latency.p99));
  frontend_server.Stop();
  frontend.Stop();

  // ---- Batched execution: the whole workload in one frame per node,
  // with per-rider attribution — each query in the batch reports its
  // own work and quality, not a share of one batch-wide aggregate.
  std::vector<std::vector<std::string>> workload = {
      query, {"term001"}, {"term010", "term200"}};
  ir::ClusterQueryStats batch_stats;
  std::vector<ir::ClusterQueryStats> per_query;
  remote.QueryBatch(workload, 5, 4, &batch_stats, {}, &per_query);
  std::printf("\nbatch of %zu queries: %zu messages (vs %zu one-by-one)\n",
              workload.size(), batch_stats.messages,
              workload.size() * stats.messages);
  for (size_t q = 0; q < workload.size(); ++q) {
    std::printf("  rider %zu: %zu terms, %zu postings touched, "
                "quality %.2f\n",
                q, workload[q].size(), per_query[q].postings_touched_total,
                per_query[q].predicted_quality);
  }

  // ---- Replication: a backup machine also hosting node 3, and a
  // router that knows shard 3 has two replicas. Health-aware routing
  // sends traffic to the faster one; hedging fires a backup request
  // when an exchange blows its latency budget; failover retries
  // elsewhere on errors. Replicas serve identical content, so none of
  // that can change a ranking — only hide faults.
  net::ShardServer backup;
  backup.AddNode(&cluster.node_index(3), &cluster.node_fragments(3));
  if (Status s = backup.Start(0); !s.ok()) {
    std::fprintf(stderr, "backup start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<std::unique_ptr<net::TcpTransport>> replica_dials;
  std::vector<net::RemoteClusterIndex::ReplicaSet> replica_sets(4);
  for (size_t i = 0; i < 3; ++i) {
    replica_dials.push_back(
        std::make_unique<net::TcpTransport>("127.0.0.1", server.port()));
    replica_sets[i].replicas.push_back(
        {replica_dials.back().get(), static_cast<uint32_t>(i)});
  }
  replica_dials.push_back(
      std::make_unique<net::TcpTransport>("127.0.0.1", doomed.port()));
  replica_sets[3].replicas.push_back({replica_dials.back().get(), 0});
  replica_dials.push_back(
      std::make_unique<net::TcpTransport>("127.0.0.1", backup.port()));
  replica_sets[3].replicas.push_back({replica_dials.back().get(), 0});
  net::RemoteClusterIndex replicated(std::move(replica_sets), options);
  if (Status s = replicated.Connect(); !s.ok()) {
    std::fprintf(stderr, "replicated connect: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nreplicated shard 3 on 127.0.0.1:%u and :%u\n", doomed.port(),
              backup.port());

  // ---- Take the second machine down. The unreplicated router can
  // only degrade: it answers from the surviving shards and
  // predicted_quality reports the lost document share. The replicated
  // router fails over to the backup and nothing is lost.
  doomed.Stop();
  ir::ClusterQueryStats degraded_stats;
  std::vector<ir::ClusterScoredDoc> degraded =
      remote.Query(query, 5, 4, &degraded_stats);
  std::printf("\nafter losing the 1-node server:\n"
              "  unreplicated: %zu results, predicted quality %.2f\n",
              degraded.size(), degraded_stats.predicted_quality);

  ir::ClusterQueryStats replicated_stats;
  std::vector<ir::ClusterScoredDoc> survived =
      replicated.Query(query, 5, 4, &replicated_stats);
  const bool replica_same = SameRanking(survived, over_wire);
  std::printf("  replicated:   %zu results, predicted quality %.2f, "
              "%zu failover(s) — %s\n",
              survived.size(), replicated_stats.predicted_quality,
              replicated_stats.failovers,
              replica_same ? "ranking identical to before the failure"
                           : "MISMATCH");
  backup.Stop();

  // ---- Live ingestion: shards that take writes while they serve.
  // Two live shards over TCP; the centre routes every mutation to the
  // shard owning the url (a stable FNV-1a hash, so a document's insert
  // and its delete always land on the same node). Queries keep serving
  // off epoch-pinned snapshots throughout, and merging the delta tier
  // into a frozen run is not allowed to move a single ranking.
  ingest::LiveIndex live_a, live_b;
  net::ShardServer live_server;
  const uint32_t live_node_a = live_server.AddLiveNode(&live_a);
  const uint32_t live_node_b = live_server.AddLiveNode(&live_b);
  if (Status s = live_server.Start(0); !s.ok()) {
    std::fprintf(stderr, "live start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<std::unique_ptr<net::TcpTransport>> live_dials;
  std::vector<net::RemoteClusterIndex::ReplicaSet> live_sets(2);
  for (uint32_t node : {live_node_a, live_node_b}) {
    live_dials.push_back(
        std::make_unique<net::TcpTransport>("127.0.0.1", live_server.port()));
    live_sets[node].replicas.push_back({live_dials.back().get(), node});
  }
  net::RemoteClusterIndex live_remote(std::move(live_sets), options);
  if (Status s = live_remote.Connect(); !s.ok()) {
    std::fprintf(stderr, "live connect: %s\n", s.ToString().c_str());
    return 1;
  }

  Rng live_rng(42);
  ZipfSampler live_zipf(200, 1.1);
  for (int d = 0; d < 120; ++d) {
    std::string body;
    for (int w = 0; w < 30; ++w) {
      body += StrFormat("term%03zu ", live_zipf.Sample(&live_rng));
    }
    Result<uint64_t> id =
        live_remote.Insert(StrFormat("live/doc%03d", d), body);
    if (!id.ok()) {
      std::fprintf(stderr, "insert: %s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  for (int d = 0; d < 120; d += 5) {
    Result<bool> found = live_remote.Delete(StrFormat("live/doc%03d", d));
    if (!found.ok() || !found.value()) {
      std::fprintf(stderr, "delete failed\n");
      return 1;
    }
  }
  // Every acknowledged mutation carried its exact statistics delta,
  // which the centre has already applied, so this query is
  // bit-identical to a from-scratch rebuild of the surviving documents.
  std::vector<ir::ClusterScoredDoc> live_before =
      live_remote.Query(query, 5, 4);
  std::printf("\nlive cluster: 120 inserted, 24 tombstoned over the wire "
              "(shard epochs %llu and %llu)\n",
              static_cast<unsigned long long>(live_a.epoch()),
              static_cast<unsigned long long>(live_b.epoch()));

  // Pack every shard's delta tier into a frozen run and ask again: the
  // merge reorganises storage, never results.
  if (Status s = live_remote.MergeAll(); !s.ok()) {
    std::fprintf(stderr, "merge: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<ir::ClusterScoredDoc> live_after =
      live_remote.Query(query, 5, 4);
  const bool live_same = SameRanking(live_after, live_before);
  std::printf("after MergeAll: %zu results — %s\n", live_after.size(),
              live_same ? "ranking identical to before the merge"
                        : "MISMATCH");
  live_server.Stop();

  return (replica_same && live_same) ? 0 : 1;
}
