// The serving adapters' batch accounting: whichever cluster flavour
// sits behind the frontend — in-process, remote over the wire, or a
// live-ingestion index — a batch's work counters are exactly the sum of
// its riders' (and its postings_touched_max_node their maximum), so
// serving stats never lose work a rider reported.
#include "serve/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "net/remote_cluster.h"
#include "net/shard_server.h"
#include "net/transport.h"

namespace dls::serve {
namespace {

constexpr int kDocs = 400;
constexpr size_t kNodes = 4;

std::string Body(Rng* rng, ZipfSampler* zipf) {
  std::string body;
  for (int w = 0; w < 50; ++w) {
    body += StrFormat("term%03zu ", zipf->Sample(rng));
  }
  return body;
}

std::vector<std::vector<std::string>> SeededQueries(int count, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(300, 1.1);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < count; ++q) {
    std::vector<std::string> words;
    for (int w = 0; w < 3; ++w) {
      words.push_back(StrFormat("term%03zu", zipf.Sample(&rng)));
    }
    queries.push_back(std::move(words));
  }
  return queries;
}

void ExpectBatchIsSumOfRiders(const Backend& backend, const char* label) {
  ir::RankOptions options;
  options.prune = true;
  options.strategy = ir::RankStrategy::kWand;
  const std::vector<std::vector<std::string>> queries = SeededQueries(8, 5);
  ir::ClusterQueryStats batch;
  std::vector<ir::ClusterQueryStats> riders;
  backend.QueryBatch(queries, 10, 4, &batch, &riders, options);
  ASSERT_EQ(riders.size(), queries.size()) << label;

  ir::ClusterQueryStats sum;
  for (const ir::ClusterQueryStats& rider : riders) {
    sum.postings_touched_total += rider.postings_touched_total;
    sum.postings_touched_max_node = std::max(sum.postings_touched_max_node,
                                             rider.postings_touched_max_node);
    sum.blocks_skipped += rider.blocks_skipped;
    sum.blocks_decoded += rider.blocks_decoded;
    sum.pivot_iterations += rider.pivot_iterations;
    sum.cursor_advances += rider.cursor_advances;
  }
  EXPECT_EQ(batch.postings_touched_total, sum.postings_touched_total) << label;
  EXPECT_EQ(batch.postings_touched_max_node, sum.postings_touched_max_node)
      << label;
  EXPECT_EQ(batch.blocks_skipped, sum.blocks_skipped) << label;
  EXPECT_EQ(batch.blocks_decoded, sum.blocks_decoded) << label;
  EXPECT_EQ(batch.pivot_iterations, sum.pivot_iterations) << label;
  EXPECT_EQ(batch.cursor_advances, sum.cursor_advances) << label;
  // The pruning evaluator really ran, so the sums are not vacuous.
  EXPECT_GT(sum.pivot_iterations, 0u) << label;
  EXPECT_GT(sum.cursor_advances, 0u) << label;
}

TEST(BackendTest, BatchTotalsAreTheSumOfRiders) {
  ir::ClusterIndex cluster(kNodes, 4);
  ingest::LiveIndexOptions live_options;
  live_options.num_fragments = 4;
  ingest::LiveIndex live(live_options);
  Rng rng(3);
  ZipfSampler zipf(300, 1.1);
  for (int d = 0; d < kDocs; ++d) {
    const std::string url = StrFormat("doc%03d", d);
    const std::string body = Body(&rng, &zipf);
    cluster.AddDocument(url, body);
    ASSERT_TRUE(live.Insert(url, body).ok());
  }
  cluster.Finalize();
  live.Merge();

  net::ShardServer server;
  std::vector<std::unique_ptr<net::LoopbackTransport>> transports;
  std::vector<net::RemoteClusterIndex::Shard> shards;
  for (size_t i = 0; i < kNodes; ++i) {
    server.AddNode(&cluster.node_index(i), &cluster.node_fragments(i));
    transports.push_back(
        std::make_unique<net::LoopbackTransport>(server.Handler()));
    shards.push_back({transports[i].get(), static_cast<uint32_t>(i)});
  }
  net::RemoteClusterIndex remote(std::move(shards));
  ASSERT_TRUE(remote.Connect().ok());

  ExpectBatchIsSumOfRiders(LocalBackend(&cluster), "local");
  ExpectBatchIsSumOfRiders(RemoteBackend(&remote), "remote");
  ExpectBatchIsSumOfRiders(LiveBackend(&live), "live");
}

}  // namespace
}  // namespace dls::serve
