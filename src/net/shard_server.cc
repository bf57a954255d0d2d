#include "net/shard_server.h"

#include <algorithm>

#include "common/strings.h"
#include "ir/fragments.h"
#include "ir/index.h"
#include "net/wire.h"

namespace dls::net {

ShardServer::ShardServer(size_t num_workers) : FrameServer(num_workers) {}

ShardServer::~ShardServer() { Stop(); }

uint32_t ShardServer::AddNode(const ir::TextIndex* index,
                              const ir::FragmentedIndex* fragments) {
  nodes_.push_back(Node{index, fragments});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Result<uint32_t> ShardServer::AddNodeFromSegment(
    const std::string& path, size_t num_fragments,
    const ir::SegmentLoadOptions& load_options) {
  DLS_ASSIGN_OR_RETURN(std::unique_ptr<ir::TextIndex> index,
                       ir::TextIndex::LoadFromSegment(path, load_options));
  auto fragments =
      std::make_unique<ir::FragmentedIndex>(index.get(), num_fragments);
  const uint32_t id = AddNode(index.get(), fragments.get());
  owned_indexes_.push_back(std::move(index));
  owned_fragments_.push_back(std::move(fragments));
  return id;
}

uint32_t ShardServer::AddLiveNode(ingest::LiveIndex* live) {
  Node node{nullptr, nullptr};
  node.live = live;
  nodes_.push_back(std::move(node));
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Result<std::vector<uint8_t>> ShardServer::HandleFrame(
    const std::vector<uint8_t>& frame) const {
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  Status status = DecodeFrame(frame, &type, &body, &body_len);
  if (!status.ok()) return EncodeError(status);

  switch (type) {
    case MessageType::kQueryRequest: {
      Result<QueryRequest> request = DecodeQueryRequest(body, body_len);
      if (!request.ok()) return EncodeError(request.status());
      const QueryRequest& req = request.value();
      if (req.node_id >= nodes_.size()) {
        return EncodeError(Status::NotFound(
            StrFormat("no node %u on this server", req.node_id)));
      }
      const Node& node = nodes_[req.node_id];
      QueryResponse response;
      response.node_id = req.node_id;
      response.results.reserve(req.queries.size());
      // A live node pins one snapshot for the whole batch, so every
      // rider sees the same epoch.
      std::shared_ptr<const ingest::LiveIndex::Snapshot> snapshot;
      if (node.live != nullptr) snapshot = node.live->Pin();
      for (const ir::ShardQuery& query : req.queries) {
        response.results.push_back(
            snapshot != nullptr
                ? ingest::EvaluateLiveShardQuery(*snapshot, query)
                : ir::EvaluateShardQuery(*node.index, *node.fragments,
                                         query));
        const ir::ShardResult& r = response.results.back();
        node.work->postings_touched.fetch_add(r.postings_touched,
                                              std::memory_order_relaxed);
        node.work->blocks_skipped.fetch_add(r.blocks_skipped,
                                            std::memory_order_relaxed);
        node.work->blocks_decoded.fetch_add(r.blocks_decoded,
                                            std::memory_order_relaxed);
        node.work->pivot_iterations.fetch_add(r.pivot_iterations,
                                              std::memory_order_relaxed);
        node.work->cursor_advances.fetch_add(r.cursor_advances,
                                             std::memory_order_relaxed);
      }
      Result<std::vector<uint8_t>> encoded = EncodeQueryResponse(response);
      if (!encoded.ok()) return EncodeError(encoded.status());
      return encoded;
    }
    case MessageType::kStatsRequest: {
      Result<StatsRequest> request = DecodeStatsRequest(body, body_len);
      if (!request.ok()) return EncodeError(request.status());
      if (request.value().node_id >= nodes_.size()) {
        return EncodeError(Status::NotFound(
            StrFormat("no node %u on this server", request.value().node_id)));
      }
      const Node& node = nodes_[request.value().node_id];
      StatsResponse response;
      response.node_id = request.value().node_id;
      if (node.live != nullptr) {
        // One pinned snapshot answers the whole handshake, so document
        // count, collection length, epoch and the df table are all
        // consistent at one epoch even while mutations land.
        std::shared_ptr<const ingest::LiveIndex::Snapshot> snapshot =
            node.live->Pin();
        response.stem = node.live->options().node.stem;
        response.stop = node.live->options().node.stop;
        response.collection_length = snapshot->collection_length();
        response.document_count = snapshot->live_docs();
        response.mutation_epoch = snapshot->epoch();
        std::unordered_map<std::string, int32_t> dfs =
            snapshot->EffectiveDfTable();
        response.term_dfs.reserve(dfs.size());
        for (auto& [term, df] : dfs) {
          response.term_dfs.emplace_back(term, df);
        }
        // The client only sums dfs, but a deterministic frame makes
        // byte-level accounting reproducible across runs.
        std::sort(response.term_dfs.begin(), response.term_dfs.end());
        Result<std::vector<uint8_t>> encoded = EncodeStatsResponse(response);
        if (!encoded.ok()) return EncodeError(encoded.status());
        return encoded;
      }
      const ir::TextIndex& index = *node.index;
      response.stem = index.options().stem;
      response.stop = index.options().stop;
      response.collection_length = index.collection_length();
      response.document_count = index.flushed_document_count();
      response.mutation_epoch = index.mutation_epoch();
      const Node::WorkCounters& work = *node.work;
      response.postings_touched =
          work.postings_touched.load(std::memory_order_relaxed);
      response.blocks_skipped =
          work.blocks_skipped.load(std::memory_order_relaxed);
      response.blocks_decoded =
          work.blocks_decoded.load(std::memory_order_relaxed);
      response.pivot_iterations =
          work.pivot_iterations.load(std::memory_order_relaxed);
      response.cursor_advances =
          work.cursor_advances.load(std::memory_order_relaxed);
      response.term_dfs.reserve(index.vocabulary_size());
      for (ir::TermId t = 0; t < index.vocabulary_size(); ++t) {
        response.term_dfs.emplace_back(index.term(t), index.df(t));
      }
      // A vocabulary too large for one frame is a clear protocol-level
      // error (the encoder names the cap), not "corruption" at the
      // client.
      Result<std::vector<uint8_t>> encoded = EncodeStatsResponse(response);
      if (!encoded.ok()) return EncodeError(encoded.status());
      return encoded;
    }
    case MessageType::kInsertRequest: {
      Result<InsertRequest> request = DecodeInsertRequest(body, body_len);
      if (!request.ok()) return EncodeError(request.status());
      const InsertRequest& req = request.value();
      if (req.node_id >= nodes_.size()) {
        return EncodeError(Status::NotFound(
            StrFormat("no node %u on this server", req.node_id)));
      }
      ingest::LiveIndex* live = nodes_[req.node_id].live;
      if (live == nullptr) {
        return EncodeError(Status::Unsupported(
            StrFormat("node %u is frozen; mutations need a live node",
                      req.node_id)));
      }
      InsertResponse response;
      Result<uint64_t> id = live->Insert(req.url, req.text, &response.delta);
      if (!id.ok()) return EncodeError(id.status());
      response.node_id = req.node_id;
      response.doc_id = id.value();
      response.epoch = live->epoch();
      Result<std::vector<uint8_t>> encoded = EncodeInsertResponse(response);
      if (!encoded.ok()) return EncodeError(encoded.status());
      return encoded;
    }
    case MessageType::kDeleteRequest: {
      Result<DeleteRequest> request = DecodeDeleteRequest(body, body_len);
      if (!request.ok()) return EncodeError(request.status());
      const DeleteRequest& req = request.value();
      if (req.node_id >= nodes_.size()) {
        return EncodeError(Status::NotFound(
            StrFormat("no node %u on this server", req.node_id)));
      }
      ingest::LiveIndex* live = nodes_[req.node_id].live;
      if (live == nullptr) {
        return EncodeError(Status::Unsupported(
            StrFormat("node %u is frozen; mutations need a live node",
                      req.node_id)));
      }
      DeleteResponse response;
      response.node_id = req.node_id;
      response.found = live->Delete(req.url, &response.delta);
      response.epoch = live->epoch();
      Result<std::vector<uint8_t>> encoded = EncodeDeleteResponse(response);
      if (!encoded.ok()) return EncodeError(encoded.status());
      return encoded;
    }
    case MessageType::kMergeRequest: {
      Result<MergeRequest> request = DecodeMergeRequest(body, body_len);
      if (!request.ok()) return EncodeError(request.status());
      const MergeRequest& req = request.value();
      if (req.node_id >= nodes_.size()) {
        return EncodeError(Status::NotFound(
            StrFormat("no node %u on this server", req.node_id)));
      }
      ingest::LiveIndex* live = nodes_[req.node_id].live;
      if (live == nullptr) {
        return EncodeError(Status::Unsupported(
            StrFormat("node %u is frozen; mutations need a live node",
                      req.node_id)));
      }
      live->Merge();
      MergeResponse response;
      response.node_id = req.node_id;
      response.epoch = live->epoch();
      response.merges = live->merges();
      return EncodeMergeResponse(response);
    }
    case MessageType::kSearchRequest:
    case MessageType::kServeStatsRequest:
      // Serving-frontend messages (src/serve). A shard never answers
      // them — clients must speak ShardQuery to shards and
      // SearchRequest to a FrontendServer.
      return EncodeError(Status::Unsupported(
          "shard server does not serve frontend frames; connect to a "
          "FrontendServer"));
    case MessageType::kQueryResponse:
    case MessageType::kStatsResponse:
    case MessageType::kSearchResponse:
    case MessageType::kServeStatsResponse:
    case MessageType::kInsertResponse:
    case MessageType::kDeleteResponse:
    case MessageType::kMergeResponse:
    case MessageType::kError:
      return EncodeError(
          Status::InvalidArgument("server received a response-type frame"));
  }
  return EncodeError(Status::Internal("unreachable message type"));
}

}  // namespace dls::net
