#include "net/shard_server.h"

#include "common/strings.h"
#include "ir/fragments.h"
#include "ir/index.h"
#include "net/wire.h"

namespace dls::net {

ShardServer::ShardServer(size_t num_workers) : FrameServer(num_workers) {}

ShardServer::~ShardServer() { Stop(); }

uint32_t ShardServer::AddNode(const ir::TextIndex* index,
                              const ir::FragmentedIndex* fragments) {
  // Aliasing shared_ptrs with no owner: the caller keeps both alive.
  nodes_.push_back(Node{ingest::LiveIndex::Snapshot::Frozen(
      std::shared_ptr<const ir::TextIndex>(
          std::shared_ptr<const ir::TextIndex>(), index),
      std::shared_ptr<const ir::FragmentedIndex>(
          std::shared_ptr<const ir::FragmentedIndex>(), fragments))});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Result<uint32_t> ShardServer::AddNodeFromSegment(
    const std::string& path, size_t num_fragments,
    const ir::SegmentLoadOptions& load_options) {
  DLS_ASSIGN_OR_RETURN(std::unique_ptr<ir::TextIndex> loaded,
                       ir::TextIndex::LoadFromSegment(path, load_options));
  std::shared_ptr<const ir::TextIndex> index = std::move(loaded);
  auto fragments =
      std::make_shared<const ir::FragmentedIndex>(index.get(), num_fragments);
  nodes_.push_back(Node{ingest::LiveIndex::Snapshot::Frozen(
      std::move(index), std::move(fragments))});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t ShardServer::AddLiveNode(ingest::LiveIndex* live) {
  nodes_.push_back(Node{nullptr, live});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Result<const ShardServer::Node*> ShardServer::NodeFor(uint32_t id,
                                                      bool mutation) const {
  if (id >= nodes_.size()) {
    return Status::NotFound(StrFormat("no node %u on this server", id));
  }
  if (mutation && nodes_[id].live == nullptr) {
    return Status::Unsupported(
        StrFormat("node %u is frozen; mutations need a live node", id));
  }
  return &nodes_[id];
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
      Result<const Node*> found = NodeFor(req.node_id, /*mutation=*/false);
      if (!found.ok()) return EncodeError(found.status());
      const Node& node = *found.value();
      QueryResponse response;
      response.node_id = req.node_id;
      response.results.reserve(req.queries.size());
      // One snapshot answers the whole batch, so every rider sees the
      // same epoch.
      const std::shared_ptr<const ingest::LiveIndex::Snapshot> snapshot =
          node.Pin();
      ir::RankStats batch_work;
      for (const ir::ShardQuery& query : req.queries) {
        response.results.push_back(
            ingest::EvaluateLiveShardQuery(*snapshot, query));
        batch_work += response.results.back().work;
      }
      {
        std::lock_guard<std::mutex> lock(node.work->mu);
        node.work->total += batch_work;
      }
      Result<std::vector<uint8_t>> encoded = EncodeQueryResponse(response);
      if (!encoded.ok()) return EncodeError(encoded.status());
      return encoded;
    }
    case MessageType::kStatsRequest: {
      Result<StatsRequest> request = DecodeStatsRequest(body, body_len);
      if (!request.ok()) return EncodeError(request.status());
      Result<const Node*> found =
          NodeFor(request.value().node_id, /*mutation=*/false);
      if (!found.ok()) return EncodeError(found.status());
      const Node& node = *found.value();
      StatsResponse response;
      response.node_id = request.value().node_id;
      // One snapshot answers the whole handshake, so document count,
      // collection length, epoch and the df table are all consistent at
      // one epoch even while mutations land.
      const std::shared_ptr<const ingest::LiveIndex::Snapshot> snapshot =
          node.Pin();
      response.stem = snapshot->stem();
      response.stop = snapshot->stop();
      response.collection_length = snapshot->collection_length();
      response.document_count = snapshot->live_docs();
      response.mutation_epoch = snapshot->epoch();
      {
        std::lock_guard<std::mutex> lock(node.work->mu);
        response.work = node.work->total;
      }
      response.term_dfs = snapshot->EffectiveDfList();
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
      Result<const Node*> found = NodeFor(req.node_id, /*mutation=*/true);
      if (!found.ok()) return EncodeError(found.status());
      ingest::LiveIndex* live = found.value()->live;
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
      Result<const Node*> found = NodeFor(req.node_id, /*mutation=*/true);
      if (!found.ok()) return EncodeError(found.status());
      ingest::LiveIndex* live = found.value()->live;
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
      Result<const Node*> found = NodeFor(req.node_id, /*mutation=*/true);
      if (!found.ok()) return EncodeError(found.status());
      ingest::LiveIndex* live = found.value()->live;
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
