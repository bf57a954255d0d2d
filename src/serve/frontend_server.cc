#include "serve/frontend_server.h"

#include <utility>

#include "net/wire.h"

namespace dls::serve {

FrontendServer::FrontendServer(Frontend* frontend, size_t num_workers)
    : net::FrameServer(num_workers), frontend_(frontend) {}

FrontendServer::~FrontendServer() { Stop(); }

Result<std::vector<uint8_t>> FrontendServer::HandleFrame(
    const std::vector<uint8_t>& frame) const {
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  Status status = net::DecodeFrame(frame, &type, &body, &body_len);
  if (!status.ok()) return net::EncodeError(status);

  switch (type) {
    case net::MessageType::kSearchRequest: {
      Result<net::SearchRequest> request =
          net::DecodeSearchRequest(body, body_len);
      if (!request.ok()) return net::EncodeError(request.status());

      SearchQuery query;
      query.words = std::move(request.value().words);
      query.n = static_cast<size_t>(request.value().n);
      query.max_fragments = static_cast<size_t>(request.value().max_fragments);
      query.deadline_ms = request.value().deadline_ms;
      query.options = request.value().options;
      query.structured = std::move(request.value().structured);
      SearchResult answer = frontend_->Search(query);

      net::SearchResponse response;
      response.status = answer.status;
      response.retry_after_ms = answer.retry_after_ms;
      response.cache_hit = answer.cache_hit;
      response.degraded = answer.degraded;
      response.predicted_quality = answer.predicted_quality;
      response.results = std::move(answer.results);
      response.plan = std::move(answer.plan);
      Result<std::vector<uint8_t>> encoded =
          net::EncodeSearchResponse(response);
      if (!encoded.ok()) return net::EncodeError(encoded.status());
      return encoded;
    }
    case net::MessageType::kServeStatsRequest: {
      Result<net::ServeStatsRequest> request =
          net::DecodeServeStatsRequest(body, body_len);
      if (!request.ok()) return net::EncodeError(request.status());
      return net::EncodeServeStatsResponse(frontend_->Stats());
    }
    case net::MessageType::kQueryRequest:
    case net::MessageType::kStatsRequest:
    case net::MessageType::kInsertRequest:
    case net::MessageType::kDeleteRequest:
    case net::MessageType::kMergeRequest:
      return net::EncodeError(Status::Unsupported(
          "frontend server does not serve shard frames; connect to a "
          "ShardServer"));
    case net::MessageType::kQueryResponse:
    case net::MessageType::kStatsResponse:
    case net::MessageType::kSearchResponse:
    case net::MessageType::kServeStatsResponse:
    case net::MessageType::kInsertResponse:
    case net::MessageType::kDeleteResponse:
    case net::MessageType::kMergeResponse:
    case net::MessageType::kError:
      return net::EncodeError(
          Status::InvalidArgument("server received a response-type frame"));
  }
  return net::EncodeError(Status::Internal("unreachable message type"));
}

}  // namespace dls::serve
