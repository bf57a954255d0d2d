#include "net/remote_cluster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>
#include <tuple>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "net/wire.h"

namespace dls::net {

namespace {

/// The rolling hedge budget tracks this quantile of the shard's window
/// of successful call latencies.
constexpr double kHedgeQuantile = 0.95;
/// Window samples required before the rolling budget arms — until then
/// nothing hedges, keeping cold-start behaviour (and the message
/// accounting of deterministic tests) identical to the pre-replica
/// code.
constexpr size_t kHedgeMinSamples = 32;
/// The budget never drops below this, so micro-benchmark-fast shards
/// don't hedge on scheduler noise.
constexpr int64_t kHedgeBudgetFloorUs = 200;
/// EWMA smoothing for per-replica latency and error rate.
constexpr double kEwmaAlpha = 0.2;

/// One attempt's classified outcome. `frame` is ok iff a well-formed
/// non-Error frame arrived; `bytes` is the size of whatever response
/// frame was received (0 when the transport itself failed), so wire
/// accounting charges error frames and corrupt frames like the real
/// traffic they are.
struct Attempt {
  Result<std::vector<uint8_t>> frame;
  size_t bytes = 0;
};

/// Collapses a raw transport result into pass/fail: a transport error,
/// an undecodable frame, or a peer Error frame are all *failed
/// attempts* — eligible for retry and replica failover — while any
/// well-formed non-Error frame is the attempt's answer (the caller
/// still checks the type).
Attempt ClassifyResponse(Result<std::vector<uint8_t>> raw) {
  if (!raw.ok()) return {std::move(raw), 0};
  const size_t bytes = raw.value().size();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  Status decoded = DecodeFrame(raw.value(), &type, &body, &body_len);
  if (!decoded.ok()) return {std::move(decoded), bytes};
  if (type == MessageType::kError) return {DecodeError(body, body_len), bytes};
  return {std::move(raw), bytes};
}

/// Parses a replica's answer: the frame must be well-formed, of the
/// `expected` type, and its body must decode.
template <typename Response>
Result<Response> DecodeAnswer(
    const std::vector<uint8_t>& answer, MessageType expected,
    const char* what, Result<Response> (*decode)(const uint8_t*, size_t)) {
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  DLS_RETURN_IF_ERROR(DecodeFrame(answer, &type, &body, &body_len));
  if (type != expected) {
    return Status::Corruption(
        StrFormat("%s: unexpected frame type", what));
  }
  return decode(body, body_len);
}

// What the every-replica exchange sends and what it holds replicas to,
// one struct per exchange: the request's encoder, the answer's frame
// type and decoder, the answer fields every replica must agree on with
// the status a disagreement earns, and how an answer reads in that
// error. Never the node id (replicas may address the node under
// different ids) and never the handshake's work total (each replica
// served different queries).

struct StatsExchange {
  using Request = StatsRequest;
  using Response = StatsResponse;
  static constexpr const char* kName = "stats handshake";
  static constexpr MessageType kAnswer = MessageType::kStatsResponse;
  // Replicas that start out different are a deployment error.
  static constexpr StatusCode kDisagreement = StatusCode::kInvalidArgument;
  static constexpr auto Encode = &EncodeStatsRequest;
  static constexpr auto Decode = &DecodeStatsResponse;
  static auto Agreed(const Response& a) {
    return std::tie(a.document_count, a.collection_length, a.mutation_epoch,
                    a.stem, a.stop);
  }
  static std::string Describe(const Response& a) {
    return StrFormat("docs=%llu len=%lld epoch=%llu stem=%d stop=%d",
                     static_cast<unsigned long long>(a.document_count),
                     static_cast<long long>(a.collection_length),
                     static_cast<unsigned long long>(a.mutation_epoch),
                     a.stem ? 1 : 0, a.stop ? 1 : 0);
  }
};

struct InsertExchange {
  using Request = InsertRequest;
  using Response = InsertResponse;
  static constexpr const char* kName = "insert";
  static constexpr MessageType kAnswer = MessageType::kInsertResponse;
  static constexpr StatusCode kDisagreement = StatusCode::kInternal;
  static constexpr auto Encode = &EncodeInsertRequest;
  static constexpr auto Decode = &DecodeInsertResponse;
  static auto Agreed(const Response& a) {
    return std::tie(a.doc_id, a.epoch, a.delta);
  }
  static std::string Describe(const Response& a) {
    return StrFormat("id=%llu epoch=%llu length=%lld stems=%zu",
                     static_cast<unsigned long long>(a.doc_id),
                     static_cast<unsigned long long>(a.epoch),
                     static_cast<long long>(a.delta.length),
                     a.delta.stems.size());
  }
};

struct DeleteExchange {
  using Request = DeleteRequest;
  using Response = DeleteResponse;
  static constexpr const char* kName = "delete";
  static constexpr MessageType kAnswer = MessageType::kDeleteResponse;
  static constexpr StatusCode kDisagreement = StatusCode::kInternal;
  static constexpr auto Encode = &EncodeDeleteRequest;
  static constexpr auto Decode = &DecodeDeleteResponse;
  static auto Agreed(const Response& a) {
    return std::tie(a.found, a.epoch, a.delta);
  }
  static std::string Describe(const Response& a) {
    return StrFormat("found=%d epoch=%llu length=%lld stems=%zu",
                     a.found ? 1 : 0,
                     static_cast<unsigned long long>(a.epoch),
                     static_cast<long long>(a.delta.length),
                     a.delta.stems.size());
  }
};

struct MergeExchange {
  using Request = MergeRequest;
  using Response = MergeResponse;
  static constexpr const char* kName = "merge";
  static constexpr MessageType kAnswer = MessageType::kMergeResponse;
  static constexpr StatusCode kDisagreement = StatusCode::kInternal;
  static constexpr auto Encode = &EncodeMergeRequest;
  static constexpr auto Decode = &DecodeMergeResponse;
  static auto Agreed(const Response& a) { return std::tie(a.epoch); }
  static std::string Describe(const Response& a) {
    return StrFormat("epoch=%llu", static_cast<unsigned long long>(a.epoch));
  }
};

/// Writes are sent to each replica once: inserts and deletes are not
/// idempotent, so a retry of a write the node already applied would
/// answer for the retry, not for the write.
constexpr int kWriteAttempts = 1;

}  // namespace

/// Completion channel between a caller and its attempts, inline or
/// async. Heap-allocated and shared: a hedge loser finishing after the
/// caller returned writes into this, not into the caller's stack.
struct RemoteClusterIndex::HedgedCall {
  std::mutex mu;
  std::condition_variable cv;
  struct Done {
    Result<std::vector<uint8_t>> frame = Status::Unavailable("pending");
    size_t bytes = 0;
    size_t replica = 0;
    bool is_hedge = false;
  };
  std::vector<Done> done;
};

RemoteClusterIndex::RemoteClusterIndex(std::vector<Shard> shards)
    : RemoteClusterIndex(std::move(shards), Options()) {}

RemoteClusterIndex::RemoteClusterIndex(std::vector<Shard> shards,
                                       Options options)
    : RemoteClusterIndex(
          [&shards] {
            std::vector<ReplicaSet> sets(shards.size());
            for (size_t i = 0; i < shards.size(); ++i) {
              sets[i].replicas.push_back(shards[i]);
            }
            return sets;
          }(),
          options) {}

RemoteClusterIndex::RemoteClusterIndex(std::vector<ReplicaSet> shards,
                                       Options options)
    : shards_(std::move(shards)), options_(options) {
  assert(!shards_.empty());
  shard_docs_.assign(shards_.size(), 0);
  shard_epochs_.assign(shards_.size(), 0);
  shard_state_.reserve(shards_.size());
  for (const ReplicaSet& set : shards_) {
    assert(!set.replicas.empty());
    auto state = std::make_unique<ShardState>();
    state->health.resize(set.replicas.size());
    shard_state_.push_back(std::move(state));
  }
}

RemoteClusterIndex::~RemoteClusterIndex() {
  // Hedge losers still hold `this` (they record replica health); the
  // index must not die under them.
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void RemoteClusterIndex::SetExecutor(ThreadPool* pool) {
  executor_ = pool;
  if (pool == nullptr) owned_pool_.reset();
}

void RemoteClusterIndex::EnableParallelism(size_t num_threads) {
  owned_pool_ = std::make_unique<ThreadPool>(num_threads);
  executor_ = owned_pool_.get();
}

int32_t RemoteClusterIndex::global_df(std::string_view stem) const {
  std::shared_lock<std::shared_mutex> lock(stats_mu_);
  auto it = global_df_.find(stem);
  return it == global_df_.end() ? 0 : it->second;
}

RemoteClusterIndex::ReplicaCounters RemoteClusterIndex::replica_counters()
    const {
  ReplicaCounters counters;
  counters.hedges_fired = hedges_fired_.load(std::memory_order_relaxed);
  counters.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  counters.failovers = failovers_.load(std::memory_order_relaxed);
  counters.replica_errors = replica_errors_.load(std::memory_order_relaxed);
  return counters;
}

std::vector<size_t> RemoteClusterIndex::HealthOrder(size_t shard) const {
  const size_t n = shards_[shard].replicas.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n < 2) return order;
  // Score = smoothed latency plus an error-rate penalty priced at one
  // timeout (that is what a failed attempt costs the caller). A
  // never-sampled replica scores 0 and keeps its configured position —
  // fresh replicas get probed first, in deterministic order.
  std::vector<double> score(n);
  {
    ShardState& state = *shard_state_[shard];
    std::lock_guard<std::mutex> lock(state.mu);
    for (size_t r = 0; r < n; ++r) {
      const ReplicaHealth& h = state.health[r];
      score[r] = h.ewma_latency_us +
                 h.ewma_error * static_cast<double>(options_.timeout_ms) * 1e3;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&score](size_t a, size_t b) { return score[a] < score[b]; });
  return order;
}

int64_t RemoteClusterIndex::HedgeBudgetUs(size_t shard) const {
  if (!options_.hedge || shards_[shard].replicas.size() < 2) return -1;
  if (options_.hedge_budget_us > 0) return options_.hedge_budget_us;
  ShardState& state = *shard_state_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.window_count < kHedgeMinSamples) return -1;
  std::array<uint32_t, 64> window = state.window_us;
  const size_t count = state.window_count;
  const size_t k =
      static_cast<size_t>(kHedgeQuantile * static_cast<double>(count - 1));
  std::nth_element(window.begin(), window.begin() + k, window.begin() + count);
  return std::max<int64_t>(window[k], kHedgeBudgetFloorUs);
}

void RemoteClusterIndex::RecordCallOutcome(size_t shard, size_t replica,
                                           bool ok, double elapsed_us) const {
  if (!ok) replica_errors_.fetch_add(1, std::memory_order_relaxed);
  ShardState& state = *shard_state_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  ReplicaHealth& h = state.health[replica];
  const double a = kEwmaAlpha;
  if (ok) {
    h.ewma_latency_us = h.ewma_latency_us <= 0
                            ? elapsed_us
                            : (1 - a) * h.ewma_latency_us + a * elapsed_us;
  }
  h.ewma_error =
      h.samples == 0 ? (ok ? 0.0 : 1.0)
                     : (1 - a) * h.ewma_error + a * (ok ? 0.0 : 1.0);
  h.samples += 1;
}

void RemoteClusterIndex::RecordExchangeLatency(size_t shard,
                                               double elapsed_us) const {
  const uint32_t clamped = static_cast<uint32_t>(
      std::min(elapsed_us, 4e9));
  ShardState& state = *shard_state_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  state.window_us[state.window_next] = clamped;
  state.window_next = (state.window_next + 1) % state.window_us.size();
  state.window_count = std::min(state.window_count + 1, state.window_us.size());
}

void RemoteClusterIndex::RunAttempt(size_t shard, size_t replica,
                                    const std::vector<uint8_t>& frame,
                                    bool is_hedge, HedgedCall* state) const {
  Timer timer;
  Attempt attempt = ClassifyResponse(
      shards_[shard].replicas[replica].transport->Call(
          frame, Deadline::After(options_.timeout_ms)));
  RecordCallOutcome(shard, replica, attempt.frame.ok(),
                    timer.ElapsedMillis() * 1e3);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->done.push_back({std::move(attempt.frame), attempt.bytes, replica,
                           is_hedge});
  }
  state->cv.notify_all();
}

void RemoteClusterIndex::StartAsyncAttempt(
    size_t shard, size_t replica,
    std::shared_ptr<const std::vector<uint8_t>> frame, bool is_hedge,
    std::shared_ptr<HedgedCall> state) const {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_;
  }
  std::thread([this, shard, replica, frame = std::move(frame), is_hedge,
               state = std::move(state)] {
    RunAttempt(shard, replica, *frame, is_hedge, state.get());
    {
      // Notify under the lock: the destructor destroys this cv the
      // moment its wait observes inflight_ == 0, and it can only
      // observe that after we release the mutex.
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_;
      inflight_cv_.notify_all();
    }
  }).detach();
}

Result<std::vector<uint8_t>> RemoteClusterIndex::HedgedExchange(
    size_t shard,
    const std::vector<std::shared_ptr<const std::vector<uint8_t>>>& frames,
    ir::ClusterQueryStats* t) const {
  // The attempt walk: replicas healthiest-first, the whole order
  // repeated for each retry pass. A single-replica shard degenerates
  // to the old retry loop exactly.
  const std::vector<size_t> order = HealthOrder(shard);
  std::vector<size_t> seq;
  seq.reserve(order.size() * static_cast<size_t>(options_.retries + 1));
  for (int pass = 0; pass <= options_.retries; ++pass) {
    for (size_t r : order) seq.push_back(r);
  }

  Timer exchange_timer;
  Status last = Status::Unavailable("no replica answered");
  size_t next = 0;
  const int64_t budget_us = HedgeBudgetUs(shard);

  // Armed, attempts run on registered async threads so the caller can
  // fire the next replica while the first is still in flight. Unarmed
  // (one replica, hedging off, or the window not primed), each attempt
  // runs to completion on the caller's thread inside launch(): no
  // thread starts and the loop below never waits. At most two attempts
  // outstanding; first well-formed answer wins; losers land in `state`
  // (heap-shared) and only update health.
  auto state = std::make_shared<HedgedCall>();
  size_t outstanding = 0;
  auto launch = [&](bool is_hedge) {
    const size_t replica = seq[next++];
    t->messages += 1;
    t->bytes_shipped += frames[replica]->size();
    ++outstanding;
    if (budget_us < 0) {
      RunAttempt(shard, replica, *frames[replica], is_hedge, state.get());
    } else {
      StartAsyncAttempt(shard, replica, frames[replica], is_hedge, state);
    }
  };
  launch(/*is_hedge=*/false);

  size_t consumed = 0;
  std::unique_lock<std::mutex> lock(state->mu);
  while (true) {
    if (state->done.size() == consumed) {
      if (outstanding == 0) return last;  // walk exhausted, all failed
      if (next < seq.size() && outstanding < 2) {
        const bool completed = state->cv.wait_for(
            lock, std::chrono::microseconds(budget_us),
            [&] { return state->done.size() > consumed; });
        if (!completed) {
          // Budget blown: hedge to the next replica in the walk.
          lock.unlock();
          launch(/*is_hedge=*/true);
          lock.lock();
          t->hedges_fired += 1;
          hedges_fired_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else {
        state->cv.wait(lock,
                       [&] { return state->done.size() > consumed; });
      }
    }
    HedgedCall::Done& done = state->done[consumed++];
    --outstanding;
    if (done.bytes > 0) {
      t->messages += 1;
      t->bytes_shipped += done.bytes;
    }
    if (done.frame.ok()) {
      if (done.is_hedge) {
        t->hedge_wins += 1;
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
      }
      RecordExchangeLatency(shard, exchange_timer.ElapsedMillis() * 1e3);
      return std::move(done.frame);
    }
    last = done.frame.status();
    if (next < seq.size() && outstanding < 2) {
      const size_t failed_replica = done.replica;
      const size_t replacement = seq[next];
      lock.unlock();
      launch(/*is_hedge=*/false);
      lock.lock();
      if (replacement != failed_replica) {
        t->failovers += 1;
        failovers_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

template <typename Exchange>
Result<typename Exchange::Response> RemoteClusterIndex::EveryReplicaExchange(
    size_t shard, typename Exchange::Request request, int attempts) const {
  const std::vector<Shard>& replicas = shards_[shard].replicas;
  typename Exchange::Response first;
  for (size_t r = 0; r < replicas.size(); ++r) {
    request.node_id = replicas[r].node_id;
    // Stats and merge requests always encode; inserts and deletes
    // may not fit a frame.
    const Result<std::vector<uint8_t>> frame = Exchange::Encode(request);
    DLS_RETURN_IF_ERROR(frame.status());
    Result<std::vector<uint8_t>> answer =
        Status::Unavailable("no attempts made");
    for (int attempt = 0; attempt < attempts && !answer.ok(); ++attempt) {
      answer = ClassifyResponse(
                   replicas[r].transport->Call(
                       frame.value(), Deadline::After(options_.timeout_ms)))
                   .frame;
    }
    DLS_RETURN_IF_ERROR(answer.status());
    DLS_ASSIGN_OR_RETURN(typename Exchange::Response response,
                         DecodeAnswer(answer.value(), Exchange::kAnswer,
                                      Exchange::kName, Exchange::Decode));
    if (r == 0) {
      first = std::move(response);
    } else if (Exchange::Agreed(response) != Exchange::Agreed(first)) {
      return Status(
          Exchange::kDisagreement,
          StrFormat("shard %zu replica %zu disagrees with replica 0 on %s "
                    "(%s vs %s); replicas must serve identical node content",
                    shard, r, Exchange::kName,
                    Exchange::Describe(response).c_str(),
                    Exchange::Describe(first).c_str()));
    }
  }
  return first;
}

Status RemoteClusterIndex::Connect() {
  // Phase 1, unlocked: run the handshake against every replica and
  // build the new aggregates locally — network I/O must not stall
  // concurrent queries holding shared stats locks.
  decltype(global_df_) new_global_df;
  int64_t new_collection_length = 0;
  std::vector<uint64_t> new_shard_docs(shards_.size(), 0);
  uint64_t new_total_docs = 0;
  std::vector<uint64_t> new_shard_epochs(shards_.size(), 0);
  bool new_stem = true;
  bool new_stop = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Every replica answers for itself, no failover: Connect() is the
    // deployment check. Replicas of one shard must serve the same
    // frozen node — that identity is what makes failover/hedging
    // exactness-safe, so the cheap invariants are checked up front
    // rather than trusted.
    DLS_ASSIGN_OR_RETURN(
        const StatsResponse stats,
        EveryReplicaExchange<StatsExchange>(i, {}, 1 + options_.retries));
    // Adopt the first shard's normalisation pipeline and hold every
    // other shard to it: resolving queries through a different
    // stem/stop configuration than the shards indexed with would
    // silently break the remote/in-process bit-identity (and recall).
    if (i == 0) {
      new_stem = stats.stem;
      new_stop = stats.stop;
    } else if (stats.stem != new_stem || stats.stop != new_stop) {
      return Status::InvalidArgument(StrFormat(
          "shard %zu normalisation (stem=%d stop=%d) disagrees with shard 0 "
          "(stem=%d stop=%d); all shards must index with one pipeline",
          i, stats.stem ? 1 : 0, stats.stop ? 1 : 0, new_stem ? 1 : 0,
          new_stop ? 1 : 0));
    }
    // Same aggregation as ClusterIndex::Finalize(): integer sums over
    // one replica per shard, so the resulting global df relation is
    // identical to the in-process one whatever the shard order. A
    // peer's statistics are as untrusted as its bytes: a negative
    // length, or a sum the centre's counters cannot hold, is
    // corruption, not a wrapped statistic.
    if (stats.collection_length < 0 ||
        __builtin_add_overflow(new_collection_length,
                               stats.collection_length,
                               &new_collection_length)) {
      return Status::Corruption(StrFormat(
          "shard %zu advertises collection length %lld, which the "
          "cluster's cannot hold",
          i, static_cast<long long>(stats.collection_length)));
    }
    new_shard_docs[i] = stats.document_count;
    new_total_docs += stats.document_count;
    new_shard_epochs[i] = stats.mutation_epoch;
    for (const auto& [term, df] : stats.term_dfs) {
      int32_t& global = new_global_df[term];
      if (__builtin_add_overflow(global, df, &global)) {
        return Status::Corruption(StrFormat(
            "shard %zu advertises df %d for stem \"%s\", which overflows "
            "its global df",
            i, df, term.c_str()));
      }
    }
  }
  // Phase 2: commit the new aggregates atomically with respect to the
  // readers — a query resolves against either the old or the new
  // handshake, never a mix.
  std::unique_lock<std::shared_mutex> lock(stats_mu_);
  global_df_ = std::move(new_global_df);
  collection_length_ = new_collection_length;
  shard_docs_ = std::move(new_shard_docs);
  total_docs_ = new_total_docs;
  shard_epochs_ = std::move(new_shard_epochs);
  norm_stem_ = new_stem;
  norm_stop_ = new_stop;
  connected_ = true;
  return Status::Ok();
}

size_t RemoteClusterIndex::ShardForUrl(std::string_view url) const {
  // FNV-1a, 64-bit: stable across runs and processes, so a document's
  // insert and delete always route to the same shard.
  uint64_t h = 14695981039346656037ull;
  for (const char c : url) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % shards_.size());
}

Status RemoteClusterIndex::ApplyStatsDelta(size_t shard, int sign,
                                           const ingest::StatsDelta& delta,
                                           uint64_t epoch) {
  std::unique_lock<std::shared_mutex> lock(stats_mu_);
  // Checked before anything moves, so a refused ack changes nothing.
  int64_t length = 0;
  if (sign > 0 ? __builtin_add_overflow(collection_length_, delta.length,
                                        &length)
               : __builtin_sub_overflow(collection_length_, delta.length,
                                        &length)) {
    return Status::Corruption(StrFormat(
        "shard %zu acknowledged a document of length %lld, which the "
        "cluster's collection length cannot hold",
        shard, static_cast<long long>(delta.length)));
  }
  if (sign > 0) {
    for (const std::string& stem : delta.stems) {
      const auto it = global_df_.find(stem);
      if (it != global_df_.end() &&
          it->second == std::numeric_limits<int32_t>::max()) {
        return Status::Corruption(StrFormat(
            "shard %zu acknowledged stem \"%s\", whose global df is "
            "already at its limit",
            shard, stem.c_str()));
      }
    }
  }
  for (const std::string& stem : delta.stems) {
    auto it = global_df_.try_emplace(stem, 0).first;
    it->second += sign;
    if (it->second <= 0) global_df_.erase(it);
  }
  collection_length_ = length;
  if (sign > 0) {
    ++shard_docs_[shard];
    ++total_docs_;
  } else {
    --shard_docs_[shard];
    --total_docs_;
  }
  // Never backwards: acks of concurrent mutations may arrive out of
  // order.
  shard_epochs_[shard] = std::max(shard_epochs_[shard], epoch);
  return Status::Ok();
}

Result<uint64_t> RemoteClusterIndex::Insert(std::string_view url,
                                            std::string_view text) {
  const size_t shard = ShardForUrl(url);
  DLS_ASSIGN_OR_RETURN(
      const InsertResponse ack,
      EveryReplicaExchange<InsertExchange>(
          shard, {0, std::string(url), std::string(text)}, kWriteAttempts));
  DLS_RETURN_IF_ERROR(ApplyStatsDelta(shard, +1, ack.delta, ack.epoch));
  return ack.doc_id;
}

Result<bool> RemoteClusterIndex::Delete(std::string_view url) {
  const size_t shard = ShardForUrl(url);
  DLS_ASSIGN_OR_RETURN(const DeleteResponse ack,
                       EveryReplicaExchange<DeleteExchange>(
                           shard, {0, std::string(url)}, kWriteAttempts));
  if (ack.found) {
    DLS_RETURN_IF_ERROR(ApplyStatsDelta(shard, -1, ack.delta, ack.epoch));
  }
  return ack.found;
}

Status RemoteClusterIndex::MergeAll() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    DLS_ASSIGN_OR_RETURN(
        const MergeResponse ack,
        EveryReplicaExchange<MergeExchange>(i, {}, kWriteAttempts));
    std::unique_lock<std::shared_mutex> lock(stats_mu_);
    shard_epochs_[i] = std::max(shard_epochs_[i], ack.epoch);
  }
  return Status::Ok();
}

bool RemoteClusterIndex::CallShard(size_t shard,
                                   const std::vector<ir::ShardQuery>& queries,
                                   std::vector<ir::ShardResult>* results,
                                   ir::ClusterQueryStats* exchange) const {
  const std::vector<Shard>& replicas = shards_[shard].replicas;
  // One encoded frame per replica — replicas may address the node
  // under different node ids on different servers, but replicas
  // sharing an id share the encoding.
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> frames(
      replicas.size());
  std::unordered_map<uint32_t, std::shared_ptr<const std::vector<uint8_t>>>
      by_node;
  for (size_t r = 0; r < replicas.size(); ++r) {
    auto it = by_node.find(replicas[r].node_id);
    if (it == by_node.end()) {
      QueryRequest request;
      request.node_id = replicas[r].node_id;
      request.queries = queries;
      Result<std::vector<uint8_t>> encoded = EncodeQueryRequest(request);
      // A batch too large for one frame never reaches the wire; the
      // shard counts as lost (every shard fails identically, so the
      // query comes back empty with predicted_quality 0 rather than
      // half-shipped).
      if (!encoded.ok()) return false;
      it = by_node
               .emplace(replicas[r].node_id,
                        std::make_shared<const std::vector<uint8_t>>(
                            std::move(encoded).value()))
               .first;
    }
    frames[r] = it->second;
  }
  Result<std::vector<uint8_t>> frame = HedgedExchange(shard, frames, exchange);
  if (!frame.ok()) return false;  // shard lost
  Result<QueryResponse> response =
      DecodeAnswer(frame.value(), MessageType::kQueryResponse, "query",
                   &DecodeQueryResponse);
  if (!response.ok()) return false;  // junk frame type or body
  // A response that doesn't answer the batch is as lost as no
  // response: partial merges would silently drop documents.
  if (response.value().results.size() != queries.size()) return false;
  *results = std::move(response.value().results);
  return true;
}

std::vector<ir::ClusterScoredDoc> RemoteClusterIndex::Query(
    const std::vector<std::string>& query_words, size_t n,
    size_t max_fragments, ir::ClusterQueryStats* stats,
    const ir::RankOptions& options) const {
  return std::move(
      QueryBatch({query_words}, n, max_fragments, stats, options).front());
}

std::vector<std::vector<ir::ClusterScoredDoc>> RemoteClusterIndex::QueryBatch(
    const std::vector<std::vector<std::string>>& queries, size_t n,
    size_t max_fragments, ir::ClusterQueryStats* stats,
    const ir::RankOptions& options,
    std::vector<ir::ClusterQueryStats>* per_query_stats) const {
  assert(connected_ && "call Connect() before QueryBatch()");
  // Shared for the whole batch: resolution and stats aggregation see
  // one handshake, never a mid-mutation mix.
  std::shared_lock<std::shared_mutex> stats_lock(stats_mu_);
  std::vector<ir::ShardQuery> batch;
  const std::vector<double> idf_masses = ir::ResolveShardBatch(
      queries, norm_stem_, norm_stop_, collection_length_, n, max_fragments,
      options,
      [this](std::string_view stem) {
        auto it = global_df_.find(stem);
        return it == global_df_.end() ? 0 : it->second;
      },
      &batch);
  // Remote nodes are separate processes: the shared θ never crosses
  // the wire.
  return ir::CoordinateBatch(
      std::move(batch), idf_masses, shard_docs_, executor_,
      [this](size_t shard, const std::vector<ir::ShardQuery>& b,
             std::atomic<double>*, std::vector<ir::ShardResult>* results,
             ir::ClusterQueryStats* exchange) {
        return CallShard(shard, b, results, exchange);
      },
      stats, per_query_stats);
}

}  // namespace dls::net
