#include "serve/frontend.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "federate/executor.h"
#include "federate/query_lang.h"
#include "ir/index.h"

namespace dls::serve {
namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t MicrosSince(SteadyClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - start)
          .count());
}

}  // namespace

Frontend::Frontend(const Backend* backend, FrontendOptions options)
    : backend_(backend),
      options_(options),
      cache_(options.cache_entries, options.cache_shards) {
  workers_.reserve(std::max<size_t>(1, options_.num_workers));
  for (size_t i = 0; i < std::max<size_t>(1, options_.num_workers); ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.warm_top_k > 0) {
    // The baseline epoch is read here, not on the warmer's thread: a
    // bump landing before that thread first runs must still be warmed.
    warmer_ = std::thread(
        [this, epoch = backend_->Epoch()] { WarmerLoop(epoch); });
  }
}

Frontend::~Frontend() { Stop(); }

bool Frontend::Compatible(const Pending& a, const Pending& b) {
  // Federated queries only coalesce with the *same* canonical query —
  // a mediator evaluation cannot carry a second, different plan the
  // way a QueryBatch carries a second word list. Plain word queries
  // (both structured empty) batch as before.
  if (a.structured != b.structured) return false;
  return a.n == b.n && a.max_fragments == b.max_fragments &&
         a.options.lambda == b.options.lambda &&
         a.options.kernel == b.options.kernel &&
         a.options.prune == b.options.prune &&
         a.options.strategy == b.options.strategy &&
         a.options.shared_threshold == b.options.shared_threshold;
}

std::string Frontend::CacheKey(const std::vector<std::string>& stems,
                               size_t n, size_t max_fragments,
                               const ir::RankOptions& options) const {
  // Resolved stems in first-occurrence order ('\x1f'-separated — the
  // separator cannot appear in a normalised stem), then the ranking
  // policy. Two word lists that resolve to the same stem sequence
  // provably evaluate to the same ranking, so they share the entry.
  std::string key;
  for (const std::string& stem : stems) {
    key += stem;
    key += '\x1f';
  }
  key += '\x1e';
  uint64_t lambda_bits;
  std::memcpy(&lambda_bits, &options.lambda, sizeof(lambda_bits));
  key += StrFormat("%zu|%zu|%llu", n, max_fragments,
                   static_cast<unsigned long long>(lambda_bits));
  return key;
}

uint32_t Frontend::EstimateWaitMsLocked(size_t depth) const {
  if (ewma_batch_us_ <= 0) return 0;
  // Batches ahead of a request admitted at `depth`, spread over the
  // workers; +1 for the batch it will ride itself.
  const double batches_ahead =
      std::floor(static_cast<double>(depth) /
                 static_cast<double>(std::max<size_t>(1, options_.max_batch)));
  const double wait_us =
      ewma_batch_us_ * (batches_ahead + 1.0) /
      static_cast<double>(std::max<size_t>(1, options_.num_workers));
  return static_cast<uint32_t>(wait_us / 1000.0) + 1;
}

SearchResult Frontend::Search(const SearchQuery& query) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const auto admitted_at = SteadyClock::now();
  const int64_t budget_ms = query.deadline_ms != 0
                                ? query.deadline_ms
                                : options_.default_deadline_ms;
  Deadline deadline = Deadline::After(budget_ms);

  // Federated queries parse (and are refused) *before* they cost any
  // admission capacity; the canonical rendering of the AST keys the
  // cache, so two spellings differing in whitespace/keyword case share
  // one entry. Plain word queries resolve their cache key through the
  // backend's own normalisation pipeline (stems, de-duped,
  // first-occurrence order — mirrors what the cluster's query
  // resolution will do with the raw words).
  const bool federated = !query.structured.empty();
  std::string canonical;
  std::vector<std::string> stems;
  if (federated) {
    // A refusal here is still a definitive answer: count it completed
    // (with its latency) so submitted_ keeps reconciling with
    // completed_ + shed + expired and rejected federated queries stay
    // visible in the histogram.
    if (mediator_ == nullptr) {
      SearchResult result;
      result.status =
          Status::Unsupported("no federated mediator attached");
      completed_.fetch_add(1, std::memory_order_relaxed);
      latency_.Record(MicrosSince(admitted_at));
      return result;
    }
    Result<federate::FederatedQuery> parsed =
        federate::ParseFederatedQuery(query.structured);
    if (!parsed.ok()) {
      SearchResult result;
      result.status = parsed.status();
      completed_.fetch_add(1, std::memory_order_relaxed);
      latency_.Record(MicrosSince(admitted_at));
      return result;
    }
    canonical = federate::ToString(parsed.value());
    // '\x02' cannot appear in a normalised stem, so the pseudo-stem
    // keeps federated keys disjoint from every word-query key.
    stems.push_back("\x02" "federated");
    stems.push_back(canonical);
  } else {
    stems = ir::NormalizeQuery(query.words, backend_->NormStem(),
                               backend_->NormStop());
  }

  // Graceful degradation: past the watermark, answer cheaper (lower
  // fragment cut-off, honest predicted_quality) instead of slower.
  size_t effective_fragments = std::max<size_t>(1, query.max_fragments);
  bool degraded = false;
  if (options_.degrade_watermark > 0 && effective_fragments > 1) {
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      depth = queue_.size();
    }
    if (depth >= options_.degrade_watermark) {
      effective_fragments = std::max<size_t>(1, effective_fragments / 2);
      degraded = true;
      degraded_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const std::string key =
      CacheKey(stems, query.n, effective_fragments, query.options);
  // The warmer re-evaluates through Backend::QueryBatch, which cannot
  // run a federation plan — federated keys stay out of the hot set.
  if (!federated) RecordHotKey(key, query, effective_fragments, degraded);
  const uint64_t epoch = backend_->Epoch();
  CachedResult cached;
  bool stale = false;
  bool hit;
  if (options_.serve_stale_while_warming &&
      warming_.load(std::memory_order_acquire)) {
    // The warmer is re-evaluating hot keys for this very epoch bump:
    // an entry still pinned to the epoch it bumped *from* is exact for
    // that snapshot and about to be refreshed — serve it flagged stale
    // rather than stampeding the backend cold.
    hit = cache_.LookupAllowStale(
        key, epoch, warming_from_.load(std::memory_order_acquire), &cached,
        &stale);
  } else {
    hit = cache_.Lookup(key, epoch, &cached);
  }
  if (hit) {
    SearchResult result;
    result.cache_hit = true;
    result.stale = stale;
    result.degraded = cached.degraded || degraded;
    result.predicted_quality = cached.predicted_quality;
    result.results = std::move(cached.results);
    result.plan = std::move(cached.plan);
    if (stale) stale_served_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    latency_.Record(MicrosSince(admitted_at));
    return result;
  }

  // Admission gate: shed *now* anything that provably cannot be
  // answered in budget, instead of queueing it to die.
  std::future<SearchResult> future;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      SearchResult result;
      result.status = Status::Unavailable("frontend stopped");
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    if (queue_.size() >= options_.max_queue) {
      SearchResult result;
      result.retry_after_ms = EstimateWaitMsLocked(queue_.size());
      result.status = Status::Unavailable(
          StrFormat("admission queue full (%zu); retry in ~%u ms",
                    queue_.size(), result.retry_after_ms));
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    if (deadline.Expired()) {
      SearchResult result;
      result.status =
          Status::DeadlineExceeded("deadline expired before admission");
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    const uint32_t est_wait_ms = EstimateWaitMsLocked(queue_.size());
    if (static_cast<int64_t>(est_wait_ms) > budget_ms) {
      SearchResult result;
      result.retry_after_ms = est_wait_ms;
      result.status = Status::Unavailable(
          StrFormat("predicted queue wait ~%u ms exceeds the %lld ms "
                    "deadline",
                    est_wait_ms, static_cast<long long>(budget_ms)));
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }

    auto pending = std::make_unique<Pending>();
    pending->words = query.words;
    pending->structured = canonical;
    pending->cache_key = key;
    pending->n = query.n;
    pending->max_fragments = effective_fragments;
    pending->options = query.options;
    pending->degraded = degraded;
    pending->deadline = deadline;
    pending->admitted_at = admitted_at;
    future = pending->promise.get_future();
    queue_.push_back(std::move(pending));
    admitted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
  return future.get();
}

void Frontend::WorkerLoop() {
  while (true) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      if (queue_.empty()) continue;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();

      // Work-conserving: ride along whatever compatible queries are
      // already queued, and never wait for more — requests pile up
      // exactly while the workers are busy, so under load batches fill
      // by themselves, and a lone request ships at once.
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < options_.max_batch;) {
        if (Compatible(*batch.front(), **it)) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    cv_.notify_all();  // leftovers may suit another worker
    ExecuteBatch(std::move(batch));
  }
}

void Frontend::RecordCompletion(const Pending& pending) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  latency_.Record(MicrosSince(pending.admitted_at));
}

void Frontend::RecordHotKey(const std::string& key, const SearchQuery& query,
                            size_t effective_fragments, bool degraded) {
  if (options_.warm_top_k == 0) return;
  std::lock_guard<std::mutex> lock(hot_mu_);
  auto [it, inserted] = hot_.try_emplace(key);
  if (inserted) {
    it->second.key = key;
    it->second.words = query.words;
    it->second.n = query.n;
    it->second.max_fragments = effective_fragments;
    it->second.options = query.options;
    it->second.degraded = degraded;
  }
  it->second.count += 1;

  // Bounded tracker: on overflow, decay every count by half and drop
  // the keys that reach zero — sustained demand survives the halving,
  // one-off queries age out. (Approximates heavy-hitters well enough
  // for a warm set.)
  const size_t bound = std::max<size_t>(64, 8 * options_.warm_top_k);
  if (hot_.size() > bound) {
    for (auto hot_it = hot_.begin(); hot_it != hot_.end();) {
      hot_it->second.count /= 2;
      if (hot_it->second.count == 0) {
        hot_it = hot_.erase(hot_it);
      } else {
        ++hot_it;
      }
    }
  }
}

void Frontend::WarmerLoop(uint64_t last_epoch) {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(warm_mu_);
      warm_cv_.wait_for(lock,
                        std::chrono::milliseconds(
                            std::max<int64_t>(1, options_.warm_poll_ms)),
                        [this] { return warm_stop_; });
      if (warm_stop_) return;
    }
    const uint64_t current = backend_->Epoch();
    if (current == last_epoch) continue;
    epoch_changes_.fetch_add(1, std::memory_order_relaxed);

    // The hottest keys by demand count, snapshotted outside the
    // evaluation loop (new traffic keeps recording meanwhile).
    std::vector<HotKey> top;
    {
      std::lock_guard<std::mutex> lock(hot_mu_);
      top.reserve(hot_.size());
      for (const auto& [key, hk] : hot_) top.push_back(hk);
    }
    std::sort(top.begin(), top.end(), [](const HotKey& a, const HotKey& b) {
      return a.count != b.count ? a.count > b.count : a.key < b.key;
    });
    if (top.size() > options_.warm_top_k) top.resize(options_.warm_top_k);

    // Stale-while-warming window: only entries pinned to the epoch we
    // are warming *from* qualify — anything older stays dead. The flag
    // drops before last_epoch advances, so the window closes the
    // moment the warm set is refreshed.
    warming_from_.store(last_epoch, std::memory_order_release);
    warming_.store(true, std::memory_order_release);
    for (const HotKey& hk : top) {
      // Epoch before evaluation, exactly like ExecuteBatch: results
      // derive from at least this epoch's state, so caching under it
      // can only under-serve, never serve a stale ranking as fresh.
      const uint64_t epoch = backend_->Epoch();
      ir::ClusterQueryStats stats;
      std::vector<ir::ClusterQueryStats> per_query;
      std::vector<std::vector<ir::ClusterScoredDoc>> rankings =
          backend_->QueryBatch({hk.words}, hk.n, hk.max_fragments, &stats,
                               &per_query, hk.options);
      if (rankings.empty()) continue;
      CachedResult entry;
      entry.results = std::move(rankings[0]);
      entry.predicted_quality = per_query.empty()
                                    ? stats.predicted_quality
                                    : per_query[0].predicted_quality;
      entry.degraded = hk.degraded;
      cache_.Insert(hk.key, epoch, std::move(entry));
      cache_warmed_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(warm_mu_);
        if (warm_stop_) break;  // Stop() must not wait out a long warm
      }
    }
    warming_.store(false, std::memory_order_release);
    last_epoch = current;
  }
}

void Frontend::ExecuteBatch(std::vector<std::unique_ptr<Pending>> batch) {
  // A request that expired while queued is answered without touching
  // the backend — its client already gave up; evaluating it would
  // steal capacity from requests that can still make their deadline.
  std::vector<std::unique_ptr<Pending>> live;
  live.reserve(batch.size());
  for (std::unique_ptr<Pending>& pending : batch) {
    if (pending->deadline.Expired()) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      SearchResult result;
      result.status = Status::DeadlineExceeded("expired while queued");
      pending->promise.set_value(std::move(result));
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) return;

  if (!live.front()->structured.empty()) {
    ExecuteFederatedBatch(live);
    return;
  }

  // Duplicate resolved queries inside the batch evaluate once.
  std::vector<size_t> slot(live.size());
  std::vector<size_t> unique;
  std::unordered_map<std::string, size_t> by_key;
  for (size_t i = 0; i < live.size(); ++i) {
    auto [it, inserted] = by_key.try_emplace(live[i]->cache_key, unique.size());
    if (inserted) unique.push_back(i);
    slot[i] = it->second;
  }
  std::vector<std::vector<std::string>> queries;
  queries.reserve(unique.size());
  for (size_t u : unique) queries.push_back(live[u]->words);

  // The epoch is read *before* the evaluation: the results are derived
  // from at least this epoch's state, so caching them under it can
  // only under-serve (a concurrent reindex bumps the epoch and the
  // entries die), never serve stale rankings.
  const uint64_t epoch = backend_->Epoch();
  const Pending& policy = *live.front();
  ir::ClusterQueryStats stats;
  std::vector<ir::ClusterQueryStats> per_query;
  const auto eval_start = SteadyClock::now();
  std::vector<std::vector<ir::ClusterScoredDoc>> rankings =
      backend_->QueryBatch(queries, policy.n, policy.max_fragments, &stats,
                           &per_query, policy.options);
  const uint64_t eval_us = MicrosSince(eval_start);

  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_queries_.fetch_add(live.size(), std::memory_order_relaxed);
  hedges_fired_.fetch_add(stats.hedges_fired, std::memory_order_relaxed);
  hedge_wins_.fetch_add(stats.hedge_wins, std::memory_order_relaxed);
  failovers_.fetch_add(stats.failovers, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ewma_batch_us_ = ewma_batch_us_ <= 0
                         ? static_cast<double>(eval_us)
                         : 0.8 * ewma_batch_us_ + 0.2 * eval_us;
  }

  // Per-rider quality attribution: each unique query carries its own
  // stats block, so two riders sharing a batch no longer share one
  // batch-aggregate figure (the fallback stays the aggregate for
  // backends that don't fill the vector).
  auto rider_quality = [&](size_t u) {
    return u < per_query.size() ? per_query[u].predicted_quality
                                : stats.predicted_quality;
  };
  for (size_t u = 0; u < unique.size(); ++u) {
    CachedResult entry;
    entry.results = rankings[u];
    entry.predicted_quality = rider_quality(u);
    entry.degraded = live[unique[u]]->degraded;
    cache_.Insert(live[unique[u]]->cache_key, epoch, std::move(entry));
  }
  for (size_t i = 0; i < live.size(); ++i) {
    SearchResult result;
    result.degraded = live[i]->degraded;
    result.predicted_quality = rider_quality(slot[i]);
    result.results = rankings[slot[i]];
    RecordCompletion(*live[i]);
    live[i]->promise.set_value(std::move(result));
  }
}

void Frontend::ExecuteFederatedBatch(
    std::vector<std::unique_ptr<Pending>>& live) {
  // Compatible() admits only identical canonical queries under one
  // policy into a federated batch, so one mediator evaluation answers
  // every rider (the in-batch analogue of the duplicate-key dedup on
  // the word path).
  const Pending& policy = *live.front();
  const uint64_t epoch = backend_->Epoch();
  federate::FederatedStats fstats;
  const auto eval_start = SteadyClock::now();
  Result<std::vector<ir::ClusterScoredDoc>> ranked =
      mediator_->ExecuteString(policy.structured, policy.n,
                               policy.max_fragments, policy.options, &fstats);
  const uint64_t eval_us = MicrosSince(eval_start);

  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_queries_.fetch_add(live.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ewma_batch_us_ = ewma_batch_us_ <= 0
                         ? static_cast<double>(eval_us)
                         : 0.8 * ewma_batch_us_ + 0.2 * eval_us;
  }

  if (!ranked.ok()) {
    // Failed riders still completed their trip through the queue:
    // record them so the latency histogram sees federated failures and
    // submitted_ reconciles with completed_ + shed.
    for (std::unique_ptr<Pending>& pending : live) {
      SearchResult result;
      result.status = ranked.status();
      RecordCompletion(*pending);
      pending->promise.set_value(std::move(result));
    }
    return;
  }

  federated_queries_.fetch_add(live.size(), std::memory_order_relaxed);
  federated_filter_docs_.fetch_add(fstats.filter_docs,
                                   std::memory_order_relaxed);
  federated_text_us_.fetch_add(static_cast<uint64_t>(fstats.text_us),
                               std::memory_order_relaxed);
  federated_webspace_us_.fetch_add(static_cast<uint64_t>(fstats.webspace_us),
                                   std::memory_order_relaxed);
  federated_cobra_us_.fetch_add(static_cast<uint64_t>(fstats.cobra_us),
                                std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    last_federated_plan_ = fstats.plan;
  }

  CachedResult entry;
  entry.results = ranked.value();
  entry.predicted_quality = fstats.text_stats.predicted_quality;
  entry.degraded = policy.degraded;
  entry.plan = fstats.plan;
  cache_.Insert(policy.cache_key, epoch, std::move(entry));

  for (std::unique_ptr<Pending>& pending : live) {
    SearchResult result;
    result.degraded = pending->degraded;
    result.predicted_quality = fstats.text_stats.predicted_quality;
    result.results = ranked.value();
    result.plan = fstats.plan;
    RecordCompletion(*pending);
    pending->promise.set_value(std::move(result));
  }
}

ServeStats Frontend::Stats() const {
  ServeStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  stats.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  stats.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  stats.hedges_fired = hedges_fired_.load(std::memory_order_relaxed);
  stats.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.epoch_changes = epoch_changes_.load(std::memory_order_relaxed);
  stats.cache_warmed = cache_warmed_.load(std::memory_order_relaxed);
  stats.stale_served = stale_served_.load(std::memory_order_relaxed);
  stats.federated_queries =
      federated_queries_.load(std::memory_order_relaxed);
  stats.federated_filter_docs =
      federated_filter_docs_.load(std::memory_order_relaxed);
  stats.federated_text_us =
      federated_text_us_.load(std::memory_order_relaxed);
  stats.federated_webspace_us =
      federated_webspace_us_.load(std::memory_order_relaxed);
  stats.federated_cobra_us =
      federated_cobra_us_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    stats.last_federated_plan = last_federated_plan_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = queue_.size();
  }
  stats.epoch = backend_->Epoch();
  stats.bytes_resident = backend_->BytesResident();
  stats.bytes_mapped = backend_->BytesMapped();
  stats.latency = latency_.TakeSnapshot();
  return stats;
}

void Frontend::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(warm_mu_);
    warm_stop_ = true;
  }
  warm_cv_.notify_all();
  // Workers drain the queue before exiting, so every admitted request
  // still gets its answer.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (warmer_.joinable()) warmer_.join();
}

}  // namespace dls::serve
