#include "federate/backend.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <string_view>

#include "ir/postings.h"

namespace dls::federate {

namespace {

/// The text corpus url convention: `<entity>#<attr>` or bare
/// `<entity>` (core::SearchEngine::IndexObjectText).
std::string_view EntityOf(std::string_view url) {
  const size_t hash = url.find('#');
  return hash == std::string_view::npos ? url : url.substr(0, hash);
}

/// Full-string numeric parse; false when `text` is not a number.
bool ParseNumber(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// attr~"w": some whitespace/punctuation-delimited token of the
/// attribute text contains the value, case-insensitively.
bool TokenContains(const std::string& text, const std::string& needle_lower) {
  const std::string hay = ToLower(text);
  size_t i = 0;
  while (i < hay.size()) {
    while (i < hay.size() &&
           !std::isalnum(static_cast<unsigned char>(hay[i]))) {
      ++i;
    }
    size_t j = i;
    while (j < hay.size() && std::isalnum(static_cast<unsigned char>(hay[j]))) {
      ++j;
    }
    if (j > i && std::string_view(hay).substr(i, j - i).find(needle_lower) !=
                     std::string_view::npos) {
      return true;
    }
    i = j;
  }
  return false;
}

/// Does the object's own attribute satisfy `c`? `attr` may be null
/// (the object lacks the attribute): only != matches then.
bool AttrMatches(const webspace::AttrValue* attr, const Constraint& c) {
  switch (c.op) {
    case ConstraintOp::kEq: {
      if (attr == nullptr) return false;
      if (c.numeric) {
        double v = 0.0;
        return ParseNumber(attr->text, &v) && v == c.number;
      }
      return attr->text == c.value || (!attr->src.empty() && attr->src == c.value);
    }
    case ConstraintOp::kNotEq: {
      Constraint eq = c;
      eq.op = ConstraintOp::kEq;
      return !AttrMatches(attr, eq);
    }
    case ConstraintOp::kContains:
      return attr != nullptr && TokenContains(attr->text, ToLower(c.value));
    case ConstraintOp::kAtLeast: {
      if (attr == nullptr) return false;
      double v = 0.0;
      return ParseNumber(attr->text, &v) && v >= c.number;
    }
  }
  return false;
}

/// Splits a (parser-validated, <= 2 step) constraint path.
void SplitPath(const std::string& path, std::string_view* first,
               std::string_view* second) {
  const size_t dot = path.find('.');
  if (dot == std::string::npos) {
    *first = path;
    *second = {};
  } else {
    *first = std::string_view(path).substr(0, dot);
    *second = std::string_view(path).substr(dot + 1);
  }
}

/// Visits every doc id of a posting list, reading through the packed
/// encoding when the SoA payload was released (mmap'd segments).
template <typename Fn>
void ForEachPostingDoc(const ir::PostingList& list, Fn&& fn) {
  if (list.payload_released()) {
    ir::DocId docs[ir::kPostingBlockSize];
    int32_t tfs[ir::kPostingBlockSize];
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      const size_t count = list.DecodePackedBlock(b, docs, tfs);
      for (size_t i = 0; i < count; ++i) fn(docs[i]);
    }
    return;
  }
  for (size_t i = 0; i < list.size(); ++i) fn(list.doc(i));
}

}  // namespace

std::vector<std::string> SplitQueryWords(const std::string& text) {
  std::vector<std::string> words;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t j = i;
    while (j < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (j > i) words.push_back(text.substr(i, j - i));
    i = j;
  }
  return words;
}

CandidateSet IntersectSets(const CandidateSet& a, const CandidateSet& b) {
  CandidateSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

CandidateSet UnionSets(const CandidateSet& a, const CandidateSet& b) {
  CandidateSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// ---------------------------------------------------------------------------
// WebspaceBackend

Status WebspaceBackend::Accepts(const Predicate& pred) const {
  if (pred.kind != PredKind::kWebspace) {
    return Status::InvalidArgument("webspace backend got non-webspace predicate");
  }
  // The parser guarantees exactly one class= anchor, <= 2 path steps
  // and operator/value type agreement. Unknown class or association
  // names are not errors — they denote the empty/unconstrained set —
  // so conceptual queries stay valid across schema evolution.
  return Status::Ok();
}

double WebspaceBackend::EstimateSelectivity(const Predicate& pred) const {
  const size_t total = instance_->object_count();
  if (total == 0) return 0.0;
  std::string cls;
  size_t extra = 0;
  for (const Constraint& c : pred.constraints) {
    if (c.path == "class") {
      cls = c.value;
    } else {
      ++extra;
    }
  }
  double sel = static_cast<double>(instance_->ObjectsOfClass(cls).size()) /
               static_cast<double>(total);
  // Each further constraint is assumed to halve the class — rough, but
  // deterministic and monotone in constraint count, which is all the
  // planner's ordering needs.
  for (size_t i = 0; i < extra; ++i) sel *= 0.5;
  return std::min(1.0, std::max(0.0, sel));
}

Result<CandidateSet> WebspaceBackend::EvalFilter(const Predicate& pred) const {
  DLS_RETURN_IF_ERROR(Accepts(pred));
  std::string cls;
  for (const Constraint& c : pred.constraints) {
    if (c.path == "class" && c.op == ConstraintOp::kEq) cls = c.value;
  }
  // ObjectsOfClass walks the id-ordered object map, so candidates are
  // born sorted and duplicate-free.
  std::vector<const webspace::WebObject*> objects =
      instance_->ObjectsOfClass(cls);
  CandidateSet out;
  for (const webspace::WebObject* obj : objects) {
    bool keep = true;
    for (const Constraint& c : pred.constraints) {
      if (c.path == "class") continue;
      std::string_view first, second;
      SplitPath(c.path, &first, &second);
      if (second.empty()) {
        if (!AttrMatches(obj->FindAttribute(first), c)) {
          keep = false;
          break;
        }
      } else {
        // Association step: some linked object must satisfy the
        // constraint (for '!=': no linked object may equal the value).
        const std::vector<std::string> linked =
            instance_->Linked(first, obj->id);
        const bool negated = c.op == ConstraintOp::kNotEq;
        Constraint leaf = c;
        if (negated) leaf.op = ConstraintOp::kEq;
        bool any = false;
        for (const std::string& id : linked) {
          const webspace::WebObject* to = instance_->FindObject(id);
          if (to != nullptr && AttrMatches(to->FindAttribute(second), leaf)) {
            any = true;
            break;
          }
        }
        if (negated ? any : !any) {
          keep = false;
          break;
        }
      }
    }
    if (keep) out.push_back(obj->id);
  }
  return out;
}

// ---------------------------------------------------------------------------
// CobraBackend

CobraBackend::CobraBackend(std::vector<CobraEvent> table)
    : table_(std::move(table)) {
  std::sort(table_.begin(), table_.end(),
            [](const CobraEvent& a, const CobraEvent& b) {
              if (a.id != b.id) return a.id < b.id;
              if (a.event != b.event) return a.event < b.event;
              return a.length_s < b.length_s;
            });
  table_.erase(std::unique(table_.begin(), table_.end(),
                           [](const CobraEvent& a, const CobraEvent& b) {
                             return a.id == b.id && a.event == b.event &&
                                    a.length_s == b.length_s;
                           }),
               table_.end());
  std::string last;
  for (const CobraEvent& row : table_) {
    if (row.id != last) {
      ++distinct_ids_;
      last = row.id;
    }
  }
}

Status CobraBackend::Accepts(const Predicate& pred) const {
  if (pred.kind != PredKind::kCobra) {
    return Status::InvalidArgument("cobra backend got non-cobra predicate");
  }
  for (const Constraint& c : pred.constraints) {
    if (c.path == "event") {
      // Parser-guaranteed: exactly one, '=', non-numeric.
      continue;
    }
    if (c.path == "min_len") {
      if (c.op != ConstraintOp::kEq && c.op != ConstraintOp::kAtLeast) {
        return Status::InvalidArgument(
            "cobra min_len takes '=' or '>=' with a duration");
      }
      continue;
    }
    return Status::InvalidArgument("unknown cobra constraint key '" + c.path +
                                   "' (expected event, min_len)");
  }
  return Status::Ok();
}

double CobraBackend::EstimateSelectivity(const Predicate& pred) const {
  if (distinct_ids_ == 0) return 0.0;
  Result<CandidateSet> matched = EvalFilter(pred);
  if (!matched.ok()) return 1.0;
  return static_cast<double>(matched.value().size()) /
         static_cast<double>(distinct_ids_);
}

Result<CandidateSet> CobraBackend::EvalFilter(const Predicate& pred) const {
  DLS_RETURN_IF_ERROR(Accepts(pred));
  std::string event;
  double min_len = 0.0;
  for (const Constraint& c : pred.constraints) {
    if (c.path == "event") event = c.value;
    if (c.path == "min_len") min_len = c.seconds();
  }
  CandidateSet out;
  for (const CobraEvent& row : table_) {
    if (row.event != event || row.length_s < min_len) continue;
    if (out.empty() || out.back() != row.id) out.push_back(row.id);
  }
  return out;
}

// ---------------------------------------------------------------------------
// TextBackend

TextBackend::TextBackend(const ir::ClusterIndex* cluster)
    : cluster_(cluster), frozen_epoch_(cluster->mutation_epoch()) {
  // Snapshot the entity -> documents table. Documents are visited in
  // (node, doc) order, so each entity's DocRef list is born sorted.
  std::map<std::string, std::vector<DocRef>, std::less<>> table;
  for (size_t i = 0; i < cluster_->num_nodes(); ++i) {
    const ir::TextIndex& index = cluster_->node_index(i);
    for (ir::DocId d = 0; d < index.document_count(); ++d) {
      table[std::string(EntityOf(index.url(d)))].push_back(
          DocRef{static_cast<uint32_t>(i), d});
    }
  }
  entity_ids_.reserve(table.size());
  entity_docs_.reserve(table.size());
  for (auto& [id, docs] : table) {
    entity_ids_.push_back(id);
    entity_docs_.push_back(std::move(docs));
  }
}

Status TextBackend::CheckFrozen() const {
  const uint64_t now = cluster_->mutation_epoch();
  if (now != frozen_epoch_) {
    return Status::Unavailable(
        "text backend snapshot is stale: the cluster mutated since the "
        "mediator was built (epoch " + std::to_string(frozen_epoch_) +
        " -> " + std::to_string(now) + "); rebuild the federated backends");
  }
  return Status::Ok();
}

size_t TextBackend::FindEntity(std::string_view id) const {
  const auto it =
      std::lower_bound(entity_ids_.begin(), entity_ids_.end(), id);
  if (it == entity_ids_.end() || *it != id) {
    return static_cast<size_t>(-1);
  }
  return static_cast<size_t>(it - entity_ids_.begin());
}

Status TextBackend::Accepts(const Predicate& pred) const {
  if (pred.kind != PredKind::kText) {
    return Status::InvalidArgument("text backend got non-text predicate");
  }
  // Non-empty string guaranteed by the parser; stopword-only queries
  // are legal and simply rank/match nothing.
  return Status::Ok();
}

double TextBackend::EstimateSelectivity(const Predicate& pred) const {
  const size_t total = cluster_->document_count();
  if (total == 0 || cluster_->num_nodes() == 0) return 0.0;
  const ir::TextIndex& norm = cluster_->node_index(0);
  double matched = 0.0;
  for (const std::string& word : SplitQueryWords(pred.text)) {
    const std::optional<std::string> stem = norm.NormalizeWord(word);
    if (!stem.has_value()) continue;
    // Union bound over the stems' document frequencies.
    matched += static_cast<double>(cluster_->global_df(*stem));
  }
  return std::min(1.0, matched / static_cast<double>(total));
}

Result<CandidateSet> TextBackend::EvalFilter(const Predicate& pred) const {
  DLS_RETURN_IF_ERROR(Accepts(pred));
  DLS_RETURN_IF_ERROR(CheckFrozen());
  std::vector<std::string> matched;
  for (size_t i = 0; i < cluster_->num_nodes(); ++i) {
    const ir::TextIndex& index = cluster_->node_index(i);
    std::vector<uint8_t> seen(index.document_count(), 0);
    for (const std::string& word : SplitQueryWords(pred.text)) {
      const std::optional<std::string> stem = index.NormalizeWord(word);
      if (!stem.has_value()) continue;
      const std::optional<ir::TermId> term = index.LookupTerm(*stem);
      if (!term.has_value()) continue;
      ForEachPostingDoc(index.postings(*term),
                        [&](ir::DocId d) { seen[d] = 1; });
    }
    for (ir::DocId d = 0; d < seen.size(); ++d) {
      if (seen[d] != 0) matched.emplace_back(EntityOf(index.url(d)));
    }
  }
  std::sort(matched.begin(), matched.end());
  matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
  return matched;
}

ir::ClusterDocFilter TextBackend::BuildFilter(
    const CandidateSet& candidates) const {
  ir::ClusterDocFilter filter;
  filter.per_node.reserve(cluster_->num_nodes());
  for (size_t i = 0; i < cluster_->num_nodes(); ++i) {
    filter.per_node.emplace_back(cluster_->node_index(i).document_count());
  }
  // The snapshot's DocRefs and the bitmaps' universes come from
  // *different* reads of the per-node document counts; DocFilter::Set
  // drops any ref a concurrent mutation pushed past a bitmap's range
  // instead of writing out of bounds (callers gate on CheckFrozen, so
  // this only shields the race window inside one evaluation).
  for (const std::string& id : candidates) {
    const size_t e = FindEntity(id);
    if (e == static_cast<size_t>(-1)) continue;
    for (const DocRef& ref : entity_docs_[e]) {
      filter.per_node[ref.node].Set(ref.doc);
    }
  }
  return filter;
}

std::vector<std::string> TextBackend::DocsOfEntities(
    const CandidateSet& candidates) const {
  std::vector<std::string> urls;
  for (const std::string& id : candidates) {
    const size_t e = FindEntity(id);
    if (e == static_cast<size_t>(-1)) continue;
    for (const DocRef& ref : entity_docs_[e]) {
      urls.emplace_back(cluster_->node_index(ref.node).url(ref.doc));
    }
  }
  std::sort(urls.begin(), urls.end());
  urls.erase(std::unique(urls.begin(), urls.end()), urls.end());
  return urls;
}

// ---------------------------------------------------------------------------

const FederateBackend* BackendSet::ForKind(PredKind kind) const {
  switch (kind) {
    case PredKind::kText:
      return text;
    case PredKind::kWebspace:
      return webspace;
    case PredKind::kCobra:
      return cobra;
  }
  return nullptr;
}

}  // namespace dls::federate
