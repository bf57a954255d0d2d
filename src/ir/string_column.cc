#include "ir/string_column.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "common/strings.h"
#include "ir/codec.h"

namespace dls::ir {

std::string_view StringColumn::operator[](size_t i) const {
  uint32_t len;
  const uint8_t* p = DecodeVarint(data() + offsets_[i], &len);
  return std::string_view(reinterpret_cast<const char*>(p), len);
}

bool StringColumn::fits(size_t len) const {
  // An entry takes at most a 5-byte varint plus its bytes.
  return borrowed_ == nullptr && len < kMaxBytes &&
         arena_.size() + 5 + len < kMaxBytes;
}

void StringColumn::Append(std::string_view s) {
  assert(fits(s.size()) && "string column past its 4 GiB offset ceiling");
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  AppendVarint(static_cast<uint32_t>(s.size()), &arena_);
  arena_.insert(arena_.end(), s.begin(), s.end());
}

Status StringColumn::Borrow(const uint8_t* data, uint64_t size, uint64_t count,
                            std::string_view what) {
  assert(offsets_.empty() && arena_.empty() &&
         "Borrow() needs an empty column");
  if (size >= kMaxBytes) {
    return Status::Unsupported(StrFormat(
        "%.*s of %llu bytes exceeds the 4 GiB column ceiling",
        static_cast<int>(what.size()), what.data(),
        static_cast<unsigned long long>(size)));
  }
  auto corrupt = [what](const char* why) {
    return Status::Corruption(StrFormat("%.*s %s",
                                        static_cast<int>(what.size()),
                                        what.data(), why));
  };
  // Each entry takes at least one byte, so a count past the span's size
  // is refused before it sizes an allocation.
  if (count > size) return corrupt("declares more entries than bytes");
  offsets_.reserve(count);
  const uint8_t* p = data;
  const uint8_t* end = data + size;
  for (uint64_t i = 0; i < count; ++i) {
    offsets_.push_back(static_cast<uint32_t>(p - data));
    uint32_t len;
    p = CheckedVarint32(p, end, &len);
    if (p == nullptr || len > static_cast<size_t>(end - p)) {
      return corrupt("truncated");
    }
    p += len;
  }
  if (p != end) return corrupt("has trailing bytes");
  borrowed_ = data;
  borrowed_size_ = size;
  return Status::Ok();
}

void StringColumn::Release() {
  std::vector<uint8_t>().swap(arena_);
  std::vector<uint32_t>().swap(offsets_);
  borrowed_ = nullptr;
  borrowed_size_ = 0;
}

size_t StringColumn::bytes_resident() const {
  return arena_.capacity() + offsets_.capacity() * sizeof(uint32_t);
}

std::optional<uint32_t> StringDictionary::Find(std::string_view key,
                                               size_t hash) const {
  if (slots_.empty()) return std::nullopt;
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == 0) return std::nullopt;
    if (slot.hash == tag && column_[slot.id - 1] == key) return slot.id - 1;
  }
}

uint32_t StringDictionary::Insert(std::string_view key, size_t hash) {
  if (2 * (size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(64, 2 * slots_.size()));
  }
  const uint32_t id = static_cast<uint32_t>(size());
  column_.Append(key);
  Place(Slot{static_cast<uint32_t>(hash), id + 1});
  return id;
}

Status StringDictionary::Borrow(const uint8_t* data, uint64_t size,
                                uint64_t count, std::string_view what) {
  DLS_RETURN_IF_ERROR(column_.Borrow(data, size, count, what));
  size_t slot_count = 64;
  while (slot_count < 2 * column_.size()) slot_count *= 2;
  slots_.assign(column_.size() == 0 ? 0 : slot_count, Slot{});
  for (size_t i = 0; i < column_.size(); ++i) {
    const std::string_view key = column_[i];
    const size_t hash = std::hash<std::string_view>{}(key);
    if (Find(key, hash).has_value()) {
      return Status::Corruption(StrFormat("%.*s repeats an entry",
                                          static_cast<int>(what.size()),
                                          what.data()));
    }
    Place(Slot{static_cast<uint32_t>(hash), static_cast<uint32_t>(i + 1)});
  }
  return Status::Ok();
}

void StringDictionary::Place(Slot slot) {
  const size_t mask = slots_.size() - 1;
  size_t i = slot.hash & mask;
  while (slots_[i].id != 0) i = (i + 1) & mask;
  slots_[i] = slot;
}

void StringDictionary::Rehash(size_t slot_count) {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slot_count));
  for (const Slot& slot : old) {
    if (slot.id != 0) Place(slot);
  }
}

void StringDictionary::Release() {
  column_.Release();
  std::vector<Slot>().swap(slots_);
}

size_t StringDictionary::bytes_resident() const {
  return column_.bytes_resident() + slots_.capacity() * sizeof(Slot);
}

}  // namespace dls::ir
