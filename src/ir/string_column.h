#ifndef DLS_IR_STRING_COLUMN_H_
#define DLS_IR_STRING_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dls::ir {

/// A column of strings in the layout of the paper's string BATs: an
/// offset per entry over a heap of the entries' bytes. The heap holds
/// each entry as varint(len)+bytes, back to back, which is exactly a
/// segment's D (doc-oid -> url) and T (term-oid -> stem) section
/// (ir/segment.h), so a heap-built column is written to disk as it is
/// and a loaded one serves the section's bytes in place.
///
/// The bytes are either an owned arena that Append() grows or a
/// borrowed span that Borrow() validates once; every read goes through
/// the same offsets either way. Offsets are 32-bit, so a column holds
/// less than kMaxBytes of encoded bytes: Borrow() refuses a larger span
/// with a Status, and Append() asserts the ceiling (fits() tells a
/// caller whether one more entry still does).
class StringColumn {
 public:
  /// Exclusive ceiling on the encoded bytes of one column (4 GiB).
  static constexpr uint64_t kMaxBytes = uint64_t{1} << 32;

  size_t size() const { return offsets_.size(); }

  /// Entry `i`. For an owned column the view is valid until the next
  /// Append(); for a borrowed one, as long as the borrowed bytes.
  std::string_view operator[](size_t i) const;

  /// The encoded entries, back to back.
  const uint8_t* data() const {
    return borrowed_ != nullptr ? borrowed_ : arena_.data();
  }
  size_t byte_size() const {
    return borrowed_ != nullptr ? borrowed_size_ : arena_.size();
  }

  /// Whether an entry of `len` bytes can still be appended.
  bool fits(size_t len) const;

  /// Appends `s` as entry size(). Requires fits(s.size()), an owned
  /// column, and that `s` does not view this column's own bytes.
  void Append(std::string_view s);

  /// Serves `count` entries from the `size` encoded bytes at `data`,
  /// which the caller keeps alive and unchanged for the column's life;
  /// nothing is copied but one offset per entry. Every entry is
  /// checked on the way: a count above the entries, a malformed or
  /// overlong varint, an entry past the end, or bytes left over after
  /// `count` entries is kCorruption, and `size` >= kMaxBytes is
  /// kUnsupported. `what` names the column in the message. Requires an
  /// empty column.
  Status Borrow(const uint8_t* data, uint64_t size, uint64_t count,
                std::string_view what);

  /// Frees every owned buffer, leaving an empty owned column.
  void Release();

  /// Heap bytes this column owns: arena and offset capacity. Borrowed
  /// bytes are not counted.
  size_t bytes_resident() const;

 private:
  std::vector<uint8_t> arena_;      // owned entries; empty when borrowed
  const uint8_t* borrowed_ = nullptr;
  size_t borrowed_size_ = 0;
  std::vector<uint32_t> offsets_;   // where entry i's varint starts
};

/// A StringColumn of distinct entries plus an open-addressing table
/// from an entry's bytes to its index (ids are append order): the T
/// relation with its stem -> term-oid lookup, and the raw token memo
/// of an indexing batch. The table holds 8 bytes per slot (a 32-bit
/// hash tag and the id) and stays at most half full; keys are read
/// back from the column, so an entry's bytes are stored once.
class StringDictionary {
 public:
  size_t size() const { return column_.size(); }
  std::string_view operator[](size_t i) const { return column_[i]; }
  const StringColumn& column() const { return column_; }
  bool fits(size_t len) const { return column_.fits(len); }

  /// The id of `key`, whose std::hash<std::string_view> is `hash`, or
  /// nullopt when the dictionary does not hold it.
  std::optional<uint32_t> Find(std::string_view key, size_t hash) const;

  /// Appends `key` (hash `hash`), which Find() did not hold, under the
  /// same preconditions as StringColumn::Append; returns its id.
  uint32_t Insert(std::string_view key, size_t hash);

  /// StringColumn::Borrow, then indexes every entry; a repeated entry
  /// is kCorruption.
  Status Borrow(const uint8_t* data, uint64_t size, uint64_t count,
                std::string_view what);

  /// Frees every buffer.
  void Release();

  /// Owned column bytes plus table slots.
  size_t bytes_resident() const;

 private:
  struct Slot {
    uint32_t hash = 0;  // low 32 bits of the entry's hash
    uint32_t id = 0;    // 1 + the entry's index; 0: empty
  };
  /// Puts `slot` into the first free slot of its probe sequence.
  void Place(Slot slot);
  /// Re-places every entry into a table of `slot_count` slots (a power
  /// of two, more than twice the entries).
  void Rehash(size_t slot_count);

  StringColumn column_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
};

}  // namespace dls::ir

#endif  // DLS_IR_STRING_COLUMN_H_
