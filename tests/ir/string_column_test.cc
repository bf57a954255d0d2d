// The D/T column layout (ir/string_column.h): an owned column and one
// borrowing its bytes read alike, the dictionary's open-addressing
// table finds every entry across growth, and a borrowed span is
// refused with a Status when it is malformed or too large for 32-bit
// offsets.
#include "ir/string_column.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/strings.h"

namespace dls::ir {
namespace {

size_t Hash(std::string_view s) { return std::hash<std::string_view>{}(s); }

TEST(StringColumnTest, OwnedAndBorrowedColumnsReadAlike) {
  // The empty string, a one-byte varint length and a two-byte one.
  const std::vector<std::string> entries = {"", "synth://corpus/2001/7",
                                            std::string(300, 'x'), "z"};
  StringColumn owned;
  for (const std::string& e : entries) owned.Append(e);
  ASSERT_EQ(owned.size(), entries.size());
  EXPECT_EQ(owned.byte_size(), 1 + 1 + 21 + 2 + 300 + 1 + 1u);

  StringColumn borrowed;
  ASSERT_TRUE(borrowed
                  .Borrow(owned.data(), owned.byte_size(), entries.size(),
                          "test column")
                  .ok());
  ASSERT_EQ(borrowed.size(), entries.size());
  EXPECT_EQ(borrowed.data(), owned.data());  // nothing copied
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(owned[i], entries[i]) << i;
    EXPECT_EQ(borrowed[i], entries[i]) << i;
  }
  // The borrowed bytes are not the column's: it owns only offsets.
  EXPECT_EQ(borrowed.bytes_resident(),
            entries.size() * sizeof(uint32_t));
  EXPECT_GE(owned.bytes_resident(), owned.byte_size());
}

TEST(StringColumnTest, SpanOfFourGibibytesIsRefusedBeforeReading) {
  // The size check runs before any byte is read, so a one-byte buffer
  // can stand in for a 4 GiB section.
  const uint8_t one = 0;
  StringColumn column;
  const Status status =
      column.Borrow(&one, StringColumn::kMaxBytes, 1, "test column");
  EXPECT_EQ(status.code(), StatusCode::kUnsupported) << status.ToString();
  EXPECT_EQ(column.size(), 0u);
}

TEST(StringColumnTest, MalformedSpansAreCorruption) {
  const std::vector<uint8_t> overlong = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  const std::vector<uint8_t> past_end = {0x03, 'a', 'b'};
  const std::vector<uint8_t> trailing = {0x01, 'a', 0x00};
  const std::vector<uint8_t> two = {0x01, 'a', 0x01, 'b'};
  struct Case {
    const std::vector<uint8_t>* bytes;
    uint64_t count;
    const char* what;
  };
  for (const Case& c : {Case{&overlong, 1, "overlong varint"},
                        Case{&past_end, 1, "entry past the end"},
                        Case{&trailing, 1, "trailing byte"},
                        Case{&two, 3, "count above the entries"},
                        Case{&two, 5, "count above the bytes"}}) {
    StringColumn column;
    const Status status =
        column.Borrow(c.bytes->data(), c.bytes->size(), c.count, "col");
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << c.what;
  }
  StringColumn column;
  EXPECT_TRUE(column.Borrow(two.data(), two.size(), 2, "col").ok());
}

TEST(StringDictionaryTest, FindsEveryEntryAcrossGrowth) {
  StringDictionary dict;
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(StrFormat("stem%d", i));
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_FALSE(dict.Find(keys[i], Hash(keys[i])).has_value());
    EXPECT_EQ(dict.Insert(keys[i], Hash(keys[i])), i);
  }
  StringDictionary borrowed;
  ASSERT_TRUE(borrowed
                  .Borrow(dict.column().data(), dict.column().byte_size(),
                          dict.size(), "dict")
                  .ok());
  for (const StringDictionary* d : {&dict, &borrowed}) {
    ASSERT_EQ(d->size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::optional<uint32_t> id = d->Find(keys[i], Hash(keys[i]));
      ASSERT_TRUE(id.has_value()) << keys[i];
      EXPECT_EQ(*id, i);
      EXPECT_EQ((*d)[i], keys[i]);
    }
    EXPECT_FALSE(d->Find("stem1000", Hash("stem1000")).has_value());
    EXPECT_FALSE(d->Find("", Hash("")).has_value());
  }
  dict.Release();
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.bytes_resident(), 0u);
  EXPECT_FALSE(dict.Find("stem1", Hash("stem1")).has_value());
}

TEST(StringDictionaryTest, BorrowedRepeatIsCorruption) {
  const std::vector<uint8_t> bytes = {0x01, 'a', 0x01, 'b', 0x01, 'a'};
  StringDictionary dict;
  const Status status = dict.Borrow(bytes.data(), bytes.size(), 3, "dict");
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

}  // namespace
}  // namespace dls::ir
