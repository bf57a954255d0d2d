#include "ir/index.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ir/stopwords.h"
#include "ir/tokenizer.h"

namespace dls::ir {
namespace {

TEST(TokenizerTest, SplitsAndLowercases) {
  EXPECT_EQ(Tokenize("Hello, World! x2"),
            (std::vector<std::string>{"hello", "world", "x2"}));
  EXPECT_TRUE(Tokenize("123 456 --").empty());  // tokens start with a letter
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(TokenizerTest, EdgeCases) {
  // A token starts at a letter: leading digits are separators, later
  // digits belong to the token.
  EXPECT_EQ(Tokenize("2x 42abc ABC123def"),
            (std::vector<std::string>{"x", "abc", "abc123def"}));
  // Punctuation, underscores and hyphens separate.
  EXPECT_EQ(Tokenize("e-mail foo_bar (a.b)"),
            (std::vector<std::string>{"e", "mail", "foo", "bar", "a", "b"}));
  // Bytes >= 0x80 separate (UTF-8 "cafés" is "caf" + "s").
  EXPECT_EQ(Tokenize("caf\xc3\xa9s \xff\x80Z"),
            (std::vector<std::string>{"caf", "s", "z"}));
  // A token at the very end, and one longer than any inline buffer.
  EXPECT_EQ(Tokenize("end SUPERCALIFRAGILISTICEXPIALIDOCIOUS x"),
            (std::vector<std::string>{
                "end", "supercalifragilisticexpialidocious", "x"}));
  EXPECT_TRUE(Tokenize("\t\n\r  ").empty());
  // ForEachToken visits exactly Tokenize's tokens.
  const std::string text = "The LONGEST-running Runner runs 3 RUNS... 9z";
  std::vector<std::string> visited;
  ForEachToken(text, [&](std::string_view t) { visited.emplace_back(t); });
  EXPECT_EQ(visited, Tokenize(text));
}

TEST(StopwordsTest, CommonWordsStopped) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_FALSE(IsStopword("tennis"));
  EXPECT_GT(StopwordCount(), 100u);
}

TEST(TextIndexTest, BuildsFiveRelations) {
  TextIndex index;
  index.AddDocument("d0", "the winner plays tennis");
  index.AddDocument("d1", "tennis matches and tennis players");
  index.Flush();

  EXPECT_EQ(index.document_count(), 2u);
  EXPECT_EQ(index.flushed_document_count(), 2u);
  // "the"/"and" stopped; winner, plai, tenni, match, player in T.
  std::optional<TermId> tennis = index.LookupTerm("tenni");
  ASSERT_TRUE(tennis.has_value());
  EXPECT_EQ(index.df(*tennis), 2);               // in both documents
  EXPECT_DOUBLE_EQ(index.idf(*tennis), 0.5);     // idf = 1/df
  ASSERT_EQ(index.postings(*tennis).size(), 2u);
  // tf of tennis in d1 is 2.
  int32_t tf_d1 = 0;
  for (const Posting& p : index.postings(*tennis)) {
    if (index.url(p.doc) == "d1") tf_d1 = p.tf;
  }
  EXPECT_EQ(tf_d1, 2);
}

TEST(TextIndexTest, QueriesOnlySeeFlushedDocuments) {
  TextIndex::Options options;
  options.flush_batch = 100;  // no auto flush
  TextIndex index(options);
  index.AddDocument("d0", "unique zebra");
  EXPECT_TRUE(index.RankTopN({"zebra"}, 10).empty());
  index.Flush();
  EXPECT_EQ(index.RankTopN({"zebra"}, 10).size(), 1u);
}

TEST(TextIndexTest, AutoFlushEveryBatch) {
  TextIndex::Options options;
  options.flush_batch = 2;
  TextIndex index(options);
  index.AddDocument("d0", "alpha");
  EXPECT_EQ(index.flushed_document_count(), 0u);
  index.AddDocument("d1", "alpha beta");
  EXPECT_EQ(index.flushed_document_count(), 2u);  // batch boundary
}

TEST(TextIndexTest, RankingPrefersRareTermsAndHigherTf) {
  TextIndex index;
  index.AddDocument("about-zebras", "zebra zebra zebra savanna");
  index.AddDocument("mentions-zebra", "zebra lion lion savanna");
  index.AddDocument("about-lions", "lion lion lion savanna");
  index.Flush();

  std::vector<ScoredDoc> ranked = index.RankTopN({"zebra"}, 10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(index.url(ranked[0].doc), "about-zebras");
  EXPECT_GT(ranked[0].score, ranked[1].score);
}

TEST(TextIndexTest, MultiTermQueryAccumulates) {
  TextIndex index;
  index.AddDocument("both", "zebra lion");
  index.AddDocument("one", "zebra giraffe");
  index.Flush();
  std::vector<ScoredDoc> ranked = index.RankTopN({"zebra", "lion"}, 10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(index.url(ranked[0].doc), "both");
}

TEST(TextIndexTest, QueryNormalisationMatchesIndexing) {
  TextIndex index;
  index.AddDocument("d", "The champions were WINNING tournaments");
  index.Flush();
  // Different inflections and case still hit.
  EXPECT_EQ(index.RankTopN({"champion"}, 10).size(), 1u);
  EXPECT_EQ(index.RankTopN({"wins", "winning"}, 10).size(), 1u);
  // Stopwords contribute nothing.
  EXPECT_TRUE(index.RankTopN({"the", "were"}, 10).empty());
}

TEST(TextIndexTest, UnknownTermsIgnored) {
  TextIndex index;
  index.AddDocument("d", "something");
  index.Flush();
  EXPECT_TRUE(index.RankTopN({"absentterm"}, 10).empty());
}

TEST(TermScoreTest, MonotoneInTfAndRarity) {
  RankOptions options;
  double base = TermScore(1, 10, 100, 10000, options);
  EXPECT_GT(TermScore(5, 10, 100, 10000, options), base);   // higher tf
  EXPECT_GT(TermScore(1, 2, 100, 10000, options), base);    // rarer term
  EXPECT_LT(TermScore(1, 10, 1000, 10000, options), base);  // longer doc
  EXPECT_EQ(TermScore(0, 10, 100, 10000, options), 0.0);
}

/// Builds one seeded document for MemoisedIndexingBuildsReferenceRelations:
/// mixed case, digits, punctuation, bytes >= 0x80, stopwords, Porter
/// variants of one stem and repeated tokens.
std::string MixedDocument(Rng* rng) {
  static const char* const kWords[] = {
      "running", "Runs",   "RUNNER",  "run",     "the",    "The",
      "and",     "AND",    "x2",      "a1b2",    "Zebra",  "zebras",
      "caf\xc3\xa9", "na\xefve", "connection", "connected", "CONNECTS",
      "i",       "q",      "generalization", "x",  "is",     "relational"};
  static const char* const kSeparators[] = {" ", ", ", "-", "\n", "...",
                                            " 42 ", "\xc2\xa0", "_"};
  std::string text;
  const size_t words = rng->Uniform(12);  // empty documents included
  for (size_t w = 0; w < words; ++w) {
    if (w > 0) text += kSeparators[rng->Uniform(std::size(kSeparators))];
    const char* word = kWords[rng->Uniform(std::size(kWords))];
    text += word;
    if (rng->Uniform(4) == 0) {  // an immediate repeat
      text += " ";
      text += word;
    }
  }
  return text;
}

TEST(TextIndexTest, MemoisedIndexingBuildsReferenceRelations) {
  Rng rng(19);
  std::vector<std::string> docs;
  for (int d = 0; d < 60; ++d) docs.push_back(MixedDocument(&rng));
  const size_t n = docs.size();

  for (bool stem : {true, false}) {
    for (bool stop : {true, false}) {
      // Reference: normalise every token (Tokenize + NormalizeWordAs),
      // intern stems in order of first occurrence.
      std::vector<std::string> ref_terms;
      std::map<std::string, TermId> ref_ids;
      std::vector<std::vector<Posting>> ref_postings;
      std::vector<int64_t> ref_lengths;
      for (size_t d = 0; d < n; ++d) {
        std::map<TermId, int32_t> counts;
        int64_t length = 0;
        for (const std::string& token : Tokenize(docs[d])) {
          std::optional<std::string> norm = NormalizeWordAs(token, stem, stop);
          if (!norm) continue;
          auto [it, added] = ref_ids.emplace(*norm, ref_terms.size());
          if (added) {
            ref_terms.push_back(*norm);
            ref_postings.emplace_back();
          }
          ++counts[it->second];
          ++length;
        }
        for (const auto& [term, tf] : counts) {
          ref_postings[term].push_back(Posting{static_cast<DocId>(d), tf});
        }
        ref_lengths.push_back(length);
      }
      int64_t ref_collection = 0;
      for (int64_t len : ref_lengths) ref_collection += len;

      for (size_t batch : {size_t{1}, size_t{7}, n + 1}) {
        SCOPED_TRACE(testing::Message() << "stem " << stem << " stop " << stop
                                        << " flush_batch " << batch);
        TextIndex::Options options;
        options.flush_batch = batch;
        options.stem = stem;
        options.stop = stop;
        TextIndex index(options);
        for (size_t d = 0; d < n; ++d) {
          index.AddDocument("d" + std::to_string(d), docs[d]);
        }
        index.Flush();

        ASSERT_EQ(index.vocabulary_size(), ref_terms.size());
        for (TermId t = 0; t < ref_terms.size(); ++t) {
          EXPECT_EQ(index.term(t), ref_terms[t]);
          EXPECT_EQ(index.df(t), static_cast<int32_t>(ref_postings[t].size()));
          std::vector<Posting> got(index.postings(t).begin(),
                                   index.postings(t).end());
          ASSERT_EQ(got.size(), ref_postings[t].size()) << ref_terms[t];
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].doc, ref_postings[t][i].doc);
            EXPECT_EQ(got[i].tf, ref_postings[t][i].tf);
          }
        }
        for (size_t d = 0; d < n; ++d) {
          EXPECT_EQ(index.doc_length(static_cast<DocId>(d)), ref_lengths[d]);
        }
        EXPECT_EQ(index.collection_length(), ref_collection);
      }
    }
  }
}

TEST(NormalizeWordTest, StandaloneHelper) {
  EXPECT_EQ(NormalizeWord("Winners"), "winner");
  EXPECT_EQ(NormalizeWord("the"), std::nullopt);
}

}  // namespace
}  // namespace dls::ir
