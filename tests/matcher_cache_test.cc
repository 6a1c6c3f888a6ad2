// Equivalence tests for the cached scoring path: ItemMatcher::ScoreCached
// over FeatureCache/FeatureDictionary must return exactly (bit-for-bit)
// the same score as ItemMatcher::Score on the raw items, for every
// similarity measure and for the awkward inputs the cache precomputes
// around — empty values, whitespace-only values, missing properties,
// duplicate values, multi-valued properties and sub-bigram strings.
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linking/feature_cache.h"
#include "linking/matcher.h"
#include "util/interner.h"

namespace rulelink::linking {
namespace {

constexpr SimilarityMeasure kAllMeasures[] = {
    SimilarityMeasure::kExact,         SimilarityMeasure::kLevenshtein,
    SimilarityMeasure::kJaro,          SimilarityMeasure::kJaroWinkler,
    SimilarityMeasure::kJaccardTokens, SimilarityMeasure::kDiceBigram,
    SimilarityMeasure::kMongeElkan,
};

core::Item MakeItem(
    std::string iri,
    std::vector<std::pair<std::string, std::string>> facts) {
  core::Item item;
  item.iri = std::move(iri);
  for (auto& [property, value] : facts) {
    item.facts.push_back(
        core::PropertyValue{std::move(property), std::move(value)});
  }
  return item;
}

// External items covering the cache's precomputation branches: repeated
// tokens, duplicate and multi-valued properties, single characters (a
// string shorter than a bigram is its own gram), empty and whitespace-only
// values (zero tokens but a non-empty value list), and a missing property.
std::vector<core::Item> ExternalItems() {
  return {
      MakeItem("e0", {{"pn", "CRCW0805 10K ohm"}, {"mfr", "Vishay"}}),
      MakeItem("e1", {{"pn", "T83-106"}, {"mfr", "ACME corp"}}),
      MakeItem("e2", {{"pn", "X-1"}, {"pn", "X-1"}, {"mfr", "acme ACME"}}),
      MakeItem("e3", {{"pn", "WRONG"}, {"pn", "CRCW0805 10K ohm"}}),
      MakeItem("e4", {{"pn", "a"}, {"mfr", "b"}}),
      MakeItem("e5", {{"pn", ""}, {"mfr", " \t "}}),
      MakeItem("e6", {{"mfr", "Vishay"}}),  // pn missing entirely
  };
}

std::vector<core::Item> LocalItems() {
  return {
      MakeItem("l0", {{"pn", "CRCW0805 10K ohm"}, {"mfr", "Vishay"}}),
      MakeItem("l1", {{"pn", "CRCW0806 10K ohm"}, {"mfr", "vishay"}}),
      MakeItem("l2", {{"pn", "X-1"}, {"mfr", "ACME"}}),
      MakeItem("l3", {{"pn", "a b a"}, {"mfr", "b"}}),
      MakeItem("l4", {{"pn", ""}, {"mfr", ""}}),
      MakeItem("l5", {{"pn", "T83-106"}}),  // mfr missing entirely
  };
}

// The dictionary lives behind a unique_ptr so its address survives the
// struct being moved (the caches keep a pointer to it).
struct BuiltCaches {
  std::unique_ptr<FeatureDictionary> dict;
  FeatureCache external;
  FeatureCache local;
};

BuiltCaches BuildCaches(const std::vector<core::Item>& external,
                        const std::vector<core::Item>& local,
                        const ItemMatcher& matcher,
                        std::size_t num_threads = 1) {
  BuiltCaches caches;
  caches.dict = std::make_unique<FeatureDictionary>();
  caches.external =
      FeatureCache::Build(external, matcher, FeatureCache::Side::kExternal,
                          caches.dict.get(), num_threads);
  caches.local =
      FeatureCache::Build(local, matcher, FeatureCache::Side::kLocal,
                          caches.dict.get(), num_threads);
  return caches;
}

void ExpectAllPairsIdentical(const std::vector<core::Item>& external,
                             const std::vector<core::Item>& local,
                             const ItemMatcher& matcher,
                             const BuiltCaches& caches,
                             ScoreMemo* memo = nullptr) {
  for (std::size_t e = 0; e < external.size(); ++e) {
    for (std::size_t l = 0; l < local.size(); ++l) {
      // Exact double equality: the cached path must be byte-identical,
      // not merely close.
      EXPECT_EQ(matcher.ScoreCached(caches.external, e, caches.local, l,
                                    memo),
                matcher.Score(external[e], local[l]))
          << "external=" << external[e].iri << " local=" << local[l].iri;
    }
  }
}

TEST(ScoreCachedTest, MatchesScoreForEveryMeasure) {
  const auto external = ExternalItems();
  const auto local = LocalItems();
  for (SimilarityMeasure measure : kAllMeasures) {
    const ItemMatcher matcher({{"pn", "pn", measure, 2.0},
                               {"mfr", "mfr", measure, 1.0}});
    const auto caches = BuildCaches(external, local, matcher);
    SCOPED_TRACE(SimilarityMeasureName(measure));
    ExpectAllPairsIdentical(external, local, matcher, caches);
  }
}

TEST(ScoreCachedTest, MatchesScoreWithMixedMeasuresAndWeights) {
  const auto external = ExternalItems();
  const auto local = LocalItems();
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kJaroWinkler, 3.0},
      {"pn", "pn", SimilarityMeasure::kJaccardTokens, 1.5},
      {"mfr", "mfr", SimilarityMeasure::kExact, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kMongeElkan, 0.5},
  });
  const auto caches = BuildCaches(external, local, matcher);
  ExpectAllPairsIdentical(external, local, matcher, caches);
}

TEST(ScoreCachedTest, CrossPropertyMappingUsesTheRightSide) {
  const auto external = std::vector<core::Item>{
      MakeItem("e0", {{"provider:pn", "X-1"}})};
  const auto local = std::vector<core::Item>{MakeItem("l0", {{"pn", "X-1"}}),
                                             MakeItem("l1", {{"pn", "Y"}})};
  const ItemMatcher matcher(
      {{"provider:pn", "pn", SimilarityMeasure::kExact, 1.0}});
  const auto caches = BuildCaches(external, local, matcher);
  EXPECT_EQ(matcher.ScoreCached(caches.external, 0, caches.local, 0), 1.0);
  EXPECT_EQ(matcher.ScoreCached(caches.external, 0, caches.local, 1), 0.0);
  ExpectAllPairsIdentical(external, local, matcher, caches);
}

TEST(ScoreCachedTest, MemoizedScoresAreIdenticalAndCounted) {
  const auto external = ExternalItems();
  const auto local = LocalItems();
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kJaroWinkler, 2.0},
      {"mfr", "mfr", SimilarityMeasure::kJaccardTokens, 1.0},
  });
  const auto caches = BuildCaches(external, local, matcher);

  ScoreMemo memo;
  // Two passes through the full cross product: the second pass must be
  // answered from the memo and still agree with the string path.
  ExpectAllPairsIdentical(external, local, matcher, caches, &memo);
  const ScoreMemoStats after_first = memo.stats();
  EXPECT_GT(after_first.lookups, 0u);
  ExpectAllPairsIdentical(external, local, matcher, caches, &memo);
  const ScoreMemoStats after_second = memo.stats();
  // Every value pair the second pass touched was already memoized.
  EXPECT_EQ(after_second.hits - after_first.hits,
            after_second.lookups - after_first.lookups);
  EXPECT_GT(after_second.hits, 0u);
  EXPECT_LE(after_second.hits, after_second.lookups);
  EXPECT_GT(after_second.hit_rate(), 0.0);

  memo.Clear();
  EXPECT_EQ(memo.stats().lookups, 0u);
  EXPECT_EQ(memo.stats().hits, 0u);
}

TEST(ScoreCachedTest, ParallelCacheBuildGivesIdenticalScores) {
  const auto external = ExternalItems();
  const auto local = LocalItems();
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kDiceBigram, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kMongeElkan, 1.0},
  });
  // Id numbering differs per thread count; scores must not.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const auto caches = BuildCaches(external, local, matcher, threads);
    ExpectAllPairsIdentical(external, local, matcher, caches);
  }
}

TEST(FeatureDictionaryTest, RepeatedValuesHitTheBuildMemo) {
  FeatureDictionary dict;
  const ValueId first = dict.AddValue("CRCW0805 10K ohm");
  const ValueId again = dict.AddValue("CRCW0805 10K ohm");
  EXPECT_EQ(first, again);
  EXPECT_EQ(dict.num_values(), 1u);
  EXPECT_EQ(dict.values_reused(), 1u);
  EXPECT_GT(dict.memory_bytes(), 0u);
}

TEST(FeatureDictionaryTest, FeaturesRecordTokensAndBigrams) {
  FeatureDictionary dict;
  const ValueId id = dict.AddValue("a b a");
  const auto features = dict.Features(id);
  EXPECT_EQ(features.text, "a b a");
  ASSERT_EQ(features.num_tokens, 3u);
  EXPECT_EQ(features.num_unique_tokens, 2u);
  // Occurrence order is preserved ("a", "b", "a"); the sorted copy is
  // non-decreasing.
  EXPECT_EQ(features.ordered_tokens[0], features.ordered_tokens[2]);
  EXPECT_NE(features.ordered_tokens[0], features.ordered_tokens[1]);
  EXPECT_LE(features.sorted_tokens[0], features.sorted_tokens[1]);
  EXPECT_LE(features.sorted_tokens[1], features.sorted_tokens[2]);
  // Bigrams of "a b a": "a ", " b", "b ", " a".
  EXPECT_EQ(features.num_bigrams, 4u);

  const ValueId empty = dict.AddValue("");
  const auto none = dict.Features(empty);
  EXPECT_EQ(none.num_tokens, 0u);
  EXPECT_EQ(none.num_bigrams, 0u);

  // A sub-bigram string is its own single gram.
  const ValueId single = dict.AddValue("x");
  EXPECT_EQ(dict.Features(single).num_bigrams, 1u);
}

TEST(FeatureCacheTest, SlotsFollowRuleOrderAndMissingPropertiesAreEmpty) {
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kExact, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kExact, 1.0},
  });
  const auto external = ExternalItems();
  FeatureDictionary dict;
  const auto cache = FeatureCache::Build(
      external, matcher, FeatureCache::Side::kExternal, &dict, 1);
  ASSERT_EQ(cache.num_items(), external.size());
  ASSERT_EQ(cache.num_rules(), 2u);

  std::size_t count = 0;
  // e2 lists "pn" twice: both occurrences are kept (value multiplicity
  // matters to best-pair semantics only through the cross product, but
  // the cache must mirror the item faithfully).
  cache.Values(2, 0, &count);
  EXPECT_EQ(count, 2u);
  // e6 has no "pn" at all.
  cache.Values(6, 0, &count);
  EXPECT_EQ(count, 0u);
  // e6's "mfr" slot holds one value.
  const ValueId* mfr = cache.Values(6, 1, &count);
  ASSERT_EQ(count, 1u);
  EXPECT_EQ(dict.View(mfr[0]), "Vishay");
}

// --- Delta tails (DESIGN.md §5j) -------------------------------------------
// A serving generation's dictionary is its full publish's root plus one
// tail overlay; each delta Clone()s the predecessor's tail and interns into
// the copy. These pin what that relies on: a clone keeps every id and its
// features, value reuse still finds the single built id across root, tail
// and a session overlay, and ExtendFrom over a clone matches a from-scratch
// build while still refusing any dictionary that does not extend the
// base's id-for-id.

void ExpectSameFeatures(const FeatureDictionary& a, const FeatureDictionary& b,
                        ValueId id) {
  const auto fa = a.Features(id);
  const auto fb = b.Features(id);
  EXPECT_EQ(fa.text, fb.text);
  ASSERT_EQ(fa.num_tokens, fb.num_tokens);
  EXPECT_EQ(fa.num_unique_tokens, fb.num_unique_tokens);
  ASSERT_EQ(fa.num_bigrams, fb.num_bigrams);
  for (std::uint32_t i = 0; i < fa.num_tokens; ++i) {
    EXPECT_EQ(fa.ordered_tokens[i], fb.ordered_tokens[i]);
    EXPECT_EQ(fa.sorted_tokens[i], fb.sorted_tokens[i]);
  }
  for (std::uint32_t i = 0; i < fa.num_bigrams; ++i) {
    EXPECT_EQ(fa.sorted_bigrams[i], fb.sorted_bigrams[i]);
  }
}

TEST(FeatureDictionaryTailTest, CloneKeepsEveryIdAndFeatures) {
  FeatureDictionary root;
  const ValueId rooted = root.AddValue("CRCW0805 10K ohm");
  root.AddValue("T83-106");
  FeatureDictionary tail(&root);
  std::vector<ValueId> ids = {
      tail.AddValue("CRCW0805 10K ohm"),  // reused from the root
      tail.AddValue("10K"),               // a root token, built here
      tail.AddValue("X-1 novel"),         // wholly novel
      tail.AddValue(""),
  };
  EXPECT_EQ(ids[0], rooted);

  FeatureDictionary copy = tail.Clone();
  EXPECT_EQ(copy.base(), &root);
  EXPECT_EQ(&copy.root(), &root);
  EXPECT_EQ(copy.num_symbols(), tail.num_symbols());
  EXPECT_EQ(copy.num_values(), tail.num_values());
  for (ValueId id = 0; id < tail.num_symbols(); ++id) {
    EXPECT_EQ(copy.View(id), tail.View(id)) << "id " << id;
  }
  for (const ValueId id : ids) {
    SCOPED_TRACE(id);
    ExpectSameFeatures(copy, tail, id);
    EXPECT_EQ(copy.AddValue(tail.View(id)), id);
  }
  // The copy interns on its own; the source it was cloned from is
  // untouched.
  const std::size_t tail_symbols = tail.num_symbols();
  const ValueId fresh = copy.AddValue("only in the copy");
  EXPECT_GE(fresh, tail_symbols);
  EXPECT_EQ(tail.num_symbols(), tail_symbols);
  EXPECT_EQ(copy.View(fresh), "only in the copy");
}

TEST(FeatureDictionaryTailTest, ValueBuiltInAnEarlierTailKeepsItsId) {
  // "10K" is an unbuilt token at the root. The first delta's tail builds
  // it as a value; every later tail (a clone of that one, or of a clone of
  // it) and a session overlay over a later tail must reuse that id, not
  // mint a second id for the same string off the root's token.
  FeatureDictionary root;
  const ValueId rooted = root.AddValue("CRCW0805 10K ohm");
  FeatureDictionary tail1(&root);
  const ValueId built = tail1.AddValue("10K");
  ASSERT_GE(built, root.num_symbols());

  FeatureDictionary tail2 = tail1.Clone();
  tail2.AddValue("T83-106");  // the second delta's own novel value
  FeatureDictionary tail3 = tail2.Clone();
  const std::size_t values = tail3.num_values();
  EXPECT_EQ(tail3.AddValue("10K"), built);
  EXPECT_EQ(tail3.num_values(), values);

  FeatureDictionary session(&tail3);
  EXPECT_EQ(session.AddValue("10K"), built);
  EXPECT_EQ(session.num_values(), 0u);
  ExpectSameFeatures(session, tail1, built);
  // A value built at the root still resolves to the root's id.
  EXPECT_EQ(session.AddValue("CRCW0805 10K ohm"), rooted);
}

// The value strings of one cache slot, resolved through the cache's own
// dictionary (ids differ across universes; strings must not).
std::vector<std::string_view> SlotStrings(const FeatureCache& cache,
                                          std::size_t item, std::size_t rule) {
  std::size_t count = 0;
  const ValueId* ids = cache.Values(item, rule, &count);
  std::vector<std::string_view> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(cache.dict().View(ids[i]));
  }
  return out;
}

TEST(FeatureDictionaryTailTest, ExtendFromOverACloneMatchesAFreshBuild) {
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kLevenshtein, 2.0},
      {"pn", "pn", SimilarityMeasure::kExact, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kJaccardTokens, 1.0},
  });
  const auto base_items = LocalItems();
  const std::vector<core::Item> delta1 = {
      MakeItem("d0", {{"pn", "10K"}, {"mfr", "Vishay"}}),  // root token
      MakeItem("d1", {{"pn", "Z-9 new"}}),
  };
  const std::vector<core::Item> delta2 = {
      MakeItem("d2", {{"pn", "10K"}, {"mfr", "acme"}}),  // built in tail 1
      MakeItem("d3", {{"pn", "a"}, {"pn", "b"}}),        // multi-valued
      MakeItem("d4", {{"mfr", "Z-9 new"}}),
  };

  FeatureDictionary root;
  const auto cache0 = FeatureCache::Build(
      base_items, matcher, FeatureCache::Side::kLocal, &root, 1);
  FeatureDictionary tail1(&root);
  const auto cache1 = FeatureCache::ExtendFrom(
      cache0, delta1, matcher, FeatureCache::Side::kLocal, &tail1);
  FeatureDictionary tail2 = tail1.Clone();
  const auto cache2 = FeatureCache::ExtendFrom(
      cache1, delta2, matcher, FeatureCache::Side::kLocal, &tail2);

  std::vector<core::Item> all = base_items;
  all.insert(all.end(), delta1.begin(), delta1.end());
  all.insert(all.end(), delta2.begin(), delta2.end());
  FeatureDictionary fresh_dict;
  const auto fresh = FeatureCache::Build(
      all, matcher, FeatureCache::Side::kLocal, &fresh_dict, 1);

  ASSERT_EQ(cache2.num_items(), fresh.num_items());
  for (std::size_t item = 0; item < all.size(); ++item) {
    SCOPED_TRACE(all[item].iri);
    EXPECT_EQ(cache2.simple(item), fresh.simple(item));
    for (std::size_t r = 0; r < matcher.rules().size(); ++r) {
      EXPECT_EQ(SlotStrings(cache2, item, r), SlotStrings(fresh, item, r));
      const std::size_t slot = item * matcher.rules().size() + r;
      EXPECT_EQ(cache2.lane_byte_lengths()[slot],
                fresh.lane_byte_lengths()[slot]);
      EXPECT_EQ(cache2.lane_unique_tokens()[slot],
                fresh.lane_unique_tokens()[slot]);
      EXPECT_EQ(cache2.lane_bigrams()[slot], fresh.lane_bigrams()[slot]);
      const ValueId a = cache2.lane_value_ids()[slot];
      const ValueId b = fresh.lane_value_ids()[slot];
      ASSERT_EQ(a == util::kInvalidSymbolId, b == util::kInvalidSymbolId);
      if (a != util::kInvalidSymbolId) {
        EXPECT_EQ(tail2.View(a), fresh_dict.View(b));
      }
    }
  }

  // Scored through a session-style overlay over the cloned tail, every
  // pair matches the string path.
  const auto external = ExternalItems();
  FeatureDictionary session(&tail2);
  const auto external_cache = FeatureCache::Build(
      external, matcher, FeatureCache::Side::kExternal, &session, 1);
  for (std::size_t e = 0; e < external.size(); ++e) {
    for (std::size_t l = 0; l < all.size(); ++l) {
      EXPECT_EQ(matcher.ScoreCached(external_cache, e, cache2, l),
                matcher.Score(external[e], all[l]))
          << external[e].iri << " vs " << all[l].iri;
    }
  }
}

TEST(FeatureDictionaryTailTest, ExtendsAcceptsOnlyIdForIdExtensions) {
  FeatureDictionary root;
  root.AddValue("CRCW0805 10K ohm");
  FeatureDictionary tail(&root);
  tail.AddValue("X-1");
  FeatureDictionary overlay(&tail);
  FeatureDictionary sibling(&root);
  FeatureDictionary unrelated;
  FeatureDictionary clone = tail.Clone();
  FeatureDictionary clone_of_clone = clone.Clone();

  EXPECT_TRUE(tail.Extends(tail));
  EXPECT_TRUE(overlay.Extends(tail));
  EXPECT_TRUE(clone.Extends(tail));
  EXPECT_TRUE(clone_of_clone.Extends(clone));
  EXPECT_FALSE(sibling.Extends(tail));    // same root, other ids past it
  EXPECT_FALSE(unrelated.Extends(tail));
  EXPECT_FALSE(tail.Extends(clone));      // the source is no clone of it
  EXPECT_FALSE(clone_of_clone.Extends(tail));

  // Growth of the source after the copy — a new symbol, or a token built
  // into a value in place — voids the clone's claim.
  FeatureDictionary grown = tail.Clone();
  tail.AddValue("Y-2");
  EXPECT_FALSE(grown.Extends(tail));
  FeatureDictionary rebuilt_source(&root);
  rebuilt_source.AddValue("Z 3");
  FeatureDictionary stale = rebuilt_source.Clone();
  rebuilt_source.AddValue("Z");  // a local token, now built: no new symbol
  EXPECT_FALSE(stale.Extends(rebuilt_source));
}

TEST(FeatureDictionaryTailDeathTest, ExtendFromRefusesAnUnrelatedDictionary) {
  const ItemMatcher matcher({{"pn", "pn", SimilarityMeasure::kExact, 1.0}});
  const auto items = LocalItems();
  FeatureDictionary root;
  const auto cache = FeatureCache::Build(
      items, matcher, FeatureCache::Side::kLocal, &root, 1);
  FeatureDictionary tail(&root);
  const auto extended = FeatureCache::ExtendFrom(
      cache, items, matcher, FeatureCache::Side::kLocal, &tail);
  FeatureDictionary unrelated;
  EXPECT_DEATH(FeatureCache::ExtendFrom(cache, items, matcher,
                                        FeatureCache::Side::kLocal,
                                        &unrelated),
               "ExtendFrom needs");
  // A sibling tail over the same root would reissue the tail's ids for
  // other strings.
  FeatureDictionary sibling(&root);
  EXPECT_DEATH(FeatureCache::ExtendFrom(extended, items, matcher,
                                        FeatureCache::Side::kLocal, &sibling),
               "ExtendFrom needs");
}

}  // namespace
}  // namespace rulelink::linking
