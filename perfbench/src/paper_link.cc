// paper_link: the paper's batch pipeline on the Table-1 corpus.
//
// Set-up generates the Table-1 corpus (DatasetGenerator defaults, seed 42),
// shuffles the order of its catalog items, provider items and expert links
// by --seed, and serializes it to N-Triples in memory: every seed feeds the
// pipeline different files with the same corpus statistics. Each
// round then runs one whole pipeline pass with two workers — parse,
// ontology + instance index, training set, rule learning (th 0.002 on the
// part number, separator segments), rule-blocked candidate index and
// feature caches, StreamingLinker::Run, EvaluateLinks — followed by 2048
// single-item link queries (CandidatesOf + QueryRun, serial) replayed on
// that pass's structures for the per-item latency.
//
// Checks, none of which trusts the library path it checks: every learnt
// rule's counts and measures are recounted over the generator's expert
// links and the rule set must be exactly the frequent triples; every link's
// local item lies in a class subspace predicted by firing the rules
// independently, scores at least the threshold (recomputed by the string
// path ItemMatcher::Score) and is its external item's only link; for a
// fixed sample of externals the link equals the best of a string-path scan
// of the whole predicted subspace; F1 is recounted from IRIs.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocking/rule_blocker.h"
#include "core/classifier.h"
#include "core/learner.h"
#include "core/training_set.h"
#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "linking/evaluation.h"
#include "linking/feature_cache.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "linking/streaming_linker.h"
#include "ontology/instance_index.h"
#include "ontology/ontology.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "report.h"
#include "text/segmenter.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace rulelink;  // NOLINT: benchmark-local brevity
namespace props = datagen::props;

constexpr double kSupportThreshold = 0.002;
constexpr std::size_t kWorkers = 2;
// Set-ups are timed in two windows, before the passes and after them, so
// that their median does not rest on one stretch of the host's load; each
// window times half of them.
constexpr int kSetups = 6;
constexpr std::size_t kItemQueriesPerRound = 2048;
constexpr std::size_t kSampleStride = 211;  // brute-force sample of externals

struct Corpus {
  datagen::Dataset dataset;
  std::string local_nt;
  std::string external_nt;
  std::string links_nt;
};

// A seeded permutation of [0, n).
std::vector<std::size_t> Shuffled(std::size_t n, util::Rng* rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->UniformUint64(i)]);
  }
  return order;
}

// Reorders catalog items, provider items and links; indices in the links
// follow their items.
datagen::Dataset Reordered(datagen::Dataset d, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto catalog = Shuffled(d.catalog_items.size(), &rng);
  const auto external = Shuffled(d.external_items.size(), &rng);
  const auto links = Shuffled(d.links.size(), &rng);
  std::vector<std::size_t> catalog_pos(catalog.size());
  std::vector<std::size_t> external_pos(external.size());
  datagen::Dataset out = std::move(d);
  std::vector<core::Item> catalog_items(catalog.size());
  std::vector<core::Item> external_items(external.size());
  std::vector<ontology::ClassId> catalog_classes(catalog.size());
  for (std::size_t k = 0; k < catalog.size(); ++k) {
    catalog_pos[catalog[k]] = k;
    catalog_items[k] = std::move(out.catalog_items[catalog[k]]);
    catalog_classes[k] = out.catalog_classes[catalog[k]];
  }
  for (std::size_t k = 0; k < external.size(); ++k) {
    external_pos[external[k]] = k;
    external_items[k] = std::move(out.external_items[external[k]]);
  }
  std::vector<datagen::GoldLink> gold(links.size());
  for (std::size_t k = 0; k < links.size(); ++k) {
    const datagen::GoldLink& link = out.links[links[k]];
    gold[k] = {external_pos[link.external_index],
               catalog_pos[link.catalog_index]};
  }
  out.catalog_items = std::move(catalog_items);
  out.catalog_classes = std::move(catalog_classes);
  out.external_items = std::move(external_items);
  out.links = std::move(gold);
  return out;
}

Corpus SetUp(std::uint64_t seed) {
  auto generated =
      datagen::DatasetGenerator(datagen::DatasetConfig()).Generate();
  RL_CHECK(generated.ok()) << generated.status();
  Corpus corpus{Reordered(std::move(generated).value(), seed), "", "", ""};
  corpus.local_nt =
      rdf::WriteNTriples(datagen::BuildLocalGraph(corpus.dataset));
  corpus.external_nt =
      rdf::WriteNTriples(datagen::BuildExternalGraph(corpus.dataset));
  corpus.links_nt =
      rdf::WriteNTriples(datagen::BuildLinksGraph(corpus.dataset));
  return corpus;
}

core::Item ItemOf(const rdf::Graph& graph, rdf::TermId subject) {
  const auto& dict = graph.dict();
  core::Item item;
  item.iri = dict.term(subject).lexical();
  graph.ForEachMatch(
      rdf::TriplePattern{subject, rdf::kInvalidTermId, rdf::kInvalidTermId},
      [&](const rdf::Triple& t) {
        const rdf::Term& object = dict.term(t.object);
        if (object.is_literal()) {
          item.facts.push_back(core::PropertyValue{
              dict.term(t.predicate).lexical(), object.lexical()});
        }
        return true;
      });
  return item;
}

// Everything one pipeline pass builds, kept alive for the round's item
// queries and checks. Heap-allocated and never moved: the instance index,
// classifier, blocker and candidate index borrow earlier members.
struct Pass {
  rdf::Graph local_graph, external_graph, links_graph;
  std::unique_ptr<ontology::Ontology> onto;
  std::unique_ptr<ontology::InstanceIndex> instances;
  std::vector<core::Item> locals, externals;
  std::vector<ontology::ClassId> local_classes;
  std::unique_ptr<core::TrainingSet> training;
  core::RuleSet rules;
  text::SeparatorSegmenter segmenter;
  std::unique_ptr<core::RuleClassifier> classifier;
  std::unique_ptr<blocking::RuleBlocker> blocker;
  std::unique_ptr<blocking::CandidateIndex> candidates;
  linking::ItemMatcher matcher{MatcherRules()};
  linking::FeatureDictionary dict;
  linking::FeatureCache external_features, local_features;
  std::unique_ptr<linking::StreamingLinker> linker;
  std::vector<linking::Link> links;
  linking::LinkerStats stats;
  linking::ScoreMemoStats memo;
  linking::LinkageQuality quality;

  // Stage times (ms); they partition total_ms.
  double parse_ms = 0, index_ms = 0, training_ms = 0, learn_ms = 0,
         block_ms = 0, cache_ms = 0, run_ms = 0, eval_ms = 0, total_ms = 0;
  util::SchedulerTotals scheduler;
  // Traced-only replays, outside the stage times.
  double probe_ms = 0;
  std::size_t candidate_pairs = 0;
  std::size_t unclassified = 0;
};

std::unique_ptr<Pass> RunPass(const Corpus& corpus, bool trace) {
  auto pass = std::make_unique<Pass>();
  Pass& p = *pass;
  const util::SchedulerTotals scheduler_before = util::GlobalSchedulerTotals();
  const Clock::time_point t0 = Clock::now();

  for (const auto& [text, graph] :
       {std::pair{&corpus.local_nt, &p.local_graph},
        std::pair{&corpus.external_nt, &p.external_graph},
        std::pair{&corpus.links_nt, &p.links_graph}}) {
    const util::Status status = rdf::ParseNTriples(*text, graph);
    RL_CHECK(status.ok()) << status;
  }
  const Clock::time_point t1 = Clock::now();

  auto onto = ontology::Ontology::FromGraph(p.local_graph);
  RL_CHECK(onto.ok()) << onto.status();
  p.onto = std::make_unique<ontology::Ontology>(std::move(onto).value());
  p.instances = std::make_unique<ontology::InstanceIndex>(
      ontology::InstanceIndex::Build(p.local_graph, *p.onto));
  for (const rdf::TermId instance : p.instances->instances()) {
    p.locals.push_back(ItemOf(p.local_graph, instance));
    const auto& classes = p.instances->ClassesOf(instance);
    p.local_classes.push_back(classes.empty() ? ontology::kInvalidClassId
                                              : classes.front());
  }
  for (const rdf::TermId subject : p.external_graph.DistinctSubjects()) {
    p.externals.push_back(ItemOf(p.external_graph, subject));
  }
  const Clock::time_point t2 = Clock::now();

  std::size_t skipped = 0;
  auto training = core::TrainingSet::FromGraphs(
      p.external_graph, p.links_graph, *p.instances, &skipped);
  RL_CHECK(training.ok()) << training.status();
  p.training = std::make_unique<core::TrainingSet>(std::move(training).value());
  const Clock::time_point t3 = Clock::now();

  core::LearnerOptions options;
  options.support_threshold = kSupportThreshold;
  options.segmenter = &p.segmenter;
  options.properties = {props::kPartNumber};
  options.num_threads = kWorkers;
  auto rules = core::RuleLearner(options).Learn(*p.training);
  RL_CHECK(rules.ok()) << rules.status();
  p.rules = std::move(rules).value();
  const Clock::time_point t4 = Clock::now();

  p.classifier = std::make_unique<core::RuleClassifier>(&p.rules, &p.segmenter);
  p.blocker = std::make_unique<blocking::RuleBlocker>(
      p.classifier.get(), p.onto.get(), &p.local_classes);
  p.candidates = p.blocker->BuildIndex(p.externals, p.locals);
  const Clock::time_point t5 = Clock::now();

  p.external_features = linking::FeatureCache::Build(
      p.externals, p.matcher, linking::FeatureCache::Side::kExternal, &p.dict,
      kWorkers);
  p.local_features = linking::FeatureCache::Build(
      p.locals, p.matcher, linking::FeatureCache::Side::kLocal, &p.dict,
      kWorkers);
  const Clock::time_point t6 = Clock::now();

  p.linker = std::make_unique<linking::StreamingLinker>(&p.matcher, kThreshold);
  p.links = p.linker->Run(*p.candidates, p.external_features, p.local_features,
                          &p.stats, kWorkers, &p.memo);
  const Clock::time_point t7 = Clock::now();

  std::unordered_map<std::string_view, std::size_t> external_of, local_of;
  for (std::size_t e = 0; e < p.externals.size(); ++e) {
    external_of.emplace(p.externals[e].iri, e);
  }
  for (std::size_t l = 0; l < p.locals.size(); ++l) {
    local_of.emplace(p.locals[l].iri, l);
  }
  std::vector<blocking::CandidatePair> gold;
  for (const datagen::GoldLink& link : corpus.dataset.links) {
    const auto e = external_of.find(
        corpus.dataset.external_items[link.external_index].iri);
    const auto l =
        local_of.find(corpus.dataset.catalog_items[link.catalog_index].iri);
    RL_CHECK(e != external_of.end() && l != local_of.end());
    gold.push_back(blocking::CandidatePair{e->second, l->second});
  }
  p.quality = linking::EvaluateLinks(p.links, gold);
  const Clock::time_point t8 = Clock::now();
  p.scheduler = util::GlobalSchedulerTotals().Minus(scheduler_before);

  p.parse_ms = MillisBetween(t0, t1);
  p.index_ms = MillisBetween(t1, t2);
  p.training_ms = MillisBetween(t2, t3);
  p.learn_ms = MillisBetween(t3, t4);
  p.block_ms = MillisBetween(t4, t5);
  p.cache_ms = MillisBetween(t5, t6);
  p.run_ms = MillisBetween(t6, t7);
  p.eval_ms = MillisBetween(t7, t8);
  p.total_ms = MillisBetween(t0, t8);

  if (trace) {
    // The probe half of Run on its own: rule classification plus the
    // class-extent union for every external, with Run's worker count.
    const std::size_t n = p.externals.size();
    const std::size_t slots = util::ParallelSlots(kWorkers, n);
    std::vector<std::size_t> pairs(slots, 0);
    const Clock::time_point probe_begin = Clock::now();
    util::ParallelFor(
        kWorkers, n, [&](std::size_t slot, std::size_t begin, std::size_t end) {
          std::vector<std::size_t> run;
          for (std::size_t e = begin; e < end; ++e) {
            p.candidates->CandidatesOf(e, &run);
            pairs[slot] += run.size();
          }
        });
    p.probe_ms = MillisBetween(probe_begin, Clock::now());
    for (const std::size_t count : pairs) p.candidate_pairs += count;
    for (const auto& predictions :
         p.classifier->ClassifyBatch(p.externals, 0.0, kWorkers)) {
      if (predictions.empty()) ++p.unclassified;
    }
  }
  return pass;
}

// Rule statistics recounted straight from the generator's expert links:
// one example per link, premises = distinct part-number segments of the
// provider item, class = the catalog item's class. The generator asserts
// exactly one class per catalog item, a leaf, so it is the item's most
// specific class, which is what the learner counts.
struct Recount {
  std::size_t total = 0;
  std::map<std::string, std::size_t> premise;
  std::map<std::string, std::size_t> cls;  // by class IRI
  std::map<std::pair<std::string, std::string>, std::size_t> joint;
  std::size_t frequent_triples = 0;
};

bool Frequent(std::size_t count, std::size_t total) {
  return static_cast<double>(count) / static_cast<double>(total) >
         kSupportThreshold;
}

Recount RecountRules(const datagen::Dataset& dataset) {
  const ontology::Ontology& onto = dataset.ontology();
  Recount r;
  std::vector<std::string_view> segments;
  for (const datagen::GoldLink& link : dataset.links) {
    ++r.total;
    const ontology::ClassId c = dataset.catalog_classes[link.catalog_index];
    RL_CHECK(onto.IsLeaf(c));
    const std::string cls = onto.iri(c);
    segments.clear();
    for (const auto& fact : dataset.external_items[link.external_index].facts) {
      if (fact.property == props::kPartNumber) {
        SplitSegments(fact.value, &segments);
      }
    }
    const std::set<std::string> distinct(segments.begin(), segments.end());
    ++r.cls[cls];
    for (const std::string& s : distinct) {
      ++r.premise[s];
      ++r.joint[{s, cls}];
    }
  }
  for (const auto& [key, count] : r.joint) {
    if (Frequent(count, r.total) && Frequent(r.premise[key.first], r.total) &&
        Frequent(r.cls[key.second], r.total)) {
      ++r.frequent_triples;
    }
  }
  return r;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

// Checks one pass's rules against the recount; returns "" or the failure.
std::string CheckRules(const Pass& p, const Recount& r) {
  if (p.rules.size() != r.frequent_triples) {
    return "learnt " + std::to_string(p.rules.size()) + " rules, recount has " +
           std::to_string(r.frequent_triples) + " frequent triples";
  }
  std::set<std::pair<std::string, std::string>> seen;
  for (const core::ClassificationRule& rule : p.rules.rules()) {
    if (p.rules.properties().name(rule.property) != props::kPartNumber) {
      return "rule on an unselected property";
    }
    const std::string segment(p.rules.segment_text(rule));
    const std::string cls = p.onto->iri(rule.cls);
    if (!seen.insert({segment, cls}).second) return "duplicate rule";
    const auto joint = r.joint.find({segment, cls});
    if (joint == r.joint.end()) {
      return "rule " + segment + " => " + cls + " has no support";
    }
    const double n = static_cast<double>(r.total);
    const double j = static_cast<double>(joint->second);
    const double premise = static_cast<double>(r.premise.at(segment));
    const double klass = static_cast<double>(r.cls.at(cls));
    if (rule.counts.joint_count != joint->second ||
        rule.counts.premise_count != r.premise.at(segment) ||
        rule.counts.class_count != r.cls.at(cls) ||
        rule.counts.total != r.total) {
      return "rule " + segment + " => " + cls + " has wrong counts";
    }
    if (!Close(rule.support, j / n) || !Close(rule.confidence, j / premise) ||
        !Close(rule.lift, (j / premise) / (klass / n))) {
      return "rule " + segment + " => " + cls + " has wrong measures";
    }
  }
  return "";
}

// Independent view of the corpus for the link checks, keyed by IRI so it
// never depends on the parsed pass's numbering.
struct Truth {
  std::unordered_map<std::string, std::size_t> catalog_of;   // IRI -> index
  std::unordered_map<std::string, std::string> gold_local;   // ext IRI -> IRI
};

Truth MakeTruth(const datagen::Dataset& dataset) {
  Truth t;
  for (std::size_t i = 0; i < dataset.catalog_items.size(); ++i) {
    t.catalog_of.emplace(dataset.catalog_items[i].iri, i);
  }
  for (const datagen::GoldLink& link : dataset.links) {
    t.gold_local.emplace(dataset.external_items[link.external_index].iri,
                         dataset.catalog_items[link.catalog_index].iri);
  }
  return t;
}

// Classes (generator ontology ids) whose subspace an external item falls
// into: the conclusions of every rule whose segment occurs in its part
// number.
std::vector<ontology::ClassId> PredictedClasses(
    const core::Item& item,
    const std::multimap<std::string, ontology::ClassId>& rule_classes) {
  std::vector<std::string_view> segments;
  for (const auto& fact : item.facts) {
    if (fact.property == props::kPartNumber) {
      SplitSegments(fact.value, &segments);
    }
  }
  std::vector<ontology::ClassId> out;
  for (const std::string_view s : segments) {
    const auto range = rule_classes.equal_range(std::string(s));
    for (auto it = range.first; it != range.second; ++it) {
      out.push_back(it->second);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Checks the pass's links; returns "" or the first failure.
std::string CheckLinks(const Pass& p, const datagen::Dataset& dataset,
                       const Truth& truth, double* f1_recount) {
  const ontology::Ontology& onto = dataset.ontology();
  std::multimap<std::string, ontology::ClassId> rule_classes;
  for (const core::ClassificationRule& rule : p.rules.rules()) {
    rule_classes.emplace(std::string(p.rules.segment_text(rule)),
                         onto.FindByIri(p.onto->iri(rule.cls)));
  }
  const auto in_subspace = [&](std::size_t catalog_index,
                               const std::vector<ontology::ClassId>& classes) {
    const ontology::ClassId c = dataset.catalog_classes[catalog_index];
    for (const ontology::ClassId predicted : classes) {
      if (onto.IsSubClassOf(c, predicted)) return true;
    }
    return false;
  };

  Quality quality;
  quality.emitted = p.links.size();
  quality.gold = dataset.links.size();
  std::vector<const linking::Link*> link_of(p.externals.size(), nullptr);
  std::size_t previous = 0;
  for (std::size_t i = 0; i < p.links.size(); ++i) {
    const linking::Link& link = p.links[i];
    if (i > 0 && link.external_index <= previous) {
      return "external item linked twice or out of order";
    }
    previous = link.external_index;
    link_of[link.external_index] = &link;
    const core::Item& external = p.externals[link.external_index];
    const core::Item& local = p.locals[link.local_index];
    if (link.score < kThreshold) return "link below the threshold";
    if (p.matcher.Score(external, local) != link.score) {
      return "link score differs from the string-path score";
    }
    const auto catalog = truth.catalog_of.find(local.iri);
    if (catalog == truth.catalog_of.end()) return "link to an unknown item";
    if (!in_subspace(catalog->second,
                     PredictedClasses(external, rule_classes))) {
      return "linked local item outside every predicted class subspace";
    }
    const auto gold = truth.gold_local.find(external.iri);
    if (gold != truth.gold_local.end() && gold->second == local.iri) {
      ++quality.correct;
    }
  }
  *f1_recount = quality.f1();

  // Brute force on a fixed sample: the best string-path score over the
  // whole predicted subspace, ties to the lowest local index.
  std::unordered_map<std::string_view, std::size_t> local_of;
  for (std::size_t l = 0; l < p.locals.size(); ++l) {
    local_of.emplace(p.locals[l].iri, l);
  }
  for (std::size_t e = 0; e < p.externals.size(); e += kSampleStride) {
    const auto classes = PredictedClasses(p.externals[e], rule_classes);
    std::vector<std::size_t> subspace;
    if (!classes.empty()) {
      for (std::size_t i = 0; i < dataset.catalog_items.size(); ++i) {
        if (in_subspace(i, classes)) {
          subspace.push_back(local_of.at(dataset.catalog_items[i].iri));
        }
      }
    }
    std::sort(subspace.begin(), subspace.end());
    bool found = false;
    std::size_t best_local = 0;
    double best_score = 0.0;
    for (const std::size_t l : subspace) {
      const double score = p.matcher.Score(p.externals[e], p.locals[l]);
      if (score >= kThreshold && (!found || score > best_score)) {
        found = true;
        best_local = l;
        best_score = score;
      }
    }
    const linking::Link* link = link_of[e];
    if (found != (link != nullptr) ||
        (found && (link->local_index != best_local ||
                   link->score != best_score))) {
      return "external " + std::to_string(e) +
             " differs from the brute-force subspace scan";
    }
  }
  return "";
}

}  // namespace

void RunPaperLink(const Options& options, Report* report) {
  // The first set-up pays for first-touch page faults and allocator growth
  // that later ones do not; it is run but not counted.
  Corpus corpus = SetUp(options.seed);
  std::vector<double> setup_s;
  const auto set_up = [&] {
    corpus = Corpus{};
    const Clock::time_point begin = Clock::now();
    corpus = SetUp(options.seed);
    setup_s.push_back(MillisBetween(begin, Clock::now()) / 1000.0);
  };
  for (int i = 0; i < kSetups / 2; ++i) set_up();
  const Recount recount = RecountRules(corpus.dataset);
  const Truth truth = MakeTruth(corpus.dataset);

  std::vector<double> pass_s, qps, item_us;
  std::vector<double> parse, index, training, learn, block, cache, stream,
      probe, eval, busy, steals;
  double f1 = 0.0;
  std::unique_ptr<Pass> last;
  double measured_ms = 0.0;
  // Round 0 is a warm-up (first-touch page faults, worker spawn): checked
  // and counted, never timed.
  for (std::size_t round = 0;
       round <= 1 || measured_ms < options.seconds * 1000.0; ++round) {
    last.reset();
    last = RunPass(corpus, options.trace);
    Pass& p = *last;
    const std::size_t n = p.externals.size();

    // Per-item link queries on this pass's index, caches and linker.
    std::vector<const linking::Link*> link_of(n, nullptr);
    for (const linking::Link& link : p.links) {
      link_of[link.external_index] = &link;
    }
    linking::QueryScratch scratch;
    linking::FilterStats filters;
    std::uint64_t kernels = 0;
    std::size_t scored = 0;
    std::vector<linking::Link> answer;
    std::size_t bad_items = 0;
    double items_ms = 0.0;
    for (std::size_t j = 0; j < kItemQueriesPerRound; ++j) {
      const std::size_t e = (round * kItemQueriesPerRound + j) % n;
      answer.clear();
      const Clock::time_point begin = Clock::now();
      p.candidates->CandidatesOf(e, &scratch.run);
      p.linker->QueryRun(p.external_features, e, p.local_features, &scratch,
                         &filters, &kernels, &scored, &answer);
      const double ms = MillisBetween(begin, Clock::now());
      items_ms += ms;
      item_us.push_back(ms * 1000.0);
      const linking::Link* batch = link_of[e];
      const bool same =
          answer.size() == (batch != nullptr ? 1u : 0u) &&
          (batch == nullptr || (answer[0].local_index == batch->local_index &&
                                answer[0].score == batch->score));
      if (!same) ++bad_items;
    }
    report->Count(true, kItemQueriesPerRound - bad_items);
    report->Count(false, bad_items);
    if (round == 0) {
      item_us.clear();
    } else {
      measured_ms += p.total_ms + items_ms;
      pass_s.push_back(p.total_ms / 1000.0);
      qps.push_back(static_cast<double>(n) / (p.total_ms / 1000.0));
      parse.push_back(p.parse_ms);
      index.push_back(p.index_ms);
      training.push_back(p.training_ms);
      learn.push_back(p.learn_ms);
      block.push_back(p.block_ms);
      cache.push_back(p.cache_ms);
      stream.push_back(p.run_ms - p.probe_ms);
      probe.push_back(p.probe_ms);
      eval.push_back(p.eval_ms);
      busy.push_back(static_cast<double>(p.scheduler.busy_micros) / 1000.0);
      steals.push_back(static_cast<double>(p.scheduler.steals));
    }

    // Checks of this pass (not timed).
    std::string failure = CheckRules(p, recount);
    double f1_recount = 0.0;
    if (failure.empty()) {
      failure = CheckLinks(p, corpus.dataset, truth, &f1_recount);
    }
    if (failure.empty() && p.training->size() != corpus.dataset.links.size()) {
      failure = "training set lost links";
    }
    if (failure.empty() && !Close(p.quality.f1, f1_recount)) {
      failure = "EvaluateLinks F1 differs from the recount";
    }
    if (failure.empty() && options.trace &&
        p.candidate_pairs !=
            p.stats.pairs_scored + p.stats.pairs_pruned_by_filter) {
      failure = "scored + pruned pairs differ from the probed candidates";
    }
    if (!failure.empty()) {
      report->Note("pass " + std::to_string(round) + ": " + failure);
    }
    report->Count(failure.empty());
    f1 = p.quality.f1;
  }
  std::string passes;
  for (const double s : pass_s) passes += ' ' + std::to_string(s);
  report->Note("paper_link: " + std::to_string(item_us.size()) +
               " item queries; pass seconds" + passes);

  if (!options.trace) {
    const LatencySummary latency = SummarizeLatency(item_us);
    if (!latency.ok) report->Fail("too few item-query samples for p99");
    // Peak memory is read before the second window of set-ups, which runs
    // on a heap the passes have left behind.
    const double peak_rss_mb = PeakRssMb();
    last.reset();
    for (int i = 0; i < kSetups / 2; ++i) set_up();
    std::string setups;
    for (const double s : setup_s) setups += ' ' + std::to_string(s);
    report->Note("set-up seconds" + setups);
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("pipeline_s", Median(pass_s), "s");
    report->Set("link_f1", f1, "ratio");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    report->Set("qps", Median(qps), "1/s");
    report->Set("query_p50_us", latency.p50_us, "us");
    report->Set("query_p99_us", latency.p99_us, "us");
    return;
  }
  const Pass& p = *last;
  const double candidates = static_cast<double>(p.candidate_pairs);
  report->Set("rdf.parse_ms", Median(parse), "ms");
  report->Set("ontology.index_ms", Median(index), "ms");
  report->Set("core.training_set_ms", Median(training), "ms");
  report->Set("core.learn_ms", Median(learn), "ms");
  report->Set("core.rules", static_cast<double>(p.rules.size()), "count");
  report->Set("blocking.index_build_ms", Median(block), "ms");
  report->Set("blocking.probe_ms", Median(probe), "ms");
  report->Set("blocking.candidate_pairs", candidates, "count");
  report->Set("blocking.unclassified_items",
              static_cast<double>(p.unclassified), "count");
  report->Set("linking.cache_build_ms", Median(cache), "ms");
  report->Set("linking.stream_ms", Median(stream), "ms");
  report->Set("linking.evaluate_ms", Median(eval), "ms");
  const double pruned = static_cast<double>(p.stats.pairs_pruned_by_filter);
  report->Set("linking.pairs_pruned", pruned, "count");
  report->Set("linking.pairs_scored", static_cast<double>(p.stats.pairs_scored),
              "count");
  report->Set("linking.kernels", static_cast<double>(p.stats.comparisons),
              "count");
  report->Set("linking.prune_ratio", candidates > 0 ? pruned / candidates : 0.0,
              "ratio");
  report->Set("linking.memo_hit_rate", p.memo.hit_rate(), "ratio");
  report->Set("util.pool_busy_ms", Median(busy), "ms");
  report->Set("util.pool_steals", Median(steals), "count");
}

}  // namespace perfbench
