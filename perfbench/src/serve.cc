// serve_zipf and serve_churn: the resident ServeEngine under a closed loop.
//
// Set-up generates a workload catalog (100k served items plus a pool the
// churn writer appends from; always generator seed 42, so the zipf head is
// the same items in every run), a zipfian dirty query stream over the
// served items from --seed, and publishes one full snapshot. Two
// closed-loop sessions then drain the stream in tickets of 50 queries
// after a discarded per-session warm-up. The loop is closed because the
// engine's callers are in-process workers that each wait for their answer.
//
// serve_churn runs in rounds and adds one writer thread. A round starts on
// a full publish of the served catalog and serves kRoundQueries queries;
// after every kQueriesPerDelta of them (counted by queries served, never by
// the clock) the writer publishes a delta of 100 appended items and 10
// retirements, so the chain reaches kDeltasPerRound deltas and the last
// kQueriesPerDelta queries meet it whole. The depth a query meets depends
// on its ordinal in the round only, not on how fast queries go. Between
// rounds the writer publishes a fresh full snapshot, untimed, while the
// sessions wait. No compaction ever runs.
//
// Checks, after the timed replay, against a model of every generation the
// writer published: each linked local item is live in the generation that
// answered, shares the query's blocking key, and scores at least the
// threshold by the string path ItemMatcher::Score; each answer holds at
// most one link; the final snapshot holds the items and retirements the
// model says; and for a sample of queries (every 500th, plus the first
// answer of each generation) the answer equals a brute-force string-path
// scan of that generation's live key block.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "blocking/standard_blocking.h"
#include "datagen/key_chooser.h"
#include "datagen/workload.h"
#include "linking/feature_cache.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "linking/serve_engine.h"
#include "report.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rulelink;  // NOLINT: benchmark-local brevity
namespace props = datagen::props;

constexpr std::size_t kCatalogSize = 100000;
constexpr std::size_t kStreamLength = 200000; // generated queries
constexpr std::size_t kClients = 2;
constexpr std::size_t kWarmupPerSession = 1000;
constexpr std::size_t kTicket = 50;           // queries per ticket
constexpr std::size_t kQueriesPerDelta = 100;
constexpr std::size_t kDeltasPerRound = 100;
constexpr std::size_t kDeltaAppended = 100;
constexpr std::size_t kDeltaRetired = 10;
constexpr std::size_t kRoundQueries = (kDeltasPerRound + 1) * kQueriesPerDelta;
static_assert(kRoundQueries % kTicket == 0, "a round is whole tickets");
// Two rounds give 200 publishes, enough for the publish p90.
constexpr std::size_t kMinRounds = 2;
// Items the writer appends from: every round appends the same ones.
constexpr std::size_t kPoolSize = kDeltasPerRound * kDeltaAppended;
// Catalog and stream generation run serial: with two workers the median
// set-up moved 0.48-0.65 s over four runs on the reference host, serial
// 0.53-0.57 s.
constexpr std::size_t kBuildThreads = 1;
// Snapshot builds run serial: on the 4-core reference host a 2-worker
// build of the 100k catalog was no faster than the serial one (0.22-0.38 s
// against 0.24-0.29 s over 12 builds each) and far less steady.
constexpr std::size_t kSnapshotThreads = 1;
// Set-ups and full builds are timed in two windows, before and after the
// replay, so that their medians do not rest on one stretch of the host's
// load; each window times half of them.
constexpr int kSetups = 6;
constexpr int kFullBuilds = 16;
constexpr std::size_t kReplayWarmup = 1000;   // traced per-call replay
constexpr std::size_t kReplayQueries = 2000;
constexpr std::size_t kSampleEvery = 500;     // brute-force sample stride
// Memory is read after a fixed number of served queries, not at the end of
// the run: the memo grows with every query, so an end-of-run reading would
// rise with throughput. serve_churn reads it at the end of its first round,
// when the chain is deepest.
constexpr std::size_t kMemoryProbeQueries = 16000;
constexpr std::uint64_t kCatalogSeed = 42;
constexpr std::uint32_t kNoLink = std::numeric_limits<std::uint32_t>::max();

blocking::StandardBlocker MakeBlocker() {
  return blocking::StandardBlocker(props::kPartNumber, /*prefix_length=*/4);
}

struct World {
  std::vector<core::Item> pool;
  std::vector<core::Item> queries;
  std::vector<std::size_t> gold;  // served-catalog index per query
  // The served catalog as published, kept for the checks and for the full
  // publishes that start each churn round.
  std::vector<core::Item> base;
  blocking::StandardBlocker blocker = MakeBlocker();
  std::unique_ptr<linking::ServeEngine> engine;
  // The installed snapshot; only the writer replaces it.
  const linking::ServeSnapshot* current = nullptr;
  double cache_build_ms = 0.0;  // traced replays
  double item_index_ms = 0.0;
};

std::unique_ptr<linking::ServeSnapshot> FullSnapshot(
    std::vector<core::Item> items, const blocking::StandardBlocker& blocker) {
  return std::make_unique<linking::ServeSnapshot>(
      std::move(items), linking::ItemMatcher(MatcherRules()), kThreshold,
      linking::Linker::Strategy::kBestPerExternal, blocker, kSnapshotThreads);
}

std::unique_ptr<World> SetUp(std::uint64_t seed, bool trace) {
  auto world = std::make_unique<World>();
  datagen::WorkloadConfig config;
  config.seed = kCatalogSeed;
  config.catalog_size = kCatalogSize + kPoolSize;
  auto generated = datagen::GenerateWorkloadCatalog(config, kBuildThreads);
  RL_CHECK(generated.ok()) << generated.status();
  datagen::WorkloadCatalog catalog = std::move(generated).value();
  world->pool.assign(
      std::make_move_iterator(catalog.items.begin() + kCatalogSize),
      std::make_move_iterator(catalog.items.end()));
  catalog.items.resize(kCatalogSize);
  catalog.classes.resize(kCatalogSize);
  catalog.epochs.resize(kCatalogSize);
  catalog.separators.resize(kCatalogSize);

  datagen::QueryStreamConfig stream_config;
  stream_config.seed = seed;
  stream_config.num_queries = kStreamLength;
  stream_config.chooser.distribution = datagen::Distribution::kZipfian;
  // Each provider renders part numbers in a seeded separator and case
  // style. With a handful of providers one seed may lower-case most of the
  // stream and another almost none (F1 swung from 0.36 to 0.93 over five
  // seeds with four providers); 65536 providers keep that mix, and so the
  // workload, the same in every run.
  stream_config.num_providers = 65536;
  stream_config.typo_prob = 0.08;
  stream_config.truncate_prob = 0.05;
  auto stream = datagen::GenerateQueryStream(catalog, stream_config,
                                             kBuildThreads);
  RL_CHECK(stream.ok()) << stream.status();
  world->queries = std::move(stream->queries);
  for (const datagen::GoldLink& link : stream->gold) {
    world->gold.push_back(link.catalog_index);
  }

  if (trace) {
    // The two builds inside the snapshot constructor, replayed apart.
    const linking::ItemMatcher matcher(MatcherRules());
    const Clock::time_point begin = Clock::now();
    linking::FeatureDictionary dict;
    linking::FeatureCache::Build(catalog.items, matcher,
                                 linking::FeatureCache::Side::kLocal, &dict,
                                 kSnapshotThreads);
    const Clock::time_point middle = Clock::now();
    world->blocker.BuildItemIndex(catalog.items);
    world->cache_build_ms = MillisBetween(begin, middle);
    world->item_index_ms = MillisBetween(middle, Clock::now());
  }
  auto snapshot = FullSnapshot(std::move(catalog.items), world->blocker);
  world->current = snapshot.get();
  world->engine = std::make_unique<linking::ServeEngine>();
  world->engine->Publish(std::move(snapshot));
  return world;
}

// The deltas of one churn round, the same in every round: delta d appends
// pool items [d * kDeltaAppended, (d + 1) * kDeltaAppended), which take
// catalog indices kCatalogSize + d * kDeltaAppended onwards, and retires
// kDeltaRetired indices drawn uniformly over the catalog it produces.
std::vector<linking::CatalogDelta> PlanDeltas(const World& w,
                                              std::uint64_t seed) {
  std::vector<linking::CatalogDelta> plan(kDeltasPerRound);
  for (std::size_t d = 0; d < kDeltasPerRound; ++d) {
    plan[d].appended.assign(w.pool.begin() + d * kDeltaAppended,
                            w.pool.begin() + (d + 1) * kDeltaAppended);
    util::Rng rng = util::Rng::ForStream(seed ^ 0x5eedULL, d);
    const std::size_t size = kCatalogSize + (d + 1) * kDeltaAppended;
    for (std::size_t j = 0; j < kDeltaRetired; ++j) {
      plan[d].retired.push_back(rng.UniformUint64(size));
    }
  }
  return plan;
}

struct Answer {
  std::uint32_t query = 0;  // stream index
  std::uint32_t local = kNoLink;
  std::uint32_t generation = 0;
  std::uint32_t links = 0;
  double score = 0.0;
};

struct SessionLog {
  std::vector<double> latency_us;
  std::vector<Answer> answers;
  std::size_t pairs_scored = 0;
  std::size_t pairs_pruned = 0;
  std::uint64_t memo_lookups = 0;  // traced: summed across generations
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_entries = 0;  // lookups - hits of the live memo, read
                                   // at the memory probe
};

// The timings of one delta publish.
struct DeltaRecord {
  double build_ms = 0.0;           // traced split
  double cache_extend_ms = 0.0;
  double index_extend_ms = 0.0;
  double install_ms = 0.0;
  double publish_ms = 0.0;         // whole publish
};

// Stream index of measured ordinal q: the first kClients *
// kWarmupPerSession queries are the warm-up, the rest replay cyclically.
std::size_t StreamIndex(std::size_t q, std::size_t length) {
  const std::size_t warm = kClients * kWarmupPerSession;
  return warm + q % (length - warm);
}

struct Replay {
  // Chain depth of every generation published during the replay, by
  // generation number; -1 for generations the replay did not publish.
  std::vector<int> depth_of;
  std::vector<SessionLog> logs;
  std::vector<DeltaRecord> deltas;
  std::size_t rounds = 0;    // serve_churn
  double seconds = 0.0;      // serving time; between-round publishes excluded
  std::size_t limbo_peak = 0;
  double peak_rss_mb = 0.0;  // at the memory probe
};

void SetDepth(Replay* replay, std::uint64_t generation, int depth) {
  if (replay->depth_of.size() <= generation) {
    replay->depth_of.resize(generation + 1, -1);
  }
  replay->depth_of[generation] = depth;
}

Replay RunReplay(World* w, const std::vector<linking::CatalogDelta>& plan,
                 const Options& options, bool churn) {
  Replay replay;
  SetDepth(&replay, w->engine->current_generation(), 0);
  replay.logs.resize(kClients);
  const std::size_t probe_queries =
      churn ? kRoundQueries : kMemoryProbeQueries;
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::size_t> next_ticket{0};
  std::atomic<std::size_t> served{0};
  // serve_churn's hand-over between sessions and writer. `milestones`
  // counts every kQueriesPerDelta-th query of a round, the round's last
  // included; the session that serves a round's last query stamps
  // `round_end`. Sessions serve a round's tickets once `open_round` reaches
  // it, and stop when `stop` is set.
  std::mutex mutex;
  std::condition_variable writer_wake, sessions_wake;
  std::size_t milestones = 0;
  std::size_t open_round = 0;
  bool stop = false;
  Clock::time_point round_end;
  Clock::time_point start, deadline;
  std::vector<Clock::time_point> finished(kClients);

  auto session_body = [&](std::size_t c) {
    SessionLog& log = replay.logs[c];
    linking::ServeEngine::Session session(w->engine.get());
    std::vector<linking::Link> answer;
    std::uint64_t previous_generation = 0;
    for (std::size_t j = 0; j < kWarmupPerSession; ++j) {
      const std::size_t q = c * kWarmupPerSession + j;
      previous_generation = session.Query(w->queries[q], &answer, q);
    }
    const std::size_t scored_before = session.pairs_scored();
    const std::size_t pruned_before = session.filter_stats().pairs_pruned;
    bool memo_read = false;
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (;;) {
      if (!churn && Clock::now() >= deadline) break;
      const std::size_t ticket = next_ticket.fetch_add(1);
      if (churn) {
        const std::size_t round = ticket * kTicket / kRoundQueries;
        std::unique_lock<std::mutex> lock(mutex);
        sessions_wake.wait(lock, [&] { return open_round >= round || stop; });
        if (open_round < round) break;
      }
      for (std::size_t k = 0; k < kTicket; ++k) {
        const std::size_t q =
            StreamIndex(ticket * kTicket + k, w->queries.size());
        const linking::ScoreMemoStats memo_before =
            session.scratch().memo.stats();
        const Clock::time_point begin = Clock::now();
        const std::uint64_t generation =
            session.Query(w->queries[q], &answer, q);
        const Clock::time_point end = Clock::now();
        log.latency_us.push_back(MillisBetween(begin, end) * 1000.0);
        Answer a;
        a.query = static_cast<std::uint32_t>(q);
        a.generation = static_cast<std::uint32_t>(generation);
        a.links = static_cast<std::uint32_t>(answer.size());
        if (!answer.empty()) {
          a.local = static_cast<std::uint32_t>(answer[0].local_index);
          a.score = answer[0].score;
        }
        log.answers.push_back(a);
        if (options.trace) {
          // The memo restarts on a generation change, so count each
          // query's own lookups and hits.
          const linking::ScoreMemoStats after = session.scratch().memo.stats();
          const bool reset = generation != previous_generation;
          log.memo_lookups +=
              after.lookups - (reset ? 0 : memo_before.lookups);
          log.memo_hits += after.hits - (reset ? 0 : memo_before.hits);
          previous_generation = generation;
        }
        const std::size_t count = served.fetch_add(1) + 1;
        if (count == probe_queries) replay.peak_rss_mb = PeakRssMb();
        if (count >= probe_queries && !memo_read) {
          const linking::ScoreMemoStats memo = session.scratch().memo.stats();
          log.memo_entries = memo.lookups - memo.hits;
          memo_read = true;
        }
        if (churn && count % kQueriesPerDelta == 0) {
          {
            const std::lock_guard<std::mutex> lock(mutex);
            ++milestones;
            if (count % kRoundQueries == 0) round_end = end;
          }
          writer_wake.notify_one();
        }
      }
    }
    finished[c] = Clock::now();
    if (!memo_read) {
      const linking::ScoreMemoStats memo = session.scratch().memo.stats();
      log.memo_entries = memo.lookups - memo.hits;
    }
    log.pairs_scored = session.pairs_scored() - scored_before;
    log.pairs_pruned = session.filter_stats().pairs_pruned - pruned_before;
  };

  auto writer_body = [&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    Clock::time_point round_start = start;
    std::size_t handled = 0;  // milestones acted on
    const auto await_milestone = [&] {
      std::unique_lock<std::mutex> lock(mutex);
      writer_wake.wait(lock, [&] { return milestones > handled; });
      ++handled;
      return round_end;
    };
    for (std::size_t round = 0;; ++round) {
      const linking::ServeSnapshot* current = w->current;
      for (std::size_t d = 0; d < kDeltasPerRound; ++d) {
        await_milestone();
        linking::CatalogDelta delta = plan[d];
        DeltaRecord record;
        const Clock::time_point begin = Clock::now();
        if (options.trace) {
          // ExtendFrom and ExtendItemIndex, the two builds inside
          // BuildDelta, replayed apart on the same base and delta.
          linking::FeatureDictionary overlay(&current->dict());
          linking::FeatureCache::ExtendFrom(
              current->local_features(), delta.appended, current->matcher(),
              linking::FeatureCache::Side::kLocal, &overlay);
          const Clock::time_point middle = Clock::now();
          const std::shared_ptr<const blocking::ItemCandidateIndex> base(
              std::shared_ptr<const void>(), &current->index());
          w->blocker.ExtendItemIndex(base, delta.appended);
          record.cache_extend_ms = MillisBetween(begin, middle);
          record.index_extend_ms = MillisBetween(middle, Clock::now());
        }
        const Clock::time_point t0 = Clock::now();
        auto next = linking::ServeSnapshot::BuildDelta(
            *current, std::move(delta), w->blocker);
        const linking::ServeSnapshot* installed = next.get();
        const Clock::time_point t1 = Clock::now();
        const std::uint64_t generation = w->engine->Publish(std::move(next));
        const Clock::time_point t2 = Clock::now();
        current = installed;
        record.build_ms = MillisBetween(t0, t1);
        record.install_ms = MillisBetween(t1, t2);
        record.publish_ms = MillisBetween(t0, t2);
        SetDepth(&replay, generation, static_cast<int>(d + 1));
        replay.limbo_peak =
            std::max(replay.limbo_peak, w->engine->epoch_stats().limbo);
        replay.deltas.push_back(record);
      }
      w->current = current;
      const Clock::time_point end = await_milestone();
      replay.seconds += MillisBetween(round_start, end) / 1000.0;
      ++replay.rounds;
      if (replay.rounds >= kMinRounds && end >= deadline) break;
      // The next round starts on a fresh full publish; the sessions wait
      // for it and its time is not served time.
      auto full = FullSnapshot(w->base, w->blocker);
      w->current = full.get();
      SetDepth(&replay, w->engine->Publish(std::move(full)), 0);
      const std::lock_guard<std::mutex> lock(mutex);
      open_round = round + 1;
      round_start = Clock::now();
      sessions_wake.notify_all();
    }
    const std::lock_guard<std::mutex> lock(mutex);
    stop = true;
    sessions_wake.notify_all();
  };

  std::vector<std::thread> sessions;
  for (std::size_t c = 0; c < kClients; ++c) {
    sessions.emplace_back(session_body, c);
  }
  std::thread writer;
  if (churn) writer = std::thread(writer_body);
  while (ready.load() < kClients) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : sessions) t.join();
  if (writer.joinable()) writer.join();
  if (!churn) {
    const Clock::time_point last_done =
        *std::max_element(finished.begin(), finished.end());
    replay.seconds = MillisBetween(start, last_done) / 1000.0;
  }
  if (served.load() < probe_queries) replay.peak_rss_mb = PeakRssMb();
  return replay;
}

// The catalog as the writer changed it: which items a generation holds
// and which of them it has retired.
struct CatalogModel {
  std::vector<int> depth_of;                // from the replay
  std::vector<std::size_t> retired_depth;  // by item; 0 = never retired
  bool Served(std::uint64_t generation) const {
    return generation < depth_of.size() && depth_of[generation] >= 0;
  }
  bool Live(std::size_t item, std::uint64_t generation) const {
    if (!Served(generation)) return false;
    const std::size_t depth = static_cast<std::size_t>(depth_of[generation]);
    return item < kCatalogSize + depth * kDeltaAppended &&
           (retired_depth[item] == 0 || depth < retired_depth[item]);
  }
};

CatalogModel ModelCatalog(const Replay& replay,
                          const std::vector<linking::CatalogDelta>& plan,
                          bool churn) {
  CatalogModel m;
  m.depth_of = replay.depth_of;
  m.retired_depth.assign(
      kCatalogSize + (churn ? kDeltasPerRound * kDeltaAppended : 0), 0);
  if (!churn) return m;
  for (std::size_t d = 0; d < plan.size(); ++d) {
    for (const std::size_t i : plan[d].retired) {
      if (m.retired_depth[i] == 0) m.retired_depth[i] = d + 1;
    }
  }
  return m;
}

// Full snapshot builds of the served catalog: `pipeline_s` on the serve
// workloads. Each build runs with no other snapshot under construction and
// is destroyed, untimed, before the next; copying the catalog is not timed
// either. Installing a built snapshot is one pointer exchange, so the build
// is the cost of a full republish.
void BuildSnapshots(const std::vector<core::Item>& base,
                    std::vector<double>* seconds) {
  const blocking::StandardBlocker blocker = MakeBlocker();
  for (int i = 0; i < kFullBuilds / 2; ++i) {
    std::vector<core::Item> catalog = base;
    const Clock::time_point begin = Clock::now();
    auto snapshot = FullSnapshot(std::move(catalog), blocker);
    seconds->push_back(MillisBetween(begin, Clock::now()) / 1000.0);
  }
}

}  // namespace

void RunServe(const Options& options, bool churn, Report* report) {
  // The first set-up pays for first-touch page faults and allocator growth
  // that later ones do not; it is run but not counted. The first window of
  // full builds runs with no snapshot live, so that it does not raise the
  // peak memory the replay reports.
  std::unique_ptr<World> world = SetUp(options.seed, options.trace);
  std::vector<core::Item> base;
  base.reserve(kCatalogSize);
  for (std::size_t i = 0; i < kCatalogSize; ++i) {
    base.push_back(world->current->item(i));
  }
  world.reset();
  std::vector<double> setup_s, build_s;
  const auto set_up = [&] {
    world.reset();
    const Clock::time_point begin = Clock::now();
    world = SetUp(options.seed, options.trace);
    setup_s.push_back(MillisBetween(begin, Clock::now()) / 1000.0);
  };
  BuildSnapshots(base, &build_s);
  for (int i = 0; i < kSetups / 2; ++i) set_up();
  World& w = *world;
  w.base = std::move(base);
  const std::vector<linking::CatalogDelta> plan = PlanDeltas(w, options.seed);
  const Replay replay = RunReplay(&w, plan, options, churn);

  // ---- Checks against the writer's model (not timed).
  const CatalogModel model = ModelCatalog(replay, plan, churn);
  std::size_t retired = 0;
  for (const std::size_t d : model.retired_depth) retired += d != 0 ? 1 : 0;
  if (w.current->num_items() != model.retired_depth.size() ||
      w.current->num_retired() != retired) {
    report->Fail("final snapshot differs from the delta model");
  }
  const auto item = [&](std::size_t i) -> const core::Item& {
    return i < kCatalogSize ? w.base[i] : w.pool[i - kCatalogSize];
  };
  std::unordered_map<std::string, std::vector<std::uint32_t>> blocks;
  for (std::size_t i = 0; i < model.retired_depth.size(); ++i) {
    std::string key = BlockKey(item(i));
    if (!key.empty()) blocks[key].push_back(static_cast<std::uint32_t>(i));
  }
  const linking::ItemMatcher matcher(MatcherRules());
  Quality quality;
  std::vector<double> latency;
  std::vector<bool> generation_sampled(model.depth_of.size(), false);
  std::size_t served = 0, bad = 0, scans = 0;
  std::size_t pairs_scored = 0, pairs_pruned = 0;
  std::uint64_t memo_lookups = 0, memo_hits = 0, memo_entries = 0;
  for (const SessionLog& log : replay.logs) {
    latency.insert(latency.end(), log.latency_us.begin(), log.latency_us.end());
    served += log.answers.size();
    pairs_scored += log.pairs_scored;
    pairs_pruned += log.pairs_pruned;
    memo_lookups += log.memo_lookups;
    memo_hits += log.memo_hits;
    memo_entries = std::max(memo_entries, log.memo_entries);
    for (std::size_t k = 0; k < log.answers.size(); ++k) {
      const Answer& a = log.answers[k];
      const core::Item& query = w.queries[a.query];
      const std::string key = BlockKey(query);
      bool ok = a.links <= 1 && model.Served(a.generation);
      if (ok && a.local != kNoLink) {
        ok = model.Live(a.local, a.generation) && !key.empty() &&
             BlockKey(item(a.local)) == key && a.score >= kThreshold &&
             matcher.Score(query, item(a.local)) == a.score;
      }
      const std::size_t gold = w.gold[a.query];
      if (ok && model.Live(gold, a.generation)) {
        ++quality.gold;
        if (a.local != kNoLink) ++quality.emitted;
        if (a.local == gold) ++quality.correct;
      }
      const bool first_of_generation = ok && !generation_sampled[a.generation];
      if (ok && (a.query % kSampleEvery == 0 || first_of_generation)) {
        generation_sampled[a.generation] = true;
        ++scans;
        bool found = false;
        std::uint32_t best = 0;
        double best_score = 0.0;
        const auto block = blocks.find(key);
        if (block != blocks.end()) {
          for (const std::uint32_t i : block->second) {
            if (!model.Live(i, a.generation)) continue;
            const double score = matcher.Score(query, item(i));
            if (score >= kThreshold && (!found || score > best_score)) {
              found = true;
              best = i;
              best_score = score;
            }
          }
        }
        ok = found == (a.local != kNoLink) &&
             (!found || (best == a.local && best_score == a.score));
      }
      if (!ok) ++bad;
    }
  }
  report->Count(true, served - bad);
  report->Count(false, bad);
  report->Count(true, replay.deltas.size());
  if (churn && (served != replay.rounds * kRoundQueries ||
                replay.deltas.size() != replay.rounds * kDeltasPerRound)) {
    report->Fail("the run is not whole rounds of queries and deltas");
  }
  report->Note(std::string(churn ? "serve_churn" : "serve_zipf") + ": " +
               std::to_string(served) + " queries, " +
               std::to_string(replay.rounds) + " rounds, " +
               std::to_string(replay.deltas.size()) + " deltas, " +
               std::to_string(scans) + " brute-force scans, qps " +
               std::to_string(static_cast<double>(served) / replay.seconds));

  std::vector<double> publish_ms, build_ms, cache_extend_ms, index_extend_ms,
      install_ms;
  for (const DeltaRecord& d : replay.deltas) {
    publish_ms.push_back(d.publish_ms);
    build_ms.push_back(d.build_ms);
    cache_extend_ms.push_back(d.cache_extend_ms);
    index_extend_ms.push_back(d.index_extend_ms);
    install_ms.push_back(d.install_ms);
  }

  if (!churn && served < kMemoryProbeQueries) {
    report->Note("fewer than " + std::to_string(kMemoryProbeQueries) +
                 " queries served: memory read at the end of the replay");
  }
  BuildSnapshots(w.base, &build_s);
  if (!options.trace) {
    std::string builds;
    for (const double s : build_s) builds += ' ' + std::to_string(s);
    report->Note("full snapshot build seconds" + builds);
    const LatencySummary summary = SummarizeLatency(latency);
    if (!summary.ok) report->Fail("too few query samples for p99");
    const double qps = static_cast<double>(served) / replay.seconds;
    const double f1 = quality.f1();
    // The second window of set-ups replaces the world the replay ran on.
    for (int i = 0; i < kSetups / 2; ++i) set_up();
    std::string setups;
    for (const double s : setup_s) setups += ' ' + std::to_string(s);
    report->Note("set-up seconds" + setups);
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("pipeline_s", Median(build_s), "s");
    report->Set("link_f1", f1, "ratio");
    report->Set("peak_rss_mb", replay.peak_rss_mb, "MB");
    report->Set("qps", qps, "1/s");
    report->Set("query_p50_us", summary.p50_us, "us");
    report->Set("query_p99_us", summary.p99_us, "us");
    return;
  }

  // Per-call replay of the query path on the final snapshot.
  const linking::ServeSnapshot& last = *w.current;
  linking::FeatureDictionary overlay(&last.dict());
  linking::FeatureCache query_features;
  linking::QueryScratch scratch;
  linking::FilterStats filters;
  std::uint64_t kernels = 0;
  std::size_t scored = 0;
  std::string key_scratch;
  std::vector<linking::Link> links;
  std::vector<double> featurize, probe, tombstone, cascade, run_len;
  for (std::size_t j = 0; j < kReplayWarmup + kReplayQueries; ++j) {
    const core::Item& query = w.queries[j];
    const Clock::time_point t0 = Clock::now();
    query_features.AssignSingle(query, last.matcher(),
                                linking::FeatureCache::Side::kExternal,
                                &overlay);
    const Clock::time_point t1 = Clock::now();
    last.index().CandidatesOfItem(query, &key_scratch, &scratch.run);
    const Clock::time_point t2 = Clock::now();
    last.FilterLiveCandidates(&scratch.run);
    const Clock::time_point t3 = Clock::now();
    links.clear();
    last.linker().QueryRun(query_features, 0, last.local_features(), &scratch,
                           &filters, &kernels, &scored, &links);
    const Clock::time_point t4 = Clock::now();
    if (j < kReplayWarmup) continue;
    featurize.push_back(MillisBetween(t0, t1) * 1000.0);
    probe.push_back(MillisBetween(t1, t2) * 1000.0);
    tombstone.push_back(MillisBetween(t2, t3) * 1000.0);
    cascade.push_back(MillisBetween(t3, t4) * 1000.0);
    run_len.push_back(static_cast<double>(scratch.run.size()));
  }
  double run_p50 = 0.0, run_p99 = 0.0;
  if (!TailQuantile(run_len, 0.5, &run_p50) ||
      !TailQuantile(run_len, 0.99, &run_p99)) {
    report->Fail("too few replayed queries for run-length percentiles");
  }
  const util::EpochStats epochs = w.engine->epoch_stats();
  const double per_query = served > 0 ? 1.0 / static_cast<double>(served) : 0.0;
  report->Note("traced replay qps " +
               std::to_string(static_cast<double>(served) / replay.seconds));
  report->Set("serve.featurize_us", Median(featurize), "us");
  report->Set("serve.probe_us", Median(probe), "us");
  report->Set("serve.tombstone_us", Median(tombstone), "us");
  report->Set("serve.cascade_score_us", Median(cascade), "us");
  report->Set("serve.run_len_p50", run_p50, "count");
  report->Set("serve.run_len_p99", run_p99, "count");
  report->Set("serve.pairs_scored_per_query",
              static_cast<double>(pairs_scored) * per_query, "count");
  report->Set("serve.pairs_pruned_per_query",
              static_cast<double>(pairs_pruned) * per_query, "count");
  report->Set("serve.memo_hit_rate",
              memo_lookups > 0 ? static_cast<double>(memo_hits) /
                                     static_cast<double>(memo_lookups)
                               : 0.0,
              "ratio");
  report->Set("serve.memo_entries", static_cast<double>(memo_entries), "count");
  report->Set("serve.snapshot_build_ms",
              Median(build_s) * 1000.0, "ms");
  report->Set("serve.cache_build_ms", w.cache_build_ms, "ms");
  report->Set("serve.item_index_ms", w.item_index_ms, "ms");
  if (!churn) return;
  // A percentile is reported only when its sample supports it (40 samples,
  // ten beyond the rank); kMinRounds rounds always give enough publishes.
  double publish_p50 = 0.0, publish_p90 = 0.0;
  if (!TailQuantile(publish_ms, 0.5, &publish_p50) ||
      !TailQuantile(publish_ms, 0.9, &publish_p90)) {
    report->Fail("too few delta publishes for the publish percentiles");
  }
  report->Set("serve.delta_publish_p50_ms", publish_p50, "ms");
  report->Set("serve.delta_publish_p90_ms", publish_p90, "ms");
  report->Set("serve.delta_build_ms", Median(build_ms), "ms");
  report->Set("serve.cache_extend_ms", Median(cache_extend_ms), "ms");
  report->Set("serve.index_extend_ms", Median(index_extend_ms), "ms");
  report->Set("serve.install_ms", Median(install_ms), "ms");
  report->Set("serve.chain_depth",
              static_cast<double>(model.depth_of[w.engine->current_generation()]),
              "count");
  report->Set("epoch.limbo_peak", static_cast<double>(replay.limbo_peak),
              "count");
  report->Set("epoch.pin_retries", static_cast<double>(epochs.pin_retries),
              "count");
}

}  // namespace perfbench
