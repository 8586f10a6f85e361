// Tests for pdc::obs: span nesting and cross-thread merge, the phase
// stack that keys metrics, counter/real/gauge absorb semantics, the
// disabled-mode no-allocation guarantee, Chrome-trace JSON structure,
// and the headline accounting contract — metrics published by
// engine::search() and Ledger::publish() must equal the SearchStats /
// Lemma10Report / Ledger numbers the harnesses already trust.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pdc/d1lc/solver.hpp"
#include "pdc/d1lc/trial_oracle.hpp"
#include "pdc/derand/coloring_state.hpp"
#include "pdc/derand/lemma10.hpp"
#include "pdc/engine/search.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/hknt/procedures.hpp"
#include "pdc/mpc/cluster.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/util/bench_json.hpp"
#include "pdc/util/hashing.hpp"

// Global allocation counter for the disabled-mode no-allocation test.
// Default operator new[] forwards here, so this covers both forms.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pdc::obs {
namespace {

/// Every obs test starts from a clean slate: collection off, no spans,
/// empty global registry.
struct ObsTest : ::testing::Test {
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    set_tracing(false);
    set_metrics(false);
    clear_trace();
    Metrics::global().clear();
  }
};

const SpanRecord* find(const std::vector<SpanRecord>& recs,
                       const std::string& name) {
  for (const auto& r : recs)
    if (r.name == name) return &r;
  return nullptr;
}

using ObsSpans = ObsTest;

TEST_F(ObsSpans, NestingIsPositionalOnOneThread) {
  set_tracing(true);
  {
    Span outer("outer");
    outer.tag("route", "prefix-walk");
    outer.tag_u64("items", 17);
    {
      Span inner("inner");
      volatile std::uint64_t sink = 0;
      for (std::uint64_t i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  auto recs = trace_snapshot();
  const SpanRecord* outer = find(recs, "outer");
  const SpanRecord* inner = find(recs, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  // Chrome renders parent/child by interval containment.
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us,
            outer->start_us + outer->dur_us);
  ASSERT_EQ(outer->args.size(), 2u);
  EXPECT_EQ(outer->args[0].first, "route");
  EXPECT_EQ(outer->args[0].second, "prefix-walk");
  EXPECT_EQ(outer->args[1].second, "17");
}

TEST_F(ObsSpans, CrossThreadSpansMergeIntoOneSnapshot) {
  set_tracing(true);
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([i] {
      Span span("worker");
      span.tag_u64("index", static_cast<std::uint64_t>(i));
    });
  }
  for (auto& w : workers) w.join();
  {
    PDC_SPAN("coordinator");
  }
  auto recs = trace_snapshot();
  std::set<std::uint32_t> tids;
  int workers_seen = 0;
  for (const auto& r : recs) {
    if (r.name == "worker") {
      ++workers_seen;
      tids.insert(r.tid);
    }
  }
  EXPECT_EQ(workers_seen, 4);
  EXPECT_EQ(tids.size(), 4u);  // one buffer per thread, all merged
  EXPECT_NE(find(recs, "coordinator"), nullptr);
}

TEST_F(ObsSpans, PhaseStackTracksInnermostPhase) {
  set_metrics(true);  // phase stack runs whenever collection is active
  EXPECT_STREQ(current_phase(), "");
  {
    PDC_SPAN_PHASE("solve");
    EXPECT_STREQ(current_phase(), "solve");
    {
      PDC_SPAN("scoped-not-a-phase");
      EXPECT_STREQ(current_phase(), "solve");
      PDC_SPAN_PHASE("partition");
      EXPECT_STREQ(current_phase(), "partition");
    }
    EXPECT_STREQ(current_phase(), "solve");
  }
  EXPECT_STREQ(current_phase(), "");
  // Metrics-only mode maintains phases without recording spans.
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(ObsSpans, DisabledModeDoesNotAllocateOrRecord) {
  // Warm the thread's buffer registration so the measured loop is the
  // steady-state disabled path.
  set_tracing(true);
  { PDC_SPAN("warmup"); }
  set_tracing(false);
  clear_trace();

  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    Span span("disabled");
    span.tag("key", "value");
    span.tag_u64("n", 42);
    PDC_SPAN_PHASE("also-disabled");
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(ObsSpans, ChromeTraceJsonIsStructurallyValid) {
  set_tracing(true);
  {
    PDC_SPAN_PHASE("phase \"quoted\\name");  // exercise escaping
    Span span("child");
    span.tag("k", "v\nw");
  }
  const std::string path = ::testing::TempDir() + "pdc_obs_trace.json";
  write_chrome_trace(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  EXPECT_EQ(text.rfind("{\"traceEvents\":", 0), 0u);
  EXPECT_NE(text.find("\"child\""), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\\name"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);

  // Structural pass: braces/brackets balance outside string literals,
  // and strings contain no raw control characters.
  int depth = 0;
  bool in_string = false, escaped = false, bad = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      else if (static_cast<unsigned char>(c) < 0x20) bad = true;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    if (depth < 0) bad = true;
  }
  EXPECT_FALSE(bad);
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  std::remove(path.c_str());
}

using ObsMetrics = ObsTest;

TEST_F(ObsMetrics, CounterRealGaugeAbsorbSemantics) {
  Metrics a, b;
  const Labels solve{.phase = "solve"};
  const Labels part{.phase = "partition"};
  a.add("engine.evaluations", solve, 10);
  a.add_real("engine.wall_ms", solve, 1.5);
  a.gauge_max("engine.batch", solve, 64.0);
  b.add("engine.evaluations", solve, 5);
  b.add("engine.evaluations", part, 7);
  b.add_real("engine.wall_ms", solve, 2.25);
  b.gauge_max("engine.batch", solve, 32.0);

  a.absorb(b);
  EXPECT_EQ(a.counter_total("engine.evaluations"), 22u);  // 10 + 5 + 7
  EXPECT_DOUBLE_EQ(a.real_total("engine.wall_ms"), 3.75);
  auto snap = a.snapshot();
  bool saw_gauge = false;
  for (const auto& e : snap) {
    if (e.name == "engine.batch") {
      saw_gauge = true;
      EXPECT_EQ(e.value.kind, MetricKind::kGauge);
      EXPECT_DOUBLE_EQ(e.value.real, 64.0);  // max, not sum
    }
  }
  EXPECT_TRUE(saw_gauge);
  // Per-label entries stay distinct under the {phase,...} key.
  int eval_entries = 0;
  for (const auto& e : snap)
    if (e.name == "engine.evaluations") ++eval_entries;
  EXPECT_EQ(eval_entries, 2);

  // Self-absorb doubles counters without deadlock or corruption.
  a.absorb(a);
  EXPECT_EQ(a.counter_total("engine.evaluations"), 44u);
}

TEST_F(ObsMetrics, BenchJsonExportIsOneFlatRecordPerEntry) {
  Metrics m;
  m.add("mpc.rounds", {.phase = "low_degree"}, 12);
  m.gauge_max("mpc.peak_local_space", {}, 4096.0);
  util::BenchJson json;
  m.to_bench_json(json);
  const std::string path = ::testing::TempDir() + "pdc_obs_metrics.json";
  json.write(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"metric\": \"mpc.rounds\""), std::string::npos);
  EXPECT_NE(text.find("\"phase\": \"low_degree\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"gauge\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- The accounting contract with the instrumented layers. ----

using ObsEngine = ObsTest;

TEST_F(ObsEngine, SearchPublishesItsSelectionStatsExactly) {
  set_metrics(true);
  Graph g = gen::gnp(400, 0.02, 11);
  D1lcInstance inst = make_degree_plus_one(g);
  EnumerablePairwiseFamily family(0xAB, 6);
  Coloring none(g.num_nodes(), kNoColor);
  std::vector<NodeId> items(g.num_nodes());
  std::iota(items.begin(), items.end(), NodeId{0});
  std::vector<std::uint8_t> active(g.num_nodes(), 1);
  d1lc::AvailLists avail = d1lc::AvailLists::from_instance(inst, none);
  d1lc::TrialOracle oracle(g, items, active, avail, family);

  engine::Selection sel = engine::search(
      oracle, engine::SearchRequest::exhaustive(family.size(),
                                                engine::ExecutionPolicy{}));

  const Metrics& m = Metrics::global();
  EXPECT_EQ(m.counter_total("engine.searches"), 1u);
  EXPECT_EQ(m.counter_total("engine.evaluations"), sel.stats.evaluations);
  EXPECT_EQ(m.counter_total("engine.sweeps"), sel.stats.sweeps);
  EXPECT_DOUBLE_EQ(m.real_total("engine.wall_ms"), sel.stats.wall_ms);
}

TEST_F(ObsEngine, ShardedCountersMatchSelectionAndLedger) {
  set_metrics(true);
  Graph g = gen::gnp(600, 0.015, 13);
  D1lcInstance inst = make_degree_plus_one(g);
  EnumerablePairwiseFamily family(0xCD, 6);
  Coloring none(g.num_nodes(), kNoColor);
  std::vector<NodeId> items(g.num_nodes());
  std::iota(items.begin(), items.end(), NodeId{0});
  std::vector<std::uint8_t> active(g.num_nodes(), 1);
  d1lc::AvailLists avail = d1lc::AvailLists::from_instance(inst, none);
  d1lc::TrialOracle oracle(g, items, active, avail, family);

  mpc::Config cfg;
  cfg.n = g.num_nodes();
  cfg.phi = 0.5;
  cfg.local_space_words = 1 << 14;
  cfg.num_machines = 8;
  mpc::Cluster cluster(cfg);

  engine::ExecutionPolicy policy;
  policy.backend = engine::SearchBackend::kSharded;
  policy.cluster = &cluster;
  const std::uint64_t rounds_before = cluster.ledger().rounds();
  engine::Selection sel = engine::search(
      oracle, engine::SearchRequest::exhaustive(family.size(), policy));
  const std::uint64_t ledger_rounds =
      cluster.ledger().rounds() - rounds_before;

  // The acceptance contract: the published sharded counters equal the
  // Selection's ShardedStats, which equal the rounds the Ledger charged.
  const Metrics& m = Metrics::global();
  EXPECT_GT(sel.stats.sharded.rounds, 0u);
  EXPECT_EQ(m.counter_total("engine.sharded.rounds"),
            sel.stats.sharded.rounds);
  EXPECT_EQ(m.counter_total("engine.sharded.words"), sel.stats.sharded.words);
  EXPECT_EQ(sel.stats.sharded.rounds, ledger_rounds);
}

TEST_F(ObsEngine, Lemma10ReportMatchesPublishedMetrics) {
  set_metrics(true);
  Graph g = gen::gnp(300, 0.02, 5);
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 60, 20, 7);
  derand::ColoringState state(inst.graph, inst.palettes);
  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc proc(
      cfg, hknt::TryRandomColorProc::Ssp::kSlackTwiceDegree, "obs");
  derand::Lemma10Options opt;
  opt.seed_bits = 6;
  opt.strategy = derand::SeedStrategy::kPrefixWalk;
  derand::Lemma10Report rep =
      derand::derandomize_procedure(proc, state, opt, nullptr);

  const Metrics& m = Metrics::global();
  EXPECT_EQ(m.counter_total("engine.searches"), 1u);
  EXPECT_EQ(m.counter_total("engine.evaluations"), rep.search.evaluations);
  EXPECT_EQ(m.counter_total("engine.sweeps"), rep.search.sweeps);
  // The search ran under the lemma10.derandomize phase span, so the
  // published entries carry that phase label.
  bool phase_label_seen = false;
  for (const auto& e : m.snapshot()) {
    if (e.name == "engine.evaluations") {
      EXPECT_EQ(e.labels.phase, "lemma10.derandomize");
      phase_label_seen = true;
    }
  }
  EXPECT_TRUE(phase_label_seen);
}

TEST_F(ObsEngine, LedgerPublishMirrorsRoundAndSpaceAccounting) {
  set_metrics(true);
  Graph g = gen::gnp(500, 0.02, 17);
  D1lcInstance inst = make_degree_plus_one(g);
  d1lc::SolverOptions opt;
  opt.mode = d1lc::Mode::kDeterministic;
  opt.l10.seed_bits = 4;
  opt.middle_passes = 1;
  d1lc::SolveResult r = solve_d1lc(inst, opt);
  ASSERT_TRUE(r.valid);

  Metrics m;  // fresh registry: publish() must be exact on its own
  r.ledger.publish(m);
  EXPECT_EQ(m.counter_total("mpc.rounds"), r.ledger.rounds());
  EXPECT_EQ(m.counter_total("mpc.violations"), r.ledger.violations().size());
  double peak_local = 0.0;
  for (const auto& e : m.snapshot())
    if (e.name == "mpc.peak_local_space") peak_local = e.value.real;
  EXPECT_DOUBLE_EQ(peak_local,
                   static_cast<double>(r.ledger.peak_local_space()));

  // Per-phase entries mirror rounds_by_phase (zero-round phases elided).
  for (const auto& [phase, rounds] : r.ledger.rounds_by_phase()) {
    if (rounds == 0) continue;
    bool found = false;
    for (const auto& e : m.snapshot()) {
      if (e.name == "mpc.rounds" && e.labels.phase == phase) {
        EXPECT_EQ(e.value.count, rounds);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "missing mpc.rounds entry for phase " << phase;
  }
}

TEST_F(ObsEngine, SolverEmitsNestedPhaseSpansForEveryPhase) {
  set_tracing(true);
  Graph g = gen::gnp(500, 0.02, 23);
  D1lcInstance inst = make_degree_plus_one(g);
  d1lc::SolverOptions opt;
  opt.mode = d1lc::Mode::kDeterministic;
  opt.l10.seed_bits = 4;
  opt.middle_passes = 1;
  d1lc::SolveResult r = solve_d1lc(inst, opt);
  ASSERT_TRUE(r.valid);
  // Second solve forced above the straight-to-HKNT degree cap, so the
  // partition phase (skipped on the small default path) also traces.
  d1lc::SolverOptions part_opt = opt;
  part_opt.mid_degree_cap = 4;
  ASSERT_TRUE(solve_d1lc(inst, part_opt).valid);

  auto recs = trace_snapshot();
  std::vector<const SpanRecord*> solves;
  for (const auto& rec : recs)
    if (rec.name == "d1lc.solve") solves.push_back(&rec);
  ASSERT_EQ(solves.size(), 2u);
  // Every phase span nests inside one of the two solve spans.
  for (const char* name :
       {"d1lc.partition", "d1lc.color_middle", "d1lc.low_degree",
        "lemma10.derandomize", "engine.search"}) {
    const SpanRecord* rec = find(recs, name);
    ASSERT_NE(rec, nullptr) << name;
    bool contained = false;
    for (const SpanRecord* solve : solves) {
      contained |= rec->start_us >= solve->start_us &&
                   rec->start_us + rec->dur_us <=
                       solve->start_us + solve->dur_us;
    }
    EXPECT_TRUE(contained) << name;
  }
  // Every engine.search span carries the route/plane/backend tags.
  for (const auto& rec : recs) {
    if (rec.name != "engine.search") continue;
    bool has_route = false;
    for (const auto& [k, v] : rec.args) has_route |= (k == "route");
    EXPECT_TRUE(has_route);
  }
}

}  // namespace
}  // namespace pdc::obs
