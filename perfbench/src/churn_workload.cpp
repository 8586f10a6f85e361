// service-churn: a ColoringService warm-started from a greedy coloring of
// a gnp 50k graph. One closed-loop writer (this thread) applies
// fixed-size mixed batches drawn from the benchmark's mirror of the live
// graph; one closed-loop reader thread issues batched query_colors calls
// on the lock-free path at the same time.
//
// A run is a sequence of identical rounds (set-up + kBatches batches),
// so every run sees the same drift in capacity and colors whatever its
// length.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "pdc/baseline/greedy.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/service/service.hpp"
#include "pdc/util/parallel.hpp"
#include "pdc/util/timer.hpp"

namespace perfbench {

namespace {

using pdc::service::ColoringService;
using pdc::service::Mutation;

constexpr NodeId kBaseNodes = 50000;
constexpr double kEdgeP = 0.0004;
constexpr int kBatches = 1500;         // per round
constexpr int kCheckpointEvery = 100;  // batches between mirror checks
// Batch make-up: 16 mutations, always.
constexpr int kVertexInserts = 2;
constexpr int kEdgesPerNewVertex = 2;
constexpr int kEdgeInserts = 4;
constexpr int kEdgeDeletes = 4;
constexpr int kVertexDeletes = 2;
constexpr int kBatchSize = kVertexInserts * (1 + kEdgesPerNewVertex) +
                           kEdgeInserts + kEdgeDeletes + kVertexDeletes;
// Inserted vertices are deleted (two a batch, at random) only once this
// many are alive; until then the batch deletes edges in their place.
constexpr std::size_t kInsertedPool = 32;
constexpr int kReadBatch = 64;  // ids per query_colors call
// Read latencies kept per run (reservoir sample beyond this).
constexpr std::size_t kReadSamples = std::size_t{1} << 20;

using Edge = std::pair<NodeId, NodeId>;
Edge ordered(NodeId u, NodeId v) { return u < v ? Edge{u, v} : Edge{v, u}; }

/// Draws one batch from the mirror and applies it there in the service's
/// canonical order (vertex inserts, edge inserts, edge deletes, vertex
/// deletes). Base vertices are never deleted; only vertices this writer
/// inserted are.
class BatchSource {
 public:
  BatchSource(MirrorGraph& mirror, std::uint64_t seed)
      : mirror_(mirror), rng_(seed) {}

  std::vector<Mutation> next(std::vector<NodeId>& new_ids) {
    std::vector<Mutation> batch;
    batch.reserve(kBatchSize);
    std::vector<NodeId> dead;
    if (inserted_.size() >= kInsertedPool) {
      for (int k = 0; k < kVertexDeletes; ++k) {
        const std::size_t i = pick(inserted_.size());
        dead.push_back(inserted_[i]);
        inserted_[i] = inserted_.back();
        inserted_.pop_back();
      }
    }
    const int edge_deletes =
        kEdgeDeletes + kVertexDeletes - static_cast<int>(dead.size());

    new_ids.clear();
    for (int k = 0; k < kVertexInserts; ++k)
      new_ids.push_back(mirror_.capacity() + static_cast<NodeId>(k));

    std::vector<Edge> ins, del;
    auto fresh_pair = [&](NodeId u, NodeId v) {
      return u != v && !mirror_.has_edge(u, v) &&
             std::find(ins.begin(), ins.end(), ordered(u, v)) == ins.end();
    };
    for (NodeId nv : new_ids) {
      for (int k = 0; k < kEdgesPerNewVertex;) {
        const NodeId u = static_cast<NodeId>(pick(kBaseNodes));
        if (std::find(ins.begin(), ins.end(), ordered(u, nv)) != ins.end())
          continue;
        ins.push_back(ordered(u, nv));
        ++k;
      }
    }
    for (int k = 0; k < kEdgeInserts;) {
      const NodeId u = static_cast<NodeId>(pick(kBaseNodes));
      const NodeId v = static_cast<NodeId>(pick(kBaseNodes));
      if (!fresh_pair(u, v)) continue;
      ins.push_back(ordered(u, v));
      ++k;
    }
    for (int k = 0; k < edge_deletes;) {
      const auto e = mirror_.edge(pick(mirror_.num_edges()));
      if (std::find(del.begin(), del.end(), e) != del.end()) continue;
      del.push_back(e);
      ++k;
    }

    for (NodeId nv : new_ids) {
      PDC_CHECK(mirror_.add_vertex() == nv);
      batch.push_back(Mutation::insert_vertex());
    }
    for (auto [u, v] : ins) {
      mirror_.add_edge(u, v);
      batch.push_back(Mutation::insert_edge(u, v));
    }
    for (auto [u, v] : del) {
      mirror_.remove_edge(u, v);
      batch.push_back(Mutation::delete_edge(u, v));
    }
    for (NodeId v : dead) {
      mirror_.remove_vertex(v);
      batch.push_back(Mutation::delete_vertex(v));
    }
    inserted_.insert(inserted_.end(), new_ids.begin(), new_ids.end());
    PDC_CHECK(static_cast<int>(batch.size()) == kBatchSize);
    return batch;
  }

 private:
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  MirrorGraph& mirror_;
  std::mt19937_64 rng_;
  std::vector<NodeId> inserted_;  // alive, writer-inserted
};

/// The closed-loop reader: batched query_colors over base vertices (never
/// deleted), timed one call at a time. The writer pauses it at
/// checkpoints, so checks and span folds run while no read is open.
class Reader {
 public:
  Reader(ColoringService& svc, std::uint64_t seed,
         std::vector<std::uint32_t>& samples, std::uint64_t& seen)
      : svc_(svc), rng_(seed), samples_(samples), seen_(seen),
        thread_([this] { loop(); }) {}
  ~Reader() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      gate_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    thread_.join();
  }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Blocks until the reader sits between two reads.
  void pause() {
    std::unique_lock<std::mutex> lock(mu_);
    pause_ = true;
    gate_.store(true, std::memory_order_relaxed);
    cv_.wait(lock, [&] { return paused_; });
  }
  void resume() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pause_ = false;
      gate_.store(false, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void loop() {
    std::uniform_int_distribution<NodeId> base(0, kBaseNodes - 1);
    std::vector<NodeId> ids(kReadBatch);
    for (;;) {
      if (gate_.load(std::memory_order_relaxed)) {
        std::unique_lock<std::mutex> lock(mu_);
        paused_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return !pause_ || stop_; });
        paused_ = false;
        if (stop_) return;
        continue;
      }
      for (NodeId& v : ids) v = base(rng_);
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<Color> colors = svc_.query_colors(ids);
      const auto t1 = std::chrono::steady_clock::now();
      ++attempted_;
      if (colors.size() != ids.size() ||
          std::find(colors.begin(), colors.end(), pdc::kNoColor) != colors.end())
        ++failed_;
      record(static_cast<std::uint32_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    }
  }

  void record(std::uint32_t ns) {
    const std::uint64_t i = seen_++;
    if (i < kReadSamples) {
      samples_[i] = ns;
      return;
    }
    const std::uint64_t slot =
        std::uniform_int_distribution<std::uint64_t>(0, i)(rng_);
    if (slot < kReadSamples) samples_[slot] = ns;
  }

  ColoringService& svc_;
  std::mt19937_64 rng_;
  std::vector<std::uint32_t>& samples_;
  std::uint64_t& seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool pause_ = false;   // guarded by mu_
  bool paused_ = false;  // guarded by mu_
  bool stop_ = false;    // guarded by mu_
  std::atomic<bool> gate_{false};  // fast-path copy of pause_ || stop_
  std::thread thread_;  // last: starts after every member it uses
};

struct Round {
  double gen_ms = 0, greedy_ms = 0, warm_start_ms = 0;
  std::vector<double> batch_ms;
  Values layers;
  std::vector<Color> final_colors;
  std::uint64_t colors_initial = 0;  // the greedy warm start's
  std::uint64_t colors_used = 0;     // after the round's last batch
};

}  // namespace

RunResult run_churn(const RunConfig& cfg) {
  RunResult out;
  // One reader thread plus the writer's OpenMP team (the writer is its
  // primary thread), within the CPUs this process may use.
  const int team = std::max(1, std::min(2, cfg.cpus - 1));
  pdc::set_threads(team);

  // Written in place from the first read on; touched here, so its pages
  // are resident before the memory baseline below is taken.
  std::vector<std::uint32_t> read_ns(kReadSamples, 0);
  std::uint64_t reads_seen = 0;
  std::vector<Round> rounds;
  // The service's memory: peak resident set after round 0 minus the
  // resident set once the input, the mirror and the read buffer exist.
  double rss_base_mb = 0.0, rss_setup_mb = 0.0, rss_service_mb = 0.0;
  SpanLedger run_spans;
  pdc::Timer window;
  while (rounds.size() < 1 || window.seconds() < cfg.seconds) {
    Round rd;
    pdc::Timer t;
    std::optional<pdc::D1lcInstance> generated;
    {
      pdc::obs::Span span("perfbench.graph_gen");
      generated = pdc::make_degree_plus_one(
          pdc::gen::gnp(kBaseNodes, kEdgeP, cfg.seed));
    }
    // The input stays alive for the round, so memory it frees cannot
    // hide part of the service's.
    const pdc::D1lcInstance& inst = *generated;
    rd.gen_ms = t.millis();
    MirrorGraph mirror(inst.graph, kBaseNodes + kBatches * kVertexInserts,
                       inst.graph.num_edges() * 5 / 4);
    if (rounds.empty()) rss_base_mb = rss_mb();
    t.reset();
    pdc::Coloring initial;
    {
      pdc::obs::Span greedy_span("perfbench.greedy");
      initial = pdc::baseline::greedy_d1lc(inst);
    }
    rd.greedy_ms = t.millis();
    t.reset();
    std::unique_ptr<ColoringService> svc;
    {
      pdc::obs::Span warm_span("perfbench.warm_start");
      pdc::service::ServiceConfig scfg;
      scfg.solver.l10.seed_bits = 6;
      svc = std::make_unique<ColoringService>(inst, std::move(initial), scfg);
    }
    rd.warm_start_ms = t.millis();
    rd.colors_initial = count_colors(mirror, *svc->snapshot());
    if (rounds.empty()) rss_setup_mb = peak_rss_mb() - rss_base_mb;
    if (cfg.trace) {
      SpanLedger setup_spans;
      setup_spans.fold();
      run_spans.absorb(setup_spans);
      pdc::obs::Metrics::global().clear();
    }
    const pdc::service::ServiceStats before = svc->stats();

    BatchSource source(mirror, cfg.seed ^ 0x5EEDBA7C4ULL);
    SpanLedger round_spans;
    std::uint64_t batch_failures = 0, checkpoint_failures = 0;
    auto checkpoint = [&](std::uint64_t batches) {
      const auto snap = svc->snapshot();
      std::string err = check_snapshot(mirror, *snap);
      if (err.empty() && snap->batch_seq != batches)
        err = "snapshot batch_seq " + std::to_string(snap->batch_seq) +
              " after " + std::to_string(batches) + " batches";
      ++out.attempted;
      if (!err.empty()) {
        ++checkpoint_failures;
        std::cerr << "perfbench: checkpoint after " << batches
                  << " batches failed: " << err << "\n";
      }
    };
    {
      Reader reader(*svc, cfg.seed ^ (0xC0FFEEULL + rounds.size()), read_ns,
                    reads_seen);
      std::vector<NodeId> new_ids;
      for (int b = 1; b <= kBatches; ++b) {
        const std::vector<Mutation> batch = source.next(new_ids);
        pdc::Timer bt;
        pdc::service::MutationResult res;
        {
          pdc::obs::Span span("perfbench.apply_batch");
          res = svc->apply_batch(batch);
        }
        rd.batch_ms.push_back(bt.millis());
        ++out.attempted;
        if (!res.valid || res.new_vertices != new_ids ||
            res.applied != batch.size()) {
          ++batch_failures;
          std::cerr << "perfbench: batch " << b << " failed: valid=" << res.valid
                    << " applied=" << res.applied << "\n";
        }
        if (b % kCheckpointEvery == 0) {
          reader.pause();
          checkpoint(static_cast<std::uint64_t>(b));
          if (cfg.trace) round_spans.fold();
          reader.resume();
        }
      }
      reader.pause();
      out.attempted += reader.attempted();
      out.failed += reader.failed();
    }
    out.failed += batch_failures + checkpoint_failures;
    if (cfg.trace) round_spans.fold();

    // End of round: state the next round must reproduce exactly.
    const auto snap = svc->snapshot();
    rd.colors_used = count_colors(mirror, *snap);
    if (rd.colors_used != snap->colors_used) {
      out.correct = false;
      out.notes.push_back("service colors_used census " +
                          std::to_string(snap->colors_used) +
                          " != counted " + std::to_string(rd.colors_used));
    }
    rd.final_colors.reserve(snap->capacity);
    for (NodeId v = 0; v < snap->capacity; ++v)
      rd.final_colors.push_back(snap->alive(v) ? snap->color(v) : pdc::kNoColor);
    if (!rounds.empty() && rd.final_colors != rounds.front().final_colors) {
      out.correct = false;
      out.notes.push_back("round " + std::to_string(rounds.size()) +
                          " ended in another coloring than round 0");
    }

    if (cfg.trace) {
      const pdc::service::ServiceStats& after = svc->stats();
      const double batches = static_cast<double>(kBatches);
      Values& v = rd.layers;
      v["service.publish_ms"] =
          round_spans.total_ms("service.snapshot.publish") / batches;
      v["service.recolor_ms"] = round_spans.total_ms("service.recolor") / batches;
      v["service.chunks_rebuilt"] =
          static_cast<double>(after.snapshot_chunks_rebuilt -
                              before.snapshot_chunks_rebuilt) / batches;
      v["service.damaged_nodes"] =
          static_cast<double>(after.damaged_nodes - before.damaged_nodes);
      v["service.cache_hits"] =
          static_cast<double>(after.cache.hits - before.cache.hits);
      v["service.cache_misses"] =
          static_cast<double>(after.cache.misses - before.cache.misses);
      v["service.full_resolves"] =
          static_cast<double>(after.full_resolves - before.full_resolves);
      v["service.compactions"] =
          static_cast<double>(after.compactions - before.compactions);
      v.merge(engine_values());
      for (const char* span :
           {"lemma10.search", "lemma10.commit_replay", "estimator.prepare",
            "hknt.decomposition", "hknt.color_sparse", "hknt.color_dense",
            "d1lc.partition", "d1lc.low_degree"})
        v[std::string(span) + "_ms"] = round_spans.total_ms(span);
      run_spans.absorb(round_spans);
    }
    // Later rounds add allocator fragmentation from rebuilding the whole
    // service in one process, which no user of one service sees.
    if (rounds.empty()) rss_service_mb = peak_rss_mb() - rss_base_mb;
    rounds.push_back(std::move(rd));
    // Service and mirror teardown falls outside every timed region.
  }

  std::vector<double> setup_ms, gen_ms, greedy_ms, warm_ms, batch_ms;
  std::vector<Values> layers;
  for (const Round& rd : rounds) {
    setup_ms.push_back(rd.gen_ms + rd.greedy_ms + rd.warm_start_ms);
    gen_ms.push_back(rd.gen_ms);
    greedy_ms.push_back(rd.greedy_ms);
    warm_ms.push_back(rd.warm_start_ms);
    batch_ms.insert(batch_ms.end(), rd.batch_ms.begin(), rd.batch_ms.end());
    layers.push_back(rd.layers);
  }
  read_ns.resize(std::min<std::uint64_t>(reads_seen, kReadSamples));
  std::vector<double> read_us(read_ns.begin(), read_ns.end());
  for (double& x : read_us) x /= 1000.0;

  out.end_to_end["setup_s"] = median(setup_ms) / 1000.0;
  out.end_to_end["call_p50_ms"] = median(batch_ms);
  out.end_to_end["colors_used"] = static_cast<double>(rounds.front().colors_used);
  out.end_to_end["peak_rss_mb"] = rss_service_mb;

  // First and last third of a round: the drift capacity growth causes.
  std::vector<double> head, tail;
  for (const Round& rd : rounds) {
    head.insert(head.end(), rd.batch_ms.begin(),
                rd.batch_ms.begin() + kBatches / 3);
    tail.insert(tail.end(), rd.batch_ms.end() - kBatches / 3,
                rd.batch_ms.end());
  }
  std::ostringstream note;
  note << "rounds=" << rounds.size() << " batches=" << batch_ms.size()
       << " batch_size=" << kBatchSize << " reads=" << reads_seen
       << " omp_team=" << team << " reader_threads=1"
       << " batch_p50_ms=" << median(batch_ms)
       << " batch_p99_ms=" << quantile(batch_ms, 0.99)
       << " read_p50_us=" << median(read_us)
       << " read_p99_us=" << quantile(read_us, 0.99)
       << " batch_p50_first_third_ms=" << median(head)
       << " batch_p50_last_third_ms=" << median(tail)
       << " colors_initial=" << rounds.front().colors_initial
       << " colors_final=" << rounds.front().colors_used
       << " final_capacity=" << rounds.front().final_colors.size()
       << " rss_before_service_mb=" << rss_base_mb
       << " peak_rss_after_warm_start_mb=" << rss_setup_mb;
  out.notes.push_back(note.str());

  if (cfg.trace) {
    out.per_layer = median_per_key(layers);
    out.per_layer["graph.gen_ms"] = median(gen_ms);
    out.per_layer["baseline.greedy_ms"] = median(greedy_ms);
    out.per_layer["service.warm_start_ms"] = median(warm_ms);
    out.per_layer["obs.spans"] = static_cast<double>(run_spans.spans());
    std::ostringstream table;
    run_spans.print(table);
    out.notes.push_back(table.str());
  }
  return out;
}

}  // namespace perfbench
