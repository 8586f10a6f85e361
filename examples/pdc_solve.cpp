// pdc_solve — command-line D1LC solver and coloring server.
//
//   pdc_solve --graph path.col            # DIMACS or edge list
//   pdc_solve --instance path.d1lc        # edge list + palette lines
//   pdc_solve --gen gnp --n 2000 --p 0.01 # built-in generators
//   pdc_solve --gen gnp --n 50000 --serve # coloring-as-a-service REPL
//
// Flags: --mode det|rand, --seed-bits K, --phi X, --delta X,
//        --passes K, --out coloring.txt, --detail
// Serve: --full-fraction X, --cache N, --max-pending N
//
// One-shot mode prints the solve summary (validity, colors, rounds,
// space, attribution); --detail adds the per-procedure derandomization
// tables. --serve solves once, then reads one command per stdin line:
//
//   query V | neighbors V | colors-used | validate | stats
//   insert U V | delete U V | add-vertex | del-vertex V   (batched)
//   stress [readers [reads-per-reader [mutations]]]
//   flush | quit
//
// Mutations coalesce in a service::Batcher and apply as one batch on
// flush / max-pending / any query; the exit code reflects a final
// validate. `stress` spins up reader threads that hammer the lock-free
// snapshot path (each with its own Batcher session) while the main
// thread applies delta batches, then reports whether every concurrent
// read observed a proper coloring.

#include <atomic>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <latch>
#include <random>
#include <sstream>
#include <thread>

#include "pdc/d1lc/report.hpp"
#include "pdc/d1lc/solver.hpp"
#include "pdc/graph/instance_cli.hpp"
#include "pdc/obs/cli.hpp"
#include "pdc/service/batcher.hpp"
#include "pdc/service/service.hpp"
#include "pdc/util/cli.hpp"

using namespace pdc;

namespace {

d1lc::SolverOptions make_solver_options(const CliArgs& args) {
  d1lc::SolverOptions opt;
  opt.mode = args.get("mode", "det") == "rand" ? d1lc::Mode::kRandomized
                                               : d1lc::Mode::kDeterministic;
  opt.l10.seed_bits = static_cast<int>(args.get_int("seed-bits", 6));
  opt.phi = args.get_double("phi", opt.phi);
  opt.delta = args.get_double("delta", opt.delta);
  opt.middle_passes = static_cast<int>(args.get_int("passes", 2));
  opt.seed = args.get_int("seed", 1);
  return opt;
}

/// Reads the next whitespace-separated token of a REPL command into
/// `out`, leaving `out` at its default when the command has no more
/// tokens. The whole token must be an in-range number: trailing junk
/// or an overflow is a PDC_CHECK error rather than a zero or saturated
/// value.
template <typename T>
void read_optional_field(std::istream& is, T& out) {
  std::string tok;
  if (!(is >> tok)) return;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  PDC_CHECK_MSG(ec == std::errc() && ptr == end, "malformed number: " << tok);
}

void print_mutation_result(const service::MutationResult& r) {
  std::cout << "applied request=" << r.request_id << " changed=" << r.applied
            << " damaged=" << r.damaged << " full=" << (r.full_resolve ? 1 : 0)
            << " cache=" << (r.cache_hit ? 1 : 0)
            << " valid=" << (r.valid ? 1 : 0);
  if (!r.new_vertices.empty()) {
    std::cout << " new-vertices=";
    for (std::size_t i = 0; i < r.new_vertices.size(); ++i)
      std::cout << (i ? "," : "") << r.new_vertices[i];
  }
  std::cout << "\n";
}

void print_stats(const service::ColoringService& svc) {
  const service::ServiceStats& s = svc.stats();
  std::cout << "stat requests " << s.requests << "\n"
            << "stat queries " << s.queries << "\n"
            << "stat batches " << s.batches << "\n"
            << "stat mutations " << s.mutations << "\n"
            << "stat incremental_recolors " << s.incremental_recolors << "\n"
            << "stat full_resolves " << s.full_resolves << "\n"
            << "stat damaged_nodes " << s.damaged_nodes << "\n"
            << "stat recolored_nodes " << s.recolored_nodes << "\n"
            << "stat cache_hits " << s.cache.hits << "\n"
            << "stat cache_misses " << s.cache.misses << "\n"
            << "stat cache_rejected_hits " << s.cache.rejected_hits << "\n"
            << "stat snapshot_publishes " << s.snapshot_publishes << "\n"
            << "stat snapshot_chunks_rebuilt " << s.snapshot_chunks_rebuilt
            << "\n"
            << "stat snapshot_chunks_reused " << s.snapshot_chunks_reused
            << "\n"
            << "stat snapshot_publish_bytes " << s.snapshot_publish_bytes
            << "\n"
            << "stat snapshot_epoch " << svc.snapshot()->epoch << "\n"
            << "stat compactions " << s.compactions << "\n"
            << "stat live_vertices " << svc.graph().num_alive() << "\n"
            << "stat live_edges " << svc.graph().num_edges() << "\n";
}

/// Upper bound on `stress` reader threads: enough to oversubscribe any
/// host this runs on, few enough that a typo cannot exhaust the OS.
constexpr int kMaxStressReaders = 64;

/// Multi-client stress: `readers` threads read snapshots through their
/// own sessions (ReadMode::kSnapshot — no forced flushes) and check
/// properness on every sampled neighborhood, while the caller's thread
/// applies `mutations` random edge inserts through the default session,
/// starting once every reader has taken its first snapshot.
/// Prints one greppable summary line; ok=1 means no reader ever saw a
/// torn or improper coloring, overlap=1 that the readers saw more than
/// one epoch, i.e. read on both sides of at least one batch.
void run_stress(service::Batcher& front, int readers,
                std::int64_t reads_per_reader, int mutations) {
  using service::ReadMode;
  PDC_CHECK(readers >= 0 && readers <= kMaxStressReaders);
  PDC_CHECK(reads_per_reader >= 0);
  std::atomic<std::uint64_t> reads{0}, improper{0}, errors{0};
  std::atomic<std::uint64_t> epoch_lo{~std::uint64_t{0}}, epoch_hi{0};

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(readers));
  // The mutations start only once every reader holds its first
  // snapshot; otherwise the writer can be done before any reader thread
  // gets a core. A reader can still finish before the writer wakes, so
  // the overlap is reported (overlap=), not assumed.
  std::latch readers_started(readers);
  for (int t = 0; t < readers; ++t) {
    pool.emplace_back([&front, &reads, &improper, &errors, &epoch_lo,
                       &epoch_hi, &readers_started, reads_per_reader, t]() {
      auto session = front.open_session();
      std::mt19937_64 rng(0x5eed + static_cast<std::uint64_t>(t));
      if (reads_per_reader == 0) readers_started.count_down();
      for (std::int64_t i = 0; i < reads_per_reader; ++i) {
        auto snap = session.read_snapshot(ReadMode::kSnapshot);
        if (i == 0) readers_started.count_down();
        for (auto lo = epoch_lo.load();
             snap->epoch < lo && !epoch_lo.compare_exchange_weak(lo, snap->epoch);) {
        }
        for (auto hi = epoch_hi.load();
             snap->epoch > hi && !epoch_hi.compare_exchange_weak(hi, snap->epoch);) {
        }
        const NodeId v = static_cast<NodeId>(rng() % snap->capacity);
        if (snap->alive(v)) {
          const Color c = snap->color(v);
          bool bad = c == kNoColor;
          for (NodeId u : snap->neighbors(v)) bad |= snap->color(u) == c;
          if (bad) ++improper;
          if ((i & 63u) == 0) {
            // Every 64th read goes through the metered query path so
            // the stress also exercises spans/metrics publication.
            try {
              (void)session.query_color(v, ReadMode::kSnapshot);
            } catch (const check_error&) {
              ++errors;  // raced a deletion between snapshots — benign
            }
          }
        }
        ++reads;
      }
    });
  }

  readers_started.wait();
  service::ColoringService& svc = front.service();
  const NodeId cap = svc.graph().capacity();
  std::mt19937_64 rng(0xc0105);
  for (int k = 0; k < mutations; ++k) {
    const NodeId u = static_cast<NodeId>(rng() % cap);
    const NodeId v = static_cast<NodeId>(rng() % cap);
    if (u == v || !svc.alive(u) || !svc.alive(v)) continue;
    front.enqueue(service::Mutation::insert_edge(u, v));
    if ((k & 3) == 0) front.flush();
  }
  front.flush();
  for (auto& th : pool) th.join();

  std::cout << "stress readers=" << readers << " reads=" << reads.load()
            << " improper=" << improper.load() << " errors=" << errors.load()
            << " epoch_lo=" << epoch_lo.load()
            << " epoch_hi=" << epoch_hi.load()
            << " overlap=" << (epoch_hi.load() > epoch_lo.load() ? 1 : 0)
            << " ok=" << (improper.load() == 0 ? 1 : 0) << "\n";
}

int run_serve(const CliArgs& args, const D1lcInstance& inst) {
  service::ServiceConfig cfg;
  cfg.solver = make_solver_options(args);
  cfg.full_resolve_fraction = args.get_double("full-fraction", 0.25);
  cfg.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 1024));
  service::ColoringService svc(inst, cfg);
  service::Batcher front(
      svc, static_cast<std::size_t>(args.get_int("max-pending", 256)));
  std::cout << "serving n=" << svc.graph().num_alive()
            << " m=" << svc.graph().num_edges() << "\n";

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    try {
      if (cmd == "query") {
        NodeId v = 0;
        is >> v;
        std::cout << "color " << v << " " << front.query_color(v) << "\n";
      } else if (cmd == "neighbors") {
        NodeId v = 0;
        is >> v;
        std::cout << "neighborhood";
        for (auto [u, c] : front.query_neighborhood(v))
          std::cout << " " << u << ":" << c;
        std::cout << "\n";
      } else if (cmd == "colors-used") {
        std::cout << "colors-used " << front.query_colors_used() << "\n";
      } else if (cmd == "validate") {
        std::cout << "valid " << (front.query_validate() ? 1 : 0) << "\n";
      } else if (cmd == "stats") {
        front.flush();
        print_stats(svc);
      } else if (cmd == "insert" || cmd == "delete") {
        NodeId u = 0, v = 0;
        is >> u >> v;
        auto r = front.enqueue(cmd == "insert"
                                   ? service::Mutation::insert_edge(u, v)
                                   : service::Mutation::delete_edge(u, v));
        if (r) print_mutation_result(*r);
        else std::cout << "queued " << front.pending() << "\n";
      } else if (cmd == "add-vertex") {
        auto r = front.enqueue(service::Mutation::insert_vertex());
        if (r) print_mutation_result(*r);
        else std::cout << "queued " << front.pending() << "\n";
      } else if (cmd == "del-vertex") {
        NodeId v = 0;
        is >> v;
        auto r = front.enqueue(service::Mutation::delete_vertex(v));
        if (r) print_mutation_result(*r);
        else std::cout << "queued " << front.pending() << "\n";
      } else if (cmd == "stress") {
        int readers = 4;
        std::int64_t per = 10000;
        int muts = 32;
        read_optional_field(is, readers);
        read_optional_field(is, per);
        read_optional_field(is, muts);
        run_stress(front, readers, per, muts);
      } else if (cmd == "flush") {
        auto r = front.flush();
        if (r) print_mutation_result(*r);
        else std::cout << "empty\n";
      } else {
        std::cout << "error: unknown command '" << cmd << "'\n";
      }
    } catch (const check_error& e) {
      // A bad request (dead id, self-loop, ...) fails THAT command; the
      // service and the session keep going.
      std::cout << "error: " << e.what() << "\n";
    }
  }

  const bool ok = front.query_validate();
  std::cout << "final valid " << (ok ? 1 : 0) << "\n";
  print_stats(svc);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: pdc_solve [input flags] [--serve]\n"
              << io::cli_graph_help()
              << "  --mode det|rand   (default det)\n"
                 "  --seed-bits K     PRG seed length (default 6)\n"
                 "  --phi X --delta X --passes K\n"
                 "  --out FILE        write 'node color' lines\n"
                 "  --detail          per-procedure tables\n"
                 "  --serve           REPL server on stdin (query/insert/\n"
                 "                    delete/add-vertex/del-vertex/flush/\n"
                 "                    stats/validate/stress/quit)\n"
                 "  --full-fraction X --cache N --max-pending N   serve knobs\n"
              << obs::CliSession::help();
    return 0;
  }
  obs::CliSession obs_session(args);
  D1lcInstance inst = io::make_cli_instance(args);

  if (args.has("serve")) {
    const int rc = run_serve(args, inst);
    obs_session.flush();
    return rc;
  }

  d1lc::SolverOptions opt = make_solver_options(args);
  d1lc::SolveResult result = d1lc::solve_d1lc(inst, opt);
  if (obs_session.metrics()) result.ledger.publish(obs::Metrics::global());
  d1lc::print_summary(std::cout, inst, result);
  if (args.has("detail")) d1lc::print_detail(std::cout, result);
  obs_session.flush();

  if (args.has("out")) {
    std::ofstream f(args.get("out", ""));
    for (NodeId v = 0; v < inst.graph.num_nodes(); ++v)
      f << v << " " << result.coloring[v] << "\n";
  }
  return result.valid ? 0 : 1;
}
