// The repository benchmark's driver: runs one named workload from a seed
// for a given number of seconds. See perfbench/README.md for the
// workloads, the metrics and how to read them.
//
//   perfbench_driver --workload churn_prov|churn_plain|query_mix
//                    --seed N --seconds S --trace 0|1
//                    --root <repo checkout> --out <span output dir>
//
// The simulator runs at one thread: the threaded loop's wall-time spread
// on a shared machine is wider than any bound a gate could hold. A run is
// a sequence of whole rounds, each on a fresh cold-converged network, and
// a round's inputs depend only on the seed and the round number.
//
// The last line of standard output is the result object: the end-to-end
// metrics untraced, the per-layer metrics traced.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "oracles.h"
#include "src/common/rand.h"
#include "src/net/scenario.h"
#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/provenance/rewrite.h"
#include "src/query/query_engine.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace net = nettrails::net;
namespace protocols = nettrails::protocols;
namespace query = nettrails::query;
namespace runtime = nettrails::runtime;
using nettrails::Result;
using nettrails::Rng;
using nettrails::Tuple;
using Clock = std::chrono::steady_clock;

// MINCOST with the distance-vector "infinity" lowered to 64, the variant
// the scenario regression matrix runs: it bounds the count-to-infinity
// transient should churn ever partition the topology.
const char* kMincost64 = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2)).
    mc1 cost(@X,Y,C) :- link(@X,Y,C).
    mc2 cost(@X,Z,C) :- link(@X,Y,C1), mincost(@Y,Z,C2), X != Z,
                        C := C1 + C2, C < 64.
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
)";

// --- Workload make-up (documented in README.md) ---------------------------

// Episodes per churn round, by kind, so per-kind shares are fixed whatever
// the run length. Crashes are the slowest kind and a fifth of the episodes,
// so the 90th percentile of episode time falls inside the crash times and
// the median inside the flap times, never on the edge between two kinds.
// A round's 40 episodes all run on one network: enough churn for the
// interned-tuple growth of the engines to show in peak_rss_mb.
constexpr int kFlapsPerRound = 28;
constexpr int kStormsPerRound = 4;
constexpr int kCrashesPerRound = 8;
// Cold convergences per churn round, so that a run that fits only a few
// churn rounds still has several converge_ms samples. The last network of a
// round takes its episodes; the others are discarded once checked. A query
// round lasts under a second and converges once.
constexpr int kColdPerChurnRound = 3;
// Virtual time a flapped link stays down, and a crashed node stays down.
constexpr net::Time kFlapDown = 100 * net::kMillisecond;
constexpr net::Time kCrashDown = 600 * net::kMillisecond;
// Link changes per query round and queries between two changes.
constexpr int kLinksPerQueryRound = 4;
constexpr int kQueriesPerBlock = 2000;
constexpr double kZipfExponent = 1.0;
// One query in this many is repeated uncached to check the cached answer.
constexpr uint64_t kCrossCheckEvery = 256;
// Calibration pass time that defines the reference speed: about the median
// pass on the 4-core VM the benchmark was written on, so that there the
// scaled times read close to the measured ones.
constexpr double kReferencePassUs = 5800;
// Tail percentiles, each reported only with at least ten samples beyond it:
// runs continue past --seconds until the sample count allows that.
constexpr double kEpisodeTail = 0.90;
constexpr double kQueryTail = 0.99;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--root") {
      a->root = v;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

// --- Statistics -----------------------------------------------------------

/// Linear-interpolated quantile, as perfbench/run.py computes it.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Samples needed for at least ten beyond the `q` percentile.
size_t SamplesForTail(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Resident set now, from /proc/self/statm.
double RssMb() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Boundary counters ------------------------------------------------------

/// Work counts summed over the network, snapshotted before and after each
/// public call in the traced run; differences attribute work to the call.
#define PERFBENCH_COUNTERS(X)                                              \
  X(events) X(messages) X(bytes) X(tuples) X(dropped) X(deltas) X(batches) \
  X(batched_tuples) X(dispatches) X(firings) X(probes) X(agg_recomputes)  \
  X(scan_fallbacks) X(prov_actions) X(user_actions) X(versions)           \
  X(remote_requests) X(cache_hits) X(cache_misses)

struct Counters {
#define PERFBENCH_DECLARE(name) double name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_DECLARE)
#undef PERFBENCH_DECLARE

  Counters& operator+=(const Counters& o) {
#define PERFBENCH_ADD(name) name += o.name;
    PERFBENCH_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    return *this;
  }
  Counters operator-(const Counters& o) const {
    Counters out = *this;
#define PERFBENCH_SUB(name) out.name -= o.name;
    PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
    return out;
  }
};

/// One simulated network: simulator, one engine per node and, when the
/// program carries provenance, a ProvStore and QueryService per node.
struct World {
  net::Simulator sim;
  std::vector<std::unique_ptr<runtime::Engine>> engines;
  std::unique_ptr<query::ProvenanceQuerier> querier;
  // Action counts from Engine::AddActionObserver (traced rounds only).
  uint64_t prov_actions = 0;
  uint64_t user_actions = 0;
  // Versions of ProvStores replaced by a restart, so version bumps stay
  // monotone across store replacement.
  uint64_t retired_versions = 0;
  bool observing = false;

  void Observe(runtime::Engine* e) {
    e->AddActionObserver(
        [this](const std::string& table, const runtime::TableAction&) {
          if (nettrails::provenance::IsProvenancePredicate(table)) {
            ++prov_actions;
          } else {
            ++user_actions;
          }
        });
  }

  /// Re-attaches what a restored engine dropped: its ProvStore (through
  /// the querier) and the benchmark's action observer.
  void OnRestored(NodeId v) {
    if (querier != nullptr) {
      retired_versions += querier->store(v)->version();
      querier->RestartNode(v);
    }
    if (observing) Observe(engines[v].get());
  }

  Counters Snapshot() const {
    Counters c;
    c.events = static_cast<double>(sim.events_executed());
    const net::TrafficStats t = sim.total_traffic();
    c.messages = static_cast<double>(t.messages);
    c.bytes = static_cast<double>(t.bytes);
    c.tuples = static_cast<double>(t.tuples);
    const net::ChannelFaultStats f = sim.total_fault_stats();
    c.dropped = static_cast<double>(f.dropped_link + f.dropped_fault);
    for (const auto& e : engines) {
      const runtime::EngineStats& s = e->stats();
      c.deltas += s.deltas_enqueued;
      c.batches += s.batches_processed;
      c.batched_tuples += s.batched_tuples;
      c.dispatches += s.trigger_dispatches;
      c.firings += s.rule_firings;
      c.probes += s.join_probes;
      c.agg_recomputes += s.agg_recomputes;
      c.scan_fallbacks += s.index_scan_fallbacks;
    }
    c.prov_actions = static_cast<double>(prov_actions);
    c.user_actions = static_cast<double>(user_actions);
    if (querier != nullptr) {
      c.versions = static_cast<double>(retired_versions);
      for (NodeId v = 0; v < engines.size(); ++v) {
        c.versions += querier->store(v)->version();
        c.remote_requests += querier->service(v)->remote_requests_served();
        c.cache_hits += querier->service(v)->cache().hits();
        c.cache_misses += querier->service(v)->cache().misses();
      }
    }
    return c;
  }
};

std::unique_ptr<World> MakeWorld(const net::Topology& topo,
                                 const runtime::CompiledProgramPtr& prog,
                                 bool observe, Tracer* tracer, uint64_t id) {
  auto w = std::make_unique<World>();
  {
    ScopedSpan span(tracer, "MakeEngines", id);
    w->engines = protocols::MakeEngines(&w->sim, topo, prog);
  }
  if (prog->provenance) {
    w->querier = std::make_unique<query::ProvenanceQuerier>(
        &w->sim, protocols::EnginePtrs(w->engines));
  }
  w->observing = observe;
  if (observe) {
    for (auto& e : w->engines) w->Observe(e.get());
  }
  return w;
}

/// Engine-level failures the library reports without a Status.
std::string EngineErrors(const World& w) {
  for (const auto& e : w.engines) {
    if (e->overflowed()) return "engine " + std::to_string(e->id()) +
                                " tripped max_actions_per_trigger";
    if (!e->last_error().empty()) {
      return "engine " + std::to_string(e->id()) + ": " + e->last_error();
    }
  }
  return "";
}

// --- Run bookkeeping --------------------------------------------------------

/// Timed samples of a run: wall times as measured, and the same times
/// scaled to the reference speed of the calibration loop (calibrate.h).
/// Each sample is scaled by a calibration pass timed just before it, so a
/// machine that runs slower for a while scales both alike.
struct Timings {
  std::vector<double> converge_ms, converge_ref_ms, op_us, op_ref_us;
  double wall_s = 0;  // summed operation wall time
  double calib_us = 0;  // summed calibration pass times
  double calib_passes = 0;

  /// Times one calibration pass; returns the factor that scales a wall
  /// time measured next to it to the reference speed.
  double Scale() {
    const double pass = CalibrationPassUs();
    calib_us += pass;
    calib_passes += 1;
    return kReferencePassUs / pass;
  }
};

struct Run {
  Args args;
  Clock::time_point start;
  Tracer tracer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string first_error;
  double setup_s = 0;      // wall time from the process's start
  double setup_ref_s = 0;  // the same at the reference speed
  double compile_ms = 0;
  size_t skipped = 0;
  int negatives = 0;

  explicit Run(const Args& a)
      : args(a), start(Clock::now()), tracer(start) {}

  Tracer* tracer_or_null() { return args.trace ? &tracer : nullptr; }

  /// Records an oracle result; a mismatch makes the run incorrect.
  void Check(const std::string& err, const char* what) {
    if (err.empty()) return;
    if (correct) first_error = std::string(what) + ": " + err;
    correct = false;
  }
  /// Records a negative check: `err` is the oracle's verdict on a
  /// deliberately perturbed expectation and must be a rejection.
  void MustReject(const std::string& err, const char* what) {
    if (!err.empty()) {
      ++negatives;
      return;
    }
    if (correct) first_error = std::string("oracle accepted a perturbed ") + what;
    correct = false;
  }
  /// Records an operation the library refused.
  void Fail(const std::string& err) {
    ++failed;
    std::fprintf(stderr, "operation failed: %s\n", err.c_str());
  }
  /// Ends set-up: times it from the process's start, and scales it to the
  /// reference speed by calibration passes timed right after it.
  void EndSetup() {
    setup_s = Elapsed();
    std::vector<double> passes;
    for (int i = 0; i < 3; ++i) passes.push_back(CalibrationPassUs());
    setup_ref_s = setup_s * kReferencePassUs / Median(passes);
  }
  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
};

/// The per-layer metrics of one traced phase, filled by the workloads.
struct LayerSums {
  Counters episodes;  // summed over traced episodes
  double episode_count = 0;
  Counters queries;  // summed over traced queries
  double query_count = 0;
  double leaves = 0, truncated = 0;
  std::vector<double> us_hit, us_miss;
  // Sizes of the last traced network at the end of its round.
  double interned_vids = 0, live_tuples = 0;
  double prov_rows = 0, prov_edges = 0, prov_execs = 0;
  // Operation times at the reference speed in traced and untraced rounds,
  // in input order.
  std::vector<double> traced_op_us, plain_op_us;
};

/// Tuples interned by the engines' VID interners, summed over the network.
double InternedVids(const World& w) {
  double n = 0;
  for (const auto& e : w.engines) n += e->vid_interner()->size();
  return n;
}

void RecordSizes(const World& w, LayerSums* l) {
  l->interned_vids = InternedVids(w);
  l->live_tuples = l->prov_rows = 0;
  l->prov_edges = l->prov_execs = 0;
  for (const auto& e : w.engines) {
    l->live_tuples += e->TotalTuples();
    l->prov_rows += e->TotalTuples(/*provenance_only=*/true);
  }
  if (w.querier != nullptr) {
    for (NodeId v = 0; v < w.engines.size(); ++v) {
      l->prov_edges += w.querier->store(v)->edge_count();
      l->prov_execs += w.querier->store(v)->exec_count();
    }
  }
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

void AddLayerMetrics(const Run& run, const LayerSums& l, Metrics* m) {
  const Counters& e = l.episodes;
  const double ne = l.episode_count;
  const Counters& q = l.queries;
  const double nq = l.query_count;
  auto add = [&](const char* name, double v, const char* unit) {
    m->push_back({name, {v, unit}});
  };
  add("net.events_per_episode", Ratio(e.events, ne), "count");
  add("net.tuples_per_msg", Ratio(e.tuples, e.messages), "count");
  add("net.bytes_per_tuple", Ratio(e.bytes, e.tuples), "B");
  add("net.dropped_per_episode", Ratio(e.dropped, ne), "count");
  add("net.events_per_query", Ratio(q.events, nq), "count");
  add("runtime.compile_ms", run.compile_ms, "ms");
  add("runtime.deltas_per_episode", Ratio(e.deltas, ne), "count");
  add("runtime.tuples_per_batch", Ratio(e.batched_tuples, e.batches), "count");
  add("runtime.dispatches_per_episode", Ratio(e.dispatches, ne), "count");
  add("runtime.firings_per_episode", Ratio(e.firings, ne), "count");
  add("runtime.probes_per_episode", Ratio(e.probes, ne), "count");
  add("runtime.firings_per_probe", Ratio(e.firings, e.probes), "ratio");
  add("runtime.agg_recomputes_per_episode", Ratio(e.agg_recomputes, ne),
      "count");
  add("runtime.scan_fallbacks", Ratio(e.scan_fallbacks, ne), "count");
  add("runtime.interned_vids", l.interned_vids, "count");
  add("runtime.live_tuples", l.live_tuples, "count");
  add("provenance.actions_per_episode", Ratio(e.prov_actions, ne), "count");
  add("provenance.amplification", Ratio(e.prov_actions, e.user_actions),
      "ratio");
  add("provenance.rows", l.prov_rows, "count");
  add("provenance.edges", l.prov_edges, "count");
  add("provenance.execs", l.prov_execs, "count");
  add("provenance.version_bumps_per_episode", Ratio(e.versions, ne), "count");
  add("query.cache_hit_ratio",
      Ratio(q.cache_hits, q.cache_hits + q.cache_misses), "ratio");
  add("query.remote_requests_per_query", Ratio(q.remote_requests, nq),
      "count");
  add("query.us_hit", Median(l.us_hit), "us");
  add("query.us_miss", Median(l.us_miss), "us");
  add("query.leaves_per_query", Ratio(l.leaves, nq), "count");
  add("query.truncated", l.truncated, "count");
  add("scenario.skipped", static_cast<double>(run.skipped), "count");
  // The i-th traced and i-th untraced operation replay the same input.
  std::vector<double> ratios;
  for (size_t i = 0;
       i < std::min(l.traced_op_us.size(), l.plain_op_us.size()); ++i) {
    ratios.push_back(Ratio(l.traced_op_us[i], l.plain_op_us[i]));
  }
  add("trace.overhead_pct", ratios.empty() ? 0 : (Median(ratios) - 1) * 100,
      "%");
  add("trace.spans", static_cast<double>(run.tracer.size()), "count");
}

// --- Shared set-up ----------------------------------------------------------

struct Setup {
  net::Topology topo;
  runtime::CompiledProgramPtr prog;
};

/// Loads a corpus topology and compiles the workload's program.
bool LoadSetup(Run* run, const char* topo_name, const char* program,
               const runtime::CompileOptions& copts, Setup* out) {
  Tracer* tracer = run->tracer_or_null();
  Result<net::Topology> topo = net::LoadTopologyFile(
      run->args.root + "/examples/topologies/" + topo_name + ".topo");
  if (!topo.ok()) {
    std::fprintf(stderr, "%s\n", topo.status().ToString().c_str());
    return false;
  }
  out->topo = *topo;
  const Clock::time_point t0 = Clock::now();
  ScopedSpan span(tracer, "Compile", 0);
  Result<runtime::CompiledProgramPtr> prog = runtime::Compile(program, copts);
  run->compile_ms = Ms(Clock::now() - t0);
  if (!prog.ok()) {
    std::fprintf(stderr, "%s\n", prog.status().ToString().c_str());
    return false;
  }
  out->prog = *prog;
  return true;
}

void PrintChecks(const Run& run) {
  std::printf("negative checks rejected: %d\n", run.negatives);
  if (!run.correct) std::printf("INCORRECT: %s\n", run.first_error.c_str());
}

/// Prints "name value unit" report lines for `m`, then the result object as
/// the last line of standard output.
int PrintResult(const Run& run, const Metrics& m) {
  PrintChecks(run);
  for (const auto& [name, vu] : m) {
    std::printf("%-40s %.6f %s\n", name.c_str(), vu.first, vu.second);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].second.first) ? m[i].second.first : 0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first.c_str(), v, m[i].second.second);
  }
  std::printf("}}\n");
  return 0;
}

/// The end-to-end metrics of an untraced run. The wall times as measured
/// go on report lines only; the gated times are those scaled to the
/// calibration loop's reference speed.
int EmitEndToEnd(const Run& run, double tail_q, const Timings& t, double msgs,
                 double bytes) {
  const double n = static_cast<double>(t.op_us.size());
  std::printf("wall time as measured: setup_s %.6f converge_ms %.3f "
              "op_us %.3f op_us_tail %.3f ops_per_s %.3f\n",
              run.setup_s, Median(t.converge_ms), Median(t.op_us),
              Quantile(t.op_us, tail_q), Ratio(n, t.wall_s));
  std::printf("calibration pass: %.1f us mean over %.0f passes "
              "(reference %.0f us)\n",
              Ratio(t.calib_us, t.calib_passes), t.calib_passes,
              kReferencePassUs);
  Metrics m;
  m.push_back({"setup_s", {run.setup_ref_s, "s"}});
  m.push_back({"peak_rss_mb", {PeakRssMb(), "MB"}});
  m.push_back({"msgs_per_op", {Ratio(msgs, n), "count"}});
  m.push_back({"bytes_per_op", {Ratio(bytes, n), "B"}});
  m.push_back({"converge_ms", {Median(t.converge_ref_ms), "ms"}});
  m.push_back({"op_us", {Median(t.op_ref_us), "us"}});
  m.push_back({"op_us_tail", {Quantile(t.op_ref_us, tail_q), "us"}});
  return PrintResult(run, m);
}

/// Writes the span file and prints the per-layer metrics of a traced run,
/// one "name value unit" line each, then the result object as the last
/// line of standard output.
int EmitLayers(Run* run, const Metrics& m) {
  const std::string path = run->args.out + "/spans_" + run->args.workload +
                           "_seed" + std::to_string(run->args.seed) + ".json";
  if (!run->tracer.WriteChromeJson(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("spans: %zu recorded, %zu dropped, written to %s\n",
              run->tracer.size(), run->tracer.dropped(), path.c_str());
  return PrintResult(*run, m);
}

/// Whether the round loop should stop: the measured phase has lasted
/// --seconds, the tail percentile has its ten samples, and a traced run has
/// replayed every traced round's inputs in an untraced round.
bool RoundsDone(const Run& run, uint64_t rounds, size_t samples,
                size_t min_samples) {
  return run.Elapsed() - run.setup_s >= run.args.seconds &&
         samples >= min_samples &&
         (!run.args.trace || (rounds >= 2 && rounds % 2 == 0));
}

/// Whether the `round`-th round of a traced run is traced. Rounds come in
/// pairs over the same inputs, one traced and one not, and the difference
/// in operation time between them is the tracing overhead. The traced
/// round goes first in even pairs and second in odd ones, so neither side
/// always runs on the older heap.
bool TracedRound(const Run& run, uint64_t round) {
  return run.args.trace && (round % 2 == 0) == ((round / 2) % 2 == 0);
}

/// Which round's seeded inputs the `round`-th round replays. A traced run
/// repeats each round's inputs in the following untraced round, so the
/// tracing overhead compares the same work.
uint64_t InputRound(const Run& run, uint64_t round) {
  return run.args.trace ? round / 2 : round;
}

// --- Churn workloads --------------------------------------------------------

enum class Kind { kFlap = 0, kStorm = 1, kCrash = 2 };
const char* const kKindNames[] = {"flap", "storm", "crash"};

struct Episode {
  Kind kind;
  std::vector<net::ScenarioEvent> events;  // times relative to the start
};

/// A seed-independent order of [0, n) whose consecutive entries are spread
/// evenly over the range: k -> k * stride mod n, with the stride coprime to
/// n and near n / golden ratio. Consecutive draws from it are a systematic
/// sample, so any run of them covers every part of the link list
/// about equally, whatever the seed's starting offset.
uint64_t Spread(uint64_t k, uint64_t n) {
  uint64_t stride = static_cast<uint64_t>(static_cast<double>(n) * 0.618);
  while (std::gcd(stride, n) != 1) ++stride;
  return (k * stride) % n;
}

/// Items ordered by load, lightest first, and cut into `count` strata of
/// consecutive items: a round draws one item from each stratum.
struct Strata {
  std::vector<uint64_t> order;
  int count = 1;

  /// The item stratum `j` gives round `round`: the stratum's items in
  /// turn, starting from an offset that `seed` fixes. `skip` steps past
  /// items the caller cannot use.
  uint64_t Pick(int j, uint64_t seed, uint64_t round, uint64_t skip) const {
    const size_t lo = static_cast<size_t>(j) * order.size() / count;
    const size_t hi = static_cast<size_t>(j + 1) * order.size() / count;
    const uint64_t offset =
        nettrails::net::FaultMix(seed + static_cast<uint64_t>(j)) % (hi - lo);
    return order[lo + (offset + round + skip) % (hi - lo)];
  }
};

Strata Stratify(const std::vector<uint64_t>& load, int count) {
  Strata s;
  s.count = count;
  for (uint64_t i = 0; i < load.size(); ++i) s.order.push_back(i);
  std::stable_sort(s.order.begin(), s.order.end(),
                   [&](uint64_t a, uint64_t b) { return load[a] < load[b]; });
  return s;
}

/// The strata the churn episodes draw from. A link's or node's load is the
/// number of ordered node pairs with a shortest path over it, by the
/// benchmark's own Dijkstra: a proxy for the re-convergence work that
/// failing it causes. Drawing one item per load stratum gives every round
/// the same mix of light and heavy episodes whatever the seed, so runs on
/// different seeds do comparable work.
struct ChurnStrata {
  Strata flaps, storms, crashes;
};

ChurnStrata MakeChurnStrata(const net::Topology& topo,
                            const ShortestPaths& sp) {
  const size_t n = topo.num_nodes;
  std::vector<uint64_t> link_load(topo.links.size(), 0), node_load(n, 0);
  // Whether a shortest s-t path can go s ~> a, then `via`, then b ~> t.
  auto on_path = [&](size_t s, size_t t, size_t a, int64_t via, size_t b) {
    return sp.dist[s][a] >= 0 && sp.dist[b][t] >= 0 &&
           sp.dist[s][a] + via + sp.dist[b][t] == sp.dist[s][t];
  };
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      if (s == t || sp.dist[s][t] < 0) continue;
      for (size_t l = 0; l < topo.links.size(); ++l) {
        const net::CostedLink& e = topo.links[l];
        if (on_path(s, t, e.a, e.cost, e.b) || on_path(s, t, e.b, e.cost, e.a)) {
          ++link_load[l];
        }
      }
      for (size_t v = 0; v < n; ++v) {
        if (v != s && v != t && on_path(s, t, v, 0, v)) ++node_load[v];
      }
    }
  }
  return {Stratify(link_load, kFlapsPerRound),
          Stratify(link_load, 3 * kStormsPerRound),
          Stratify(node_load, kCrashesPerRound)};
}

/// The seeded episodes of one churn round: one flap per link stratum, one
/// crash per node stratum, and storms whose three links come from a light,
/// a middle and a heavy stratum. The seed fixes where each stratum's turn
/// starts and the order of the episodes within the round. A storm or crash
/// that would partition the topology steps to the next candidates, so
/// every episode re-converges without a count-to-infinity transient.
std::vector<Episode> MakeEpisodes(const net::Topology& topo,
                                  const ChurnStrata& strata, uint64_t seed,
                                  uint64_t round) {
  const uint64_t nl = topo.links.size();
  const uint64_t nn = topo.num_nodes;
  const uint64_t base = nettrails::net::FaultMix(seed);
  const std::vector<bool> all_up(nn, true);
  const net::Time ms = net::kMillisecond;
  std::vector<Episode> out;

  for (int j = 0; j < kFlapsPerRound; ++j) {
    const uint64_t l = strata.flaps.Pick(j, base, round, 0);
    out.push_back({Kind::kFlap,
                   {{0, net::ScenarioAction::kFailLink, l},
                    {kFlapDown, net::ScenarioAction::kRecoverLink, l}}});
  }
  for (int i = 0; i < kStormsPerRound; ++i) {
    uint64_t l[3];
    for (uint64_t skip = 0;; ++skip) {
      for (int x = 0; x < 3; ++x) {
        l[x] = strata.storms.Pick(i + x * kStormsPerRound, base + 1, round,
                                  skip);
      }
      std::vector<bool> up(nl, true);
      for (uint64_t x : l) up[x] = false;
      if (Connected(topo, up, all_up)) break;
    }
    // The shape of examples/scenarios/regional_storm.scn: three failures
    // 2 ms apart, inside one re-convergence, then staggered recovery.
    out.push_back({Kind::kStorm,
                   {{0, net::ScenarioAction::kFailLink, l[0]},
                    {2 * ms, net::ScenarioAction::kFailLink, l[1]},
                    {4 * ms, net::ScenarioAction::kFailLink, l[2]},
                    {150 * ms, net::ScenarioAction::kRecoverLink, l[1]},
                    {152 * ms, net::ScenarioAction::kRecoverLink, l[0]},
                    {300 * ms, net::ScenarioAction::kRecoverLink, l[2]}}});
  }
  for (int i = 0; i < kCrashesPerRound; ++i) {
    uint64_t v;
    for (uint64_t skip = 0;; ++skip) {
      v = strata.crashes.Pick(i, base + 2, round, skip);
      std::vector<bool> node_up = all_up;
      node_up[v] = false;
      if (Connected(topo, {}, node_up)) break;
    }
    out.push_back({Kind::kCrash,
                   {{0, net::ScenarioAction::kCrashNode, v},
                    {kCrashDown, net::ScenarioAction::kRestartNode, v}}});
  }
  Rng rng(base ^ (round * 0x9E3779B97F4A7C15ull));
  rng.Shuffle(&out);
  return out;
}

/// Scenario for one episode, shifted to start at virtual time `t0`.
net::Scenario At(const Episode& ep, net::Time t0, uint64_t id) {
  net::Scenario s;
  s.name = std::string(kKindNames[static_cast<int>(ep.kind)]) + "_" +
           std::to_string(id);
  for (net::ScenarioEvent e : ep.events) {
    e.time += t0;
    s.events.push_back(e);
  }
  return s;
}

/// The oracles that hold after a churn episode or a cold convergence.
void CheckChurnWorld(Run* run, const World& w, const ShortestPaths& expected,
                     const std::string& when) {
  run->Check(EngineErrors(w), ("engine after " + when).c_str());
  run->Check(CheckDistances(w.engines, "mincost", expected),
             ("mincost after " + when).c_str());
  if (w.querier != nullptr) {
    run->Check(CheckProvenanceResolves(w.querier.get(), "mincost", expected),
               ("provenance after " + when).c_str());
  }
}

/// Shows each churn oracle rejecting a perturbed expectation.
void NegativeChurnChecks(Run* run, const World& w,
                         const ShortestPaths& expected) {
  ShortestPaths wrong = expected;
  wrong.dist[0][1] += 1;
  run->MustReject(CheckDistances(w.engines, "mincost", wrong),
                  "mincost distance");
  if (w.querier != nullptr) {
    run->MustReject(
        CheckProvenanceResolves(w.querier.get(), "mincost", wrong),
        "mincost row for the provenance check");
  }
  net::ChannelFaultStats f = w.sim.total_fault_stats();
  f.delivered += 1;
  run->MustReject(CheckConservation(f), "delivered count");
}

/// A fresh network, cold-converged. With `t`, the convergence (InstallLinks
/// to quiescence) is a converge_ms sample. Returns null (and records the
/// failure) if InstallLinks fails.
std::unique_ptr<World> ConvergedWorld(Run* run, const Setup& su, bool traced,
                                      uint64_t id, Timings* t) {
  Tracer* rt = traced ? &run->tracer : nullptr;
  std::unique_ptr<World> w = MakeWorld(su.topo, su.prog, traced, rt, id);
  ++run->attempted;
  const double scale = t != nullptr ? t->Scale() : 0;
  const Clock::time_point c0 = Clock::now();
  nettrails::Status st = [&]() {
    ScopedSpan span(rt, "InstallLinks", id);
    return protocols::InstallLinks(su.topo, &w->engines, &w->sim);
  }();
  const double ms = Ms(Clock::now() - c0);
  if (!st.ok()) {
    run->Fail(st.ToString());
    return nullptr;
  }
  if (t != nullptr) {
    t->converge_ms.push_back(ms);
    t->converge_ref_ms.push_back(ms * scale);
  }
  return w;
}

/// The network a round works on: `cold` fresh cold convergences, each
/// checked by `check`, keeping the last. Round 0 starts from set-up's
/// network, whose convergence set-up already timed.
template <typename CheckFn>
std::unique_ptr<World> RoundWorld(Run* run, const Setup& su, bool traced,
                                  uint64_t round, int cold,
                                  std::unique_ptr<World> first, Timings* t,
                                  CheckFn check) {
  std::unique_ptr<World> w;
  for (int c = 0; c < cold; ++c) {
    const uint64_t id = round * cold + c;
    w.reset();  // one network at a time, so peak_rss_mb sees one
    w = c == 0 && first != nullptr ? std::move(first)
                                   : ConvergedWorld(run, su, traced, id, t);
    if (w == nullptr) return nullptr;
    ScopedSpan span(traced ? &run->tracer : nullptr, "oracle", id);
    check(*w);
  }
  return w;
}

int RunChurn(Run* run, bool with_prov) {
  Setup su;
  ShortestPaths expected;
  Timings t;
  std::vector<double> kind_ms[3];
  // Set-up ends with the first round's network cold-converged: that is
  // the state a user waits for before the network is usable.
  std::unique_ptr<World> first;
  {
    ScopedSpan span(run->tracer_or_null(), "setup", 0);
    if (!LoadSetup(run, "isp_synth_102", kMincost64,
                   with_prov ? runtime::CompileOptions{}
                             : runtime::NoProvenanceOptions(),
                   &su)) {
      return 2;
    }
    // Every episode ends with every link and node up, so one Dijkstra over
    // the full topology is the expectation after each of them.
    expected = AllPairsShortestPaths(su.topo);
    first = ConvergedWorld(run, su, run->args.trace, 0, nullptr);
  }
  run->EndSetup();
  const ChurnStrata strata = MakeChurnStrata(su.topo, expected);

  double msgs = 0, bytes = 0, vtime_us = 0;
  double cold_rss_mb = 0, cold_vids = 0, end_rss_mb = 0, end_vids = 0;
  LayerSums layers;
  uint64_t episode_id = 0;
  for (uint64_t round = 0;
       !RoundsDone(*run, round, t.op_us.size(), SamplesForTail(kEpisodeTail));
       ++round) {
    const bool traced = TracedRound(*run, round);
    run->tracer.set_enabled(traced);
    Tracer* rt = traced ? &run->tracer : nullptr;
    ScopedSpan round_span(rt, "round", round);
    std::unique_ptr<World> w =
        RoundWorld(run, su, traced, round, kColdPerChurnRound,
                   std::move(first), &t,
                   [&](const World& cw) {
                     CheckChurnWorld(run, cw, expected, "cold convergence");
                   });
    if (w == nullptr) break;
    if (round == 0) {
      cold_rss_mb = RssMb();
      cold_vids = InternedVids(*w);
    }
    net::ScenarioRunOptions opts;
    World* wp = w.get();
    opts.on_restored = [wp](NodeId v) { wp->OnRestored(v); };

    for (const Episode& ep : MakeEpisodes(su.topo, strata, run->args.seed,
                                          InputRound(*run, round))) {
      const uint64_t id = episode_id++;
      ++run->attempted;
      const net::Scenario scn = At(ep, w->sim.now(), id);
      const Counters before = traced ? w->Snapshot() : Counters{};
      const net::TrafficStats tb = w->sim.total_traffic();
      const double scale = t.Scale();
      const Clock::time_point t0 = Clock::now();
      Result<net::ScenarioRunStats> rs = [&]() {
        ScopedSpan span(rt, "RunScenario", id);
        return net::RunScenario(scn, su.topo, &w->engines, &w->sim, opts);
      }();
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      if (!rs.ok()) {
        run->Fail(rs.status().ToString());
        break;
      }
      const net::TrafficStats ta = w->sim.total_traffic();
      run->skipped += rs->skipped;
      t.op_us.push_back(us);
      t.op_ref_us.push_back(us * scale);
      t.wall_s += us / 1e6;
      kind_ms[static_cast<int>(ep.kind)].push_back(us / 1e3);
      msgs += static_cast<double>(ta.messages - tb.messages);
      bytes += static_cast<double>(ta.bytes - tb.bytes);
      vtime_us += static_cast<double>(w->sim.now() - scn.events[0].time);
      if (traced) {
        layers.episodes += w->Snapshot() - before;
        layers.episode_count += 1;
        layers.traced_op_us.push_back(us * scale);
      } else if (run->args.trace) {
        layers.plain_op_us.push_back(us * scale);
      }
      ScopedSpan span(rt, "oracle", id);
      CheckChurnWorld(run, *w, expected, scn.name);
    }
    run->Check(CheckConservation(w->sim.total_fault_stats()),
               "message conservation");
    if (round == 0) {
      NegativeChurnChecks(run, *w, expected);
      end_rss_mb = RssMb();
      end_vids = InternedVids(*w);
    }
    if (traced) RecordSizes(*w, &layers);
  }

  const double n = static_cast<double>(t.op_us.size());
  std::printf("churn %s provenance: %zu cold convergences, %zu episodes\n",
              with_prov ? "with" : "without", t.converge_ms.size(),
              t.op_us.size());
  for (int k = 0; k < 3; ++k) {
    std::printf("  %s_ms %.3f (median of %zu)\n", kKindNames[k],
                Median(kind_ms[k]), kind_ms[k].size());
  }
  if (kind_ms[0].size() >= SamplesForTail(0.9)) {
    std::printf("  flap_ms_p90 %.3f\n", Quantile(kind_ms[0], 0.9));
  }
  std::printf("  msgs_per_episode %.1f bytes_per_episode %.1f "
              "virtual_ms_per_episode %.3f\n",
              Ratio(msgs, n), Ratio(bytes, n), Ratio(vtime_us / 1e3, n));
  // The interner growth that a round's churn adds to the resident set.
  std::printf("  first round: rss %.1f MB after cold convergence, %.1f MB "
              "after its episodes; interned vids %.0f -> %.0f\n",
              cold_rss_mb, end_rss_mb, cold_vids, end_vids);
  if (!run->args.trace) {
    return EmitEndToEnd(*run, kEpisodeTail, t, msgs, bytes);
  }
  Metrics m;
  AddLayerMetrics(*run, layers, &m);
  return EmitLayers(run, m);
}

// --- Query workload ---------------------------------------------------------

/// A network state of the query workload: every link up, or one failed.
struct QueryState {
  std::vector<bool> link_up;
  ShortestPaths paths;
  std::vector<std::vector<int64_t>> link_cost;
};

QueryState MakeQueryState(const net::Topology& topo, int64_t failed_link) {
  QueryState s;
  s.link_up.assign(topo.links.size(), true);
  if (failed_link >= 0) s.link_up[failed_link] = false;
  s.paths = AllPairsShortestPaths(topo, s.link_up);
  s.link_cost = LinkCosts(topo, s.link_up);
  return s;
}

/// Live bestpath rows in seeded popularity order: a row's rank is fixed by
/// a seeded digest of its VID, so a row keeps its popularity across link
/// changes.
std::vector<Tuple> LiveTargets(const World& w, uint64_t seed) {
  std::vector<std::pair<uint64_t, Tuple>> keyed;
  for (const auto& e : w.engines) {
    for (Tuple& t : e->TableContents("bestpath")) {
      keyed.push_back({nettrails::net::FaultMix(t.Hash() ^ seed), t});
    }
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Tuple> out;
  for (auto& k : keyed) out.push_back(std::move(k.second));
  return out;
}

/// Zipf-distributed ranks in [0, n) from a precomputed inverse CDF.
std::vector<uint32_t> ZipfRanks(size_t n, size_t count, double s, Rng* rng) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  std::vector<uint32_t> out(count);
  for (uint32_t& r : out) {
    const double u = rng->NextDouble() * total;
    r = static_cast<uint32_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                              cdf.begin());
    if (r >= n) r = static_cast<uint32_t>(n - 1);
  }
  return out;
}

const query::QueryType kQueryTypes[] = {query::QueryType::kLineage,
                                        query::QueryType::kNodeSet,
                                        query::QueryType::kDerivCount};

/// The oracles that hold for one answered query.
void CheckAnswer(Run* run, const Tuple& target, query::QueryType type,
                 const query::QueryResult& r, const QueryState& state) {
  if (type == query::QueryType::kLineage) {
    run->Check(CheckLineage(target, r.leaf_vids, state.link_cost), "lineage");
  } else if (type == query::QueryType::kDerivCount) {
    run->Check(CheckDerivationCount(target, r.count, state.paths),
               "derivation count");
  }
}

/// Shows each query oracle rejecting a perturbed expectation, on a
/// multi-hop target answered in the full topology.
void NegativeQueryChecks(Run* run, World* w, const std::vector<Tuple>& targets,
                         const QueryState& state) {
  const Tuple* target = nullptr;
  for (const Tuple& t : targets) {
    if (t.field(3).as_list().size() >= 3) {
      target = &t;
      break;
    }
  }
  if (target == nullptr) {
    run->Check("no multi-hop bestpath row", "negative checks");
    return;
  }
  query::QueryOptions opts;
  opts.type = query::QueryType::kLineage;
  Result<query::QueryResult> lineage = w->querier->Query(*target, opts);
  opts.type = query::QueryType::kDerivCount;
  Result<query::QueryResult> count = w->querier->Query(*target, opts);
  if (!lineage.ok() || !count.ok()) {
    run->Check("query failed", "negative checks");
    return;
  }
  QueryState wrong = state;
  const nettrails::ValueList& path = target->field(3).as_list();
  const NodeId a = path[0].as_address(), b = path[1].as_address();
  wrong.link_cost[a][b] += 1;
  run->MustReject(CheckLineage(*target, lineage->leaf_vids, wrong.link_cost),
                  "hop link cost");
  run->MustReject(CheckDerivationCount(*target, count->count + 1, state.paths),
                  "derivation count");
  wrong.paths.dist[a][b] += 1;
  run->MustReject(CheckDistances(w->engines, "bestcost", wrong.paths),
                  "bestcost distance");
  query::QueryResult other = *lineage;
  other.leaf_vids.pop_back();
  run->MustReject(CheckSameAnswer(*lineage, other), "cached leaf set");
  net::ChannelFaultStats f = w->sim.total_fault_stats();
  f.dropped_link += 1;
  run->MustReject(CheckConservation(f), "dropped count");
}

/// The links that fail and recover between query blocks in round `round`:
/// a systematic sample (see Spread) of the links whose failure disconnects
/// no node, so every target keeps a route and every state's Dijkstra
/// covers all pairs. The seed fixes where the sample starts.
std::vector<uint64_t> ChangeLinks(const net::Topology& topo, uint64_t seed,
                                  uint64_t round) {
  const std::vector<bool> all_nodes(topo.num_nodes, true);
  std::vector<uint64_t> candidates;
  for (uint64_t l = 0; l < topo.links.size(); ++l) {
    std::vector<bool> up(topo.links.size(), true);
    up[l] = false;
    if (Connected(topo, up, all_nodes)) candidates.push_back(l);
  }
  const uint64_t n = candidates.size();
  uint64_t k = nettrails::net::FaultMix(seed + 1) % n +
               round * kLinksPerQueryRound;
  std::vector<uint64_t> out;
  for (int i = 0; i < kLinksPerQueryRound; ++i) {
    out.push_back(candidates[Spread(k++, n)]);
  }
  return out;
}

int RunQueryMix(Run* run) {
  Setup su;
  QueryState full;
  std::vector<std::vector<uint32_t>> ranks;  // per query block of a round
  Timings t;
  // As in the churn workloads, every round runs on a fresh network, so
  // memory and cache state do not depend on how many rounds a run fits;
  // set-up ends with the first one cold-converged.
  std::unique_ptr<World> first;
  {
    ScopedSpan span(run->tracer_or_null(), "setup", 0);
    if (!LoadSetup(run, "att_na", protocols::PathVectorProgram(), {}, &su)) {
      return 2;
    }
    full = MakeQueryState(su.topo, -1);
    first = ConvergedWorld(run, su, run->args.trace, 0, nullptr);
    if (first == nullptr) return 2;
    Rng rng(nettrails::net::FaultMix(run->args.seed + 2));
    const size_t rows = LiveTargets(*first, run->args.seed).size();
    for (int b = 0; b < 2 * kLinksPerQueryRound; ++b) {
      ranks.push_back(ZipfRanks(rows, kQueriesPerBlock, kZipfExponent, &rng));
    }
  }
  run->EndSetup();

  double msgs = 0, bytes = 0, vlat_us = 0;
  LayerSums layers;
  uint64_t qid = 0, change_id = 0;
  for (uint64_t round = 0;
       !RoundsDone(*run, round, t.op_us.size(), SamplesForTail(kQueryTail));
       ++round) {
    const bool traced = TracedRound(*run, round);
    run->tracer.set_enabled(traced);
    Tracer* rt = traced ? &run->tracer : nullptr;
    ScopedSpan round_span(rt, "round", round);
    std::unique_ptr<World> w = RoundWorld(
        run, su, traced, round, 1, std::move(first), &t, [&](const World& cw) {
          run->Check(CheckDistances(cw.engines, "bestcost", full.paths),
                     "bestcost after cold convergence");
        });
    if (w == nullptr) break;
    net::ScenarioRunOptions opts;
    World* wp = w.get();
    opts.on_restored = [wp](NodeId v) { wp->OnRestored(v); };
    std::vector<Tuple> targets = LiveTargets(*w, run->args.seed);
    const std::vector<uint64_t> links =
        ChangeLinks(su.topo, run->args.seed, InputRound(*run, round));
    QueryState state = full;
    for (int block = 0; block < 2 * kLinksPerQueryRound; ++block) {
      ScopedSpan block_span(rt, "query_block", round);
      const double scale = t.Scale();
      for (uint32_t rank : ranks[block]) {
        const Tuple& target = targets[rank % targets.size()];
        query::QueryOptions qopts;
        qopts.type = kQueryTypes[qid % 3];
        const uint64_t id = qid++;
        ++run->attempted;
        const Counters before = traced ? w->Snapshot() : Counters{};
        const Clock::time_point t0 = Clock::now();
        Result<query::QueryResult> r = [&]() {
          ScopedSpan span(rt, "Query", id);
          return w->querier->Query(target, qopts);
        }();
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        if (!r.ok()) {
          run->Fail(r.status().ToString());
          continue;
        }
        t.op_us.push_back(us);
        t.op_ref_us.push_back(us * scale);
        t.wall_s += us / 1e6;
        msgs += static_cast<double>(r->messages);
        bytes += static_cast<double>(r->bytes);
        vlat_us += static_cast<double>(r->latency);
        if (traced) {
          const Counters d = w->Snapshot() - before;
          layers.queries += d;
          layers.query_count += 1;
          layers.leaves += static_cast<double>(r->leaf_vids.size());
          layers.truncated += r->truncated ? 1 : 0;
          (d.cache_misses == 0 ? layers.us_hit : layers.us_miss).push_back(us);
          layers.traced_op_us.push_back(us * scale);
        } else if (run->args.trace) {
          layers.plain_op_us.push_back(us * scale);
        }
        CheckAnswer(run, target, qopts.type, *r, state);
        if (nettrails::net::FaultMix(id ^ run->args.seed) % kCrossCheckEvery ==
            0) {
          query::QueryOptions uncached = qopts;
          uncached.use_cache = false;
          Result<query::QueryResult> u = w->querier->Query(target, uncached);
          run->Check(u.ok() ? CheckSameAnswer(*r, *u) : u.status().ToString(),
                     "cached vs uncached answer");
        }
      }
      // After each block one link fails (even blocks) or recovers (odd
      // blocks). The failure is a one-event scenario. The recovery calls
      // protocols::RecoverLink directly: RunScenario tracks failed links
      // per call, so a scenario that only recovers a link failed by an
      // earlier call is skipped.
      const uint64_t link = links[block / 2];
      const net::CostedLink& l = su.topo.links[link];
      const bool fail = block % 2 == 0;
      const uint64_t cid = change_id++;
      ++run->attempted;
      const Counters before = traced ? w->Snapshot() : Counters{};
      nettrails::Status st = nettrails::Status::OK();
      if (fail) {
        net::Scenario scn;
        scn.name = "fail_" + std::to_string(cid);
        scn.events.push_back(
            {w->sim.now(), net::ScenarioAction::kFailLink, link});
        ScopedSpan span(rt, "RunScenario", cid);
        Result<net::ScenarioRunStats> rs =
            net::RunScenario(scn, su.topo, &w->engines, &w->sim, opts);
        if (rs.ok()) {
          run->skipped += rs->skipped;
        } else {
          st = rs.status();
        }
      } else {
        ScopedSpan span(rt, "RecoverLink", cid);
        st = protocols::RecoverLink(l.a, l.b, l.cost, &w->engines, &w->sim);
      }
      if (!st.ok()) {
        run->Fail(st.ToString());
        break;
      }
      if (traced) {
        layers.episodes += w->Snapshot() - before;
        layers.episode_count += 1;
      }
      state = fail ? MakeQueryState(su.topo, static_cast<int64_t>(link))
                   : full;
      const std::string when =
          std::string(fail ? "failing" : "recovering") + " link " +
          std::to_string(link);
      run->Check(EngineErrors(*w), ("engine after " + when).c_str());
      run->Check(CheckDistances(w->engines, "bestcost", state.paths),
                 ("bestcost after " + when).c_str());
      run->Check(CheckConservation(w->sim.total_fault_stats()),
                 "message conservation");
      targets = LiveTargets(*w, run->args.seed);
    }
    if (round == 0) NegativeQueryChecks(run, w.get(), targets, full);
    if (traced) RecordSizes(*w, &layers);
  }

  const double nq = static_cast<double>(t.op_us.size());
  std::printf("query_mix: %zu queries, %zu cold convergences\n",
              t.op_us.size(), t.converge_ms.size());
  std::printf("  query_us %.3f query_us_p99 %.3f queries_per_s %.1f\n"
              "  query_vlat_us %.3f msgs_per_query %.4f\n",
              Median(t.op_us), Quantile(t.op_us, kQueryTail),
              Ratio(nq, t.wall_s), Ratio(vlat_us, nq), Ratio(msgs, nq));
  if (!run->args.trace) {
    return EmitEndToEnd(*run, kQueryTail, t, msgs, bytes);
  }
  Metrics m;
  AddLayerMetrics(*run, layers, &m);
  return EmitLayers(run, m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload churn_prov|churn_plain|query_mix "
                 "--seed N --seconds S --trace 0|1 --root DIR --out DIR\n",
                 argv[0]);
    return 2;
  }
  perfbench::Run run(args);
  run.tracer.set_enabled(args.trace);
  if (args.workload == "churn_prov") return perfbench::RunChurn(&run, true);
  if (args.workload == "churn_plain") return perfbench::RunChurn(&run, false);
  if (args.workload == "query_mix") return perfbench::RunQueryMix(&run);
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
