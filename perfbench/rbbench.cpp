// rbbench — the repository benchmark's measuring binary (README.md here).
//
// Runs one workload through the library's public calls only (run_cells,
// make_faults, run_simulation, max_closed_nbd_faults, summarize_trial,
// trial_seed, write_json/write_csv, run_scenario_threads), checks every
// output it produces, and prints one JSON object as its last stdout line:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}},
//    "info":{...}}
//
//   rbbench --workload sweep|byz|deploy --seed N --seconds S
//           --trace 0|1 --workdir DIR [--digests FILE] [--expect-digest HEX]
//           [--spans FILE] [--setup-only] [--smoke]
//
// --trace 0 is the timed run: ops run back to back for S seconds with no
// instrumentation beyond what the end-to-end metrics need. --trace 1 is the
// separate traced run: it repeats the timed loop untraced, then runs the same
// kind of ops with spans recorded around every public call, and reports
// per-layer numbers, each op's unattributed remainder, and the tracing
// overhead. --setup-only stops after set-up (run.py times several cold
// processes this way for setup_s). --smoke shrinks every workload to its
// smallest size (the benchmark's own test).
//
// The end-to-end times are process CPU times (every thread, user plus
// system), not wall times. On a shared virtual machine the wall time of an
// op also counts the time the hypervisor or another process held the CPU:
// with three memory-streaming neighbours on four vCPUs, sweep wall
// throughput halved while its CPU time per trial rose 5%. Wall-time
// throughput and latency are still printed as info lines.
//
// Every op uses fresh inputs derived from (seed, op index): repeating one
// input would let process-wide memo caches (protocols/determination.h's
// PackingMemo) serve later ops, which a user running new seeds never sees.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "radiobcast/campaign/engine.h"
#include "radiobcast/campaign/report.h"
#include "radiobcast/campaign/spec.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/fault/fault_set.h"
#include "radiobcast/grid/adjacency.h"
#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/net/backend.h"
#include "radiobcast/obs/latency.h"
#include "radiobcast/obs/memory.h"
#include "radiobcast/protocols/determination.h"
#include "radiobcast/runtime/event_loop.h"
#include "radiobcast/runtime/harness.h"
#include "radiobcast/runtime/scenario.h"
#include "radiobcast/util/rng.h"
#include "radiobcast/util/sha256.h"

#ifndef RBBENCH_BUILD_TYPE
#define RBBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rbcast;
using Clock = std::chrono::steady_clock;

// Process start, as close as a static initializer gets.
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// CPU time of the whole process (every thread), user plus system. The
/// kernel leaves out the time the hypervisor ran something else on our
/// virtual CPU (steal), and the time other processes held it.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Output: metrics with units, free-form info, and the pass/fail ledger.

struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& value) {
    info.push_back({key, value});
  }
  /// Records `ops` checked operations; all of them count as failed unless ok.
  void check(bool ok, std::uint64_t ops, const std::string& what) {
    attempted += ops;
    if (!ok) flag(ops, what);
  }
  /// Marks `ops` already-attempted operations as failed.
  void flag(std::uint64_t ops, const std::string& what) {
    failed += ops;
    if (failures.size() < 20) failures.push_back(what);
  }
};

std::string json_str(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_report(const Report& r) {
  for (const std::string& f : r.failures) std::cerr << "FAILED: " << f;
  std::ostringstream os;
  os << "{\"correct\":" << (r.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    os << (i ? "," : "") << json_str(r.metrics[i].first) << ":{\"value\":"
       << fmt(r.metrics[i].second.first)
       << ",\"unit\":" << json_str(r.metrics[i].second.second) << "}";
  }
  os << "},\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    os << (i ? "," : "") << json_str(r.info[i].first) << ":"
       << json_str(r.info[i].second);
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. Below 21 samples that would fall under the median, so the
/// tail is then the maximum. Returns (value, percentile).
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 21) return {v.back(), 100.0};
  return {v[n - 11],
          100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

/// q-quantile of a log2-bucketed latency histogram, interpolated linearly
/// inside the bucket that holds it (bucket b >= 1 spans [2^(b-1), 2^b) us).
double hist_quantile_us(const LatencyHistogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double target = q * static_cast<double>(h.count());
  double seen = 0.0;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const double c = static_cast<double>(h.bucket(b));
    if (c == 0.0) continue;
    if (seen + c >= target) {
      if (b == 0) return 0.0;
      const double lo = static_cast<double>(1ULL << (b - 1));
      const double hi = std::min(static_cast<double>(1ULL << b),
                                 static_cast<double>(h.max_us()));
      return lo + std::max(0.0, hi - lo) * (target - seen) / c;
    }
    seen += c;
  }
  return static_cast<double>(h.max_us());
}

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around each public call in traced runs,
// kept in memory, written out as JSONL at the end. Every traced call is made
// from the benchmark's own thread.

struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;

  /// Runs f() inside a span when tracing is on; a plain call otherwise.
  template <class F>
  auto call(const char* name, const char* layer, F&& f) -> decltype(f()) {
    if (!on) return f();
    const int id = static_cast<int>(spans.size());
    spans.push_back({name, layer, now_s(), 0.0, open_});
    open_ = id;
    const Close close{*this, id};
    return f();
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << "{\"id\":" << i << ",\"name\":" << json_str(s.name)
         << ",\"layer\":" << json_str(s.layer) << ",\"start\":" << fmt(s.start)
         << ",\"end\":" << fmt(s.end) << ",\"parent\":" << s.parent << "}\n";
    }
  }

 private:
  struct Close {
    Tracer& t;
    int id;
    ~Close() {
      Span& s = t.spans[static_cast<std::size_t>(id)];
      s.end = now_s();
      t.open_ = s.parent;
    }
  };
  int open_ = -1;
};

/// Self time per layer under root spans named `root`: each span's duration
/// minus its children's. The roots' own self time is the op's unattributed
/// remainder, so layers + remainder == op wall time exactly.
struct Breakdown {
  std::size_t ops = 0;
  double op_s = 0.0;
  double unattributed_s = 0.0;
  std::map<std::string, double> layer_self_s;
};

Breakdown breakdown(const std::vector<Span>& spans, const std::string& root) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  Breakdown b;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t r = i;
    while (spans[r].parent >= 0) r = static_cast<std::size_t>(spans[r].parent);
    if (spans[r].name != root) continue;
    const Span& s = spans[i];
    const double self = (s.end - s.start) - child_s[i];
    if (s.parent < 0) {
      ++b.ops;
      b.op_s += s.end - s.start;
      b.unattributed_s += self;
    } else {
      b.layer_self_s[s.layer] += self;
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Per-layer accumulators. Every workload prints every per-layer metric; a
// layer a workload does not exercise reads 0.

struct SimStats {
  std::size_t trials = 0;
  double place_s = 0.0, validate_s = 0.0, faults = 0.0;
  double setup_s = 0.0, rounds_s = 0.0, verdict_s = 0.0, teardown_s = 0.0;
  double rounds = 0.0, deliveries = 0.0, transmissions = 0.0;
  double heard = 0.0, commits = 0.0, wrong = 0.0;
  std::uint64_t engine_bytes = 0;

  void add_sim(const SimResult& r, double sim_wall_s) {
    ++trials;
    setup_s += r.timers.setup_seconds;
    rounds_s += r.timers.rounds_seconds;
    verdict_s += r.timers.verdict_seconds;
    teardown_s += sim_wall_s - r.timers.total_seconds();
    rounds += static_cast<double>(r.rounds);
    deliveries += static_cast<double>(r.counters.envelopes_delivered);
    transmissions += static_cast<double>(r.transmissions);
    heard += static_cast<double>(r.counters.heard_queued);
    commits += static_cast<double>(r.counters.commits);
    wrong += static_cast<double>(r.wrong_commits);
    engine_bytes = std::max(engine_bytes, r.counters.engine_bytes_peak);
  }

  void emit(Report& rep) const {
    const double n = trials ? static_cast<double>(trials) : 1.0;
    rep.metric("fault.place_s", place_s / n, "s");
    rep.metric("fault.validate_s", validate_s / n, "s");
    rep.metric("fault.faults", faults / n, "count");
    rep.metric("core.setup_s", setup_s / n, "s");
    rep.metric("core.rounds_s", rounds_s / n, "s");
    rep.metric("core.verdict_s", verdict_s / n, "s");
    rep.metric("core.teardown_s", teardown_s / n, "s");
    rep.metric("core.rounds", rounds / n, "count");
    rep.metric("net.deliveries", deliveries / n, "count");
    rep.metric("net.transmissions", transmissions / n, "count");
    rep.metric("net.deliveries_per_s",
               rounds_s > 0 ? deliveries / rounds_s : 0.0, "1/s");
    rep.metric("net.engine_mib", static_cast<double>(engine_bytes) / kMiB,
               "MiB");
    rep.metric("protocols.heard", heard / n, "count");
    rep.metric("protocols.commits", commits / n, "count");
    rep.metric("protocols.heard_per_s", rounds_s > 0 ? heard / rounds_s : 0.0,
               "1/s");
    rep.metric("protocols.wrong_commits", wrong, "count");
  }
};

struct CampaignStats {
  std::vector<double> trial_s;
  double busy_share = 0.0;
  double journal_s_per_trial = 0.0, journal_bytes = 0.0;
  double export_s = 0.0, export_bytes = 0.0;

  void emit(Report& rep) const {
    rep.metric("campaign.trial_s_p50", median(trial_s), "s");
    rep.metric("campaign.trial_s_tail", tail(trial_s).first, "s");
    rep.metric("campaign.busy_share", busy_share, "ratio");
    rep.metric("campaign.journal_s_per_trial", journal_s_per_trial, "s");
    rep.metric("campaign.journal_bytes", journal_bytes, "B");
    rep.metric("campaign.export_s", export_s, "s");
    rep.metric("campaign.export_bytes", export_bytes, "B");
  }
};

struct RuntimeStats {
  std::size_t deployments = 0;
  double rounds = 0.0, wall_s = 0.0, cpu_s = 0.0, node_s = 0.0;
  Counters counters;
  LatencyHistogram round_latency, commit_latency;
  std::atomic<std::uint64_t> handler_ns{0};

  void emit(Report& rep) const {
    const auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double sent = static_cast<double>(counters.packets_sent);
    rep.metric("runtime.packets_per_round", share(sent, rounds), "count");
    rep.metric("runtime.retransmit_share",
               share(static_cast<double>(counters.packets_retransmitted), sent),
               "ratio");
    rep.metric("runtime.dup_drop_share",
               share(static_cast<double>(counters.duplicates_dropped), sent),
               "ratio");
    rep.metric(
        "runtime.barrier_wait_share",
        share(1e-6 * static_cast<double>(counters.barrier_wait_us), node_s),
        "ratio");
    rep.metric("runtime.barrier_timeouts",
               static_cast<double>(counters.barrier_timeouts), "count");
    rep.metric("runtime.round_us_p50", hist_quantile_us(round_latency, 0.50),
               "us");
    rep.metric("runtime.round_us_p99", hist_quantile_us(round_latency, 0.99),
               "us");
    rep.metric("runtime.commit_us_p50", hist_quantile_us(commit_latency, 0.50),
               "us");
    rep.metric("runtime.cpu_cores", share(cpu_s, wall_s), "ratio");
    rep.metric("runtime.handler_s",
               deployments ? 1e-9 * static_cast<double>(handler_ns.load()) /
                                 static_cast<double>(deployments)
                           : 0.0,
               "s");
  }
};

// ---------------------------------------------------------------------------
// Shared trial plumbing.

/// The scoring fields of one trial. Deliberately not the counter JSON, so
/// adding a counter never changes a digest.
std::string scoring_line(const std::string& label, const TrialOutcome& o) {
  std::ostringstream os;
  os << label << " success=" << o.success << " correct=" << o.correct_commits
     << " wrong=" << o.wrong_commits
     << " undecided=" << (o.honest_nodes - o.correct_commits - o.wrong_commits)
     << " rounds=" << o.rounds << " faults=" << o.fault_count
     << " nbd=" << o.nbd_faults << "\n";
  return os.str();
}

/// One simulator trial through the same public calls the campaign engine
/// makes: trial_seed, make_faults, run_simulation, max_closed_nbd_faults,
/// summarize_trial. `stats` (traced runs) collects per-layer numbers.
TrialOutcome sim_trial(const CampaignCell& cell, const Torus& torus, int rep,
                       Tracer& tr, SimStats* stats) {
  const std::uint64_t seed = tr.call("trial_seed", "campaign", [&] {
    return trial_seed(cell.sim.seed, rep, 0);
  });
  SimConfig cfg = cell.sim;
  cfg.seed = seed;
  Rng rng(seed);
  const double t0 = stats ? now_s() : 0.0;
  const FaultSet faults = tr.call("make_faults", "fault", [&] {
    return make_faults(cell.placement, torus, cfg.r, cfg.metric, cfg.t,
                       cfg.source, rng);
  });
  const double t1 = stats ? now_s() : 0.0;
  const SimResult result = tr.call("run_simulation", "core",
                                   [&] { return run_simulation(cfg, faults); });
  const double t2 = stats ? now_s() : 0.0;
  const std::int64_t nbd = tr.call("max_closed_nbd_faults", "fault", [&] {
    return max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric);
  });
  const double t3 = stats ? now_s() : 0.0;
  TrialOutcome out = tr.call("summarize_trial", "core", [&] {
    return summarize_trial(result, static_cast<std::int64_t>(faults.size()),
                           nbd);
  });
  if (stats) {
    stats->add_sim(result, t2 - t1);
    stats->place_s += t1 - t0;
    stats->validate_s += t3 - t2;
    stats->faults += static_cast<double>(faults.size());
  }
  return out;
}

/// Runs f(). A throw (a failed trial, or a TrialTimeoutError from the 60 s
/// deadline) is recorded as one failed op and yields nullopt.
template <class F>
auto guarded(Report& rep, const std::string& what, F&& f)
    -> std::optional<decltype(f())> {
  try {
    return f();
  } catch (const std::exception& e) {
    rep.check(false, 1, what + " threw: " + e.what() + "\n");
    return std::nullopt;
  }
}

/// First NeighborhoodTable / Adjacency / CenterTable build for one shape.
double cold_build(std::int32_t w, std::int32_t h, std::int32_t r,
                  bool centers) {
  const double t0 = now_s();
  const Torus torus(w, h);
  (void)Adjacency::get(torus, NeighborhoodTable::get(r, Metric::kLInf));
  if (centers && CenterTable::supported(r, Metric::kLInf)) {
    (void)CenterTable::get(r, Metric::kLInf, w, h);
  }
  return now_s() - t0;
}

CampaignCell byz_cell(ProtocolKind p, std::int32_t side, std::int32_t r,
                      std::int64_t t, std::uint64_t seed) {
  CampaignCell cell;
  cell.label = std::string(to_string(p)) + " " + std::to_string(side) + "x" +
               std::to_string(side) + " r=" + std::to_string(r) +
               " t=" + std::to_string(t);
  cell.sim.width = cell.sim.height = side;
  cell.sim.r = r;
  cell.sim.t = t;
  cell.sim.protocol = p;
  cell.sim.adversary = AdversaryKind::kLying;
  cell.sim.seed = seed;
  cell.sim.deadline_ms = 60000;
  cell.placement.kind = PlacementKind::kRandomBounded;
  return cell;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Ctx {
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string workdir;
  Report report;
  Tracer tracer;
  SimStats sim;
  CampaignStats campaign;
  RuntimeStats runtime;
};

/// What one phase of back-to-back ops measured.
struct Phase {
  std::size_t trials = 0;  // trials (deploy: deployments) completed
  double busy_s = 0.0;     // summed op wall time; inputs and checks excluded
  double cpu_busy_s = 0.0;  // process CPU time over the same spans
  double wall_s = 0.0;
  double rounds = 0.0;     // simulated (deploy: runtime) rounds
  /// Wall time, throughput and CPU time of each cycle of distinct
  /// configurations (one op, or one trial per configuration on byz).
  std::vector<double> cycle_s, cycle_trials_per_s, cycle_rounds_per_s;
  std::vector<double> cycle_cpu_s;

  double trials_per_s() const { return median(cycle_trials_per_s); }
  double rounds_per_s() const { return median(cycle_rounds_per_s); }
  double cpu_s_per_trial() const {
    return trials ? cpu_busy_s / static_cast<double>(trials) : 0.0;
  }
  double cpu_s_per_round() const {
    return rounds > 0 ? cpu_busy_s / rounds : 0.0;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Root span name of the traced per-op breakdown.
  virtual const char* root() const { return "trial"; }
  /// Ops per cycle of distinct configurations; phases end on a cycle edge.
  virtual std::size_t cycle() const { return 1; }
  /// Builds the inputs and runs one untimed warm-up op per distinct
  /// configuration (ops 0 .. cycle()-1). Returns the warm-up's scoring
  /// digest.
  virtual std::string setup(Ctx& ctx) = 0;
  /// Runs and checks op `k`, adding what it measured to `phase`.
  virtual void op(Ctx& ctx, std::size_t k, Phase& phase) = 0;
  /// Phases the traced run splits --seconds into.
  virtual int traced_phases() const { return 2; }
  /// Traced run only, after the traced phase (tracer still on).
  virtual void extras(Ctx&, double /*seconds*/, std::size_t& /*next_op*/,
                      const Phase& /*untraced*/) {}

  double grid_cold_build_s = 0.0;
};

/// Runs ops up to the next cycle edge and records the cycle's throughput.
void run_cycle(Workload& w, Ctx& ctx, std::size_t& next_op, Phase& phase) {
  const double busy0 = phase.busy_s, rounds0 = phase.rounds;
  const double cpu0 = phase.cpu_busy_s;
  const std::size_t trials0 = phase.trials;
  do {
    w.op(ctx, next_op++, phase);
  } while (next_op % w.cycle() != 0);
  const double dt = phase.busy_s - busy0;
  if (dt <= 0) return;  // every op of the cycle failed
  phase.cycle_s.push_back(dt);
  phase.cycle_trials_per_s.push_back(
      static_cast<double>(phase.trials - trials0) / dt);
  phase.cycle_rounds_per_s.push_back((phase.rounds - rounds0) / dt);
  phase.cycle_cpu_s.push_back(phase.cpu_busy_s - cpu0);
}

Phase run_phase(Workload& w, Ctx& ctx, double seconds, std::size_t& next_op) {
  Phase phase;
  const double start = now_s();
  do {
    run_cycle(w, ctx, next_op, phase);
  } while (now_s() - start < seconds);
  phase.wall_s = now_s() - start;
  return phase;
}

// sweep ----------------------------------------------------------------------
// A threshold sweep run the way the README runs long campaigns: run_cells at
// 4 workers with keep-going and a JSON+CSV export. Many sub-millisecond
// trials, so fixed per-trial costs dominate. The timed ops run without the
// fsync'd journal: one fsync per trial made throughput track the disk (the
// fsync rate of the measuring host swung 2.7k-8.7k/s within half a minute,
// and sweep throughput 930-3740 trials/s across ten runs). The traced run
// measures the journal's cost per trial by repeating the sweep with it on.

class SweepWorkload final : public Workload {
 public:
  int traced_phases() const override { return 3; }

  std::string setup(Ctx& ctx) override {
    reps_ = ctx.smoke ? 2 : 80;
    grid_cold_build_s = cold_build(12, 12, 1, true);
    warm_cells_ = make_cells(ctx.seed, 0);
    warm_lines_ = check(ctx, run(ctx, warm_cells_, nullptr));
    return sha256_hex(std::accumulate(warm_lines_.begin(), warm_lines_.end(),
                                      std::string()));
  }

  void op(Ctx& ctx, std::size_t k, Phase& phase) override {
    const std::vector<CampaignCell> cells = make_cells(ctx.seed, k);
    std::vector<double> trial_s;
    const double c0 = cpu_s();
    const double t0 = now_s();
    const CampaignResult result = ctx.tracer.call("sweep", "bench", [&] {
      return run(ctx, cells, ctx.tracer.on ? &trial_s : nullptr);
    });
    phase.busy_s += now_s() - t0;
    phase.cpu_busy_s += cpu_s() - c0;
    check(ctx, result);
    phase.trials += result.trial_count;
    phase.rounds += static_cast<double>(result.total().rounds_total);
    if (ctx.tracer.on) {
      CampaignStats& cs = ctx.campaign;
      cs.trial_s.insert(cs.trial_s.end(), trial_s.begin(), trial_s.end());
      traced_trial_s_ += std::accumulate(trial_s.begin(), trial_s.end(), 0.0);
      traced_run_cells_s_ += last_run_cells_s_;
      traced_export_s_ += last_export_s_;
      cs.export_bytes = last_export_bytes_;
      ++traced_ops_;
    }
  }

  void extras(Ctx& ctx, double seconds, std::size_t& next_op,
              const Phase& untraced) override {
    CampaignStats& cs = ctx.campaign;
    const double ops = traced_ops_ ? static_cast<double>(traced_ops_) : 1.0;
    cs.busy_share = traced_trial_s_ / (4.0 * traced_run_cells_s_);
    cs.export_s = traced_export_s_ / ops;

    // Journal cost: the same sweep with the journal on, against the
    // untraced journal-off phase.
    ctx.tracer.on = false;
    journal_ = ctx.workdir + "/sweep.wal";
    const Phase on = run_phase(*this, ctx, seconds, next_op);
    cs.journal_bytes = last_journal_bytes_;
    journal_.clear();
    cs.journal_s_per_trial =
        on.busy_s / static_cast<double>(on.trials) -
        untraced.busy_s / static_cast<double>(untraced.trials);
    ctx.tracer.on = true;

    // Serial replay of the warm-up sweep through the per-trial public calls
    // under trial_seed(cell seed, rep, 0). Its digest must equal the campaign
    // engine's, which shows the breakdown measured the same program.
    for (std::size_t c = 0; c < warm_cells_.size(); ++c) {
      const CampaignCell& cell = warm_cells_[c];
      const Torus torus(cell.sim.width, cell.sim.height);
      Aggregate agg;
      for (int rep = 0; rep < cell.reps; ++rep) {
        agg.add(ctx.tracer.call("trial", "bench", [&] {
          return sim_trial(cell, torus, rep, ctx.tracer, &ctx.sim);
        }));
      }
      const std::string line = cell_line(cell, agg);
      ctx.report.check(line == warm_lines_[c],
                       static_cast<std::uint64_t>(cell.reps),
                       "serial replay differs from run_cells: " + line);
    }
  }

 private:
  std::vector<CampaignCell> make_cells(std::uint64_t seed,
                                       std::size_t k) const {
    CampaignSpec spec;
    spec.base.metric = Metric::kLInf;
    spec.base.deadline_ms = 60000;  // the README's --trial-deadline-ms
    spec.protocols = {ProtocolKind::kCrashFlood, ProtocolKind::kCpa,
                      ProtocolKind::kBvTwoHop};
    spec.adversaries = {AdversaryKind::kSilent, AdversaryKind::kLying};
    spec.placements = {PlacementKind::kRandomBounded};
    spec.radii = {1};
    spec.budgets = {0, 1, 2, 3};
    spec.sides = {12};
    spec.reps = reps_;
    spec.base_seed = hash_seeds(seed, static_cast<std::uint64_t>(k));
    return spec.expand();
  }

  CampaignResult run(Ctx& ctx, const std::vector<CampaignCell>& cells,
                     std::vector<double>* trial_s) {
    CampaignOptions opt;
    opt.workers = 4;
    opt.on_error = ErrorPolicy::kKeepGoing;
    if (!journal_.empty()) {
      std::filesystem::remove(journal_);
      opt.journal_path = journal_;
    }
    if (trial_s) {
      // A trial's span runs from its attempt start (fault_injection hook, on
      // the worker) to its completion report (progress hook, called by the
      // same worker right after the trial, under the engine mutex).
      opt.fault_injection = [](std::size_t, int, int) {
        attempt_start() = now_s();
      };
      opt.progress = [trial_s](std::size_t, std::size_t) {
        trial_s->push_back(now_s() - attempt_start());
      };
    }
    const double t0 = now_s();
    CampaignResult result = ctx.tracer.call(
        "run_cells", "campaign", [&] { return run_cells(cells, opt); });
    const double t1 = now_s();
    last_run_cells_s_ = t1 - t0;
    last_journal_bytes_ =
        journal_.empty()
            ? 0.0
            : static_cast<double>(std::filesystem::file_size(journal_));
    const std::string base = ctx.workdir + "/sweep";
    last_export_bytes_ =
        ctx.tracer.call("write_json", "campaign", [&] {
          std::ofstream os(base + ".json");
          write_json(os, result);
          return static_cast<double>(os.tellp());
        }) +
        ctx.tracer.call("write_csv", "campaign", [&] {
          std::ofstream os(base + ".csv");
          write_csv(os, result);
          return static_cast<double>(os.tellp());
        });
    last_export_s_ = now_s() - t1;
    return result;
  }

  static double& attempt_start() {
    thread_local double start = 0.0;
    return start;
  }

  static std::string cell_line(const CampaignCell& cell, const Aggregate& a) {
    std::ostringstream os;
    os << cell.label << " runs=" << a.runs << " successes=" << a.successes
       << " correct=" << a.correct_total << " wrong=" << a.wrong_total
       << " undecided=" << (a.honest_total - a.correct_total - a.wrong_total)
       << " rounds=" << a.rounds_total << " faults=" << a.fault_total
       << " nbd=" << a.max_nbd_faults << "\n";
    return os.str();
  }

  /// Checks every cell and returns its scoring line; a bad cell fails all of
  /// its trials.
  std::vector<std::string> check(Ctx& ctx, const CampaignResult& result) const {
    std::vector<std::string> lines;
    for (const CellResult& cr : result.cells) {
      const Aggregate& a = cr.aggregate;
      const SimConfig& s = cr.cell.sim;
      const std::int64_t ball = static_cast<std::int64_t>(s.r) * (2 * s.r + 1);
      bool ok = cr.failures.empty() && a.runs == cr.cell.reps &&
                a.max_nbd_faults <= s.t;
      // Safety: CPA and the Byzantine protocols never commit a wrong value
      // while the placement respects the bound t they assume (Thm 2).
      if (s.protocol != ProtocolKind::kCrashFlood) {
        ok = ok && a.wrong_total == 0;
      }
      // Liveness below the exact thresholds: t < r(2r+1)/2 for the Byzantine
      // two-hop protocol (Thm 1-3), t < r(2r+1) for crash-stop flooding.
      if (s.protocol == ProtocolKind::kBvTwoHop && 2 * s.t < ball) {
        ok = ok && a.successes == a.runs;
      }
      if (s.protocol == ProtocolKind::kCrashFlood &&
          s.adversary == AdversaryKind::kSilent && s.t < ball) {
        ok = ok && a.successes == a.runs;
      }
      lines.push_back(cell_line(cr.cell, a));
      ctx.report.check(ok, static_cast<std::uint64_t>(cr.cell.reps),
                       "sweep cell: " + lines.back());
    }
    return lines;
  }

  int reps_ = 80;
  std::string journal_;
  std::vector<CampaignCell> warm_cells_;
  std::vector<std::string> warm_lines_;
  double last_run_cells_s_ = 0.0, last_export_s_ = 0.0;
  double last_journal_bytes_ = 0.0, last_export_bytes_ = 0.0;
  double traced_trial_s_ = 0.0, traced_run_cells_s_ = 0.0;
  double traced_export_s_ = 0.0;
  std::size_t traced_ops_ = 0;
};

// byz -----------------------------------------------------------------------
// Single simulator trials run one at a time on the calling thread:
// bv-4hop-flood on 12x12 (the slowest golden row's configuration),
// bv-4hop-earmarked on 32x32 and bv-2hop on 20x20, all at r = 2, t = 4 (one
// below the exact threshold r(2r+1)/2 = 5) with lying adversaries. Op k runs
// configuration k % 3 at rep k / 3, so every op has a fresh fault placement.
// Theorems 1-3 require every trial to succeed with zero wrong commits.

class ByzWorkload final : public Workload {
 public:
  std::size_t cycle() const override { return cells_.size(); }

  std::string setup(Ctx& ctx) override {
    const std::int32_t r = ctx.smoke ? 1 : 2;
    const std::int64_t t = ctx.smoke ? 1 : 4;
    const std::int32_t s1 = ctx.smoke ? 12 : 32, s2 = ctx.smoke ? 12 : 20;
    cells_ = {byz_cell(ProtocolKind::kBvIndirectFlood, 12, r, t,
                       hash_seeds(ctx.seed, 0)),
              byz_cell(ProtocolKind::kBvIndirectEarmarked, s1, r, t,
                       hash_seeds(ctx.seed, 1)),
              byz_cell(ProtocolKind::kBvTwoHop, s2, r, t,
                       hash_seeds(ctx.seed, 2))};
    for (const CampaignCell& c : cells_) {
      tori_.emplace_back(c.sim.width, c.sim.height);
      grid_cold_build_s += cold_build(c.sim.width, c.sim.height, c.sim.r, true);
    }
    std::string lines;
    for (std::size_t k = 0; k < cells_.size(); ++k) {
      Phase warm;
      lines += run_op(ctx, k, warm);
    }
    return sha256_hex(lines);
  }

  void op(Ctx& ctx, std::size_t k, Phase& phase) override {
    run_op(ctx, k, phase);
  }

 private:
  /// Runs op k; returns its scoring line.
  std::string run_op(Ctx& ctx, std::size_t k, Phase& phase) {
    const std::size_t i = k % cells_.size();
    const int rep = static_cast<int>(k / cells_.size());
    const CampaignCell& cell = cells_[i];
    SimStats* stats = ctx.tracer.on ? &ctx.sim : nullptr;
    const double c0 = cpu_s();
    const double t0 = now_s();
    const std::optional<TrialOutcome> o = guarded(ctx.report, cell.label, [&] {
      return ctx.tracer.call("trial", "bench", [&] {
        return sim_trial(cell, tori_[i], rep, ctx.tracer, stats);
      });
    });
    const double dt = now_s() - t0;
    const double dcpu = cpu_s() - c0;
    if (!o) return cell.label + " error\n";
    phase.busy_s += dt;
    phase.cpu_busy_s += dcpu;
    phase.trials += 1;
    phase.rounds += static_cast<double>(o->rounds);
    if (ctx.tracer.on) ctx.campaign.trial_s.push_back(dt);
    const std::string line = scoring_line(cell.label, *o);
    ctx.report.check(
        o->success && o->wrong_commits == 0 && o->nbd_faults <= cell.sim.t, 1,
        "byz trial: " + line);
    return line;
  }

  std::vector<CampaignCell> cells_;
  std::vector<Torus> tori_;
};

// deploy --------------------------------------------------------------------
// In-process UDP deployments launched one after another through
// run_scenario_threads: 6x6 bv-2hop, r = 1, t = 1, one lying node placed by
// make_faults, 256 rounds, epoll backend, one shared socket. The only
// workload that exercises the runtime (codec, PerfectLink, barriers, event
// loop). The 36 node threads are the runtime's own; the benchmark adds none.
// Every deployment must match run_simulation of its scenario node for node.
//
// The process is pinned to one CPU. Each round is a chain of cross-thread
// wake-ups. Unpinned, the 36 threads wake each other across 4 vCPUs, and
// both the wall time (0.11-0.88 s per deployment across ten runs) and the
// CPU time (416-546 ms, against 198-219 ms pinned, in alternating runs)
// followed the host's load. On one CPU the wake-ups are local context
// switches and the time measures the runtime's own work.

/// Restricts this process (and every thread it starts later) to the first
/// CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
}

/// Times a behavior's callbacks (traced runs only); adds the node's total to
/// a shared counter once, when the node's behavior is destroyed.
class TimedBehavior final : public NodeBehavior {
 public:
  TimedBehavior(std::unique_ptr<NodeBehavior> inner,
                std::atomic<std::uint64_t>& sink)
      : inner_(std::move(inner)), sink_(sink) {}
  ~TimedBehavior() override { sink_.fetch_add(ns_, std::memory_order_relaxed); }
  TimedBehavior(const TimedBehavior&) = delete;
  TimedBehavior& operator=(const TimedBehavior&) = delete;

  void on_start(NodeContext& ctx) override {
    timed([&] { inner_->on_start(ctx); });
  }
  void on_receive(NodeContext& ctx, const Envelope& env) override {
    timed([&] { inner_->on_receive(ctx, env); });
  }
  void on_round_end(NodeContext& ctx) override {
    timed([&] { inner_->on_round_end(ctx); });
  }
  std::optional<std::uint8_t> committed_value() const override {
    return inner_->committed_value();
  }
  std::optional<std::int64_t> commit_round() const override {
    return inner_->commit_round();
  }

 private:
  template <class F>
  void timed(F&& f) {
    const auto t0 = Clock::now();
    f();
    ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  }

  std::unique_ptr<NodeBehavior> inner_;
  std::atomic<std::uint64_t>& sink_;
  std::uint64_t ns_ = 0;
};

class DeployWorkload final : public Workload {
 public:
  const char* root() const override { return "deploy"; }

  std::string setup(Ctx& ctx) override {
    rounds_ = ctx.smoke ? 32 : 256;
    pin_to_one_cpu();
    grid_cold_build_s = cold_build(6, 6, 1, true);
    Phase warm;
    return sha256_hex(run_op(ctx, 0, warm));
  }

  void op(Ctx& ctx, std::size_t k, Phase& phase) override {
    run_op(ctx, k, phase);
  }

 private:
  Scenario make_scenario(Ctx& ctx, std::size_t k) const {
    Scenario s;
    s.sim.width = s.sim.height = 6;
    s.sim.r = 1;
    s.sim.t = 1;
    s.sim.protocol = ProtocolKind::kBvTwoHop;
    s.sim.adversary = AdversaryKind::kLying;
    s.sim.max_rounds = rounds_;
    s.sim.seed = trial_seed(hash_seeds(ctx.seed, 11), static_cast<int>(k), 0);
    s.backend = RuntimeBackend::kEpoll;
    s.shared_socket = true;
    s.round_timeout_ms = 5000;
    s.linger_timeout_ms = 2000;
    const Torus torus(s.sim.width, s.sim.height);
    PlacementConfig one;
    one.kind = PlacementKind::kRandomBounded;
    one.random_target = 1;
    Rng rng(s.sim.seed);
    const double t0 = now_s();
    const FaultSet faults = make_faults(one, torus, s.sim.r, s.sim.metric,
                                        s.sim.t, s.sim.source, rng);
    const double t1 = now_s();
    const std::int64_t nbd =
        max_closed_nbd_faults(torus, faults, s.sim.r, s.sim.metric);
    if (ctx.tracer.on) {
      ctx.sim.place_s += t1 - t0;
      ctx.sim.validate_s += now_s() - t1;
      ctx.sim.faults += static_cast<double>(faults.size());
    }
    if (faults.size() != 1 || nbd > s.sim.t) {
      throw std::logic_error(
          "deploy: make_faults did not place one legal fault");
    }
    s.faults = faults.sorted();
    return s;
  }

  /// Runs deployment k; returns its scoring lines (per-node verdicts).
  std::string run_op(Ctx& ctx, std::size_t k, Phase& phase) {
    const Scenario scenario = make_scenario(ctx, k);
    const double s0 = now_s();
    const SimResult sim = run_simulation(scenario.sim, scenario.fault_set());
    if (ctx.tracer.on) ctx.sim.add_sim(sim, now_s() - s0);

    RuntimeStats& rs = ctx.runtime;
    std::function<void(RuntimeNode::Options&)> tweak;
    if (ctx.tracer.on) {
      tweak = [&rs](RuntimeNode::Options& o) {
        o.behavior_factory = [&rs](const SimConfig& c, const Torus& t,
                                   NodeRole role) {
          return std::unique_ptr<NodeBehavior>(new TimedBehavior(
              make_node_behavior(c, t, role), rs.handler_ns));
        };
      };
    }
    const double c0 = cpu_s();
    const double t0 = now_s();
    const std::optional<RuntimeResult> rt =
        guarded(ctx.report, "deployment", [&] {
          return ctx.tracer.call("deploy", "bench", [&] {
            return ctx.tracer.call("run_scenario_threads", "runtime", [&] {
              return run_scenario_threads(scenario, tweak);
            });
          });
        });
    const double dt = now_s() - t0;
    const double dcpu = cpu_s() - c0;
    if (!rt) return "error\n";
    phase.busy_s += dt;
    phase.cpu_busy_s += dcpu;
    phase.trials += 1;
    phase.rounds += static_cast<double>(rt->rounds);
    if (ctx.tracer.on) {
      ctx.campaign.trial_s.push_back(dt);
      rs.deployments += 1;
      rs.rounds += static_cast<double>(rt->rounds);
      rs.wall_s += dt;
      rs.cpu_s += dcpu;
      rs.node_s += dt * static_cast<double>(rt->verdicts.size());
      rs.counters.merge(rt->counters);
      rs.round_latency.merge(rt->round_latency);
      rs.commit_latency.merge(rt->commit_latency);
    }

    // Node for node against the simulator: role, committed value, round.
    std::ostringstream lines;
    bool ok = rt->success() && !rt->any_interrupted &&
              rt->verdicts.size() == sim.outcomes.size();
    for (const RuntimeVerdict& v : rt->verdicts) {
      const std::size_t i = static_cast<std::size_t>(v.index);
      if (i >= sim.outcomes.size()) {
        ok = false;
        continue;
      }
      const NodeOutcome want = sim.outcomes[i];
      NodeOutcome got = NodeOutcome::kUndecided;
      if (v.role == NodeRole::kSource) {
        got = NodeOutcome::kSource;
      } else if (v.role == NodeRole::kFaulty) {
        got = NodeOutcome::kFaulty;
      } else if (v.committed) {
        got = (*v.committed & 1) ? NodeOutcome::kCommitted1
                                 : NodeOutcome::kCommitted0;
      }
      const bool committed =
          want == NodeOutcome::kCommitted0 || want == NodeOutcome::kCommitted1;
      ok = ok && got == want &&
           (!committed || v.commit_round == sim.commit_rounds[i]);
      lines << "node " << v.index << " outcome=" << static_cast<int>(got)
            << " round=" << v.commit_round << "\n";
    }
    lines << "rounds=" << rt->rounds << " correct=" << rt->correct_commits
          << " wrong=" << rt->wrong_commits << "\n";
    ctx.report.check(ok, 1,
                     "deployment " + std::to_string(k) +
                         " differs from run_simulation of its scenario\n");
    return lines.str();
  }

  std::int64_t rounds_ = 256;
};

// ---------------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sweep") return std::make_unique<SweepWorkload>();
  if (name == "byz") return std::make_unique<ByzWorkload>();
  if (name == "deploy") return std::make_unique<DeployWorkload>();
  return nullptr;
}

/// Looks up "<workload> <scale> <seed> <digest>" in the recorded digests.
std::string recorded_digest(const std::string& path,
                            const std::string& workload,
                            const std::string& scale, std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string w, s, digest;
    std::uint64_t sd = 0;
    if (is >> w >> s >> sd >> digest && w == workload && s == scale &&
        sd == seed) {
      return digest;
    }
  }
  return "";
}

int usage(const char* why) {
  std::cerr << "rbbench: " << why
            << "\nusage: rbbench --workload sweep|byz|deploy --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--digests FILE] "
               "[--expect-digest HEX] [--spans FILE] [--setup-only] "
               "[--smoke]\n";
  return 2;
}

int real_main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool setup_only = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage(("bad argument " + a).c_str());
    }
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "workdir"}) {
    if (!args.count(k)) return usage((std::string("missing --") + k).c_str());
  }
  // Numbers from an unoptimised or assertion-enabled build are not the
  // program users run; refuse to report them.
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "rbbench: refusing to measure an unoptimised build ("
            << RBBENCH_BUILD_TYPE
            << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif

  Ctx ctx;
  ctx.seed = std::stoull(args["seed"]);
  ctx.smoke = smoke;
  ctx.workdir = args["workdir"];
  const double seconds = std::stod(args["seconds"]);
  const bool trace = args["trace"] == "1";
  const std::string name = args["workload"];
  std::unique_ptr<Workload> w = make_workload(name);
  if (!w) return usage(("unknown workload " + name).c_str());
  if (!(seconds > 0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(ctx.workdir);

  Report& rep = ctx.report;
  const std::string digest = w->setup(ctx);
  // setup_s is the CPU time the cold process has spent when timing starts
  // (from exec, so loading and static initialisation count too). Wall time
  // is printed beside it; on a shared host it also counts the time other
  // tenants held the CPU.
  const double setup_s = cpu_s();
  const double setup_wall_s = now_s();
  std::string expected = args["expect-digest"];
  if (expected.empty() && args.count("digests")) {
    expected = recorded_digest(args["digests"], name, smoke ? "smoke" : "full",
                               ctx.seed);
  }
  if (!expected.empty() && expected != digest) {
    rep.flag(w->cycle(),
             "warm-up digest " + digest + " != recorded " + expected + "\n");
  }
  rep.note("digest", digest);
  rep.note("expected_digest",
           expected.empty() ? "none recorded for this seed" : expected);
  rep.note("build", std::string(RBBENCH_BUILD_TYPE) + ", " + __VERSION__);
  rep.note("seed", args["seed"]);
  rep.note("setup_wall_s", fmt(setup_wall_s));

  std::size_t next_op = w->cycle();
  if (setup_only) {
    rep.metric("setup_s", setup_s, "s");
  } else if (!trace) {
    const Phase p = run_phase(*w, ctx, seconds, next_op);
    const auto [tail_s, tail_pct] = tail(p.cycle_cpu_s);
    rep.metric("cpu_ms_per_trial", 1e3 * p.cpu_s_per_trial(), "ms");
    rep.metric("cpu_us_per_round", 1e6 * p.cpu_s_per_round(), "us");
    rep.metric("op_cpu_s_p50", median(p.cycle_cpu_s), "s");
    rep.metric("op_cpu_s_tail", tail_s, "s");
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mib", static_cast<double>(peak_rss_bytes()) / kMiB,
               "MiB");
    rep.note("op_cpu_s_tail_percentile", fmt(tail_pct));
    rep.note("wall_trials_per_s", fmt(p.trials_per_s()));
    rep.note("wall_rounds_per_s", fmt(p.rounds_per_s()));
    rep.note("wall_op_s_p50", fmt(median(p.cycle_s)));
    rep.note("wall_op_s_tail", fmt(tail(p.cycle_s).first));
    rep.note("op_samples", std::to_string(p.cycle_s.size()));
    rep.note("trials", std::to_string(p.trials));
    const std::uint64_t ops = std::max<std::uint64_t>(rep.attempted, 1);
    rep.note("failed_share", fmt(static_cast<double>(rep.failed) /
                                 static_cast<double>(ops)));
  } else {
    // Untraced and traced cycles of the same loop alternate, so drift in
    // the host's speed hits both alike; fresh inputs throughout. The sweep
    // adds a journal-on phase.
    const double share = seconds / w->traced_phases();
    Phase untraced, traced;
    const double start = now_s();
    do {
      ctx.tracer.on = false;
      run_cycle(*w, ctx, next_op, untraced);
      ctx.tracer.on = true;
      const double t0 = now_s();
      run_cycle(*w, ctx, next_op, traced);
      traced.wall_s += now_s() - t0;
    } while (now_s() - start < 2 * share);
    if (traced.wall_s > 0) {
      ctx.campaign.busy_share = traced.busy_s / traced.wall_s;
    }
    w->extras(ctx, share, next_op, untraced);
    ctx.tracer.on = false;

    const Breakdown b = breakdown(ctx.tracer.spans, w->root());
    const double n = b.ops ? static_cast<double>(b.ops) : 1.0;
    const auto self = [&](const char* layer) {
      const auto it = b.layer_self_s.find(layer);
      return it == b.layer_self_s.end() ? 0.0 : it->second / n;
    };
    rep.metric("grid.cold_build_s", w->grid_cold_build_s, "s");
    ctx.sim.emit(rep);
    ctx.campaign.emit(rep);
    ctx.runtime.emit(rep);
    rep.metric("trace.op_s", b.op_s / n, "s");
    rep.metric("fault.self_s", self("fault"), "s");
    rep.metric("core.self_s", self("core"), "s");
    rep.metric("campaign.self_s", self("campaign"), "s");
    rep.metric("runtime.self_s", self("runtime"), "s");
    rep.metric("trace.unattributed_s", b.unattributed_s / n, "s");
    rep.metric("trace.overhead_share",
               untraced.cpu_s_per_trial() > 0
                   ? traced.cpu_s_per_trial() / untraced.cpu_s_per_trial() - 1.0
                   : 0.0,
               "ratio");
    rep.note("traced_ops", std::to_string(b.ops));
    rep.note("untraced_cpu_ms_per_trial",
             fmt(1e3 * untraced.cpu_s_per_trial()));
    rep.note("traced_cpu_ms_per_trial", fmt(1e3 * traced.cpu_s_per_trial()));
    if (args.count("spans")) {
      ctx.tracer.write_jsonl(args["spans"]);
      rep.note("spans", args["spans"]);
    }
  }
  print_report(rep);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return real_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "rbbench: " << e.what() << "\n";
    return 1;
  }
}
