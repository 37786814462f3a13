// radiobcast-runtime: orchestrates a full networked deployment on loopback.
//
// Launches one radiobcast-node process per torus node from a shared scenario
// file (or runs them as in-process threads with --in-process), supervises
// the children (per-node exit ledger, optional --respawn of crashed or
// killed nodes from their snapshots), collects every per-node verdict —
// synthesizing a crashed placeholder from the node's snapshot when a process
// died before writing one — scores the outcome like run_simulation would,
// and prints a summary plus <out>/deployment.txt.
//
// Exit codes: 0 success, 3 when --expect-all-commit or
// --expect-degraded-correct fails, 130/143 on SIGINT/SIGTERM (children are
// forwarded SIGTERM and reaped first), 2 on bad usage, 1 on runtime errors
// (including a node binary that failed to exec).

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "radiobcast/obs/memory.h"
#include "radiobcast/runtime/harness.h"
#include "radiobcast/runtime/scenario.h"
#include "radiobcast/runtime/snapshot.h"
#include "radiobcast/util/cli.h"
#include "radiobcast/util/shutdown.h"

namespace {

using namespace rbcast;

std::string sibling_binary(const char* argv0, const std::string& name) {
  std::string path(argv0);
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return name;  // rely on PATH
  return path.substr(0, slash + 1) + name;
}

/// Per-child supervision record — the deployment's fault ledger.
struct ChildState {
  pid_t pid = -1;
  bool running = false;
  int restarts = 0;
  int exit_code = -1;  // last exit status when the child exited
  int signal = 0;      // termination signal when it was killed
};

pid_t spawn_node(const std::string& node_bin, const std::string& scenario_path,
                 const std::string& out_dir, std::int64_t index, bool resume,
                 const std::string& backend) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const std::string idx = std::to_string(index);
  std::vector<std::string> argv_s = {node_bin,  "--scenario", scenario_path,
                                     "--index", idx,          "--out",
                                     out_dir,   "--quiet"};
  if (resume) argv_s.push_back("--resume");
  if (!backend.empty()) {
    argv_s.push_back("--backend");
    argv_s.push_back(backend);
  }
  std::vector<char*> argv_c;
  argv_c.reserve(argv_s.size() + 1);
  for (std::string& a : argv_s) argv_c.push_back(a.data());
  argv_c.push_back(nullptr);
  ::execv(node_bin.c_str(), argv_c.data());
  // Only reached when exec fails.
  std::cerr << "radiobcast-runtime: exec " << node_bin << ": "
            << std::strerror(errno) << "\n";
  ::_exit(127);
}

void print_ledger(std::ostream& os, const std::vector<ChildState>& ledger) {
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    const ChildState& c = ledger[i];
    const bool noteworthy = c.signal != 0 || c.restarts > 0 ||
                            (c.exit_code != 0 && c.exit_code != -1);
    if (!noteworthy) continue;
    os << "node " << i << ": ";
    if (c.signal != 0) {
      os << "killed by signal " << c.signal;
    } else {
      os << "exit " << c.exit_code;
      if (c.exit_code == 9) os << " (crash injection)";
    }
    if (c.restarts > 0) os << ", respawned x" << c.restarts;
    os << "\n";
  }
}

void print_summary(std::ostream& os, const Scenario& scenario,
                   const RuntimeResult& result) {
  os << "runtime: " << scenario.sim.width << "x" << scenario.sim.height
     << " torus, protocol " << to_string(scenario.sim.protocol)
     << ", adversary " << to_string(scenario.sim.adversary) << ", "
     << scenario.faults.size() << " faults\n"
     << "rounds " << result.rounds << ", honest " << result.honest_nodes
     << ", correct " << result.correct_commits << ", wrong "
     << result.wrong_commits << ", undecided " << result.undecided << "\n"
     << "packets sent " << result.counters.packets_sent << " (retransmitted "
     << result.counters.packets_retransmitted << "), acked "
     << result.counters.packets_acked << ", duplicates dropped "
     << result.counters.duplicates_dropped << ", barrier timeouts "
     << result.counters.barrier_timeouts << "\n";
  if (result.round_latency.count() > 0) {
    os << "round latency us: p50 " << result.round_latency.quantile_us(0.50)
       << ", p95 " << result.round_latency.quantile_us(0.95) << ", p99 "
       << result.round_latency.quantile_us(0.99) << ", max "
       << result.round_latency.max_us() << "\n";
  }
  if (result.commit_latency.count() > 0) {
    os << "commit latency us: p50 " << result.commit_latency.quantile_us(0.50)
       << ", p95 " << result.commit_latency.quantile_us(0.95) << ", p99 "
       << result.commit_latency.quantile_us(0.99) << ", max "
       << result.commit_latency.max_us() << "\n";
  }
  if (scenario.chaos.enabled()) {
    os << "chaos: drops " << result.counters.chaos_drops << ", duplicates "
       << result.counters.chaos_duplicates << ", delays "
       << result.counters.chaos_delays << ", partition drops "
       << result.counters.chaos_partition_drops << "\n";
  }
  if (result.degraded()) {
    os << "degraded: crashed " << result.crashed_nodes << ", restarts "
       << result.counters.node_restarts << ", peers suspected "
       << result.counters.peers_suspected << ", degraded rounds "
       << result.counters.degraded_rounds << "\n";
  }
  // Process-wide peak RSS (kernel-reported, nondeterministic — summary
  // only, same contract as the campaign summary's memory line).
  if (const std::uint64_t rss = peak_rss_bytes(); rss > 0) {
    os << "memory: orchestrator peak RSS "
       << rss / (1024 * 1024) << " MiB\n";
  }
  if (result.success()) {
    os << "RELIABLE BROADCAST ACHIEVED\n";
  } else if (result.degraded() && result.degraded_correct()) {
    os << "DEGRADED BUT CORRECT\n";
  } else {
    os << "reliable broadcast NOT achieved\n";
  }
}

int run_processes(const Scenario& scenario, const std::string& scenario_path,
                  const std::string& node_bin, const std::string& out_dir,
                  bool respawn, const std::string& backend,
                  ShutdownGuard& shutdown, RuntimeResult& result,
                  std::vector<ChildState>& ledger) {
  const Torus torus(scenario.sim.width, scenario.sim.height);
  const std::int64_t n = torus.node_count();
  // A configuration the protocol rejects fails here, before any child is
  // spawned (the same up-front build as run_scenario_threads).
  (void)make_node_behavior(scenario.sim, torus, NodeRole::kHonest);
  ledger.assign(static_cast<std::size_t>(n), ChildState{});
  for (std::int64_t i = 0; i < n; ++i) {
    const pid_t pid =
        spawn_node(node_bin, scenario_path, out_dir, i, false, backend);
    if (pid < 0) {
      std::cerr << "radiobcast-runtime: fork: " << std::strerror(errno)
                << "\n";
      for (const ChildState& c : ledger) {
        if (c.running) ::kill(c.pid, SIGTERM);
      }
      for (const ChildState& c : ledger) {
        if (c.running) ::waitpid(c.pid, nullptr, 0);
      }
      return 1;
    }
    ledger[static_cast<std::size_t>(i)].pid = pid;
    ledger[static_cast<std::size_t>(i)].running = true;
  }

  bool forwarded = false;
  bool exec_failed = false;
  std::size_t live = static_cast<std::size_t>(n);
  while (live > 0) {
    if (shutdown.requested() && !forwarded) {
      for (const ChildState& c : ledger) {
        if (c.running) ::kill(c.pid, SIGTERM);
      }
      forwarded = true;
    }
    int status = 0;
    const pid_t done = ::waitpid(-1, &status, WNOHANG);
    if (done == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (done < 0) break;  // no children left
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      ChildState& c = ledger[i];
      if (c.pid != done || !c.running) continue;
      c.running = false;
      --live;
      bool died = false;
      if (WIFEXITED(status)) {
        c.exit_code = WEXITSTATUS(status);
        if (c.exit_code == 127) exec_failed = true;
        died = c.exit_code == 9;
      } else if (WIFSIGNALED(status)) {
        c.signal = WTERMSIG(status);
        died = true;
      }
      // Supervision: relaunch a crashed or killed node from its snapshot,
      // at most once — a node that dies twice stays dead (no crash loops).
      if (died && respawn && !forwarded && c.restarts < 1) {
        if (scenario.restart_after_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(scenario.restart_after_ms));
        }
        const pid_t np =
            spawn_node(node_bin, scenario_path, out_dir,
                       static_cast<std::int64_t>(i), true, backend);
        if (np > 0) {
          c.pid = np;
          c.running = true;
          c.signal = 0;
          c.exit_code = -1;
          ++c.restarts;
          ++live;
        }
      }
      break;
    }
  }
  if (shutdown.requested()) return shutdown.exit_code();
  if (exec_failed) {
    std::cerr << "radiobcast-runtime: node binary failed to exec\n";
    return 1;
  }

  // Collect verdicts. A node that died before writing one gets a crashed
  // placeholder, enriched from its snapshot when the crash left one — this
  // is what turns a SIGKILLed node into a degraded verdict instead of a
  // missing-file error.
  std::vector<RuntimeVerdict> verdicts;
  verdicts.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::string path =
        out_dir + "/verdict-" + std::to_string(i) + ".txt";
    std::ifstream in(path);
    if (in) {
      verdicts.push_back(parse_verdict(in));
      continue;
    }
    RuntimeVerdict v;
    const RuntimeNode::Options o =
        node_options(scenario, static_cast<std::int32_t>(i));
    v.index = static_cast<std::int32_t>(i);
    v.self = o.self;
    v.role = o.role;
    v.crashed = true;
    const std::string snap_path =
        (scenario.state_dir.empty() ? out_dir : scenario.state_dir) +
        "/state-" + std::to_string(i) + ".txt";
    try {
      if (const auto snap = load_snapshot(snap_path)) {
        v.committed = snap->committed;
        v.commit_round = snap->commit_round;
        v.rounds = std::max<std::int64_t>(snap->round, 0);
        v.counters.node_restarts = snap->restarts;
      }
    } catch (const std::exception&) {
      // A torn snapshot cannot make the placeholder worse than bare.
    }
    verdicts.push_back(v);
  }
  result = score_verdicts(scenario, std::move(verdicts));
  return 0;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"scenario", "node-bin", "out", "in-process",
                      "expect-all-commit", "expect-degraded-correct",
                      "respawn", "quiet", "help", "backend"});
  if (!args.ok()) {
    std::cerr << "radiobcast-runtime: " << args.error() << "\n";
    return 2;
  }
  if (args.get_bool("help", false)) {
    std::cout
        << "usage: radiobcast-runtime --scenario <file> [options]\n"
           "  --node-bin <path>    radiobcast-node binary (default: sibling "
           "of this binary)\n"
           "  --out <dir>          verdict directory (default: scenario "
           "dir)\n"
           "  --in-process         run nodes as threads instead of "
           "processes\n"
           "  --respawn            relaunch a crashed/killed node from its "
           "snapshot (once)\n"
           "  --backend poll|epoll override the scenario's node idle "
           "strategy\n"
           "  --expect-all-commit  exit 3 unless every honest node committed "
           "the source value\n"
           "  --expect-degraded-correct\n"
           "                       exit 3 if any node committed a wrong "
           "value or a surviving\n"
           "                       honest node failed to commit\n"
           "  --quiet              suppress the summary\n";
    return 0;
  }
  const std::string scenario_path = args.get("scenario", "");
  if (scenario_path.empty()) {
    std::cerr
        << "radiobcast-runtime: --scenario is required (--help for usage)\n";
    return 2;
  }
  Scenario scenario = load_scenario(scenario_path);
  const std::string backend_override = args.get("backend", "");
  if (!backend_override.empty()) {
    const auto b = backend_from_string(backend_override);
    if (!b) {
      std::cerr << "radiobcast-runtime: unknown backend '" << backend_override
                << "'\n";
      return 2;
    }
    scenario.backend = *b;  // in-process path; children get --backend instead
  }

  ShutdownGuard shutdown;
  RuntimeResult result;
  std::vector<ChildState> ledger;
  std::string deployment_path;
  if (args.get_bool("in-process", false)) {
    result = run_scenario_threads(scenario);
    if (result.any_interrupted || shutdown.requested()) {
      return shutdown.exit_code();
    }
  } else {
    std::string out_dir = args.get("out", "");
    if (out_dir.empty()) {
      const auto slash = scenario_path.find_last_of('/');
      out_dir = slash == std::string::npos ? "."
                                           : scenario_path.substr(0, slash);
    }
    std::filesystem::create_directories(out_dir);
    const std::string node_bin =
        args.get("node-bin", sibling_binary(argv[0], "radiobcast-node"));
    const int rc =
        run_processes(scenario, scenario_path, node_bin, out_dir,
                      args.get_bool("respawn", false), backend_override,
                      shutdown, result, ledger);
    if (rc != 0) return rc;
    deployment_path = out_dir + "/deployment.txt";
  }

  if (!deployment_path.empty()) {
    std::ofstream out(deployment_path);
    if (out) {
      print_summary(out, scenario, result);
      print_ledger(out, ledger);
    }
  }
  if (!args.get_bool("quiet", false)) {
    print_summary(std::cout, scenario, result);
    print_ledger(std::cout, ledger);
  }
  if (args.get_bool("expect-all-commit", false) && !result.success()) {
    std::cerr << "radiobcast-runtime: expected every honest node to commit "
                 "the source value\n";
    return 3;
  }
  if (args.get_bool("expect-degraded-correct", false) &&
      !result.degraded_correct()) {
    std::cerr << "radiobcast-runtime: expected a degraded-but-correct "
                 "deployment (no wrong commits, every surviving honest node "
                 "committed)\n";
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "radiobcast-runtime: " << e.what() << "\n";
    return 1;
  }
}
