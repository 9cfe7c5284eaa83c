// perfbench — one workload run of the repository's benchmark.
//
//   perfbench --workload particles-stream|events-scatter|serve-mixed
//             --seed N --seconds S --trace 0|1 --neutrald PATH
//             [--out-dir DIR]
//   perfbench --workload particles-stream|events-scatter --seed N
//             --setup-only 1
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct","attempted","failed","metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics, measuring the
// run's own workload for S seconds and the layers it does not cross with a
// short companion pass of each other workload.  Exit status is 0 whenever
// the result line was printed, 2 on a usage or start-up error.  With
// --setup-only 1 it builds the workload's World and first Simulation,
// prints "ready" and exits: one cold set-up, timed by the parent run.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common.h"
#include "obs/json.h"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

const char* const kEndToEnd[] = {
    "setup_s",        "events_per_s",   "peak_rss_mib",
    "requests_per_s", "request_p50_ms", "request_p90_ms",
};

const char* const kPerLayer[] = {
    "core.world_build_s",
    "core.bank_source_s",
    "core.step_s",
    "core.summary_s",
    "core.solve_self_s",
    "core.peak_mesh_mib",
    "core.peak_bank_mib",
    "core.op.event_search_ns_per_event",
    "core.op.facet_ns_per_event",
    "core.op.tally_ns_per_event",
    "core.op.census_ns_per_event",
    "core.oe.event_search_s",
    "core.oe.collisions_s",
    "core.oe.facets_s",
    "core.oe.census_s",
    "core.oe.tally_s",
    "core.oe.rounds",
    "core.tally_flushes_per_event",
    "core.events_per_s_1t",
    "core.speedup_2t",
    "core.speedup_4t",
    "mesh.facets_per_history",
    "xs.lookups_per_collision",
    "xs.lookup_ns",
    "rng.draws_per_event",
    "rng.draw_ns",
    "batch.job_run_ms",
    "batch.queue_wait_ms",
    "batch.world_builds",
    "batch.cache_lookups",
    "batch.cache_hit_rate",
    "batch.sharded_request_ms",
    "batch.domain_request_ms",
    "net.ping_ms",
    "net.submit_ms",
    "net.wait_ms",
    "net.unattributed_ms",
    "net.request_self_ms",
    "obs.profile_overhead",
    "obs.unprofiled_events_per_s",
    "obs.tracing_overhead",
};

/// Timed length of each companion pass in a traced run.
constexpr double kCompanionSeconds = 3.0;

using Suite = Outcome (*)(const RunOptions&, double, SpanRecorder&);

struct Workload {
  const char* name;
  Suite suite;
};

const Workload kWorkloads[] = {
    {"particles-stream", run_particles_stream},
    {"events-scatter", run_events_scatter},
    {"serve-mixed", run_serve_mixed},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --neutrald PATH [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

/// run.py is the one caller and validates the arguments; this only reads
/// them.
RunOptions parse_args(int argc, char** argv, bool& setup_only) {
  RunOptions opt;
  opt.out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = val == "1";
      } else if (key == "--neutrald") {
        opt.neutrald = val;
      } else if (key == "--out-dir") {
        opt.out_dir = val;
      } else if (key == "--setup-only") {
        setup_only = val == "1";
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  return opt;
}

void print_result(const Outcome& out, bool trace) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name) {
    const auto it = out.metrics.values().find(name);
    if (it == out.metrics.values().end() || !std::isfinite(it->second.value)) {
      throw std::runtime_error(std::string("metric not measured: ") + name);
    }
    line.append(first ? "\"" : ", \"").append(name);
    line.append("\": {\"value\": ")
        .append(neutral::obs::json_number(it->second.value))
        .append(", \"unit\": \"")
        .append(it->second.unit)
        .append("\"}");
    first = false;
  };
  if (trace) {
    for (const char* n : kPerLayer) emit(n);
  } else {
    for (const char* n : kEndToEnd) emit(n);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  bool setup_only = false;
  const RunOptions opt = parse_args(argc, argv, setup_only);
  const Workload* own = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) own = &w;
  }
  if (own == nullptr) usage("unknown workload " + opt.workload);
  try {
    if (setup_only) return run_setup_only(opt);
    ::mkdir(opt.out_dir.c_str(), 0755);
    SpanRecorder spans(opt.trace);
    Outcome total = own->suite(opt, opt.seconds, spans);
    if (opt.trace) {
      for (const Workload& w : kWorkloads) {
        if (&w == own) continue;
        std::fprintf(stderr, "perfbench: companion pass %s\n", w.name);
        Outcome c = w.suite(opt, kCompanionSeconds, spans);
        // attempted/failed count the run's own workload only, so their
        // ratio is the same in every run of it.
        total.correct = total.correct && c.correct;
        total.metrics.merge(c.metrics);
        for (auto& f : c.check_failures) total.check_failures.push_back(f);
      }
      spans.write_jsonl(opt.out_dir + "/spans-" + opt.workload + "-" +
                        std::to_string(opt.seed) + ".jsonl");
    }
    for (const std::string& f : total.check_failures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    }
    print_result(total, opt.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
