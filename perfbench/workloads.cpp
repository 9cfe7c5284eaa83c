// In-process workloads: the stream deck under Over Particles and the
// scatter deck under Over Events, driven through the library API.
//
// An untraced run first times cold set-ups, each in a fresh perfbench
// process (--setup-only).  It then builds the World once, warms up and repeats
// whole solves — Simulation construction (bank sourcing), every step(),
// summary() — until its time budget is spent.  Each solve takes a fresh
// deck seed derived from --seed, so the facet check pools independent
// histories, and the reported throughput is the median over solves.
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/simulation.h"
#include "core/world.h"
#include "perf/profiler.h"
#include "rng/stream.h"
#include "xs/table.h"

namespace perfbench {
namespace {

using neutral::Phase;
using neutral::RunResult;
using neutral::Simulation;
using neutral::SimulationConfig;

/// One solve's record.
struct Solve {
  double ctor_s = 0.0;     ///< Simulation construction (bank sourcing)
  double step_s = 0.0;     ///< summed wall time of every step()
  double summary_s = 0.0;
  double total_s = 0.0;    ///< construction to summary: one request
  RunResult result;
  std::int64_t sourced = 0;

  [[nodiscard]] double events() const {
    return static_cast<double>(result.counters.total_events());
  }
  [[nodiscard]] double events_per_s() const { return events() / step_s; }
};

Solve run_solve(const SimulationConfig& cfg,
                const std::shared_ptr<const neutral::World>& world,
                SpanRecorder& spans, bool record_spans) {
  SpanRecorder off(false);
  SpanRecorder& rec = record_spans ? spans : off;
  Solve s;
  ScopedSpan solve_span(rec, "solve");
  const auto t0 = Clock::now();
  std::uint64_t ctor_span = rec.begin("bank_source", solve_span.id());
  Simulation sim(cfg, world);
  rec.end(ctor_span);
  const auto t1 = Clock::now();
  for (std::int32_t k = 0; k < cfg.deck.n_timesteps; ++k) {
    ScopedSpan step_span(rec, "step", solve_span.id());
    const auto a = Clock::now();
    (void)sim.step();
    s.step_s += seconds_between(a, Clock::now());
  }
  const auto t2 = Clock::now();
  {
    ScopedSpan sum_span(rec, "summary", solve_span.id());
    s.result = sim.summary();
  }
  const auto t3 = Clock::now();
  s.ctor_s = seconds_between(t0, t1);
  s.summary_s = seconds_between(t2, t3);
  s.total_s = seconds_between(t0, t3);
  s.sourced = sim.sourced_count();
  return s;
}

/// Per-solve invariants shared by both in-process workloads.
void check_solve(Outcome& out, const Solve& s) {
  const Verdict e = check_energy_budget(s.result.budget);
  out.check(e.ok, e.message);
  const Verdict p =
      check_population(s.result.counters, s.result.population, s.sourced);
  out.check(p.ok, p.message);
}

std::uint64_t solve_seed(std::uint64_t run_seed, std::uint64_t rep) {
  return mix64(run_seed * 0x100000001B3ULL + rep) >> 1;
}

struct NamedPhase {
  const char* name;
  Phase phase;
};

/// The §VI-A phases the stream deck exercises.  Collision and "other" are
/// left out: with no collisions, and no "other" probe in Over Particles,
/// both read exactly 0 on every run.
constexpr NamedPhase kPhases[] = {
    {"event_search", Phase::kEventSearch},
    {"facet", Phase::kFacet},
    {"tally", Phase::kTally},
    {"census", Phase::kCensus},
};

/// The loop both in-process workloads share.  Untraced: every solve is
/// plain.  Traced: solves alternate profiled+spanned and plain, so the
/// probes' cost is measured against interleaved twins.
struct Loop {
  std::vector<Solve> plain;
  std::vector<Solve> traced;
  double setup_s = 0.0;  ///< median cold set-up (untraced runs)
  double world_build_s = 0.0;
  double wall_s = 0.0;
  std::shared_ptr<const neutral::World> world;
};

/// Median over kColdSetups fresh perfbench processes of the time from
/// spawning one to its first Simulation built: process start, World
/// construction and bank sourcing, each time in a process of its own.
double cold_setup_seconds(const RunOptions& opt) {
  std::vector<double> v;
  for (int i = 0; i < kColdSetups; ++i) {
    const auto t0 = Clock::now();
    ChildProcess child({self_exe(), "--workload", opt.workload, "--seed",
                        std::to_string(opt.seed), "--setup-only", "1"});
    const std::string line = child.read_line();
    v.push_back(seconds_between(t0, Clock::now()));
    if (line != "ready" || !child.reap()) {
      throw std::runtime_error("set-up child failed: " + line);
    }
  }
  return median(v);
}

Loop run_loop(Outcome& out, const RunOptions& opt, SimulationConfig cfg,
              double budget_s, SpanRecorder& spans) {
  Loop loop;
  if (!opt.trace) loop.setup_s = cold_setup_seconds(opt);
  {
    ScopedSpan ws(spans, "world_build");
    const auto w0 = Clock::now();
    loop.world = neutral::build_world(cfg.deck);
    loop.world_build_s = seconds_between(w0, Clock::now());
  }
  // Warm-up: two untimed but checked solves fault in the tally pages and
  // settle the allocator before anything is timed.
  std::uint64_t rep = 0;
  for (int i = 0; i < 2; ++i) {
    cfg.deck.seed = solve_seed(opt.seed, rep++);
    check_solve(out, run_solve(cfg, loop.world, spans, false));
  }
  // At least one solve of each kind, however short the budget.
  const auto start = Clock::now();
  for (std::uint64_t timed = 0;
       timed < 2 || seconds_between(start, Clock::now()) < budget_s;
       ++timed) {
    cfg.deck.seed = solve_seed(opt.seed, rep);
    const bool traced = opt.trace && rep % 2 == 0;
    cfg.profile = traced;
    Solve s = run_solve(cfg, loop.world, spans, traced);
    ++out.attempted;
    check_solve(out, s);
    (traced ? loop.traced : loop.plain).push_back(std::move(s));
    ++rep;
  }
  loop.wall_s = seconds_between(start, Clock::now());
  return loop;
}

template <class F>
std::vector<double> collect(const std::vector<Solve>& v, F f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Solve& s : v) out.push_back(f(s));
  return out;
}

/// End-to-end metrics of plain solves, or the request latency ratio and
/// shared core layers in a traced run.
void put_loop_metrics(Outcome& out, const Loop& loop, bool trace,
                      SpanRecorder& spans) {
  const auto& plain = loop.plain;
  if (!trace) {
    Metrics& m = out.metrics;
    m.put("setup_s", loop.setup_s, "s");
    m.put("events_per_s",
          median(collect(plain, [](const Solve& s) { return s.events_per_s(); })),
          "events/s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m.put("requests_per_s", static_cast<double>(plain.size()) / loop.wall_s,
          "req/s");
    const auto lat = collect(plain, [](const Solve& s) { return s.total_s; });
    m.put("request_p50_ms", 1e3 * median(lat), "ms");
    m.put("request_p90_ms", 1e3 * quantile(lat, 0.9), "ms");
    return;
  }
  const auto& traced = loop.traced;
  Metrics& m = out.metrics;
  m.put("core.world_build_s", loop.world_build_s, "s");
  m.put("core.bank_source_s",
        median(collect(traced, [](const Solve& s) { return s.ctor_s; })), "s");
  m.put("core.step_s",
        median(collect(traced, [](const Solve& s) { return s.step_s; })), "s");
  m.put("core.summary_s",
        median(collect(traced, [](const Solve& s) { return s.summary_s; })),
        "s");
  m.put("core.solve_self_s",
        spans.self_seconds("solve") / static_cast<double>(traced.size()), "s");
  const double plain_evs =
      median(collect(plain, [](const Solve& s) { return s.events_per_s(); }));
  const double traced_evs =
      median(collect(traced, [](const Solve& s) { return s.events_per_s(); }));
  m.put("obs.profile_overhead", plain_evs / traced_evs, "x");
  m.put("obs.unprofiled_events_per_s", plain_evs, "events/s");
  m.put("obs.tracing_overhead",
        median(collect(traced, [](const Solve& s) { return s.total_s; })) /
            median(collect(plain, [](const Solve& s) { return s.total_s; })),
        "x");
}

SimulationConfig stream_config() {
  SimulationConfig cfg;
  // 2000^2 cells: tally + density are 61 MB, far beyond the 8 MiB L2.
  cfg.deck = neutral::stream_deck(0.5, 1.0);
  cfg.deck.n_particles = 300;
  cfg.deck.n_timesteps = 1;
  cfg.scheme = neutral::Scheme::kOverParticles;
  cfg.layout = neutral::Layout::kAoS;
  cfg.tally_mode = neutral::TallyMode::kAtomic;
  cfg.lookup = neutral::XsLookup::kCachedLinear;
  cfg.schedule = neutral::SchedulePolicy::statics();
  cfg.threads = 2;
  return cfg;
}

SimulationConfig scatter_config() {
  SimulationConfig cfg;
  // 400^2 cells; 100k histories put the bank + flight-state workspace at
  // ~18 MiB (> L2), and dt 6e-10 s bounds one solve to about a fifth of a
  // second.
  cfg.deck = neutral::scatter_deck(0.1, 1.0);
  cfg.deck.n_particles = 100000;
  cfg.deck.dt_s = 6.0e-10;
  cfg.deck.n_timesteps = 1;
  cfg.scheme = neutral::Scheme::kOverEvents;
  cfg.layout = neutral::Layout::kSoA;
  cfg.tally_mode = neutral::TallyMode::kDeferredAtomic;
  cfg.threads = 2;
  return cfg;
}

SimulationConfig config_of(const std::string& workload) {
  return workload == "events-scatter" ? scatter_config() : stream_config();
}

/// Where the timed micro-loops leave their results, so none is elided.
volatile double g_sink = 0.0;

/// ns per CrossSectionTable lookup (capture + scatter tables each count
/// one) along elastic-scattering energy ladders from the deck's source
/// energy: each history keeps its own cached bin, as the kernels do.
double time_xs_lookup(const neutral::World& world,
                      const SimulationConfig& cfg, std::uint64_t seed) {
  const double a = cfg.deck.mass_number;
  const double alpha = ((a - 1.0) / (a + 1.0)) * ((a - 1.0) / (a + 1.0));
  neutral::rng::ParticleStream rng(seed, 0);
  std::vector<double> energies;
  const int histories = 2000, per_history = 100;
  energies.reserve(histories * per_history);
  for (int h = 0; h < histories; ++h) {
    double e = cfg.deck.initial_energy_ev;
    for (int k = 0; k < per_history; ++k) {
      energies.push_back(e);
      e *= alpha + (1.0 - alpha) * rng.next();
    }
  }
  std::vector<double> reps;
  double sink = 0.0;
  for (int r = 0; r < 7; ++r) {
    const auto t0 = Clock::now();
    for (int h = 0; h < histories; ++h) {
      std::int32_t ic = 0, is = 0;
      for (int k = 0; k < per_history; ++k) {
        const double e = energies[h * per_history + k];
        sink += world.xs_capture.microscopic(e, cfg.lookup, ic);
        sink += world.xs_scatter.microscopic(e, cfg.lookup, is);
      }
    }
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                   (2.0 * histories * per_history));
  }
  g_sink = sink;
  return median(reps);
}

/// ns per ParticleStream::next draw.
double time_rng_draw(std::uint64_t seed) {
  std::vector<double> reps;
  double sink = 0.0;
  const int draws = 2000000;
  for (int r = 0; r < 7; ++r) {
    neutral::rng::ParticleStream rng(seed, static_cast<std::uint64_t>(r));
    const auto t0 = Clock::now();
    for (int i = 0; i < draws; ++i) sink += rng.next();
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 / draws);
  }
  g_sink = sink;
  return median(reps);
}

}  // namespace

int run_setup_only(const RunOptions& opt) {
  SimulationConfig cfg = config_of(opt.workload);
  const auto world = neutral::build_world(cfg.deck);
  cfg.deck.seed = solve_seed(opt.seed, 0);
  const Simulation first(cfg, world);
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

Outcome run_particles_stream(const RunOptions& opt, double budget_s,
                             SpanRecorder& spans) {
  Outcome out;
  SimulationConfig cfg = stream_config();
  // Traced: the solve loop gets 60% of the budget, thread scaling the rest.
  const double loop_s = opt.trace ? 0.6 * budget_s : budget_s;
  const Loop loop = run_loop(out, opt, cfg, loop_s, spans);
  put_loop_metrics(out, loop, opt.trace, spans);

  // Closed-form facet rate over every timed solve's histories.
  const double dx = cfg.deck.width_cm / cfg.deck.nx;
  const double dy = cfg.deck.height_cm / cfg.deck.ny;
  const FacetPrediction pred =
      predict_facets(cfg.deck.initial_energy_ev, cfg.deck.dt_s,
                     cfg.deck.n_timesteps, dx, dy);
  std::uint64_t facets = 0, collisions = 0, flushes = 0, events = 0;
  std::int64_t histories = 0;
  for (const auto* set : {&loop.plain, &loop.traced}) {
    for (const Solve& s : *set) {
      facets += s.result.counters.facets;
      collisions += s.result.counters.collisions;
      flushes += s.result.counters.tally_flushes;
      events += s.result.counters.total_events();
      histories += s.sourced;
    }
  }
  const Verdict v = check_facet_rate(pred, facets, collisions, histories);
  out.check(v.ok, v.message);
  if (!opt.trace) return out;

  Metrics& m = out.metrics;
  m.put("mesh.facets_per_history",
        static_cast<double>(facets) / static_cast<double>(histories), "count");
  m.put("core.tally_flushes_per_event",
        static_cast<double>(flushes) / static_cast<double>(events), "count");
  m.put("core.peak_mesh_mib",
        static_cast<double>(loop.traced.front().result.peak_mesh_bytes) /
            1048576.0,
        "MiB");
  // §VI-A grind times from the profiled solves.
  neutral::PhaseProfiler::Report phases;
  double profiled_events = 0.0;
  for (const Solve& s : loop.traced) {
    phases += s.result.phases;
    profiled_events += s.events();
  }
  const double ghz = neutral::PhaseProfiler::tsc_ghz();
  for (const NamedPhase& p : kPhases) {
    m.put(std::string("core.op.") + p.name + "_ns_per_event",
          static_cast<double>(phases.cycles[static_cast<int>(p.phase)]) / ghz /
              profiled_events,
          "ns");
  }

  // Thread scaling (Fig 3 axis): interleaved rounds at 1, 2 and 4 threads.
  std::vector<double> evs[3];
  const int threads[3] = {1, 2, 4};
  const auto start = Clock::now();
  std::uint64_t rep = 1u << 20;
  const double scaling_s = budget_s - loop_s;
  do {
    for (int i = 0; i < 3; ++i) {
      cfg.threads = threads[i];
      cfg.profile = false;
      cfg.deck.seed = solve_seed(opt.seed, rep++);
      Solve s = run_solve(cfg, loop.world, spans, false);
      ++out.attempted;
      check_solve(out, s);
      evs[i].push_back(s.events_per_s());
    }
  } while (seconds_between(start, Clock::now()) < scaling_s);
  const double base = median(evs[0]);
  m.put("core.events_per_s_1t", base, "events/s");
  m.put("core.speedup_2t", median(evs[1]) / base, "x");
  m.put("core.speedup_4t", median(evs[2]) / base, "x");
  return out;
}

Outcome run_events_scatter(const RunOptions& opt, double budget_s,
                           SpanRecorder& spans) {
  Outcome out;
  const SimulationConfig cfg = scatter_config();
  const Loop loop = run_loop(out, opt, cfg, budget_s, spans);
  put_loop_metrics(out, loop, opt.trace, spans);

  // Over Particles and Over Events on the same leading id span: the
  // schemes sample identical histories, so every counter must agree.
  {
    SimulationConfig op = cfg;
    op.deck.seed = solve_seed(opt.seed, 1u << 30);
    op.span = neutral::ParticleSpan{0, 4000};
    op.scheme = neutral::Scheme::kOverParticles;
    op.layout = neutral::Layout::kAoS;
    op.tally_mode = neutral::TallyMode::kAtomic;
    op.profile = false;
    SimulationConfig oe = op;
    oe.scheme = cfg.scheme;
    oe.layout = cfg.layout;
    oe.tally_mode = cfg.tally_mode;
    const Solve a = run_solve(op, loop.world, spans, false);
    const Solve b = run_solve(oe, loop.world, spans, false);
    ++out.attempted;
    check_solve(out, a);
    check_solve(out, b);
    const Verdict v =
        check_same_events(a.result.counters, a.result.budget.tally_total,
                          b.result.counters, b.result.budget.tally_total);
    out.check(v.ok, "Over Particles vs Over Events: " + v.message);
  }
  if (!opt.trace) return out;

  Metrics& m = out.metrics;
  const auto& t = loop.traced;
  m.put("core.peak_bank_mib",
        static_cast<double>(t.front().result.peak_bank_bytes) / 1048576.0,
        "MiB");
  m.put("core.oe.event_search_s",
        median(collect(t, [](const Solve& s) {
          return s.result.kernel_times.event_search;
        })),
        "s");
  m.put("core.oe.collisions_s",
        median(collect(t, [](const Solve& s) {
          return s.result.kernel_times.collisions;
        })),
        "s");
  m.put("core.oe.facets_s",
        median(collect(
            t, [](const Solve& s) { return s.result.kernel_times.facets; })),
        "s");
  m.put("core.oe.census_s",
        median(collect(
            t, [](const Solve& s) { return s.result.kernel_times.census; })),
        "s");
  m.put("core.oe.tally_s",
        median(collect(
            t, [](const Solve& s) { return s.result.kernel_times.tally; })),
        "s");
  m.put("core.oe.rounds",
        median(collect(t,
                       [](const Solve& s) {
                         return static_cast<double>(
                             s.result.kernel_times.iterations);
                       })),
        "count");
  double lookups = 0, collisions = 0, draws = 0, events = 0;
  for (const Solve& s : t) {
    lookups += static_cast<double>(s.result.counters.xs_lookups);
    collisions += static_cast<double>(s.result.counters.collisions);
    draws += static_cast<double>(s.result.counters.rng_draws);
    events += s.events();
  }
  m.put("xs.lookups_per_collision", lookups / collisions, "count");
  m.put("rng.draws_per_event", draws / events, "count");
  m.put("xs.lookup_ns", time_xs_lookup(*loop.world, cfg, opt.seed), "ns");
  m.put("rng.draw_ns", time_rng_draw(opt.seed), "ns");
  return out;
}

}  // namespace perfbench
