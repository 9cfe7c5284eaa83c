// serve-mixed: neutrald on loopback under a closed loop of two
// NeutralClient connections, each running submit -> wait on small decks of
// all three problems with a fresh seed per request.
//
// Request mix, by request index i (fixed, so every run has the same
// shares): problem = stream/scatter/csp by i mod 3; by i mod 8 —
//   2: a geometry not seen before in the run (world-cache miss),
//   4: `shards 2`, 6: `domains 2x2`, otherwise a plain deck
// (5/8 plain, 1/8 each of the other kinds).
//
// After the load phase every served row is solved again in-process through
// the library and must match bit for bit, and the daemon's event counters
// must equal the rows' events.
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <memory>
#include <stdexcept>
#include <thread>

#include "batch/domain.h"
#include "batch/engine.h"
#include "batch/shard.h"
#include "batch/sweep.h"
#include "checks.h"
#include "common.h"
#include "core/simulation.h"
#include "io/deck_io.h"
#include "net/client.h"
#include "obs/json.h"

namespace perfbench {
namespace {

using neutral::net::NeutralClient;
using neutral::net::RemoteResult;
using neutral::net::SubmitRequest;

constexpr int kClients = 2;
const char* const kProblems[3] = {"stream", "scatter", "csp"};

enum class Kind { kPlain, kNewGeometry, kShards, kDomains };

Kind kind_of(std::uint64_t i) {
  switch (i % 8) {
    case 2: return Kind::kNewGeometry;
    case 4: return Kind::kShards;
    case 6: return Kind::kDomains;
    default: return Kind::kPlain;
  }
}

/// The deck of request i: golden-sized (80^2 cells, 400 histories, two
/// timesteps) with a fresh seed from (run seed, i); a new-geometry request
/// widens the domain by a distinct hair so its World fingerprint is new to
/// the run.
neutral::ProblemDeck request_deck(std::uint64_t run_seed, std::uint64_t i) {
  neutral::ProblemDeck d = neutral::deck_by_name(kProblems[i % 3], 0.02, 1.0);
  d.n_particles = 400;
  d.n_timesteps = 2;
  d.seed = mix64(run_seed * 0x9E3779B97F4A7C15ULL ^ (i + 1)) >> 1;
  if (kind_of(i) == Kind::kNewGeometry) {
    d.width_cm = d.height_cm = 100.0 + 0.01 * static_cast<double>(i / 8 + 1);
  }
  return d;
}

struct Request {
  std::uint64_t index = 0;
  Kind kind = Kind::kPlain;
  std::string deck_text;
  double submit_s = 0.0;
  double wait_s = 0.0;
  double latency_s = 0.0;
  bool ok = false;
  /// Served correctly, but the daemon's event counters do not include it.
  bool uncounted = false;
  std::string error;
  RemoteResult result;
};

/// Hands out request indices in whole rounds of eight, so every run has
/// exactly the mix's shares: once the load time is up, the round in
/// progress is completed and no new one starts.
class IndexDispenser {
 public:
  IndexDispenser(std::uint64_t first, double load_s)
      : next_(first), first_(first), load_s_(load_s), start_(Clock::now()) {}

  bool take(std::uint64_t& index) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (limit_ == kOpen && seconds_between(start_, Clock::now()) >= load_s_) {
      limit_ = first_ + (next_ - first_ + 7) / 8 * 8;
    }
    if (next_ >= limit_) return false;
    index = next_++;
    return true;
  }

 private:
  static constexpr std::uint64_t kOpen = ~std::uint64_t{0};
  std::mutex mutex_;
  std::uint64_t next_;
  std::uint64_t first_;
  std::uint64_t limit_ = kOpen;
  double load_s_;
  Clock::time_point start_;
};

/// neutrald as a child process, stopped by the destructor if no
/// `shutdown` op ended it first.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& trace_log)
      : child_(args(binary, trace_log)) {
    // The daemon always prints "neutrald listening on HOST:PORT (...)".
    const std::string line = child_.read_line();
    const auto colon = line.find(':', line.find("listening on"));
    if (colon == std::string::npos) {
      throw std::runtime_error("unexpected neutrald banner: " + line);
    }
    port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int pid() const { return child_.pid(); }
  bool reap() { return child_.reap(); }

 private:
  static std::vector<std::string> args(const std::string& binary,
                                       const std::string& trace_log) {
    std::vector<std::string> a = {binary,       "--port",    "0",
                                  "--workers",  "2",         "--threads-per-job",
                                  "1",          "--cache-mb", "64",
                                  "--quiet"};
    if (!trace_log.empty()) {
      a.push_back("--trace-log");
      a.push_back(trace_log);
    }
    return a;
  }

  ChildProcess child_;
  std::uint16_t port_ = 0;
};

/// Median over kColdSetups fresh daemons of the time from spawning one to
/// its first answered `ping`.
double cold_setup_seconds(const RunOptions& opt) {
  std::vector<double> v;
  for (int i = 0; i < kColdSetups; ++i) {
    const auto t0 = Clock::now();
    Daemon daemon(opt.neutrald, "");
    NeutralClient probe("127.0.0.1", daemon.port());
    probe.ping();
    v.push_back(seconds_between(t0, Clock::now()));
    probe.shutdown_server();
    if (!daemon.reap()) throw std::runtime_error("neutrald did not exit");
  }
  return median(v);
}

std::uint64_t field_u64(const neutral::net::Fields& f, const std::string& k) {
  const auto it = f.find(k);
  if (it == f.end()) throw std::runtime_error("daemon reply lacks " + k);
  return std::stoull(it->second);
}

/// One daemon lifetime: spawn, load for `load_s`, scrape, shut down.
struct Session {
  double load_wall_s = 0.0;
  double peak_rss_mib = 0.0;
  std::vector<Request> requests;
  neutral::net::Fields status, metrics;
  std::vector<double> ping_ms;
  bool clean_exit = false;
};

Session run_session(const RunOptions& opt, double load_s,
                    const std::string& trace_log, SpanRecorder& spans,
                    std::uint64_t first_index) {
  Session s;
  Daemon daemon(opt.neutrald, trace_log);

  std::vector<std::vector<Request>> done(kClients);
  std::vector<std::string> client_errors(kClients);
  const auto load_start = Clock::now();
  IndexDispenser dispenser(first_index, load_s);
  auto client_loop = [&](int c) {
    try {
      NeutralClient client("127.0.0.1", daemon.port());
      std::uint64_t index = 0;
      while (dispenser.take(index)) {
        Request r;
        r.index = index;
        r.kind = kind_of(r.index);
        r.deck_text = neutral::format_deck(request_deck(opt.seed, r.index));
        SubmitRequest req;
        req.deck_text = r.deck_text;
        if (r.kind == Kind::kShards) req.shards = 2;
        if (r.kind == Kind::kDomains) req.domains = "2x2";
        const std::uint64_t trace_id = r.index + 1;
        ScopedSpan request_span(spans, "request", 0, trace_id);
        const auto a = Clock::now();
        try {
          std::uint64_t id = 0;
          {
            ScopedSpan sp(spans, "submit", request_span.id(), trace_id);
            id = client.submit(req);
          }
          const auto b = Clock::now();
          {
            ScopedSpan sp(spans, "wait", request_span.id(), trace_id);
            r.result = client.wait(id);
          }
          const auto e = Clock::now();
          r.submit_s = seconds_between(a, b);
          r.wait_s = seconds_between(b, e);
          r.latency_s = seconds_between(a, e);
          r.ok = r.result.ok() && r.result.rows.size() == 1;
          if (!r.ok) r.error = r.result.status + ": " + r.result.error;
        } catch (const std::exception& ex) {
          r.error = ex.what();
        }
        done[c].push_back(std::move(r));
      }
    } catch (const std::exception& ex) {
      client_errors[c] = ex.what();
    }
  };
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client_loop, c);
    for (std::thread& t : clients) t.join();
  }
  s.load_wall_s = seconds_between(load_start, Clock::now());
  for (int c = 0; c < kClients; ++c) {
    if (!client_errors[c].empty()) {
      throw std::runtime_error("client connection failed: " + client_errors[c]);
    }
    for (Request& r : done[c]) s.requests.push_back(std::move(r));
  }
  std::sort(s.requests.begin(), s.requests.end(),
            [](const Request& a, const Request& b) { return a.index < b.index; });

  NeutralClient admin("127.0.0.1", daemon.port());
  for (int i = 0; i < 200; ++i) {
    const auto a = Clock::now();
    admin.ping();
    s.ping_ms.push_back(1e3 * seconds_between(a, Clock::now()));
  }
  s.status = admin.status();
  s.metrics = admin.metrics();
  s.peak_rss_mib = peak_rss_mib(daemon.pid());
  admin.shutdown_server();
  s.clean_exit = daemon.reap();
  return s;
}

/// The in-process library solve of a served request: the deck the daemon
/// parsed, configured as the daemon configures a deck submit.
neutral::RunResult solve_locally(
    const Request& r, neutral::batch::BatchEngine& engine,
    std::map<std::uint64_t, std::shared_ptr<const neutral::World>>& worlds) {
  neutral::batch::SweepSpec spec;
  spec.base.deck = neutral::parse_deck(r.deck_text);
  neutral::SimulationConfig cfg =
      neutral::batch::expand_sweep(spec).front().config;
  if (r.kind == Kind::kShards) {
    neutral::batch::ShardOptions so;
    so.shards = 2;
    so.threads_per_shard = 1;
    auto rep = neutral::batch::run_sharded(engine, cfg, so);
    if (!rep.ok) throw std::runtime_error("sharded solve failed: " + rep.error);
    return std::move(rep.merged);
  }
  if (r.kind == Kind::kDomains) {
    cfg.tally_mode = neutral::TallyMode::kAtomic;
    neutral::batch::DomainOptions dopt;
    dopt.rows = 2;
    dopt.cols = 2;
    dopt.threads_per_domain = 1;
    auto rep = neutral::batch::run_domains(engine, cfg, dopt);
    if (!rep.ok) throw std::runtime_error("domain solve failed: " + rep.error);
    return std::move(rep.merged);
  }
  cfg.threads = 1;
  auto& world = worlds[neutral::world_fingerprint(cfg.deck)];
  if (!world) world = neutral::build_world(cfg.deck);
  neutral::Simulation sim(cfg, world);
  return sim.run();
}

/// Solve every served row again in-process (four verifier threads, each
/// with its own engine and worlds) and compare; then the daemon's counters
/// against the rows.
void verify_session(Outcome& out, Session& s) {
  const auto verify_start = Clock::now();
  constexpr std::size_t kVerifiers = 4;
  std::vector<std::vector<std::string>> failures(kVerifiers);
  auto verifier = [&](std::size_t t) {
    neutral::batch::EngineOptions eo;
    eo.workers = 1;
    eo.threads_per_job = 1;
    neutral::batch::BatchEngine engine(eo);
    std::map<std::uint64_t, std::shared_ptr<const neutral::World>> worlds;
    for (std::size_t i = t; i < s.requests.size(); i += kVerifiers) {
      const Request& r = s.requests[i];
      if (!r.ok) continue;
      const neutral::net::RemoteRow& row = r.result.rows.front();
      try {
        const neutral::RunResult local = solve_locally(r, engine, worlds);
        const Verdict v = check_row_matches(
            "#" + std::to_string(r.index), row.events, row.checksum,
            row.population, local.counters.total_events(),
            local.tally_checksum, local.population);
        if (!v.ok) failures[t].push_back(v.message);
      } catch (const std::exception& e) {
        failures[t].push_back("in-process #" + std::to_string(r.index) +
                              ": " + e.what());
      }
    }
  };
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kVerifiers; ++t) pool.emplace_back(verifier, t);
    for (std::thread& t : pool) t.join();
  }
  for (const auto& list : failures) {
    for (const std::string& f : list) out.check(false, f);
  }

  std::uint64_t row_events = 0, domain_events = 0;
  for (const Request& r : s.requests) {
    if (!r.ok) continue;
    row_events += r.result.rows.front().events;
    if (r.kind == Kind::kDomains) domain_events += r.result.rows.front().events;
  }
  const std::uint64_t facets =
      field_u64(s.metrics, "neutral_events_facets_total");
  const std::uint64_t collisions =
      field_u64(s.metrics, "neutral_events_collisions_total");
  const std::uint64_t censuses =
      field_u64(s.metrics, "neutral_events_censuses_total");
  const std::uint64_t counted = facets + collisions + censuses;
  std::uint64_t expected = row_events;
  if (domain_events > 0 && counted == row_events - domain_events) {
    // The known fault (src/batch/domain.cpp): run_domains' round jobs never
    // reach the engine's event counters, so every domain-decomposed request
    // is missing from them.  Those requests are this run's failed
    // operations; the check below still holds the daemon to every other
    // row.  Once the fault is mended this branch is never taken.
    const Verdict all =
        check_counter_totals(facets, collisions, censuses, row_events);
    std::fprintf(stderr, "perfbench: known fault: %s\n", all.message.c_str());
    expected = row_events - domain_events;
    for (Request& r : s.requests) {
      if (r.ok && r.kind == Kind::kDomains) {
        r.uncounted = true;
        r.error = "served, but missing from neutral_events_*_total";
      }
    }
  }
  const Verdict c =
      check_counter_totals(facets, collisions, censuses, expected);
  out.check(c.ok, c.message);
  out.check(s.clean_exit, "neutrald did not exit cleanly after shutdown");
  std::fprintf(stderr,
               "perfbench: %zu requests served in %.2f s, verified in-process "
               "in %.2f s\n",
               s.requests.size(), s.load_wall_s,
               seconds_between(verify_start, Clock::now()));
}

void count_requests(Outcome& out, const Session& s) {
  std::map<std::string, std::int64_t> errors;
  for (const Request& r : s.requests) {
    ++out.attempted;
    if (!r.ok || r.uncounted) {
      ++out.failed;
      ++errors[r.error];
    }
  }
  for (const auto& [error, n] : errors) {
    std::fprintf(stderr, "perfbench: %lld requests failed: %s\n",
                 static_cast<long long>(n), error.c_str());
  }
}

template <class F>
std::vector<double> collect(const Session& s, F f) {
  std::vector<double> v;
  for (const Request& r : s.requests) {
    if (r.ok && f(r) >= 0.0) v.push_back(f(r));
  }
  return v;
}

std::vector<double> latencies_ms(const Session& s) {
  return collect(s, [](const Request& r) { return 1e3 * r.latency_s; });
}

/// queue_wait_s of every job the daemon started, from its --trace-log.
std::vector<double> queue_waits_ms(const std::string& path) {
  std::vector<double> v;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const neutral::obs::JsonValue j = neutral::obs::parse_json(line);
    const auto* ev = j.find("event");
    const auto* qw = j.find("queue_wait_s");
    if (ev != nullptr && qw != nullptr && ev->string == "started") {
      v.push_back(1e3 * qw->number);
    }
  }
  return v;
}

}  // namespace

Outcome run_serve_mixed(const RunOptions& opt, double budget_s,
                        SpanRecorder& spans) {
  Outcome out;
  if (!opt.trace) {
    const double setup_s = cold_setup_seconds(opt);
    Session s = run_session(opt, budget_s, "", spans, 0);
    verify_session(out, s);
    count_requests(out, s);
    std::uint64_t events = 0;
    for (const Request& r : s.requests) {
      if (r.ok) events += r.result.rows.front().events;
    }
    Metrics& m = out.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("events_per_s", static_cast<double>(events) / s.load_wall_s,
          "events/s");
    m.put("peak_rss_mib", s.peak_rss_mib, "MiB");
    m.put("requests_per_s",
          static_cast<double>(s.requests.size()) / s.load_wall_s, "req/s");
    const auto lat = latencies_ms(s);
    m.put("request_p50_ms", median(lat), "ms");
    m.put("request_p90_ms", quantile(lat, 0.9), "ms");
    return out;
  }

  // Traced: an untraced daemon first (the overhead base), then one with
  // --trace-log and client-side spans around every submit and wait.
  SpanRecorder off(false);
  Session base = run_session(opt, budget_s / 3.0, "", off, 0);
  verify_session(out, base);
  count_requests(out, base);
  const std::string trace_log =
      opt.out_dir + "/neutrald-" + opt.workload + "-" +
      std::to_string(opt.seed) + ".jsonl";
  std::remove(trace_log.c_str());
  Session s = run_session(opt, budget_s * 2.0 / 3.0, trace_log, spans, 1u << 20);
  verify_session(out, s);
  count_requests(out, s);

  Metrics& m = out.metrics;
  std::vector<double> job_ms, unattributed_ms, shard_ms, domain_ms;
  for (const Request& r : s.requests) {
    if (!r.ok) continue;
    const double run_ms = 1e3 * r.result.rows.front().seconds;
    job_ms.push_back(run_ms);
    unattributed_ms.push_back(1e3 * r.latency_s - run_ms);
    if (r.kind == Kind::kShards) shard_ms.push_back(1e3 * r.latency_s);
    if (r.kind == Kind::kDomains) domain_ms.push_back(1e3 * r.latency_s);
  }
  m.put("batch.job_run_ms", median(job_ms), "ms");
  m.put("batch.queue_wait_ms", median(queue_waits_ms(trace_log)), "ms");
  const double hits = static_cast<double>(field_u64(s.status, "cache_hits"));
  const double misses =
      static_cast<double>(field_u64(s.status, "cache_misses"));
  m.put("batch.world_builds", misses, "count");
  m.put("batch.cache_lookups", hits + misses, "count");
  m.put("batch.cache_hit_rate", hits / (hits + misses), "ratio");
  m.put("batch.sharded_request_ms", median(shard_ms), "ms");
  m.put("batch.domain_request_ms", median(domain_ms), "ms");
  m.put("net.ping_ms", median(s.ping_ms), "ms");
  m.put("net.submit_ms",
        median(collect(s, [](const Request& r) { return 1e3 * r.submit_s; })),
        "ms");
  m.put("net.wait_ms",
        median(collect(s, [](const Request& r) { return 1e3 * r.wait_s; })),
        "ms");
  m.put("net.unattributed_ms", median(unattributed_ms), "ms");
  m.put("net.request_self_ms",
        1e3 * spans.self_seconds("request") /
            static_cast<double>(s.requests.size()),
        "ms");
  m.put("obs.tracing_overhead", median(latencies_ms(s)) / median(latencies_ms(base)),
        "x");
  return out;
}

}  // namespace perfbench
