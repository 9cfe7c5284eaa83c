// Each correctness check accepts the right answer and rejects a wrong one:
// a facet rate off by 1%, a budget leaking 1e-6, a checksum one ulp off and
// a counter total off by one.  Exit status 0 = every case behaved.
#include <cmath>
#include <cstdio>

#include "checks.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Facets: 2000^2 cells over 100 cm at 1 MeV, dt 1e-7 s.
  const FacetPrediction p = predict_facets(1.0e6, 1.0e-7, 1, 0.05, 0.05);
  expect(std::fabs(p.mean_per_history - 3522.2) < 0.5,
         "closed form gives 3522.2 facets per history");
  expect(std::fabs(p.sigma_per_history - 345.0) < 5.0,
         "per-history spread is about 345 crossings");
  const std::int64_t n = 40000;
  const auto exact = static_cast<std::uint64_t>(p.mean_per_history * n);
  expect(check_facet_rate(p, exact, 0, n).ok, "facet rate at the closed form");
  expect(!check_facet_rate(p, static_cast<std::uint64_t>(exact * 1.01), 0, n)
              .ok,
         "facet rate 1% high is rejected");
  expect(!check_facet_rate(p, static_cast<std::uint64_t>(exact * 0.99), 0, n)
              .ok,
         "facet rate 1% low is rejected");
  expect(!check_facet_rate(p, exact, 1, n).ok,
         "one collision in the stream deck is rejected");

  // Energy budget.
  neutral::EnergyBudget b;
  b.initial = 1.0e9;
  b.released = 4.0e8;
  b.in_flight = 6.0e8;
  b.path_heating = 2.5e8;
  b.tally_total = 6.5e8;
  expect(check_energy_budget(b).ok, "balanced budget");
  neutral::EnergyBudget leak = b;
  leak.in_flight -= 1.0e-6 * b.initial;
  expect(!check_energy_budget(leak).ok, "budget leaking 1e-6 is rejected");
  neutral::EnergyBudget tally = b;
  tally.tally_total *= 1.0 + 1.0e-6;
  expect(!check_energy_budget(tally).ok,
         "tally 1e-6 away from released + heating is rejected");

  // Population.
  neutral::EventCounters c;
  c.deaths_energy = 10;
  c.deaths_weight = 5;
  expect(check_population(c, 85, 100).ok, "deaths + survivors == sourced");
  expect(!check_population(c, 84, 100).ok, "one history lost is rejected");

  // Over Particles vs Over Events.
  neutral::EventCounters a;
  a.facets = 1000;
  a.collisions = 500;
  a.censuses = 20;
  a.rng_draws = 4000;
  expect(check_same_events(a, 1.0e6, a, 1.0e6 * (1.0 + 1e-14)).ok,
         "identical counters, totals within 1e-12");
  neutral::EventCounters off = a;
  off.rng_draws += 1;
  expect(!check_same_events(a, 1.0e6, off, 1.0e6).ok,
         "one extra RNG draw is rejected");
  expect(!check_same_events(a, 1.0e6, a, 1.0e6 * (1.0 + 1e-10)).ok,
         "tally totals 1e-10 apart are rejected");

  // Served row vs in-process row.
  const double sum = 0.123456789012345678;
  expect(check_row_matches("r", 10, sum, 3, 10, sum, 3).ok, "identical row");
  expect(!check_row_matches("r", 10, std::nextafter(sum, 1.0), 3, 10, sum, 3)
              .ok,
         "checksum one ulp off is rejected");
  expect(!check_row_matches("r", 11, sum, 3, 10, sum, 3).ok,
         "events off by one are rejected");
  expect(!check_row_matches("r", 10, sum, 4, 10, sum, 3).ok,
         "population off by one is rejected");

  // Daemon counters vs row sums.
  expect(check_counter_totals(100, 50, 7, 157).ok, "counter totals match");
  expect(!check_counter_totals(100, 50, 7, 158).ok,
         "counter total off by one is rejected");

  std::printf("%s\n", failures == 0 ? "PASS" : "FAILED");
  return failures == 0 ? 0 : 1;
}
