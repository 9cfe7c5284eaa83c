#include "checks.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {
namespace {

// CODATA 2018 neutron mass and the exact SI electron-volt, kept here so the
// prediction does not reuse the program's precomputed speed constant.
constexpr double kNeutronMassKg = 1.67492749804e-27;
constexpr double kElectronVoltJ = 1.602176634e-19;
constexpr double kPi = 3.14159265358979323846;

std::string fmt(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

Verdict fail(std::string message) { return Verdict{false, std::move(message)}; }

}  // namespace

FacetPrediction predict_facets(double energy_ev, double dt_s,
                               std::int32_t timesteps, double dx_cm,
                               double dy_cm) {
  FacetPrediction p;
  const double speed_m_s = std::sqrt(2.0 * energy_ev * kElectronVoltJ /
                                     kNeutronMassKg);
  p.flight_cm = 100.0 * speed_m_s * dt_s * timesteps;
  p.mean_per_history = p.flight_cm * (2.0 / kPi) * (1.0 / dx_cm + 1.0 / dy_cm);
  // E[N^2] over θ uniform on [0, π/2] by Simpson's rule.
  const int n = 4096;
  const double h = 0.5 * kPi / n;
  double acc = 0.0;
  for (int i = 0; i <= n; ++i) {
    const double t = i * h;
    const double crossings =
        p.flight_cm * (std::cos(t) / dx_cm + std::sin(t) / dy_cm);
    const double w = (i == 0 || i == n) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    acc += w * crossings * crossings;
  }
  const double second_moment = acc * h / 3.0 / (0.5 * kPi);
  p.sigma_per_history = std::sqrt(
      std::fmax(0.0, second_moment - p.mean_per_history * p.mean_per_history));
  return p;
}

Verdict check_facet_rate(const FacetPrediction& p, std::uint64_t facets,
                         std::uint64_t collisions, std::int64_t histories,
                         double n_sigma) {
  if (histories <= 0) return fail("facet check: no histories");
  if (collisions != 0) {
    return fail("facet check: " + std::to_string(collisions) +
                " collisions in a collision-free deck");
  }
  const double mean = static_cast<double>(facets) / histories;
  const double se = p.sigma_per_history / std::sqrt(double(histories));
  const double z = (mean - p.mean_per_history) / se;
  if (!(std::fabs(z) <= n_sigma)) {
    return fail("facet check: " + fmt(mean) + " facets/history vs closed form " +
                fmt(p.mean_per_history) + " (z = " + fmt(z) + ")");
  }
  return {};
}

Verdict check_energy_budget(const neutral::EnergyBudget& b, double tol) {
  const double lhs = b.initial + b.roulette_gained - b.roulette_killed;
  const double rhs = b.released + b.in_flight;
  const double cons = b.initial == 0.0 ? std::fabs(lhs - rhs)
                                       : std::fabs(lhs - rhs) / b.initial;
  const double expect = b.released + b.path_heating;
  const double scale = std::fmax(std::fabs(expect), std::fabs(b.tally_total));
  const double tally =
      scale == 0.0 ? 0.0 : std::fabs(b.tally_total - expect) / scale;
  if (!(cons <= tol)) {
    return fail("energy not conserved: relative error " + fmt(cons));
  }
  if (!(tally <= tol)) {
    return fail("tally inconsistent with released + path heating: relative "
                "error " + fmt(tally));
  }
  return {};
}

Verdict check_population(const neutral::EventCounters& c,
                         std::int64_t population, std::int64_t sourced) {
  const auto deaths = static_cast<std::int64_t>(
      c.deaths_energy + c.deaths_weight + c.roulette_kills);
  if (deaths + population != sourced) {
    return fail("population: deaths " + std::to_string(deaths) +
                " + survivors " + std::to_string(population) +
                " != sourced " + std::to_string(sourced));
  }
  return {};
}

Verdict check_same_events(const neutral::EventCounters& a, double tally_a,
                          const neutral::EventCounters& b, double tally_b,
                          double rel_tol) {
  struct Field {
    const char* name;
    std::uint64_t x, y;
  };
  const Field fields[] = {
      {"facets", a.facets, b.facets},
      {"reflections", a.reflections, b.reflections},
      {"collisions", a.collisions, b.collisions},
      {"absorptions", a.absorptions, b.absorptions},
      {"scatters", a.scatters, b.scatters},
      {"censuses", a.censuses, b.censuses},
      {"deaths_energy", a.deaths_energy, b.deaths_energy},
      {"deaths_weight", a.deaths_weight, b.deaths_weight},
      {"tally_flushes", a.tally_flushes, b.tally_flushes},
      {"xs_lookups", a.xs_lookups, b.xs_lookups},
      {"rng_draws", a.rng_draws, b.rng_draws},
      {"roulette_survivals", a.roulette_survivals, b.roulette_survivals},
      {"roulette_kills", a.roulette_kills, b.roulette_kills},
      {"migrations", a.migrations, b.migrations},
  };
  for (const Field& f : fields) {
    if (f.x != f.y) {
      return fail(std::string("counter ") + f.name + ": " +
                  std::to_string(f.x) + " != " + std::to_string(f.y));
    }
  }
  const double scale = std::fmax(std::fabs(tally_a), std::fabs(tally_b));
  const double rel = scale == 0.0 ? 0.0 : std::fabs(tally_a - tally_b) / scale;
  if (!(rel <= rel_tol)) {
    return fail("tally totals " + fmt(tally_a) + " vs " + fmt(tally_b) +
                " differ by " + fmt(rel) + " relative");
  }
  return {};
}

Verdict check_row_matches(const std::string& label, std::uint64_t events,
                          double checksum, std::int64_t population,
                          std::uint64_t local_events, double local_checksum,
                          std::int64_t local_population) {
  std::uint64_t bits = 0, local_bits = 0;
  std::memcpy(&bits, &checksum, sizeof bits);
  std::memcpy(&local_bits, &local_checksum, sizeof local_bits);
  if (events != local_events || population != local_population ||
      bits != local_bits) {
    return fail("row " + label + ": served events/checksum/population " +
                std::to_string(events) + "/" + fmt(checksum) + "/" +
                std::to_string(population) + " != in-process " +
                std::to_string(local_events) + "/" + fmt(local_checksum) +
                "/" + std::to_string(local_population));
  }
  return {};
}

Verdict check_counter_totals(std::uint64_t facets, std::uint64_t collisions,
                             std::uint64_t censuses,
                             std::uint64_t row_events_sum) {
  const std::uint64_t total = facets + collisions + censuses;
  if (total != row_events_sum) {
    return fail("daemon event counters sum to " + std::to_string(total) +
                " but the served rows hold " + std::to_string(row_events_sum));
  }
  return {};
}

}  // namespace perfbench
