// The benchmark's correctness checks.  Each takes plain numbers or library
// structs and returns a verdict with a message; none of them trusts a
// constant or tolerance of the program under test (the facet prediction
// recomputes the neutron speed from the neutron mass itself).
// checks_test.cpp shows each one rejecting a wrong input.
#pragma once

#include <cstdint>
#include <string>

#include "core/counters.h"
#include "core/validation.h"

namespace perfbench {

struct Verdict {
  bool ok = true;
  std::string message;
};

/// Closed-form facet crossings of a collision-free straight flight in a
/// reflective box of square-ish cells, isotropic in the plane: a path of
/// length L at angle θ crosses L(|cos θ|/Δx + |sin θ|/Δy) grid lines
/// (reflections are crossings of the boundary lines and keep |cos|,|sin|).
/// Averaging over θ gives L·(2/π)·(1/Δx + 1/Δy); the per-history spread
/// comes from the same integral.
struct FacetPrediction {
  double flight_cm = 0.0;          ///< L = v · dt · timesteps
  double mean_per_history = 0.0;
  double sigma_per_history = 0.0;  ///< spread of one history's count
};

FacetPrediction predict_facets(double energy_ev, double dt_s,
                               std::int32_t timesteps, double dx_cm,
                               double dy_cm);

/// Mean facets per history within `n_sigma` standard errors of the
/// prediction, and no collisions at all.
Verdict check_facet_rate(const FacetPrediction& p, std::uint64_t facets,
                         std::uint64_t collisions, std::int64_t histories,
                         double n_sigma = 5.0);

/// Energy conservation (initial + roulette gain - roulette loss == released
/// + in flight) and tally consistency (tally total == released + path
/// heating), each within `tol` relative.
Verdict check_energy_budget(const neutral::EnergyBudget& b,
                            double tol = 1.0e-9);

/// Every sourced history ended this run in a death or is still alive:
/// deaths + surviving population == sourced.
Verdict check_population(const neutral::EventCounters& c,
                         std::int64_t population, std::int64_t sourced);

/// Two solves of the same histories: every integer event counter equal and
/// the tally totals within `rel_tol` relative.
Verdict check_same_events(const neutral::EventCounters& a, double tally_a,
                          const neutral::EventCounters& b, double tally_b,
                          double rel_tol = 1.0e-12);

/// A served row against the in-process solve of the same deck and options:
/// events, population and the checksum's bits all equal.
Verdict check_row_matches(const std::string& label, std::uint64_t events,
                          double checksum, std::int64_t population,
                          std::uint64_t local_events, double local_checksum,
                          std::int64_t local_population);

/// The daemon's event counters (facets + collisions + censuses) sum to the
/// events of the rows it served.
Verdict check_counter_totals(std::uint64_t facets, std::uint64_t collisions,
                             std::uint64_t censuses,
                             std::uint64_t row_events_sum);

}  // namespace perfbench
