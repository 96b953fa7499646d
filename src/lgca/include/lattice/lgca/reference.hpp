// Golden reference updater.
//
// A plain double-buffered sweep: every site's new value is computed
// from the old generation via Rule::apply. This is the semantic
// definition v(a, t+1) = f(N(a), t) from §3 of the paper; every
// architecture simulator must match it bit-for-bit.

#pragma once

#include <cstdint>

#include "lattice/lgca/lattice.hpp"

namespace lattice::lgca {

/// Advance `lat` by one generation under `rule`; `t` is the current
/// (pre-update) generation number, fed to the rule's context.
void reference_step(SiteLattice& lat, const Rule& rule, std::int64_t t);

/// Advance by `generations` steps starting at time `t0`.
void reference_run(SiteLattice& lat, const Rule& rule,
                   std::int64_t generations, std::int64_t t0 = 0);

/// Functional form: the next generation of `lat`.
SiteLattice reference_next(const SiteLattice& lat, const Rule& rule,
                           std::int64_t t);

/// Multithreaded reference updater: the scheduler's runner
/// (scheduler.hpp) over byte rows, the rule applied site by site. Rows
/// are partitioned into min(threads, rows) bands, capped at the shared
/// pool's lanes, each owned by one lane for the run, reading the
/// (immutable) old generation and writing a disjoint band of the new
/// one — no synchronization inside a generation, one rendezvous per
/// generation (`threads == 1` runs inline without touching the pool).
/// A rule that throws on any band ends the run for every band, and the
/// exception is rethrown here. Bit-identical to the serial updater for
/// any thread count (rules are pure functions of (window, x, y, t)).
void reference_run_parallel(SiteLattice& lat, const Rule& rule,
                            std::int64_t generations, unsigned threads,
                            std::int64_t t0 = 0);

}  // namespace lattice::lgca
