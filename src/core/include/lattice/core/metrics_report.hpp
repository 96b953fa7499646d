// MetricsReport — the engine's structured observability snapshot.
//
// LatticeEngine::snapshot() merges the process-global metrics registry
// and distills the *top-level, non-overlapping* stage histograms into
// a phase table whose seconds sum to (approximately) the wall-clock
// the engine spent inside advance(). The full registry snapshot rides
// along for everything else (backend counters, pool queue stats,
// fault tallies); tools/lattice_profile dumps the whole thing as JSON.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lattice/obs/json.hpp"
#include "lattice/obs/metrics.hpp"

namespace lattice::core {

/// One top-level engine stage: how often it ran and the total seconds
/// spent inside it (histogram sum, ns -> s).
struct MetricsPhase {
  std::string name;
  std::int64_t count = 0;
  double seconds = 0;
};

struct MetricsReport {
  /// Wall-clock seconds accumulated across every advance() call.
  double wall_seconds = 0;
  /// Non-overlapping top-level stages (the engine's pass histogram,
  /// engine.pass.<backend>_ns, and engine.checkpoint/restore).
  /// Their seconds sum to within a few percent of wall_seconds; the
  /// gap is loop glue.
  std::vector<MetricsPhase> phases;
  /// The full registry merge this report was built from.
  obs::MetricsSnapshot metrics;

  double phase_seconds() const noexcept;
};

/// Build a report from the global registry. `wall_seconds` and the
/// pass histogram's name (BackendExec::pass_phase()) are supplied by
/// the caller: the engine knows its own advance() time and executor,
/// so no list of backend names exists to fall out of date.
MetricsReport build_metrics_report(double wall_seconds,
                                   std::string_view pass_phase);

/// Emit {"wall_seconds": ..., "phases": [...], "metrics": {...}}.
void metrics_report_to_json(const MetricsReport& report, obs::JsonWriter& w);

}  // namespace lattice::core
