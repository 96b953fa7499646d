#include "lattice/core/metrics_report.hpp"

#include <array>
#include <string_view>

namespace lattice::core {

namespace {

// The engine's own top-level stages besides its pass. Everything else
// in the registry (wsa.run_ns, pool.lane_ns, bitplane.update_ns, ...)
// nests inside one of these or the pass, and would double-count if
// listed here.
constexpr std::array<std::string_view, 2> kEngineStages = {
    "engine.checkpoint_ns",
    "engine.restore_ns",
};

}  // namespace

double MetricsReport::phase_seconds() const noexcept {
  double total = 0;
  for (const MetricsPhase& p : phases) total += p.seconds;
  return total;
}

MetricsReport build_metrics_report(double wall_seconds,
                                   std::string_view pass_phase) {
  MetricsReport report;
  report.wall_seconds = wall_seconds;
  if constexpr (obs::kEnabled) {
    report.metrics = obs::MetricsRegistry::global().snapshot();
    const auto add = [&](std::string_view name) {
      const obs::HistogramStats* h = report.metrics.find_histogram(name);
      if (h == nullptr || h->count == 0) return;
      report.phases.push_back(MetricsPhase{
          std::string(name), h->count, static_cast<double>(h->sum) * 1e-9});
    };
    add(pass_phase);
    for (const std::string_view name : kEngineStages) add(name);
  }
  return report;
}

void metrics_report_to_json(const MetricsReport& report, obs::JsonWriter& w) {
  w.begin_object();
  w.field("wall_seconds", report.wall_seconds);
  w.field("phase_seconds", report.phase_seconds());
  w.key("phases").begin_array();
  for (const MetricsPhase& p : report.phases) {
    w.begin_object();
    w.field("name", p.name);
    w.field("count", p.count);
    w.field("seconds", p.seconds);
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  metrics_to_json(report.metrics, w);
  w.end_object();
}

}  // namespace lattice::core
