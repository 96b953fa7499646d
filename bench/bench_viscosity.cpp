// E11 — §2's hydrodynamic claims, quantified: viscous decay of a
// sinusoidal shear mode measures each FHP variant's kinematic
// viscosity. More collision rules → lower viscosity → higher Reynolds
// number per lattice site, which is the whole reason FHP-II/III exist
// (and why the paper's huge-lattice engines are needed at all: Re
// scales with lattice size, §2/[10]).

#include "bench_util.hpp"

#include <array>
#include <cmath>
#include <cstdio>

#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/lgca/reference.hpp"

namespace {

using namespace lattice;
using namespace lattice::lgca;

/// Fits FHP-I, FHP-II and FHP-III's kinematic viscosities, in that
/// order, from the decay of a shear mode and prints the table (-1 where
/// the mode did not decay to a positive amplitude).
std::array<double, 3> print_viscosity_table() {
  constexpr GasKind kModels[] = {GasKind::FHP_I, GasKind::FHP_II,
                                 GasKind::FHP_III};
  const std::int64_t width = 96;
  const std::int64_t height = 48;
  const std::int64_t steps = 160;
  const double k = 2.0 * 3.141592653589793 / static_cast<double>(height);

  std::printf("  %8s %10s %10s %12s\n", "model", "A(0)", "A(T)/A(0)",
              "nu (fitted)");
  std::array<double, 3> nu{};
  for (std::size_t i = 0; i < nu.size(); ++i) {
    const GasKind kind = kModels[i];
    const GasModel& model = GasModel::get(kind);
    const GasRule rule(kind);
    SiteLattice lat({width, height}, Boundary::Periodic);
    fill_shear(lat, model, 0.3, 0.15, 11);
    const double a0 = sine_mode_amplitude(momentum_profile_x(lat, model));
    reference_run(lat, rule, steps);
    const double ratio =
        sine_mode_amplitude(momentum_profile_x(lat, model)) / a0;
    nu[i] = ratio > 0
                ? -std::log(ratio) / (k * k * static_cast<double>(steps))
                : -1.0;
    std::printf("  %8s %10.1f %10.3f %12.3f\n",
                std::string(gas_kind_name(kind)).c_str(), a0, ratio, nu[i]);
  }
  bench_util::note("");
  bench_util::note("expected shape: nu(FHP-I) > nu(FHP-II) > nu(FHP-III),");
  bench_util::note("each mode decaying exponentially; momentum itself is");
  bench_util::note("conserved exactly throughout. The binary exits nonzero");
  bench_util::note("unless every fit is positive and the order holds.");
  return nu;
}

// §2 / [10]: Reynolds number scales with lattice size — "very large
// Reynolds Numbers will require huge lattices and correspondingly huge
// computation rates". Re = u·L/ν at a typical flow speed u = 0.1
// lattice units, using the viscosities just fitted.
void print_reynolds_table(const std::array<double, 3>& nu) {
  std::printf("\n  achievable Reynolds number, Re = u*L/nu at u = 0.1:\n");
  std::printf("  %8s %12s %12s %12s\n", "L", "FHP-I", "FHP-II", "FHP-III");
  for (const std::int64_t len : {std::int64_t{128}, std::int64_t{785},
                                 std::int64_t{4096}, std::int64_t{65536}}) {
    const double l = static_cast<double>(len);
    std::printf("  %8lld %12.0f %12.0f %12.0f\n",
                static_cast<long long>(len), 0.1 * l / nu[0], 0.1 * l / nu[1],
                0.1 * l / nu[2]);
  }
  bench_util::note("");
  bench_util::note("even the best 1987 on-chip lattice (L = 785) reaches");
  bench_util::note("Re of only a few hundred — the paper's case for ever");
  bench_util::note("bigger engines.");
}

void BM_ShearStep(benchmark::State& state) {
  const auto kind = static_cast<GasKind>(state.range(0));
  const GasRule rule(kind);
  SiteLattice lat({96, 48}, Boundary::Periodic);
  fill_shear(lat, rule.model(), 0.3, 0.15, 3);
  std::int64_t t = 0;
  for (auto _ : state) {
    reference_step(lat, rule, t++);
  }
  state.SetItemsProcessed(state.iterations() * 96 * 48);
  state.SetLabel(std::string(gas_kind_name(kind)));
}
BENCHMARK(BM_ShearStep)
    ->Arg(static_cast<int>(GasKind::FHP_I))
    ->Arg(static_cast<int>(GasKind::FHP_III))
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench_util::header("E11", "shear viscosity by collision rule set");
  const std::array<double, 3> nu = print_viscosity_table();
  const bool ordered = nu[2] > 0 && nu[1] > nu[2] && nu[0] > nu[1];
  if (ordered) {
    print_reynolds_table(nu);
  } else {
    std::fprintf(stderr, "E11: viscosity ordering violated\n");
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return ordered ? 0 : 1;
}
