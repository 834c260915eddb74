// Microbenchmarks of the multiple-scattering energy engine: cost of one
// frozen-potential energy evaluation vs LIZ radius and contour resolution,
// plus the incremental-move path that mirrors the paper's communication
// locality.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/exchange.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "perf/flops.hpp"

namespace {

using namespace wlsms;

void BM_LsmsEnergy_LizRadius(benchmark::State& state) {
  const double radius = static_cast<double>(state.range(0)) / 10.0;
  lsms::LsmsParameters params = lsms::fe_lsms_parameters_fast();
  params.liz_radius = radius;
  const lsms::LsmsSolver solver(lattice::make_fe_supercell(2), params);
  Rng rng(1);
  const auto config = spin::MomentConfiguration::random(16, rng);
  for (auto _ : state) benchmark::DoNotOptimize(solver.energy(config));
  state.counters["zone_atoms"] = static_cast<double>(solver.liz_size(0));
  state.counters["GFlop/eval"] =
      static_cast<double>(solver.flops_per_energy()) / 1e9;
}
BENCHMARK(BM_LsmsEnergy_LizRadius)->Arg(50)->Arg(56)->Arg(77)->MinTime(0.2);

// The paper's production geometry: 11.5 a0 LIZ (65-atom zones, 130 x 130
// zone matrices) and the 16-point contour. One iteration = one full energy
// evaluation of the 16-atom cell; gemm_frac is the measured share of flops
// booked under the kZgemm tag — linalg::schur_solve's trailing update and
// 2x2 Schur product (acceptance bar: >= 0.6).
void BM_LsmsEnergy_PaperGeometry(benchmark::State& state) {
  const lsms::LsmsSolver solver(lattice::make_fe_supercell(2),
                                lsms::fe_lsms_parameters());
  Rng rng(4);
  const auto config = spin::MomentConfiguration::random(16, rng);
  perf::FlopWindow window;
  for (auto _ : state) benchmark::DoNotOptimize(solver.energy(config));
  state.counters["zone_atoms"] = static_cast<double>(solver.liz_size(0));
  state.counters["GFlop/eval"] =
      static_cast<double>(solver.flops_per_energy()) / 1e9;
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(solver.flops_per_energy()) * state.iterations() /
          1e9,
      benchmark::Counter::kIsRate);
  state.counters["gemm_frac"] = window.gemm_fraction();
}
BENCHMARK(BM_LsmsEnergy_PaperGeometry)->MinTime(0.5);

void BM_LsmsEnergy_ContourPoints(benchmark::State& state) {
  lsms::LsmsParameters params = lsms::fe_lsms_parameters_fast();
  params.contour_points = static_cast<std::size_t>(state.range(0));
  const lsms::LsmsSolver solver(lattice::make_fe_supercell(2), params);
  Rng rng(2);
  const auto config = spin::MomentConfiguration::random(16, rng);
  for (auto _ : state) benchmark::DoNotOptimize(solver.energy(config));
}
BENCHMARK(BM_LsmsEnergy_ContourPoints)->Arg(4)->Arg(8)->Arg(16)->MinTime(0.2);

void BM_LsmsIncrementalMove(benchmark::State& state) {
  // One move-local evaluation: re-solve only the zones the moved site
  // enters (the t^-1 table is rebuilt for the whole configuration).
  const lsms::LsmsSolver solver(lattice::make_fe_supercell(2),
                                lsms::fe_lsms_parameters_fast());
  Rng rng(3);
  auto config = spin::MomentConfiguration::random(16, rng);
  const std::vector<lsms::ZoneJob> jobs = {{&config, solver.affected_sites(3)}};
  for (auto _ : state) {
    config.set(3, rng.unit_vector());
    benchmark::DoNotOptimize(solver.solve_zones(jobs));
  }
  state.counters["affected_atoms"] =
      static_cast<double>(solver.affected_sites(3).size());
}
BENCHMARK(BM_LsmsIncrementalMove)->MinTime(0.2);

void BM_ExchangeExtraction(benchmark::State& state) {
  const lsms::LsmsSolver solver(lattice::make_fe_supercell(2),
                                lsms::fe_lsms_parameters_fast());
  for (auto _ : state) {
    Rng rng(42);
    benchmark::DoNotOptimize(lsms::extract_exchange(solver, 2, 16, rng));
  }
}
BENCHMARK(BM_ExchangeExtraction)->Iterations(2);

}  // namespace
