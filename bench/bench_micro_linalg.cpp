// Microbenchmarks of the dense complex kernels that dominate LSMS runtime
// (paper §II-B: "the bulk of the calculation is done by ZGEMM in the
// evaluation of the local sub-block of the inverse of the real space KKR
// matrix"). Reports achieved GFlop/s per kernel and size, the per-core
// efficiency number behind the Table II projection.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lattice/structure.hpp"
#include "linalg/lu.hpp"
#include "linalg/split.hpp"
#include "lsms/contour.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/kkr.hpp"
#include "peak_fma.hpp"
#include "perf/flops.hpp"

namespace {

using namespace wlsms;

linalg::ZMatrix random_matrix(std::size_t n, Rng& rng) {
  linalg::ZMatrix m(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      m(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (std::size_t d = 0; d < n; ++d) m(d, d) += linalg::Complex{4.0, 0.0};
  return m;
}

// The blocked right-looking LU on a plane copy (split_getrf: panel +
// row-panel substitution + trailing tile); gemm_frac is the measured share
// of flops booked as the trailing update.
void BM_Zgetrf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const linalg::SplitMatrix a(random_matrix(n, rng));
  linalg::SplitMatrix lu;
  std::vector<std::size_t> pivots;
  perf::FlopWindow window;
  for (auto _ : state) {
    lu = a;
    linalg::split_getrf(lu, pivots);
    benchmark::DoNotOptimize(lu.re(0));
    benchmark::ClobberMemory();
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(perf::cost::zgetrf_blocked(n, linalg::kLuBlockSize)) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
  state.counters["gemm_frac"] = window.gemm_fraction();
}
// 130 = the 65-atom-LIZ s-channel matrix; 30 = the fast-test zone.
BENCHMARK(BM_Zgetrf)->Arg(30)->Arg(65)->Arg(130)->Arg(192);

// The interleaved reference rank-1-update loop, for the blocked-vs-unblocked
// headline.
void BM_ZgetrfUnblocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const linalg::ZMatrix a = random_matrix(n, rng);
  for (auto _ : state) {
    linalg::LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.packed().data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(perf::cost::zgetrf_panel(n, n)) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZgetrfUnblocked)->Arg(30)->Arg(65)->Arg(130)->Arg(192);

void BM_CentralColumnsSolve(benchmark::State& state) {
  // Factor once, then the two central-column solves of the tau block.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const linalg::LuFactorization lu(random_matrix(n, rng));
  std::vector<linalg::Complex> col(n);
  for (auto _ : state) {
    std::fill(col.begin(), col.end(), linalg::Complex{0.0, 0.0});
    col[0] = {1.0, 0.0};
    lu.solve_in_place(col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_CentralColumnsSolve)->Arg(130);

void BM_LogDet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const linalg::ZMatrix a = random_matrix(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::log_det(a));
  }
}
BENCHMARK(BM_LogDet)->Arg(65)->Arg(130);

// One contour point of one zone exactly as the solver runs it:
// central_tau_schur on real hopping templates and t^-1 blocks of a random
// moment configuration. The first argument is the member-block order: 28
// is the fast 15-atom LIZ, 128 the paper's 65-atom LIZ. The second is the
// point of the paper's 16-point contour: 8 is mid-contour, where the
// spin-up block F never pivots; 15 is the point nearest E_F, where F's
// factorization takes interchanges and 2x2 pivots.
void BM_ZoneSolve(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  const auto point = static_cast<std::size_t>(state.range(1));
  const double radius = order == 28 ? 5.6 : units::fe_liz_radius_a0;
  const lattice::Structure cell = lattice::make_fe_supercell(2);
  const lsms::LizGeometry liz = lsms::build_liz(cell, 0, radius);
  if (2 * liz.members.size() != order) {
    state.SkipWithError("no LIZ of this member-block order");
    return;
  }
  const lsms::ScatteringParameters sp = lsms::fe_scattering_parameters();
  const lsms::Scatterer scatterer(sp);
  const std::vector<lsms::ContourPoint> contour =
      lsms::semicircle_contour(sp.band_bottom, sp.fermi_energy, 16);
  const linalg::Complex z = contour.at(point).z;
  const lsms::SchurTemplates templates = lsms::make_schur_templates(
      lsms::scalar_propagator_matrix(liz, z), sp.propagator_strength);
  Rng rng(5);
  const auto moments = spin::MomentConfiguration::random(cell.size(), rng);
  std::vector<spin::Spin2x2> members(liz.members.size());
  for (std::size_t j = 0; j < members.size(); ++j)
    members[j] = scatterer.t_inverse(moments[liz.members[j].site], z);
  const spin::Spin2x2 center = scatterer.t_inverse(moments[0], z);
  lsms::SchurWorkspace ws;
  perf::FlopWindow window;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const spin::Spin2x2 tau =
        lsms::central_tau_schur(templates, center, members.data(), ws);
    benchmark::DoNotOptimize(tau);
  }
  const std::chrono::duration<double, std::micro> loop =
      std::chrono::steady_clock::now() - t0;
  state.counters["us"] =
      benchmark::Counter(loop.count(), benchmark::Counter::kAvgIterations);
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(window.elapsed()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZoneSolve)->ArgsProduct({{28, 128}, {8, 15}});

// The one-thread FMA peak the kernels' GFlop/s are a fraction of:
// register-only multiply-add chains on the kernels' vector type, compiled
// with the linalg library's flags (peak_fma.cpp), so under the `portable`
// preset this is the scalar peak.
void BM_PeakFma(benchmark::State& state) {
  std::uint64_t flops = 0;
  double sink = 0.0;
  for (auto _ : state) {
    flops += bench::fma_chains(1 << 16, sink);
    benchmark::DoNotOptimize(sink);
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(flops) / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PeakFma);

}  // namespace
