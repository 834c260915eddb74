// Reproduces Table II of the paper: sustained floating-point performance of
// WL-LSMS on the Cray XT5 for 10/50/100/144 walkers of 1024 atoms each, 20
// WL steps per walker. Headline: 1.029 PFlop/s on 147,464 cores = 75.8 % of
// peak. Flops are counted analytically exactly as the paper's PAPI
// instrumentation counts retired FP operations; timing comes from the
// discrete-event machine model (DESIGN.md §2).
#include "bench_common.hpp"

#include "cluster/des.hpp"
#include "common/rng.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "perf/flops.hpp"

int main() {
  using namespace wlsms;
  bench::banner("Table II",
                "sustained performance on the Cray XT5: 1.029 PFlop/s on "
                "147,464 cores (75.8% of peak) at 144 walkers");

  const cluster::MachineDescription machine = cluster::jaguar_xt5();
  cluster::JobDescription job;
  job.n_atoms = 1024;
  job.steps_per_walker = 20;
  job.fidelity.lmax = 3;
  job.fidelity.liz_atoms = 65;
  job.fidelity.contour_points = 20;

  // The paper's peak-fraction is constant at 75.8%; its per-row TFlop/s
  // follow from the core counts.
  const auto paper_tflops = [&machine](std::size_t cores) {
    return 0.758 * static_cast<double>(cores) * machine.peak_flops_per_core /
           1e12;
  };

  io::CsvWriter csv("table2_sustained.csv",
                    {"walkers", "cores", "tflops", "fraction_of_peak"});
  io::TextTable table({"WL walkers", "cores", "TFlop/s (paper)",
                       "TFlop/s (ours)", "% of peak (paper)",
                       "% of peak (ours)"});
  for (std::size_t walkers : {10u, 50u, 100u, 144u}) {
    job.n_walkers = walkers;
    const cluster::SimulationResult r = cluster::simulate_wl_lsms(machine, job);
    csv.row({static_cast<double>(walkers), static_cast<double>(r.cores),
             r.sustained_flops / 1e12, r.fraction_of_peak});
    table.row({std::to_string(walkers), std::to_string(r.cores),
               io::format_double(paper_tflops(r.cores), 1),
               io::format_double(r.sustained_flops / 1e12, 1),
               "75.8", io::format_double(100.0 * r.fraction_of_peak, 1)});
  }
  table.print();
  std::printf("full series written to table2_sustained.csv\n");

  job.n_walkers = 144;
  const cluster::SimulationResult headline =
      cluster::simulate_wl_lsms(machine, job);
  std::printf(
      "\nheadline run: %s on %zu cores (%.1f%% of peak); paper: 1.029 "
      "PFlop/s on 147,464 cores (75.8%%)\n",
      io::format_flops(headline.sustained_flops).c_str(), headline.cores,
      100.0 * headline.fraction_of_peak);

  // Measured on this host rather than modeled: the share of retired flops
  // flowing through ZGEMM in one paper-geometry (65-atom LIZ) zone solve.
  // The paper attributes "the bulk of the calculation" to ZGEMM; the
  // spin-block Schur path keeps that true of this reproduction.
  {
    const lsms::LsmsSolver solver(lattice::make_fe_supercell(2),
                                  lsms::fe_lsms_parameters());
    Rng rng(1);
    const auto config = spin::MomentConfiguration::random(16, rng);
    perf::FlopWindow window;
    // Serial: the solve's flops land on this thread's tally, which the
    // window reads exactly.
    solver.solve_zones({{&config, {0}}}, lsms::ZoneThreading::kSerial);
    std::printf(
        "measured on this host: %.1f%% of retired flops in ZGEMM for one "
        "65-atom LIZ solve\n",
        100.0 * window.gemm_fraction());
  }
  return 0;
}
