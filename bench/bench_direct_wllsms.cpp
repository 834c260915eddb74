// The paper's §IV performance experiment, executed for real on this host:
// Wang-Landau walkers driving *actual multiple-scattering energies* through
// the asynchronous master-slave stack — the group-sharded distributed
// service on 2 groups x 2 rank threads, whose results return out of order —
// 20 WL steps per walker (exactly the paper's benchmark schedule: "each
// walker executes 20 WL steps, which is far fewer than a real
// simulation").
//
// This is the direct WL-LSMS mode of DESIGN.md §2 — no Heisenberg
// surrogate anywhere: every energy is a fresh per-atom LIZ factorization.
// Flops are measured by the kernel instrumentation (the PAPI analogue) and
// reported as this host's sustained rate, the per-core number that anchors
// the Table II projection: the median and interquartile range over 7
// repeats of the schedule at the paper's LIZ, each with a fresh service and
// driver and the same seed.
#include "bench_common.hpp"

#include <algorithm>
#include <vector>

#include "comm/factory.hpp"
#include "io/table.hpp"
#include "lsms/solver.hpp"
#include "perf/flops.hpp"
#include "wl/driver.hpp"

int main() {
  using namespace wlsms;
  bench::banner("direct WL-LSMS (paper §IV schedule on this host)",
                "walkers execute 20 WL steps of real multiple-scattering "
                "energies through the asynchronous driver");

  // 16-atom cell at the paper's LIZ (65-atom zones, 16 contour points):
  // about half a second per schedule, so timer and scheduling noise stay
  // at a few per cent of one repeat.
  auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters());
  const wl::LsmsEnergy energy(solver);
  std::printf("system: %zu atoms, %zu-atom LIZ, %.2f MFlop per energy "
              "evaluation (analytic)\n",
              solver->n_atoms(), solver->liz_size(0),
              static_cast<double>(solver->flops_per_energy()) / 1e6);

  constexpr std::size_t kWalkers = 4;
  constexpr std::uint64_t kStepsPerWalker = 20;

  // Energy window from substrate probes: the FM reference, random
  // configurations, and the walkers' own starting configurations, so every
  // seed lies inside it. WlDriver seeds walker w with the w-th random
  // configuration drawn from the Rng it is handed (Rng(7) below).
  constexpr std::uint64_t kSeed = 7;
  double e_min = solver->energy(spin::MomentConfiguration::ferromagnetic(16));
  double e_max = e_min;
  Rng probe_rng(2);
  Rng seed_rng(kSeed);
  for (std::size_t k = 0; k < 8 + kWalkers; ++k) {
    const double e = solver->energy(spin::MomentConfiguration::random(
        16, k < kWalkers ? seed_rng : probe_rng));
    e_min = std::min(e_min, e);
    e_max = std::max(e_max, e);
  }

  wl::WangLandauConfig config;
  config.grid.e_min = e_min - 0.002;
  config.grid.e_max = e_max + 0.01;
  config.grid.bins = 64;
  config.grid.kernel_width_fraction = 0.5 / 64.0;
  config.n_walkers = kWalkers;
  config.max_steps = kWalkers * kStepsPerWalker;

  // Two LSMS groups of two ranks each (in-process threads): up to two
  // walkers' requests in flight at once, every zone solve serial on its
  // rank, so the 4 rank threads match the 4 cores.
  constexpr std::size_t kGroups = 2;
  constexpr std::size_t kGroupSize = 2;
  comm::EnergyServiceSpec spec;
  spec.kind = comm::ServiceKind::kDistributed;
  spec.energy = &energy;
  spec.distributed.n_groups = kGroups;
  spec.distributed.group_size = kGroupSize;
  spec.distributed.transport = comm::Transport::kInProcess;
  // Repeat the schedule, each time with a fresh service and driver and the
  // same seed, and report the median and the interquartile range.
  constexpr int kRepeats = 7;
  std::vector<double> wall;
  std::vector<double> rate;
  std::vector<double> gflop;
  wl::DriverStats stats;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const std::unique_ptr<wl::EnergyService> instances =
        comm::make_energy_service(spec);
    perf::FlopWindow flops;
    perf::Timer timer;
    wl::WlDriver driver(16, *instances, config,
                        std::make_unique<wl::HalvingSchedule>(1.0, 1e-8),
                        Rng(kSeed));
    stats = driver.run();
    const double seconds = timer.seconds();
    const double retired = static_cast<double>(flops.elapsed());
    wall.push_back(seconds);
    rate.push_back(retired / seconds);
    gflop.push_back(retired / 1e9);
  }
  // Linear interpolation between order statistics.
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double at = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  const auto spread = [&](const std::vector<double>& v, double scale,
                          int digits) {
    return io::format_double(quantile(v, 0.5) * scale, digits) + " [" +
           io::format_double(quantile(v, 0.25) * scale, digits) + "–" +
           io::format_double(quantile(v, 0.75) * scale, digits) + "]";
  };
  const double ranks = static_cast<double>(kGroups * kGroupSize);

  std::printf("%d repeats of the schedule; median [interquartile range]\n",
              kRepeats);
  io::TextTable table({"quantity", "value"});
  table.row({"WL walkers", std::to_string(kWalkers)});
  table.row({"WL steps (energy calculations)",
             std::to_string(stats.total_steps)});
  table.row({"accepted (last repeat)", std::to_string(stats.accepted_steps)});
  table.row({"wall time [s]", spread(wall, 1.0, 4)});
  table.row({"retired flops (measured) [GFlop]", spread(gflop, 1.0, 3)});
  table.row({"sustained [GFlop/s]", spread(rate, 1e-9, 1)});
  table.row({"sustained per rank [GFlop/s]", spread(rate, 1e-9 / ranks, 2)});
  table.print();

  std::printf(
      "\nReading: this is the paper's benchmark loop running for real —\n"
      "asynchronous energy requests, out-of-order returns, kernel-level\n"
      "flop counting. The sustained per-rank rate measured here is the\n"
      "quantity the paper reports as 75.8%% of the Opteron peak; Table II's\n"
      "petaflop number is that rate times 147,456 instance cores (see\n"
      "bench_table2).\n");
  return 0;
}
