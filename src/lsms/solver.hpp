#pragma once

/// \file solver.hpp
/// The LSMS energy engine: frozen-potential band energies of moment
/// configurations, one LIZ solve per atom per contour point.
///
/// For every atom i the solver computes the local band energy
///
///   e_i = -(1/pi) Im Integral_C  z Tr_spin[ tau_00^{(i)}(z) ] dz ,
///
/// with tau_00 the central block of the LIZ scattering-path operator and C
/// the complex contour from the band bottom to the Fermi energy. The total
/// energy E({e}) = Sum_i e_i is the classical energy functional the
/// Wang-Landau walk samples; differences between configurations are the
/// frozen-potential (magnetic force theorem) energy differences of §II-B.
///
/// Hot-path structure (the paper's "bulk of the calculation is done by
/// ZGEMM"): per zone and contour point the center's tau block is obtained
/// by Schur complement of the member block (center ordered last), whose
/// elimination is the spin-block kernel: GEMM-dominated factorizations of
/// the L x L spin-up block (LDL^T, it is complex symmetric) and of its
/// Schur complement (LU), and the inverse of the first (lsms/kkr.hpp).
/// Configuration-independent spin-free hopping blocks are precomputed per
/// distinct geometry per contour point; the inverse single-site t-matrices
/// are built per configuration, once for each job of a solve_zones call.
/// t_inverse is pure, so a built solver never changes after construction
/// and any number of threads may call it at once.
///
/// Domain decomposition follows the paper: each atom's solve is independent
/// given the t-matrices of its LIZ ("one atom per processor"). Every energy
/// this solver computes goes through one entry point, solve_zones: a list
/// of (configuration, zone list) jobs whose zone solves run in one OpenMP
/// loop, or serially on the caller's thread in the fork()ed worker ranks of
/// the distributed harness (src/comm).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "lattice/structure.hpp"
#include "lsms/contour.hpp"
#include "lsms/kkr.hpp"
#include "lsms/scattering.hpp"
#include "spin/moments.hpp"

namespace wlsms::lsms {

/// Solver configuration.
struct LsmsParameters {
  ScatteringParameters scattering;
  double liz_radius = 11.5;        ///< LIZ radius [a0]; paper: 11.5 -> 65 atoms
  std::size_t contour_points = 16; ///< Gauss-Legendre nodes on the contour
};

/// Per-configuration energy breakdown.
struct LocalEnergies {
  std::vector<double> per_atom;  ///< e_i [Ry]
  double total = 0.0;            ///< Sum_i e_i [Ry]
};

/// One configuration and the zones (LIZ centre atoms) whose local band
/// energies a solve_zones call should compute for it.
struct ZoneJob {
  const spin::MomentConfiguration* moments = nullptr;
  std::vector<std::size_t> zones;  ///< strictly ascending, each < n_atoms()
};

/// Where solve_zones runs its zone solves.
enum class ZoneThreading {
  kOpenMp,  ///< one OpenMP loop over every (job, zone) pair of the call
  kSerial,  ///< the calling thread alone, no OpenMP: fork()ed worker ranks
};

/// Frozen-potential multiple-scattering energy engine for one structure.
///
/// Geometry-dependent data (LIZ membership and the center-last hopping
/// blocks at every contour point) is precomputed at construction and shared
/// between congruent zones, so per-energy-evaluation work is exactly the
/// dense linear algebra the paper profiles.
class LsmsSolver {
 public:
  LsmsSolver(lattice::Structure structure, LsmsParameters params);

  const lattice::Structure& structure() const { return structure_; }
  const LsmsParameters& params() const { return params_; }
  const Scatterer& scatterer() const { return scatterer_; }
  std::size_t n_atoms() const { return structure_.size(); }

  /// The complex-energy integration contour (shared by every zone).
  const std::vector<ContourPoint>& contour() const { return contour_; }

  /// Atoms per LIZ (zone size, centre included) of site i.
  std::size_t liz_size(std::size_t i) const { return lizs_[i].zone_size(); }

  /// The local band energies of every job's zones. Result j holds
  /// e_{zones[k]} in per_atom[k] (zone-list order) and their sum, taken in
  /// that order, in total; a job listing every zone therefore gets exactly
  /// energies(). Each e_i depends only on its zone's t-matrices, so it is
  /// bitwise the same in any job, call, batch or threading mode. A zone
  /// solve's exception (SingularMatrixError on a zero pivot) reaches the
  /// caller; with kOpenMp the first one is rethrown once the loop has
  /// finished.
  std::vector<LocalEnergies> solve_zones(
      const std::vector<ZoneJob>& jobs,
      ZoneThreading threading = ZoneThreading::kOpenMp) const;

  /// Total energy and the per-atom breakdown: solve_zones over every zone.
  LocalEnergies energies(const spin::MomentConfiguration& moments) const;

  /// Total energy only.
  double energy(const spin::MomentConfiguration& moments) const;

  /// Every zone, ascending: the zone list of an energies() job.
  const std::vector<std::size_t>& all_zones() const { return all_zones_; }

  /// Sites whose local energy changes when `site` moves: site itself plus
  /// every atom whose LIZ contains it, ascending. Mirrors the paper's
  /// communication pattern (a t-matrix is sent exactly to the zones that
  /// list it).
  const std::vector<std::size_t>& affected_sites(std::size_t site) const;

  /// Analytic count of real flops one full energy evaluation retires
  /// (assembly and closed-form 2x2 algebra excluded; the spin-block
  /// kernel's LDL^T, symmetric inverse, LU and O(L^2) Schur and coupling
  /// work, summed over atoms and contour points). Matches the instrumented
  /// perf counters exactly.
  std::uint64_t flops_per_energy() const;

  /// Analytic flops of atom i's zone solve across the contour (the
  /// per-zone term of flops_per_energy).
  std::uint64_t flops_per_zone_energy(std::size_t i) const;

 private:
  double zone_energy(const LizGeometry& liz,
                     const std::vector<spin::Spin2x2>& t_table) const;

  lattice::Structure structure_;
  LsmsParameters params_;
  Scatterer scatterer_;
  std::vector<ContourPoint> contour_;
  std::vector<LizGeometry> lizs_;
  /// lizs_[i] -> its center-last hopping templates (one per contour point),
  /// shared between congruent zones.
  std::vector<std::shared_ptr<const std::vector<SchurTemplates>>> templates_;
  std::vector<std::vector<std::size_t>> affected_;
  std::vector<std::size_t> all_zones_;
};

}  // namespace wlsms::lsms
