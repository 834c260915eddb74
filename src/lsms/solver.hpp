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
/// elimination is a blocked, GEMM-dominated LU. Configuration-independent
/// hopping blocks are precomputed per distinct geometry per contour point;
/// the inverse single-site t-matrices are cached per (site, contour point)
/// and refreshed incrementally — after a single-moment trial move only the
/// moved site's entries are recomputed.
///
/// Domain decomposition follows the paper: each atom's solve is independent
/// given the t-matrices of its LIZ ("one atom per processor"); here the atom
/// loop is OpenMP-parallel and, in the distributed harness (src/comm), one
/// walker's atoms map onto one LSMS instance.

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "lattice/structure.hpp"
#include "lsms/contour.hpp"
#include "lsms/kkr.hpp"
#include "lsms/scattering.hpp"
#include "spin/moments.hpp"
#include "spin/moves.hpp"

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

  /// Local band energy of atom i for the given moments [Ry].
  double local_energy(std::size_t i,
                      const spin::MomentConfiguration& moments) const;

  /// Total energy and the per-atom breakdown (atom loop is OpenMP-parallel).
  LocalEnergies energies(const spin::MomentConfiguration& moments) const;

  /// Local band energies of the listed zones (LIZ centre atoms), one per
  /// entry in list order: the worker-rank kernel of the distributed energy
  /// service (src/comm), which splits the zones one evaluation must solve —
  /// every zone for a fresh walker, only those a move touches otherwise —
  /// across the ranks of an LSMS group. Strictly serial — no OpenMP — so it
  /// is safe in fork()ed worker processes; each e_i is bitwise identical to
  /// energies().per_atom[i] (same zone solve, same t-table refresh).
  std::vector<double> shard_energies(
      const spin::MomentConfiguration& moments,
      const std::vector<std::size_t>& zones) const;

  /// Total energy only.
  double energy(const spin::MomentConfiguration& moments) const;

  /// Energies of many independent configurations at once: the serving
  /// scheduler's cross-walker batching path (DESIGN.md §12). Every
  /// (configuration, zone) solve of the batch goes into one OpenMP loop,
  /// so a batch of B walkers keeps B x N zone solves in flight instead of
  /// N. Bit-identical per configuration to energies(): each zone runs the
  /// same zone solve and each total is summed in atom order. The first
  /// exception a zone solve throws (SingularMatrixError on a zero pivot)
  /// is rethrown once the loop has finished.
  std::vector<LocalEnergies> batch_energies(
      const std::vector<const spin::MomentConfiguration*>& configs) const;

  /// Sites whose local energy changes when `site` moves: site itself plus
  /// every atom whose LIZ contains it. Mirrors the paper's communication
  /// pattern (a t-matrix is sent exactly to the zones that list it).
  const std::vector<std::size_t>& affected_sites(std::size_t site) const;

  /// Energy after applying `move` to `moments`, given the current per-atom
  /// breakdown; recomputes only affected_sites(move.site). Returns the new
  /// breakdown. `moments` is left unchanged.
  LocalEnergies energy_after_move(const spin::MomentConfiguration& moments,
                                  const spin::TrialMove& move,
                                  const LocalEnergies& current) const;

  /// Analytic count of real flops one full energy evaluation retires
  /// (assembly and closed-form 2x2 algebra excluded; member-block
  /// factorization + two-column solve + 2x2 Schur product, summed over
  /// atoms and contour points). Matches the instrumented perf counters
  /// exactly.
  std::uint64_t flops_per_energy() const;

  /// Analytic flops of atom i's zone solve across the contour (the
  /// per-zone term of flops_per_energy).
  std::uint64_t flops_per_zone_energy(std::size_t i) const;

 private:
  double zone_energy(const LizGeometry& liz,
                     const std::vector<spin::Spin2x2>& t_table) const;

  /// Copies the t^-1 table for `moments` into `out` (site-major, one
  /// Spin2x2 per site per contour point), refreshing the shared cache
  /// incrementally: only sites whose direction changed since the last call
  /// are recomputed. Thread-safe; the copy decouples concurrent callers.
  void refresh_t_table(const spin::MomentConfiguration& moments,
                       std::vector<spin::Spin2x2>& out) const;

  lattice::Structure structure_;
  LsmsParameters params_;
  Scatterer scatterer_;
  std::vector<ContourPoint> contour_;
  std::vector<LizGeometry> lizs_;
  /// lizs_[i] -> its center-last hopping templates (one per contour point),
  /// shared between congruent zones.
  std::vector<std::shared_ptr<const std::vector<SchurTemplates>>> templates_;
  std::vector<std::vector<std::size_t>> affected_;

  /// Incremental per-(site, contour point) t^-1 cache (see refresh_t_table).
  mutable std::mutex t_cache_mutex_;
  mutable std::vector<Vec3> t_cache_directions_;
  mutable std::vector<spin::Spin2x2> t_cache_table_;
};

}  // namespace wlsms::lsms
