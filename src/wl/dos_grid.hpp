#pragma once

/// \file dos_grid.hpp
/// The estimated density of states ln g(E) and visit histogram H(E) on a
/// uniform energy grid.
///
/// This implements the continuous-variable extension of Wang-Landau the
/// paper uses (§II-A, eq. 8, following Zhou et al. PRL 96, 120201): instead
/// of the discrete ln g(E_i) += ln f update, the estimate is raised by a
/// kernel of compact support,
///
///   ln g(E') += gamma * k((E' - E)/delta),   k(x) = max(0, 1 - x^2),
///
/// with the Epanechnikov kernel k and width delta chosen as 2 % of the
/// system's energy range (ferromagnetic minimum to antiferromagnetic
/// maximum). The histogram records visits per bin; the flatness criterion
/// min H >= A mean H (eq. 7) is evaluated over the bins the walk has ever
/// visited, since a continuous system's reachable support is not known in
/// advance.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wlsms::wl {

/// Grid layout and kernel parameters.
struct DosGridConfig {
  double e_min = 0.0;    ///< lower edge of the energy window [Ry]
  double e_max = 1.0;    ///< upper edge of the energy window [Ry]
  std::size_t bins = 201;
  /// Kernel half-width delta as a fraction of (e_max - e_min).
  ///
  /// The paper quotes delta = 2 % of the energy range (eq. 8). A kernel that
  /// wide is only stable when the *bin* width is comparable to delta; with
  /// fine bins the spill-over raises bins the walk is being rejected from at
  /// the same rate as the bins it occupies, freezing ln g "walls" into the
  /// estimate (demonstrated quantitatively by bench_ablation_kernel and
  /// tests/test_wl_exact.cpp). The default therefore ties the kernel to half
  /// a bin width at the default bin count, which reproduces eq. 8's behaviour
  /// at matched delta/bin ratio while keeping fine energy resolution.
  double kernel_width_fraction = 0.0025;
};

/// ln g(E) estimate plus visit histogram on a uniform grid.
class DosGrid {
 public:
  using Point = double;  ///< a walker's position on the grid: its energy

  explicit DosGrid(const DosGridConfig& config);

  const DosGridConfig& config() const { return config_; }
  std::size_t bins() const { return ln_g_.size(); }
  double e_min() const { return config_.e_min; }
  double e_max() const { return config_.e_max; }
  double bin_width() const { return bin_width_; }
  /// Kernel half-width delta [Ry].
  double kernel_width() const { return kernel_width_; }

  /// Centre energy of bin b.
  double bin_center(std::size_t b) const;

  /// True when E lies inside the grid window.
  bool contains(double e) const;

  /// Bin index of E; requires contains(e).
  std::size_t bin_index(double e) const;

  /// ln g at energy E, linearly interpolated between bin centres (clamped
  /// to the first/last centre). Requires contains(e).
  double ln_g(double e) const;

  /// One Wang-Landau visit at energy E with modification factor `gamma`:
  /// kernel-update ln g, increment H in E's bin, mark the bin visited.
  /// Returns true when E's bin was visited for the *first time* (support
  /// discovery) — samplers reset the histogram then, since flatness is only
  /// meaningful over a stable support. Requires contains(e).
  bool visit(double e, double gamma);

  /// Clears the histogram (kept ln g); called when the flatness criterion
  /// fires and gamma is reduced (paper Alg. 1 line 11).
  void reset_histogram();

  /// Flatness criterion of eq. 7, min H >= flatness_a * mean H, evaluated
  /// on the *kernel-smoothed* histogram over ever-visited bins.
  ///
  /// Rationale: the continuous-variable update (eq. 8) credits ln g to every
  /// bin within a kernel width of the visited energy, so bins near steep
  /// parts of the spectrum receive density they are never landed in for —
  /// their landing measure is suppressed in proportion. A raw per-bin count
  /// criterion therefore never fires. Crediting *visits* through the same
  /// Epanechnikov kernel restores the symmetry: the smoothed count
  /// H~(b) = sum_b' k((b'-b)/w) H(b') / sum_b' k((b'-b)/w) measures coverage
  /// at the resolution the estimator actually has. Regions unexplored on
  /// scales wider than the kernel still register as empty. The
  /// `min_mean_visits` guard keeps early iterations from passing on noise.
  bool is_flat(double flatness_a, double min_mean_visits = 10.0) const;

  /// The kernel-smoothed histogram used by is_flat (exposed for tests and
  /// diagnostics); entries for never-visited bins are zero.
  std::vector<double> smoothed_histogram() const;

  /// min/mean of the smoothed histogram over ever-visited bins — the left
  /// side of eq. 7 normalized by the mean, i.e. the quantity is_flat
  /// compares against flatness_a. Returns 0 with fewer than two visited
  /// bins. A run-health gauge: watching it climb toward flatness_a shows
  /// how close the current WL iteration is to converging.
  double flatness_ratio() const;

  /// Number of ever-visited bins.
  std::size_t visited_bins() const;

  /// Sum of the current histogram (visits since the last reset).
  std::uint64_t histogram_total() const;

  /// Raw accessors (diagnostics, serialization, thermodynamics).
  const std::vector<double>& ln_g_values() const { return ln_g_; }
  const std::vector<std::uint64_t>& histogram() const { return histogram_; }
  const std::vector<std::uint8_t>& visited() const { return visited_; }

  /// Overwrites the stored ln g values (multimaster merging, stitching).
  void set_ln_g_values(std::vector<double> values);
  /// Marks bins visited (multimaster merging, stitching).
  void set_visited(std::vector<std::uint8_t> visited);

  /// (E, ln g) series over visited bins, shifted so min ln g = 0 (the
  /// normalization constant g0 is unknown anyway, paper eq. 9/10).
  std::vector<std::pair<double, double>> visited_series() const;

 private:
  DosGridConfig config_;
  double bin_width_ = 0.0;
  double kernel_width_ = 0.0;
  std::vector<double> ln_g_;
  std::vector<std::uint64_t> histogram_;
  std::vector<std::uint8_t> visited_;
};

}  // namespace wlsms::wl
