#pragma once

/// \file joint_dos.hpp
/// Two-dimensional density of states g(E, M) over energy and a second
/// collective variable (here the magnetization component M_z).
///
/// The paper notes that the magnetization as a function of temperature is
/// recovered "in a joint density of states calculation" (§II-B), and its
/// motivating application — temperature-dependent switching barriers of FePt
/// nanoparticles (refs [14], [15]) — needs the free-energy profile F(M_z; T),
/// which is exactly what this joint DOS provides:
///
///   F(M; T) = -k_B T ln Integral g(E, M) e^{-E/(k_B T)} dE .
///
/// Updates use the product of two Epanechnikov kernels (the 2-D analogue of
/// eq. 8), and flatness is evaluated over ever-visited cells.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wlsms::wl {

/// Grid layout for the joint estimate.
struct JointDosConfig {
  double e_min = 0.0;
  double e_max = 1.0;
  std::size_t e_bins = 101;
  double m_min = -1.0;
  double m_max = 1.0;
  std::size_t m_bins = 41;
  double e_kernel_fraction = 0.02;  ///< kernel width / energy range
  double m_kernel_fraction = 0.05;  ///< kernel width / magnetization range
};

/// ln g(E, M) estimate plus visit histogram on a uniform 2-D grid.
class JointDos {
 public:
  struct Point {  ///< a walker's position on the grid
    double e = 0.0, m = 0.0;
  };

  explicit JointDos(const JointDosConfig& config);

  const JointDosConfig& config() const { return config_; }
  std::size_t e_bins() const { return config_.e_bins; }
  std::size_t m_bins() const { return config_.m_bins; }

  double e_center(std::size_t be) const;
  double m_center(std::size_t bm) const;

  bool contains(double e, double m) const;
  bool contains(const Point& p) const { return contains(p.e, p.m); }

  /// Bilinear-interpolated ln g at (e, m); requires contains(e, m).
  double ln_g(double e, double m) const;
  double ln_g(const Point& p) const { return ln_g(p.e, p.m); }

  /// One WL visit at (e, m): 2-D kernel update, histogram hit, mark visited.
  /// Returns true when the cell was visited for the first time.
  bool visit(double e, double m, double gamma);
  bool visit(const Point& p, double gamma) { return visit(p.e, p.m, gamma); }

  void reset_histogram();

  /// Flatness criterion of eq. 7, min H >= flatness_a * mean H, evaluated
  /// over the cells hit during the *current* iteration (H > 0).
  ///
  /// Unlike the 1-D grid, a 2-D support has a long reachability boundary:
  /// cells discovered once during the exploratory high-gamma phase can be
  /// unreachable under the refined estimate, so a criterion over all
  /// ever-visited cells never fires. Restricting to currently-hit cells
  /// makes the criterion well defined; the sampler guards against a
  /// spuriously shrunken support by also requiring the hit-cell count to
  /// stay near the previous iteration's (JointWangLandau::step).
  bool is_flat(double flatness_a, double min_mean_visits = 10.0) const;

  /// min/mean of H over the cells hit in the current iteration — the
  /// quantity is_flat compares against flatness_a (0 with fewer than two).
  double flatness_ratio() const;

  /// Number of cells with H > 0 in the current iteration.
  std::size_t hit_cells() const;

  std::size_t visited_cells() const;

  /// Raw ln g of cell (be, bm).
  double cell_ln_g(std::size_t be, std::size_t bm) const;
  bool cell_visited(std::size_t be, std::size_t bm) const;
  std::uint64_t cell_hits(std::size_t be, std::size_t bm) const;

 private:
  std::size_t cell(std::size_t be, std::size_t bm) const {
    return be * config_.m_bins + bm;
  }

  JointDosConfig config_;
  double e_width_ = 0.0;
  double m_width_ = 0.0;
  double e_kernel_ = 0.0;
  double m_kernel_ = 0.0;
  std::vector<double> ln_g_;
  std::vector<std::uint64_t> histogram_;
  std::vector<std::uint8_t> visited_;
};

}  // namespace wlsms::wl
