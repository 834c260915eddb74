#include "wl/joint_dos.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace wlsms::wl {

JointDos::JointDos(const JointDosConfig& config) : config_(config) {
  WLSMS_EXPECTS(config.e_max > config.e_min);
  WLSMS_EXPECTS(config.m_max > config.m_min);
  WLSMS_EXPECTS(config.e_bins >= 3 && config.m_bins >= 3);
  WLSMS_EXPECTS(config.e_kernel_fraction > 0.0 &&
                config.m_kernel_fraction > 0.0);
  e_width_ = (config.e_max - config.e_min) / static_cast<double>(config.e_bins);
  m_width_ = (config.m_max - config.m_min) / static_cast<double>(config.m_bins);
  e_kernel_ = config.e_kernel_fraction * (config.e_max - config.e_min);
  m_kernel_ = config.m_kernel_fraction * (config.m_max - config.m_min);
  const std::size_t cells = config.e_bins * config.m_bins;
  ln_g_.assign(cells, 0.0);
  histogram_.assign(cells, 0);
  visited_.assign(cells, 0);
}

double JointDos::e_center(std::size_t be) const {
  WLSMS_EXPECTS(be < config_.e_bins);
  return config_.e_min + (static_cast<double>(be) + 0.5) * e_width_;
}

double JointDos::m_center(std::size_t bm) const {
  WLSMS_EXPECTS(bm < config_.m_bins);
  return config_.m_min + (static_cast<double>(bm) + 0.5) * m_width_;
}

bool JointDos::contains(double e, double m) const {
  return e >= config_.e_min && e < config_.e_max && m >= config_.m_min &&
         m < config_.m_max;
}

double JointDos::ln_g(double e, double m) const {
  WLSMS_EXPECTS(contains(e, m));
  const double xe =
      std::clamp((e - config_.e_min) / e_width_ - 0.5, 0.0,
                 static_cast<double>(config_.e_bins - 1));
  const double xm =
      std::clamp((m - config_.m_min) / m_width_ - 0.5, 0.0,
                 static_cast<double>(config_.m_bins - 1));
  const auto be = std::min(static_cast<std::size_t>(xe), config_.e_bins - 2);
  const auto bm = std::min(static_cast<std::size_t>(xm), config_.m_bins - 2);
  const double fe = xe - static_cast<double>(be);
  const double fm = xm - static_cast<double>(bm);
  // Bilinear interpolation restricted to *visited* corners (same rationale
  // as DosGrid::ln_g: unvisited cells carry only spill-over and would make
  // support-edge states look spuriously probable). Unvisited corners are
  // dropped and the weights renormalized; with no visited corner the raw
  // average is returned (fresh-territory proposal).
  const std::size_t cells[4] = {cell(be, bm), cell(be, bm + 1),
                                cell(be + 1, bm), cell(be + 1, bm + 1)};
  const double weights[4] = {(1 - fe) * (1 - fm), (1 - fe) * fm,
                             fe * (1 - fm), fe * fm};
  double value = 0.0;
  double weight_sum = 0.0;
  for (int c = 0; c < 4; ++c) {
    if (!visited_[cells[c]]) continue;
    value += weights[c] * ln_g_[cells[c]];
    weight_sum += weights[c];
  }
  if (weight_sum <= 0.0) {
    for (int c = 0; c < 4; ++c) value += weights[c] * ln_g_[cells[c]];
    return value;
  }
  return value / weight_sum;
}

bool JointDos::visit(double e, double m, double gamma) {
  WLSMS_EXPECTS(contains(e, m));
  WLSMS_EXPECTS(gamma >= 0.0);

  const auto be_of = [&](double x) {
    const double b = (x - config_.e_min) / e_width_;
    return std::clamp(b, 0.0, static_cast<double>(config_.e_bins - 1));
  };
  const auto bm_of = [&](double x) {
    const double b = (x - config_.m_min) / m_width_;
    return std::clamp(b, 0.0, static_cast<double>(config_.m_bins - 1));
  };

  const auto be_lo = static_cast<std::size_t>(be_of(e - e_kernel_));
  const auto be_hi = static_cast<std::size_t>(be_of(e + e_kernel_));
  const auto bm_lo = static_cast<std::size_t>(bm_of(m - m_kernel_));
  const auto bm_hi = static_cast<std::size_t>(bm_of(m + m_kernel_));
  for (std::size_t be = be_lo; be <= be_hi; ++be) {
    const double xe = (e_center(be) - e) / e_kernel_;
    const double ke = 1.0 - xe * xe;
    if (ke <= 0.0) continue;
    for (std::size_t bm = bm_lo; bm <= bm_hi; ++bm) {
      const double xm = (m_center(bm) - m) / m_kernel_;
      const double km = 1.0 - xm * xm;
      if (km <= 0.0) continue;
      ln_g_[cell(be, bm)] += gamma * ke * km;
    }
  }

  const auto hit_e = static_cast<std::size_t>(be_of(e));
  const auto hit_m = static_cast<std::size_t>(bm_of(m));
  const std::size_t hit = cell(hit_e, hit_m);
  ++histogram_[hit];
  const bool newly_visited = (visited_[hit] == 0);
  visited_[hit] = 1;
  return newly_visited;
}

void JointDos::reset_histogram() {
  std::fill(histogram_.begin(), histogram_.end(), 0);
}

bool JointDos::is_flat(double flatness_a, double min_mean_visits) const {
  WLSMS_EXPECTS(flatness_a > 0.0 && flatness_a < 1.0);
  std::uint64_t min_count = ~std::uint64_t{0};
  std::uint64_t sum = 0;
  std::size_t n_hit = 0;
  for (std::uint64_t h : histogram_) {
    if (h == 0) continue;
    ++n_hit;
    sum += h;
    min_count = std::min(min_count, h);
  }
  if (n_hit < 2) return false;
  const double mean = static_cast<double>(sum) / static_cast<double>(n_hit);
  if (mean < min_mean_visits) return false;
  return static_cast<double>(min_count) >= flatness_a * mean;
}

double JointDos::flatness_ratio() const {
  std::uint64_t min_count = ~std::uint64_t{0};
  std::uint64_t sum = 0;
  std::size_t n_hit = 0;
  for (std::uint64_t h : histogram_) {
    if (h == 0) continue;
    ++n_hit;
    sum += h;
    min_count = std::min(min_count, h);
  }
  if (n_hit < 2) return 0.0;
  return static_cast<double>(min_count) * static_cast<double>(n_hit) /
         static_cast<double>(sum);
}

std::size_t JointDos::hit_cells() const {
  std::size_t n = 0;
  for (std::uint64_t h : histogram_) n += (h > 0);
  return n;
}

std::size_t JointDos::visited_cells() const {
  std::size_t n = 0;
  for (std::uint8_t v : visited_) n += v;
  return n;
}

double JointDos::cell_ln_g(std::size_t be, std::size_t bm) const {
  WLSMS_EXPECTS(be < config_.e_bins && bm < config_.m_bins);
  return ln_g_[cell(be, bm)];
}

bool JointDos::cell_visited(std::size_t be, std::size_t bm) const {
  WLSMS_EXPECTS(be < config_.e_bins && bm < config_.m_bins);
  return visited_[cell(be, bm)] != 0;
}

std::uint64_t JointDos::cell_hits(std::size_t be, std::size_t bm) const {
  WLSMS_EXPECTS(be < config_.e_bins && bm < config_.m_bins);
  return histogram_[cell(be, bm)];
}

}  // namespace wlsms::wl
