#include "spin/moments.hpp"

#include "common/error.hpp"

namespace wlsms::spin {

MomentConfiguration MomentConfiguration::ferromagnetic(std::size_t n) {
  WLSMS_EXPECTS(n > 0);
  MomentConfiguration c;
  c.directions_.assign(n, Vec3{0.0, 0.0, 1.0});
  return c;
}

MomentConfiguration MomentConfiguration::random(std::size_t n, Rng& rng) {
  WLSMS_EXPECTS(n > 0);
  MomentConfiguration c;
  c.directions_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) c.directions_.push_back(rng.unit_vector());
  return c;
}

MomentConfiguration MomentConfiguration::staggered(
    const std::vector<bool>& sublattice) {
  WLSMS_EXPECTS(!sublattice.empty());
  MomentConfiguration c;
  c.directions_.reserve(sublattice.size());
  for (bool flipped : sublattice)
    c.directions_.push_back(Vec3{0.0, 0.0, flipped ? -1.0 : 1.0});
  return c;
}

MomentConfiguration MomentConfiguration::from_directions(
    std::vector<Vec3> directions) {
  WLSMS_EXPECTS(!directions.empty());
  MomentConfiguration c;
  c.directions_ = std::move(directions);
  for (Vec3& d : c.directions_) {
    WLSMS_EXPECTS(is_valid_direction(d));
    d = d.normalized();
  }
  return c;
}

MomentConfiguration MomentConfiguration::from_raw_directions(
    std::vector<Vec3> directions) {
  WLSMS_EXPECTS(!directions.empty());
  MomentConfiguration c;
  c.directions_ = std::move(directions);
  for (const Vec3& d : c.directions_) WLSMS_EXPECTS(is_valid_direction(d));
  return c;
}

void MomentConfiguration::set(std::size_t i, const Vec3& direction) {
  WLSMS_EXPECTS(i < size());
  WLSMS_EXPECTS(is_valid_direction(direction));
  directions_[i] = direction.normalized();
}

Vec3 MomentConfiguration::total_moment() const {
  Vec3 m;
  for (const Vec3& d : directions_) m += d;
  return m;
}

double MomentConfiguration::magnetization() const {
  return total_moment().norm() / static_cast<double>(size());
}

double MomentConfiguration::magnetization_z() const {
  return total_moment().z / static_cast<double>(size());
}

}  // namespace wlsms::spin
