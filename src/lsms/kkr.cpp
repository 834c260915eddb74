#include "lsms/kkr.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "linalg/blas.hpp"

namespace wlsms::lsms {

LizGeometry build_liz(const lattice::Structure& structure, std::size_t site,
                      double liz_radius) {
  WLSMS_EXPECTS(liz_radius > 0.0);
  LizGeometry liz;
  liz.center = site;
  liz.members = structure.neighbors_within(site, liz_radius);
  return liz;
}

std::vector<std::int64_t> geometry_key(const LizGeometry& liz) {
  // Quantize to 1e-9 a0; displacements are already sorted by distance and
  // site index by neighbors_within, which is stable across congruent zones
  // of a periodic crystal only up to site relabeling -- so the key uses the
  // displacement vectors alone, re-sorted lexicographically.
  std::vector<std::array<std::int64_t, 3>> rows;
  rows.reserve(liz.members.size());
  const auto quantize = [](double x) {
    return static_cast<std::int64_t>(std::llround(x * 1e9));
  };
  for (const lattice::Neighbor& n : liz.members)
    rows.push_back({quantize(n.displacement.x), quantize(n.displacement.y),
                    quantize(n.displacement.z)});
  std::sort(rows.begin(), rows.end());
  std::vector<std::int64_t> key;
  key.reserve(rows.size() * 3);
  for (const auto& r : rows) key.insert(key.end(), r.begin(), r.end());
  return key;
}

linalg::ZMatrix scalar_propagator_matrix(const LizGeometry& liz, Complex z) {
  const std::size_t n = liz.zone_size();
  linalg::ZMatrix p(n, n);

  // Positions relative to the centre; index 0 is the centre itself.
  std::vector<Vec3> pos(n);
  pos[0] = Vec3{0.0, 0.0, 0.0};
  for (std::size_t j = 0; j < liz.members.size(); ++j)
    pos[j + 1] = liz.members[j].displacement;

  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t k = 0; k < n; ++k) {
      if (j == k) continue;
      const double r = (pos[j] - pos[k]).norm();
      // Distinct LIZ members can be images of the same structure site, but
      // they are distinct scatterers at distinct positions, so r > 0 always.
      p(j, k) = free_propagator(r, z);
    }
  return p;
}

linalg::ZMatrix assemble_kkr_matrix(const Scatterer& scatterer,
                                    const LizGeometry& liz,
                                    const spin::MomentConfiguration& moments,
                                    Complex z,
                                    const linalg::ZMatrix& scalar_propagator) {
  const std::size_t n = liz.zone_size();
  WLSMS_EXPECTS(scalar_propagator.rows() == n && scalar_propagator.cols() == n);
  linalg::ZMatrix m(2 * n, 2 * n);

  // Off-diagonal: -g0(r_jk) in each spin channel (spin-conserving hopping),
  // scaled by the calibrated hybridization strength.
  const double strength = scatterer.params().propagator_strength;
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j) {
      if (j == k) continue;
      const Complex g = strength * scalar_propagator(j, k);
      m(2 * j, 2 * k) = -g;
      m(2 * j + 1, 2 * k + 1) = -g;
    }

  // Diagonal: inverse single-site t-matrices, rotated to each moment.
  const auto put_block = [&m](std::size_t j, const spin::Spin2x2& b) {
    m(2 * j, 2 * j) = b[0];
    m(2 * j, 2 * j + 1) = b[1];
    m(2 * j + 1, 2 * j) = b[2];
    m(2 * j + 1, 2 * j + 1) = b[3];
  };
  put_block(0, scatterer.t_inverse(moments[liz.center], z));
  for (std::size_t j = 0; j < liz.members.size(); ++j)
    put_block(j + 1, scatterer.t_inverse(moments[liz.members[j].site], z));

  return m;
}

spin::Spin2x2 central_tau_block(const linalg::ZMatrix& kkr) {
  WLSMS_EXPECTS(kkr.square() && kkr.rows() >= 2);
  const linalg::LuFactorization lu(kkr);
  const std::size_t n = kkr.rows();

  std::vector<Complex> col0(n, Complex{0.0, 0.0});
  std::vector<Complex> col1(n, Complex{0.0, 0.0});
  col0[0] = Complex{1.0, 0.0};
  col1[1] = Complex{1.0, 0.0};
  lu.solve_in_place(col0.data());
  lu.solve_in_place(col1.data());

  return {col0[0], col1[0], col0[1], col1[1]};
}

SchurTemplates make_schur_templates(const linalg::ZMatrix& scalar_propagator,
                                    double strength) {
  WLSMS_EXPECTS(scalar_propagator.square() && scalar_propagator.rows() >= 1);
  const std::size_t l = scalar_propagator.rows() - 1;  // member count
  SchurTemplates t;
  t.a0 = linalg::ZMatrix(2 * l, 2 * l);
  t.b0 = linalg::ZMatrix(2 * l, 2);
  t.c0 = linalg::ZMatrix(2, 2 * l);
  for (std::size_t k = 0; k < l; ++k) {
    for (std::size_t j = 0; j < l; ++j) {
      if (j == k) continue;
      const Complex g = -strength * scalar_propagator(j + 1, k + 1);
      t.a0(2 * j, 2 * k) = g;
      t.a0(2 * j + 1, 2 * k + 1) = g;
    }
    const Complex gb = -strength * scalar_propagator(k + 1, 0);
    t.b0(2 * k, 0) = gb;
    t.b0(2 * k + 1, 1) = gb;
    const Complex gc = -strength * scalar_propagator(0, k + 1);
    t.c0(0, 2 * k) = gc;
    t.c0(1, 2 * k + 1) = gc;
  }
  return t;
}

spin::Spin2x2 central_tau_schur(const SchurTemplates& templates,
                                const spin::Spin2x2& center_t_inverse,
                                const spin::Spin2x2* member_t_inverse,
                                SchurWorkspace& ws) {
  const std::size_t n = templates.a0.rows();  // 2L
  const std::size_t l = n / 2;
  // Schur complement S = D - C A^{-1} B, stored column-major in s
  // ({s00, s10, s01, s11}); starts as D = the center's t^-1 block.
  std::array<Complex, 4> s = {center_t_inverse[0], center_t_inverse[2],
                              center_t_inverse[1], center_t_inverse[3]};
  if (l > 0) {
    // A = hopping template + t^-1 site diagonals; the template's diagonal
    // blocks are zero, so overwriting them places the moment dependence.
    ws.a = templates.a0;
    for (std::size_t j = 0; j < l; ++j) {
      const spin::Spin2x2& ti = member_t_inverse[j];
      ws.a(2 * j, 2 * j) = ti[0];
      ws.a(2 * j, 2 * j + 1) = ti[1];
      ws.a(2 * j + 1, 2 * j) = ti[2];
      ws.a(2 * j + 1, 2 * j + 1) = ti[3];
    }
    ws.bx = templates.b0;
    linalg::zgetrf_in_place(ws.a, ws.pivots);
    linalg::zgetrs_in_place(ws.a, ws.pivots, ws.bx.data(), 2, n);
    // S -= C * X with X = A^{-1} B.
    linalg::zgemm_view(2, 2, n, Complex{-1.0, 0.0}, templates.c0.data(), 2,
                       ws.bx.data(), n, Complex{1.0, 0.0}, s.data(), 2);
  }
  // tau_00 = S^{-1}, closed form for the 2x2 block. Match the reference
  // full-LU path's failure mode (zgetrf throws on a zero pivot) instead of
  // silently propagating Inf/NaN tau into the energies.
  const Complex det = s[0] * s[3] - s[2] * s[1];
  if (det == Complex{0.0, 0.0}) throw linalg::SingularMatrixError(n);
  const Complex inv_det = Complex{1.0, 0.0} / det;
  return {s[3] * inv_det, -s[2] * inv_det, -s[1] * inv_det, s[0] * inv_det};
}

}  // namespace wlsms::lsms
