// Tests for Gauss-Legendre quadrature and the complex-energy contour.
#include "lsms/contour.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace wlsms::lsms {
namespace {

TEST(GaussLegendre, WeightsSumToTwo) {
  for (std::size_t n : {1u, 2u, 5u, 16u, 31u, 64u}) {
    std::vector<double> x, w;
    gauss_legendre(n, x, w);
    double sum = 0.0;
    for (double v : w) sum += v;
    EXPECT_NEAR(sum, 2.0, 1e-13) << "n=" << n;
  }
}

TEST(GaussLegendre, NodesAreSymmetricAndSorted) {
  std::vector<double> x, w;
  gauss_legendre(10, x, w);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(x[i] + x[9 - i], 0.0, 1e-13);
    if (i) {
      EXPECT_GT(x[i], x[i - 1]);
    }
  }
}

class GaussOrder : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GaussOrder, IntegratesPolynomialsUpToDegree2nMinus1) {
  const std::size_t n = GetParam();
  std::vector<double> x, w;
  gauss_legendre(n, x, w);
  // Exact integral of t^k on [-1, 1]: 0 for odd k, 2/(k+1) for even k.
  for (std::size_t degree = 0; degree <= 2 * n - 1; ++degree) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      sum += w[i] * std::pow(x[i], static_cast<double>(degree));
    const double exact =
        (degree % 2 == 0) ? 2.0 / (static_cast<double>(degree) + 1.0) : 0.0;
    EXPECT_NEAR(sum, exact, 1e-12) << "n=" << n << " degree=" << degree;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, GaussOrder,
                         ::testing::Values(1, 2, 3, 4, 8, 12, 16));

TEST(Contour, IntegratesConstant) {
  // Integral of dz along the contour equals E_F - E_b (path independence).
  const auto contour = semicircle_contour(0.02, 0.42, 24);
  Complex sum{0, 0};
  for (const ContourPoint& p : contour) sum += p.weight;
  EXPECT_NEAR(sum.real(), 0.40, 1e-12);
  EXPECT_NEAR(sum.imag(), 0.0, 1e-12);
}

TEST(Contour, IntegratesLinearFunction) {
  // Integral z dz = (E_F^2 - E_b^2)/2 for analytic integrands.
  const auto contour = semicircle_contour(0.1, 0.9, 24);
  Complex sum{0, 0};
  for (const ContourPoint& p : contour) sum += p.weight * p.z;
  EXPECT_NEAR(sum.real(), 0.5 * (0.81 - 0.01), 1e-12);
  EXPECT_NEAR(sum.imag(), 0.0, 1e-12);
}

TEST(Contour, IntegratesAnalyticPole) {
  // f(z) = 1/(z - p) with the pole p below the real axis is analytic in the
  // upper half-plane: the contour integral equals the principal-branch
  // log difference.
  const Complex pole{0.5, -0.2};
  const auto contour = semicircle_contour(0.1, 0.9, 48);
  Complex sum{0, 0};
  for (const ContourPoint& p : contour) sum += p.weight / (p.z - pole);
  const Complex exact =
      std::log(Complex{0.9, 0.0} - pole) - std::log(Complex{0.1, 0.0} - pole);
  EXPECT_NEAR(sum.real(), exact.real(), 1e-10);
  EXPECT_NEAR(sum.imag(), exact.imag(), 1e-10);
}

TEST(Contour, PointsLieInClosedUpperHalfPlane) {
  const auto contour = semicircle_contour(0.02, 0.42, 16);
  for (const ContourPoint& p : contour) EXPECT_GE(p.z.imag(), 0.0);
}

TEST(Contour, ApexReachesRadiusAboveAxis) {
  const auto contour = semicircle_contour(0.0, 1.0, 31);
  double max_im = 0.0;
  for (const ContourPoint& p : contour)
    max_im = std::max(max_im, p.z.imag());
  EXPECT_GT(max_im, 0.45);  // semicircle of radius 0.5
}

TEST(Contour, InvalidArgumentsThrow) {
  EXPECT_THROW(semicircle_contour(0.5, 0.1, 8), ContractError);
  EXPECT_THROW(semicircle_contour(0.1, 0.5, 0), ContractError);
  std::vector<double> x, w;
  EXPECT_THROW(gauss_legendre(0, x, w), ContractError);
}

}  // namespace
}  // namespace wlsms::lsms
