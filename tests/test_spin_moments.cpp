// Tests for moment configurations.
#include "spin/moments.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"

namespace wlsms::spin {
namespace {

TEST(Moments, FerromagneticAlongZ) {
  const auto c = MomentConfiguration::ferromagnetic(10);
  EXPECT_EQ(c.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(c[i], (Vec3{0.0, 0.0, 1.0}));
  EXPECT_DOUBLE_EQ(c.magnetization(), 1.0);
  EXPECT_DOUBLE_EQ(c.magnetization_z(), 1.0);
}

TEST(Moments, RandomIsUnitLengthAndDisordered) {
  Rng rng(1);
  const auto c = MomentConfiguration::random(500, rng);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i].norm(), 1.0, 1e-12);
  EXPECT_LT(c.magnetization(), 0.25);  // ~N^{-1/2} for 500 moments
}

TEST(Moments, StaggeredBalancedHasZeroMagnetization) {
  std::vector<bool> sub(8);
  for (std::size_t i = 0; i < 8; ++i) sub[i] = (i % 2 == 1);
  const auto c = MomentConfiguration::staggered(sub);
  EXPECT_NEAR(c.magnetization(), 0.0, 1e-14);
  EXPECT_EQ(c[0], (Vec3{0.0, 0.0, 1.0}));
  EXPECT_EQ(c[1], (Vec3{0.0, 0.0, -1.0}));
}

TEST(Moments, FromDirectionsNormalizes) {
  const auto c =
      MomentConfiguration::from_directions({{2.0, 0.0, 0.0}, {0.0, 0.0, -5.0}});
  EXPECT_EQ(c[0], (Vec3{1.0, 0.0, 0.0}));
  EXPECT_EQ(c[1], (Vec3{0.0, 0.0, -1.0}));
}

TEST(Moments, SetNormalizesInput) {
  auto c = MomentConfiguration::ferromagnetic(3);
  c.set(1, {0.0, 3.0, 4.0});
  EXPECT_NEAR(c[1].norm(), 1.0, 1e-14);
  EXPECT_NEAR(c[1].y, 0.6, 1e-14);
  EXPECT_NEAR(c[1].z, 0.8, 1e-14);
}

TEST(Moments, TotalMomentAccumulates) {
  auto c = MomentConfiguration::ferromagnetic(4);
  c.set(0, {0.0, 0.0, -1.0});
  const Vec3 total = c.total_moment();
  EXPECT_NEAR(total.z, 2.0, 1e-14);
  EXPECT_DOUBLE_EQ(c.magnetization_z(), 0.5);
}

TEST(Moments, MagnetizationZCanBeNegative) {
  std::vector<bool> sub(4, true);
  const auto c = MomentConfiguration::staggered(sub);
  EXPECT_DOUBLE_EQ(c.magnetization_z(), -1.0);
}

TEST(Moments, ContractViolations) {
  auto c = MomentConfiguration::ferromagnetic(2);
  EXPECT_THROW(c.set(5, {0, 0, 1}), ContractError);
  EXPECT_THROW(c.set(0, {0, 0, 0}), ContractError);
  EXPECT_THROW(MomentConfiguration::ferromagnetic(0), ContractError);
  EXPECT_THROW(MomentConfiguration::staggered({}), ContractError);
  EXPECT_THROW(MomentConfiguration::from_directions({{0.0, 0.0, 0.0}}),
               ContractError);
}

TEST(Moments, EveryBuilderRejectsZeroAndNonFiniteDirections) {
  // Regression: the builders checked norm2() > 0, which a ±inf component
  // passes; the solver then returned a NaN energy. Each builder now applies
  // is_valid_direction, the rule the wire decoders apply too.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Vec3 up{0.0, 0.0, 1.0};
  for (const Vec3& bad : {Vec3{0.0, 0.0, 0.0}, Vec3{nan, 0.0, 1.0},
                          Vec3{inf, 0.0, 0.0}, Vec3{0.0, -inf, 0.0}}) {
    EXPECT_FALSE(is_valid_direction(bad));
    EXPECT_THROW(MomentConfiguration::from_directions({up, bad}),
                 ContractError)
        << bad.x << " " << bad.y << " " << bad.z;
    EXPECT_THROW(MomentConfiguration::from_raw_directions({up, bad}),
                 ContractError)
        << bad.x << " " << bad.y << " " << bad.z;
    auto c = MomentConfiguration::ferromagnetic(2);
    EXPECT_THROW(c.set(1, bad), ContractError)
        << bad.x << " " << bad.y << " " << bad.z;
    EXPECT_EQ(c[1], up) << "a refused set() must leave the site unchanged";
  }
  EXPECT_TRUE(is_valid_direction(up));
}

}  // namespace
}  // namespace wlsms::spin
