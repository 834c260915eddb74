// Prometheus text exposition and the exponential histogram bucket helper:
// bucket edges and value->bucket assignment, name mangling (dots, tenants,
// per-rank clock gauges and per-window WL gauges -> labels), and the
// exposition format invariants a scraper relies on (one # TYPE per family,
// cumulative buckets, +Inf).
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace wlsms::obs {
namespace {

TEST(ExponentialBounds, EdgesAreGeometric) {
  const std::vector<double> bounds = exponential_bounds(0.01, 4.0, 12);
  ASSERT_EQ(bounds.size(), 12u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.01);
  for (std::size_t k = 1; k < bounds.size(); ++k) {
    EXPECT_DOUBLE_EQ(bounds[k], bounds[k - 1] * 4.0);
    EXPECT_LT(bounds[k - 1], bounds[k]);
  }
  // 0.01 ms .. ~42 s: the serve stage range from sub-queue-tick to a full
  // batch solve fits in 12 buckets.
  EXPECT_NEAR(bounds.back(), 0.01 * std::pow(4.0, 11.0), 1e-9);
}

TEST(ExponentialBounds, RejectsDegenerateParameters) {
  EXPECT_THROW(exponential_bounds(0.0, 2.0, 4), Error);
  EXPECT_THROW(exponential_bounds(-1.0, 2.0, 4), Error);
  EXPECT_THROW(exponential_bounds(1.0, 1.0, 4), Error);
  EXPECT_THROW(exponential_bounds(1.0, 2.0, 0), Error);
}

TEST(ExponentialBounds, BucketAssignmentMatchesEdges) {
  Histogram& histogram = Registry::instance().histogram(
      "test.exponential_assignment", exponential_bounds(1.0, 2.0, 4));
  // bounds 1, 2, 4, 8
  histogram.observe(0.5);   // <= 1   -> bucket 0
  histogram.observe(1.0);   // == 1   -> bucket 0 (boundary belongs below)
  histogram.observe(1.5);   // <= 2   -> bucket 1
  histogram.observe(4.0);   // == 4   -> bucket 2
  histogram.observe(7.99);  // <= 8   -> bucket 3
  histogram.observe(64.0);  // > 8    -> overflow
  const HistogramSnapshot snapshot = histogram.snapshot_values();
  ASSERT_EQ(snapshot.counts.size(), 5u);  // 4 buckets + overflow
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.counts[4], 1u);
  EXPECT_EQ(snapshot.total, 6u);
}

TEST(PrometheusExposition, CountersGaugesAndNameMangling) {
  MetricsSnapshot snapshot;
  snapshot.counters["serve.results"] = 7;
  snapshot.gauges["wl.gamma"] = 0.5;
  const std::string text = expose_prometheus(snapshot);
  EXPECT_NE(text.find("# TYPE serve_results counter\nserve_results 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE wl_gamma gauge\nwl_gamma 0.5\n"),
            std::string::npos);
}

TEST(PrometheusExposition, RankGaugesBecomeOneLabeledFamily) {
  MetricsSnapshot snapshot;
  snapshot.gauges["comm.clock_offset_us.rank0"] = -12.5;
  snapshot.gauges["comm.clock_offset_us.rank1"] = 3.0;
  snapshot.gauges["comm.clock_offset_us"] = 0.25;  // this process's own
  const std::string text = expose_prometheus(snapshot);
  // One TYPE header for the family, every rank a labeled series.
  std::size_t headers = 0;
  for (std::size_t at = text.find("# TYPE comm_clock_offset_us gauge");
       at != std::string::npos;
       at = text.find("# TYPE comm_clock_offset_us gauge", at + 1))
    ++headers;
  EXPECT_EQ(headers, 1u);
  EXPECT_NE(text.find("comm_clock_offset_us{rank=\"0\"} -12.5"),
            std::string::npos);
  EXPECT_NE(text.find("comm_clock_offset_us{rank=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("comm_clock_offset_us 0.25"), std::string::npos);
}

TEST(PrometheusExposition, WindowGaugesBecomeOneLabeledFamily) {
  MetricsSnapshot snapshot;
  snapshot.gauges["wl.ln_f.window0"] = 0.25;
  snapshot.gauges["wl.ln_f.window12"] = 0.5;
  snapshot.gauges["wl.ln_f"] = 1.0;  // a single-engine run's own series
  snapshot.gauges["wl.ln_f.windowx"] = 2.0;  // not an index: no label
  const std::string text = expose_prometheus(snapshot);
  std::size_t headers = 0;
  for (std::size_t at = text.find("# TYPE wl_ln_f gauge");
       at != std::string::npos;
       at = text.find("# TYPE wl_ln_f gauge", at + 1))
    ++headers;
  EXPECT_EQ(headers, 1u);
  EXPECT_NE(text.find("wl_ln_f{window=\"0\"} 0.25\n"), std::string::npos);
  EXPECT_NE(text.find("wl_ln_f{window=\"12\"} 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("wl_ln_f 1\n"), std::string::npos);
  EXPECT_NE(text.find("wl_ln_f_windowx 2\n"), std::string::npos);
}

TEST(PrometheusExposition, TenantHistogramsShareAFamilyWithLabels) {
  MetricsSnapshot snapshot;
  HistogramSnapshot solve;
  solve.upper_bounds = {1.0, 2.0};
  solve.counts = {1, 2, 1};  // 1 in le=1, 2 in le=2, 1 overflow
  solve.total = 4;
  solve.sum = 6.5;
  snapshot.histograms["serve.tenant.alice.stage_ms.solve"] = solve;
  snapshot.histograms["serve.tenant.bob.stage_ms.solve"] = solve;
  const std::string text = expose_prometheus(snapshot);

  std::size_t headers = 0;
  for (std::size_t at =
           text.find("# TYPE serve_tenant_stage_ms_solve histogram");
       at != std::string::npos;
       at = text.find("# TYPE serve_tenant_stage_ms_solve histogram", at + 1))
    ++headers;
  EXPECT_EQ(headers, 1u);
  // Buckets are cumulative; +Inf equals the total observation count.
  EXPECT_NE(text.find("serve_tenant_stage_ms_solve_bucket{tenant=\"alice\","
                      "le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("serve_tenant_stage_ms_solve_bucket{tenant=\"alice\","
                      "le=\"2\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("serve_tenant_stage_ms_solve_bucket{tenant=\"alice\","
                      "le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("serve_tenant_stage_ms_solve_sum{tenant=\"alice\"} "
                      "6.5"),
            std::string::npos);
  EXPECT_NE(text.find("serve_tenant_stage_ms_solve_count{tenant=\"bob\"} 4"),
            std::string::npos);
}

TEST(PrometheusExposition, EveryLineIsHeaderOrSeries) {
  // Minimal parse of the 0.0.4 text format: every line is either a # TYPE
  // header or `name[{labels}] value` with a finite-or-special value token.
  MetricsSnapshot snapshot;
  snapshot.counters["a.b"] = 1;
  snapshot.gauges["nan.gauge"] = std::nan("");
  HistogramSnapshot h;
  h.upper_bounds = {1.0};
  h.counts = {0, 0};
  snapshot.histograms["serve.stage_ms.queue_wait"] = h;
  const std::string text = expose_prometheus(snapshot);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("# TYPE ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_TRUE(value == "NaN" || value == "+Inf" || value == "-Inf" ||
                value.find_first_not_of("-+.eE0123456789") ==
                    std::string::npos)
        << line;
  }
  EXPECT_NE(text.find("nan_gauge NaN"), std::string::npos);
}

}  // namespace
}  // namespace wlsms::obs
