#include "obs/prometheus.hpp"

#include <cctype>
#include <cmath>
#include <map>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace wlsms::obs {

namespace {

// Dots and anything else outside the Prometheus name alphabet become '_'.
// A leading digit gets an underscore prefix (names must not start with one).
std::string sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9')
    out.insert(out.begin(), '_');
  return out;
}

// Label values need \\, \", and \n escaped per the exposition format.
std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out.push_back(c);
  }
  return out;
}

/// One registry name split into an exposition name plus an optional label.
struct ExpositionName {
  std::string name;
  std::string label;  ///< rendered `key="value"`; empty = no label
};

ExpositionName map_name(std::string_view raw) {
  // serve.tenant.<tenant>.<rest> -> serve_tenant_<rest>{tenant="<tenant>"}
  constexpr std::string_view kTenantPrefix = "serve.tenant.";
  if (raw.size() > kTenantPrefix.size() &&
      raw.substr(0, kTenantPrefix.size()) == kTenantPrefix) {
    const std::string_view tail = raw.substr(kTenantPrefix.size());
    const std::size_t dot = tail.find('.');
    if (dot != std::string_view::npos && dot > 0 && dot + 1 < tail.size()) {
      const std::string_view tenant = tail.substr(0, dot);
      const std::string_view rest = tail.substr(dot + 1);
      return {"serve_tenant_" + sanitize_name(rest),
              "tenant=\"" + escape_label_value(tenant) + "\""};
    }
  }
  // <family>.rank<k> -> <family>{rank="<k>"} (per-rank clock offsets),
  // <family>.window<k> -> <family>{window="<k>"} (per-window WL progress)
  const std::size_t dot = raw.rfind('.');
  for (const std::string_view key : {"rank", "window"}) {
    if (dot == std::string_view::npos || raw.substr(dot + 1, key.size()) != key)
      continue;
    const std::string_view index = raw.substr(dot + 1 + key.size());
    if (!index.empty() && index.find_first_not_of("0123456789") == index.npos)
      return {sanitize_name(raw.substr(0, dot)),
              std::string(key) + "=\"" + std::string(index) + "\""};
  }
  return {sanitize_name(raw), ""};
}

std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json_number(v);
}

/// Rendered series grouped per exposition name so the # TYPE header is
/// emitted exactly once per name even when labels (tenants, ranks) fan a
/// family out over many registry entries.
struct Family {
  std::string type;
  std::vector<std::string> lines;
};

void render_counter(std::map<std::string, Family>& families,
                    const std::string& raw, std::uint64_t value) {
  const ExpositionName mapped = map_name(raw);
  Family& family = families[mapped.name];
  family.type = "counter";
  std::string line = mapped.name;
  if (!mapped.label.empty()) line += "{" + mapped.label + "}";
  line += " " + std::to_string(value);
  family.lines.push_back(std::move(line));
}

void render_gauge(std::map<std::string, Family>& families,
                  const std::string& raw, double value) {
  const ExpositionName mapped = map_name(raw);
  Family& family = families[mapped.name];
  family.type = "gauge";
  std::string line = mapped.name;
  if (!mapped.label.empty()) line += "{" + mapped.label + "}";
  line += " " + format_value(value);
  family.lines.push_back(std::move(line));
}

void render_histogram(std::map<std::string, Family>& families,
                      const std::string& raw,
                      const HistogramSnapshot& snapshot) {
  const ExpositionName mapped = map_name(raw);
  Family& family = families[mapped.name];
  family.type = "histogram";
  const std::string label_prefix =
      mapped.label.empty() ? std::string() : mapped.label + ",";
  std::uint64_t cumulative = 0;
  for (std::size_t k = 0; k < snapshot.upper_bounds.size(); ++k) {
    cumulative += snapshot.counts[k];
    family.lines.push_back(mapped.name + "_bucket{" + label_prefix + "le=\"" +
                           format_value(snapshot.upper_bounds[k]) + "\"} " +
                           std::to_string(cumulative));
  }
  family.lines.push_back(mapped.name + "_bucket{" + label_prefix +
                         "le=\"+Inf\"} " + std::to_string(snapshot.total));
  std::string sum_line = mapped.name + "_sum";
  std::string count_line = mapped.name + "_count";
  if (!mapped.label.empty()) {
    sum_line += "{" + mapped.label + "}";
    count_line += "{" + mapped.label + "}";
  }
  family.lines.push_back(sum_line + " " + format_value(snapshot.sum));
  family.lines.push_back(count_line + " " + std::to_string(snapshot.total));
}

}  // namespace

std::string expose_prometheus(const MetricsSnapshot& snapshot) {
  std::map<std::string, Family> families;
  for (const auto& [name, value] : snapshot.counters)
    render_counter(families, name, value);
  for (const auto& [name, value] : snapshot.gauges)
    render_gauge(families, name, value);
  for (const auto& [name, histogram] : snapshot.histograms)
    render_histogram(families, name, histogram);

  std::string out;
  for (const auto& [name, family] : families) {
    out += "# TYPE " + name + " " + family.type + "\n";
    for (const std::string& line : family.lines) out += line + "\n";
  }
  return out;
}

std::string expose_prometheus() {
  return expose_prometheus(Registry::instance().snapshot());
}

std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count) {
  if (!(start > 0.0)) throw Error("exponential_bounds: start must be > 0");
  if (!(factor > 1.0)) throw Error("exponential_bounds: factor must be > 1");
  if (count == 0) throw Error("exponential_bounds: count must be >= 1");
  std::vector<double> bounds;
  bounds.reserve(count);
  double edge = start;
  for (std::size_t k = 0; k < count; ++k) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

}  // namespace wlsms::obs
