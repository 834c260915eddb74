#include "lsms/solver.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "common/error.hpp"
#include "linalg/lu.hpp"
#include "obs/trace.hpp"
#include "perf/flops.hpp"

namespace wlsms::lsms {

LsmsSolver::LsmsSolver(lattice::Structure structure, LsmsParameters params)
    : structure_(std::move(structure)),
      params_(params),
      scatterer_(params.scattering),
      contour_(semicircle_contour(params.scattering.band_bottom,
                                  params.scattering.fermi_energy,
                                  params.contour_points)) {
  const obs::Span span("lsms.build_solver");
  const std::size_t n = structure_.size();
  lizs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    lizs_.push_back(build_liz(structure_, i, params_.liz_radius));

  // Hopping templates are pure geometry: share them between congruent zones
  // (every atom of a perfect crystal) through the canonical key.
  const double strength = params_.scattering.propagator_strength;
  std::map<std::vector<std::int64_t>,
           std::shared_ptr<const std::vector<SchurTemplates>>>
      cache;
  templates_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto key = geometry_key(lizs_[i]);
    auto it = cache.find(key);
    if (it == cache.end()) {
      auto templates = std::make_shared<std::vector<SchurTemplates>>();
      templates->reserve(contour_.size());
      for (const ContourPoint& cp : contour_)
        templates->push_back(make_schur_templates(
            scalar_propagator_matrix(lizs_[i], cp.z), strength));
      it = cache.emplace(std::move(key), std::move(templates)).first;
    }
    templates_.push_back(it->second);
  }

  // Reverse map: which zones does each site appear in?
  affected_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) affected_[i].push_back(i);
  for (std::size_t i = 0; i < n; ++i)
    for (const lattice::Neighbor& member : lizs_[i].members)
      if (member.site != i) affected_[member.site].push_back(i);
  for (std::vector<std::size_t>& list : affected_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  t_cache_directions_.assign(n, Vec3{nan, nan, nan});
  t_cache_table_.assign(n * contour_.size(), spin::Spin2x2{});
}

void LsmsSolver::refresh_t_table(const spin::MomentConfiguration& moments,
                                 std::vector<spin::Spin2x2>& out) const {
  const obs::Span span("lsms.t_table_refresh");
  const std::size_t n_points = contour_.size();
  std::lock_guard<std::mutex> lock(t_cache_mutex_);
  for (std::size_t i = 0; i < n_atoms(); ++i) {
    const Vec3& e = moments[i];
    // NaN-initialized cache directions compare unequal to everything, so the
    // first call populates every site; later calls only touch moved sites.
    if (e == t_cache_directions_[i]) continue;
    t_cache_directions_[i] = e;
    spin::Spin2x2* row = t_cache_table_.data() + i * n_points;
    for (std::size_t k = 0; k < n_points; ++k)
      row[k] = scatterer_.t_inverse(e, contour_[k].z);
  }
  out = t_cache_table_;
}

double LsmsSolver::zone_energy(
    const LizGeometry& liz, const std::vector<spin::Spin2x2>& t_table) const {
  const std::vector<SchurTemplates>& templates = *templates_[liz.center];
  const std::size_t n_points = contour_.size();
  const std::size_t n_members = liz.members.size();

  // Per-thread reusable scratch: the member matrix / B panel / pivots the
  // Schur elimination destroys, plus the zone-ordered t^-1 gather. Sized on
  // first use, so steady-state evaluations allocate nothing.
  static thread_local SchurWorkspace workspace;
  static thread_local std::vector<spin::Spin2x2> member_tinv;
  member_tinv.resize(n_members);

  Complex accumulated{0.0, 0.0};
  for (std::size_t k = 0; k < n_points; ++k) {
    const spin::Spin2x2& center = t_table[liz.center * n_points + k];
    for (std::size_t j = 0; j < n_members; ++j)
      member_tinv[j] = t_table[liz.members[j].site * n_points + k];
    const spin::Spin2x2 tau =
        central_tau_schur(templates[k], center, member_tinv.data(), workspace);
    const Complex trace = tau[0] + tau[3];
    accumulated += contour_[k].weight * contour_[k].z * trace;
  }
  const double pi = std::acos(-1.0);
  return -accumulated.imag() / pi;
}

double LsmsSolver::local_energy(std::size_t i,
                                const spin::MomentConfiguration& moments) const {
  WLSMS_EXPECTS(i < n_atoms());
  WLSMS_EXPECTS(moments.size() == n_atoms());
  static thread_local std::vector<spin::Spin2x2> table;
  refresh_t_table(moments, table);
  return zone_energy(lizs_[i], table);
}

LocalEnergies LsmsSolver::energies(
    const spin::MomentConfiguration& moments) const {
  const obs::Span span("lsms.energies");
  WLSMS_EXPECTS(moments.size() == n_atoms());
  std::vector<spin::Spin2x2> table;
  refresh_t_table(moments, table);
  LocalEnergies out;
  out.per_atom.assign(n_atoms(), 0.0);
  const std::int64_t n = static_cast<std::int64_t>(n_atoms());
#pragma omp parallel for schedule(dynamic)
  for (std::int64_t i = 0; i < n; ++i)
    out.per_atom[static_cast<std::size_t>(i)] =
        zone_energy(lizs_[static_cast<std::size_t>(i)], table);
  for (double e : out.per_atom) out.total += e;
  return out;
}

double LsmsSolver::energy(const spin::MomentConfiguration& moments) const {
  return energies(moments).total;
}

std::vector<double> LsmsSolver::shard_energies(
    const spin::MomentConfiguration& moments,
    const std::vector<std::size_t>& zones) const {
  const obs::Span span("lsms.shard_solve");
  WLSMS_EXPECTS(moments.size() == n_atoms());
  for (std::size_t zone : zones) WLSMS_EXPECTS(zone < n_atoms());
  std::vector<spin::Spin2x2> table;
  refresh_t_table(moments, table);
  std::vector<double> out;
  out.reserve(zones.size());
  for (std::size_t zone : zones) out.push_back(zone_energy(lizs_[zone], table));
  return out;
}

std::vector<LocalEnergies> LsmsSolver::batch_energies(
    const std::vector<const spin::MomentConfiguration*>& configs) const {
  const obs::Span span("lsms.batch_energies");
  const std::size_t n_configs = configs.size();
  const std::size_t n = n_atoms();
  const std::size_t n_points = contour_.size();
  for (const spin::MomentConfiguration* config : configs) {
    WLSMS_EXPECTS(config != nullptr);
    WLSMS_EXPECTS(config->size() == n);
  }

  // Per-configuration t^-1 tables, computed directly rather than through
  // the shared incremental cache (which alternating configurations would
  // thrash into full recomputes anyway). t_inverse is pure, so the values
  // are bitwise the ones refresh_t_table hands energies().
  std::vector<std::vector<spin::Spin2x2>> tables(n_configs);
  std::vector<LocalEnergies> out(n_configs);
  for (std::size_t c = 0; c < n_configs; ++c) {
    tables[c].resize(n * n_points);
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3& e = (*configs[c])[i];
      spin::Spin2x2* row = tables[c].data() + i * n_points;
      for (std::size_t k = 0; k < n_points; ++k)
        row[k] = scatterer_.t_inverse(e, contour_[k].z);
    }
    out[c].per_atom.assign(n, 0.0);
  }

  // Every (configuration, zone) solve is independent, so one dynamic loop
  // spreads the whole batch over the cores, exactly as energies() spreads
  // one configuration's zones. An exception must not escape an OpenMP
  // region (the runtime terminates), so the first one is kept and rethrown
  // after the loop; the serving scheduler retries a failed batch request
  // by request.
  const std::int64_t n_solves = static_cast<std::int64_t>(n_configs * n);
  std::exception_ptr failure;
#pragma omp parallel for schedule(dynamic)
  for (std::int64_t s = 0; s < n_solves; ++s) {
    const std::size_t c = static_cast<std::size_t>(s) / n;
    const std::size_t i = static_cast<std::size_t>(s) % n;
    try {
      out[c].per_atom[i] = zone_energy(lizs_[i], tables[c]);
    } catch (...) {
#pragma omp critical(lsms_batch_failure)
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
  for (LocalEnergies& energies : out)
    for (double e : energies.per_atom) energies.total += e;
  return out;
}

const std::vector<std::size_t>& LsmsSolver::affected_sites(
    std::size_t site) const {
  WLSMS_EXPECTS(site < n_atoms());
  return affected_[site];
}

LocalEnergies LsmsSolver::energy_after_move(
    const spin::MomentConfiguration& moments, const spin::TrialMove& move,
    const LocalEnergies& current) const {
  const obs::Span span("lsms.energy_after_move");
  WLSMS_EXPECTS(moments.size() == n_atoms());
  WLSMS_EXPECTS(current.per_atom.size() == n_atoms());
  WLSMS_EXPECTS(move.site < n_atoms());

  spin::MomentConfiguration trial = moments;
  trial.set(move.site, move.new_direction);

  // The incremental refresh recomputes t^-1 only for sites whose direction
  // differs from the cached configuration -- for the usual accept/reject
  // walk that is the moved site alone (plus a possible revert).
  std::vector<spin::Spin2x2> table;
  refresh_t_table(trial, table);

  LocalEnergies out = current;
  const std::vector<std::size_t>& affected = affected_[move.site];
  const std::int64_t n_affected = static_cast<std::int64_t>(affected.size());
#pragma omp parallel for schedule(dynamic)
  for (std::int64_t k = 0; k < n_affected; ++k) {
    const std::size_t i = affected[static_cast<std::size_t>(k)];
    out.per_atom[i] = zone_energy(lizs_[i], table);
  }
  out.total = 0.0;
  for (double e : out.per_atom) out.total += e;
  return out;
}

std::uint64_t LsmsSolver::flops_per_zone_energy(std::size_t i) const {
  WLSMS_EXPECTS(i < n_atoms());
  const std::uint64_t l = lizs_[i].members.size();
  if (l == 0) return 0;  // zone is the bare center: closed-form 2x2 only
  const std::uint64_t order = 2 * l;
  // linalg::schur_solve: blocked member-block LU + two-column solve + 2x2
  // Schur product; assembly and the closed-form 2x2 inversion are
  // uncounted on both the analytic and instrumented sides.
  const std::uint64_t per_point =
      linalg::zgetrf_flops(order, linalg::LuAlgorithm::kBlocked) +
      perf::cost::zgetrs(order, 2) + perf::cost::zgemm(2, 2, order);
  return per_point * contour_.size();
}

std::uint64_t LsmsSolver::flops_per_energy() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n_atoms(); ++i) total += flops_per_zone_energy(i);
  return total;
}

}  // namespace wlsms::lsms
