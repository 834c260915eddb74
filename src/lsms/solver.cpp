#include "lsms/solver.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <numeric>
#include <utility>

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

  all_zones_.resize(n);
  std::iota(all_zones_.begin(), all_zones_.end(), std::size_t{0});
}

double LsmsSolver::zone_energy(
    const LizGeometry& liz, const std::vector<spin::Spin2x2>& t_table) const {
  const std::vector<SchurTemplates>& templates = *templates_[liz.center];
  const std::size_t n_points = contour_.size();
  const std::size_t n_members = liz.members.size();

  // Per-thread reusable scratch: the spin-block kernel's matrices, vectors
  // and pivots, plus the zone-ordered t^-1 gather. Sized on first use, so
  // steady-state evaluations allocate nothing.
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

std::vector<LocalEnergies> LsmsSolver::solve_zones(
    const std::vector<ZoneJob>& jobs, ZoneThreading threading) const {
  const obs::Span span("lsms.solve_zones");
  const std::size_t n = n_atoms();
  const std::size_t n_points = contour_.size();

  // The flattened (job, slot) index of every zone solve of the call.
  std::vector<std::pair<std::size_t, std::size_t>> solves;
  std::vector<LocalEnergies> out(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const ZoneJob& job = jobs[j];
    WLSMS_EXPECTS(job.moments != nullptr);
    WLSMS_EXPECTS(job.moments->size() == n);
    for (std::size_t k = 0; k < job.zones.size(); ++k) {
      WLSMS_EXPECTS(job.zones[k] < n);
      WLSMS_EXPECTS(k == 0 || job.zones[k - 1] < job.zones[k]);
      solves.emplace_back(j, k);
    }
    out[j].per_atom.assign(job.zones.size(), 0.0);
  }

  // One t^-1 table per job (site-major, one Spin2x2 per site per contour
  // point). t_inverse is pure, so a zone sees bitwise the same t-matrices
  // whichever job, call or thread built them.
  std::vector<std::vector<spin::Spin2x2>> tables(jobs.size());
  {
    const obs::Span table_span("lsms.t_table_refresh");
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      tables[j].resize(n * n_points);
      for (std::size_t i = 0; i < n; ++i) {
        const Vec3& e = (*jobs[j].moments)[i];
        spin::Spin2x2* row = tables[j].data() + i * n_points;
        for (std::size_t k = 0; k < n_points; ++k)
          row[k] = scatterer_.t_inverse(e, contour_[k].z);
      }
    }
  }

  const auto solve = [&](std::size_t s) {
    const auto [j, k] = solves[s];
    out[j].per_atom[k] = zone_energy(lizs_[jobs[j].zones[k]], tables[j]);
  };
  // Every thread that solved zones drains its flop tally before the call
  // returns, so a perf::FlopWindow around the call reads it exactly.
  if (threading == ZoneThreading::kSerial) {
    for (std::size_t s = 0; s < solves.size(); ++s) solve(s);
    perf::drain_thread_flops();
  } else {
    // Every (job, zone) solve is independent, so one dynamic loop spreads
    // the whole call over the cores. An exception must not escape an
    // OpenMP region (the runtime terminates), so the first one is kept and
    // rethrown after the loop; the serving scheduler retries a failed
    // batch request by request.
    const std::int64_t n_solves = static_cast<std::int64_t>(solves.size());
    std::exception_ptr failure;
#pragma omp parallel
    {
#pragma omp for schedule(dynamic) nowait
      for (std::int64_t s = 0; s < n_solves; ++s) {
        try {
          solve(static_cast<std::size_t>(s));
        } catch (...) {
#pragma omp critical(lsms_solve_failure)
          if (!failure) failure = std::current_exception();
        }
      }
      // The region's closing barrier orders these drains before the
      // caller's next read of the global counters.
      perf::drain_thread_flops();
    }
    if (failure) std::rethrow_exception(failure);
  }
  for (LocalEnergies& energies : out)
    for (double e : energies.per_atom) energies.total += e;
  return out;
}

LocalEnergies LsmsSolver::energies(
    const spin::MomentConfiguration& moments) const {
  return std::move(solve_zones({{&moments, all_zones_}}).front());
}

double LsmsSolver::energy(const spin::MomentConfiguration& moments) const {
  return energies(moments).total;
}

const std::vector<std::size_t>& LsmsSolver::affected_sites(
    std::size_t site) const {
  WLSMS_EXPECTS(site < n_atoms());
  return affected_[site];
}

std::uint64_t LsmsSolver::flops_per_zone_energy(std::size_t i) const {
  WLSMS_EXPECTS(i < n_atoms());
  const std::size_t l = lizs_[i].members.size();
  if (l == 0) return 0;  // zone is the bare center: closed-form 2x2 only
  // linalg::spin_block_solve: the LUs of the L x L spin-up block F and of
  // its Schur complement, F^-1 from F's factors, and the O(L^2) Schur
  // update, vector products and two-column solve; assembly and the
  // closed-form 2x2 inversion are uncounted on both the analytic and
  // instrumented sides.
  const std::uint64_t per_point =
      2 * perf::cost::zgetrf_blocked(l, linalg::kLuBlockSize) +
      perf::cost::zgetri(l) + linalg::spin_block_coupling_flops(l);
  return per_point * contour_.size();
}

std::uint64_t LsmsSolver::flops_per_energy() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n_atoms(); ++i) total += flops_per_zone_energy(i);
  return total;
}

}  // namespace wlsms::lsms
