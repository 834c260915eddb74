#pragma once

/// \file fe_parameters.hpp
/// Calibrated "iron" parameter set for the multiple-scattering substrate.
///
/// The paper uses the self-consistent ferromagnetic Fe potential; this
/// reproduction replaces it with the resonant s-channel scatterer of
/// scattering.hpp whose free parameters are fixed here once and used by
/// every test, bench and example:
///
///  - exchange splitting 0.20 Ry (~2.7 eV, the Fe d-band splitting scale),
///  - resonance width 0.20 Ry (~2.7 eV, a d-band width scale; at this width
///    the paper-fidelity contour does not converge -- see ROADMAP item 1),
///  - Fermi energy placed between the spin resonances, where the substrate's
///    extracted nearest-neighbour exchange comes out ferromagnetic (see the
///    calibration test in tests/test_lsms_exchange.cpp).
///
/// The LIZ radius and lattice constant are the paper's own values.

#include "common/units.hpp"
#include "lsms/solver.hpp"

namespace wlsms::lsms {

/// Scattering parameters for the Fe substrate.
///
/// Calibration provenance (tools/calibrate.cpp, production fidelity:
/// LIZ 11.5 a0 / 65 atoms, 16 contour points, 16-atom cell):
/// E_F = 0.32 Ry maximizes the ferromagnetic stability of the extracted
/// exchange: J = [+4.1e-3, +8.1e-5, -6.9e-5, -1.0e-3] Ry for shells 1-4.
inline ScatteringParameters fe_scattering_parameters() {
  ScatteringParameters p;
  p.resonance_up = 0.30;
  p.resonance_down = 0.50;
  p.width = 0.20;
  p.band_bottom = 0.02;
  p.fermi_energy = 0.32;
  return p;
}

/// Full solver parameters at the paper's production fidelity:
/// LIZ radius 11.5 a0 (65 atoms on bcc Fe).
inline LsmsParameters fe_lsms_parameters() {
  LsmsParameters p;
  p.scattering = fe_scattering_parameters();
  p.liz_radius = units::fe_liz_radius_a0;
  p.contour_points = 16;
  return p;
}

/// Reduced-fidelity parameters for fast tests and development: first-two-
/// shell LIZ (15 atoms on bcc) and a short contour. Same code path, much
/// smaller matrices.
inline LsmsParameters fe_lsms_parameters_fast() {
  LsmsParameters p;
  p.scattering = fe_scattering_parameters();
  p.liz_radius = 5.6;  // 1st + 2nd bcc shells: 8 + 6 = 14 neighbours
  p.contour_points = 8;
  return p;
}

/// Number of exchange shells the production surrogate keeps. The substrate's
/// RKKY tail (J4 ~= -1.0e-3 Ry at coordination 24) would frustrate large
/// cells into a non-collinear ground state; bcc iron is experimentally a
/// simple ferromagnet, so the surrogate truncates to the two (ferromagnetic)
/// leading shells, preserving the paper-relevant physics: a ferromagnetic
/// minimum, an antiferromagnetic-like maximum, one ordering transition.
inline constexpr std::size_t fe_surrogate_shells = 2;

/// Reference exchange constants [Ry] extracted from the substrate at
/// production fidelity (see fe_scattering_parameters provenance note).
/// Benches and examples may use these directly instead of re-running the
/// ~minute-long extraction; tests cross-check them against a fresh
/// extraction.
inline std::vector<double> fe_reference_exchange() {
  return {4.115e-3, 8.064e-5};
}

/// Curie-temperature calibration: multiplies the extracted (or reference)
/// exchange before the surrogate Wang-Landau runs so that the 250-atom
/// specific-heat peak lands at the paper's 980 K. Value fixed by the
/// calibration runs recorded in EXPERIMENTS.md (scale 0.77 gave 1033 K).
inline constexpr double fe_exchange_energy_scale = 0.73;

}  // namespace wlsms::lsms
