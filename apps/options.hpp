#pragma once

/// \file options.hpp
/// Typed per-subcommand option structs for the wlsms binary. Each
/// subcommand turns the stringly --key value map into exactly one validated
/// struct up front (parse once, validate once), so the command bodies read
/// named fields instead of re-pulling keys ad hoc. Every parse() throws
/// std::runtime_error on a malformed or out-of-range value.
///
/// The structs are plain data over the cli::Options map; the one library
/// type is comm::Transport, so an unknown --transport is refused here, with
/// every other option, before any command starts work. The commands
/// translate fields into library configs at the call site.

#include <cstddef>
#include <cstdint>
#include <string>

#include "cli.hpp"
#include "comm/communicator.hpp"

namespace wlsms::cli {

/// The speculation knobs shared by subcommands that run a WL driver
/// (--speculate 0|1, --spec-band, --spec-audit-frac, --spec-refit-interval,
/// --spec-budget).
struct SpeculateOptions {
  bool enabled = false;
  double band = 2.0;             ///< confidence half-width in rms units
  double audit_fraction = 0.05;  ///< exact-dispatch fraction of resolvable
  std::uint64_t refit_interval = 64;
  double error_budget = 0.0;     ///< rms trip threshold [Ry]; 0 = no trip

  static SpeculateOptions parse(const Options& options);
};

struct CurieOptions {
  std::size_t cells = 2;
  double gamma_final = 1e-6;
  std::size_t walkers = 8;
  double flatness = 0.8;
  std::uint64_t seed = 123;
  double t_min = 150.0;
  std::string dos_path;
  std::size_t rewl_windows = 1;
  double rewl_overlap = 0.75;
  std::uint64_t rewl_interval = 2000;

  static CurieOptions parse(const Options& options);
};

struct ThermoOptions {
  std::string dos_path;  ///< required
  double t_min = 200.0;
  double t_max = 3000.0;
  std::size_t points = 15;

  static ThermoOptions parse(const Options& options);
};

struct ExtractOptions {
  std::size_t cells = 2;
  double liz = 5.6;
  std::size_t contour = 8;
  std::size_t shells = 2;
  std::size_t samples = 24;

  static ExtractOptions parse(const Options& options);
};

struct ScalingOptions {
  std::size_t walkers = 144;
  std::size_t steps = 20;
  std::size_t atoms = 1024;

  static ScalingOptions parse(const Options& options);
};

struct DistributedOptions {
  comm::Transport transport = comm::Transport::kInProcess;
  std::size_t groups = 2;
  std::size_t group_size = 2;
  std::size_t cells = 2;
  std::size_t evals = 8;
  std::uint64_t seed = 7;
  bool check = true;
  std::uint64_t wl_steps = 0;
  std::size_t wl_walkers = 4;
  /// tcp only: parse() refuses --listen and --external with any other
  /// transport.
  std::string listen = "127.0.0.1:0";
  bool external = false;
  /// When non-empty, the controller also serves live Prometheus text on
  /// this address (answered by serve::StatusServer; probe with
  /// `wlsms status host:port`).
  std::string status_listen;
  SpeculateOptions speculate;

  static DistributedOptions parse(const Options& options);
};

struct WorkerOptions {
  std::string connect;  ///< required
  std::size_t cells = 2;

  static WorkerOptions parse(const Options& options);
};

struct ServeOptions {
  std::size_t cells = 2;
  std::string listen = "127.0.0.1:7878";
  std::size_t max_pending = 256;
  std::size_t max_outstanding = 64;
  std::size_t max_batch = 16;
  long batch_window_ms = 5;
  std::size_t batch_threads = 0;

  static ServeOptions parse(const Options& options);
};

/// `wlsms status <host:port>`: fetch a daemon's or controller's live
/// metrics as Prometheus text and print them.
struct StatusOptions {
  std::string connect;  ///< required (positional or --connect)
  long timeout_ms = 5000;

  static StatusOptions parse(const Options& options);
};

struct ClientOptions {
  std::string connect;  ///< required
  std::string tenant = "default";
  std::size_t evals = 8;
  std::size_t walkers = 4;
  std::uint64_t seed = 11;
  bool check = false;
  std::size_t cells = 2;

  static ClientOptions parse(const Options& options);
};

}  // namespace wlsms::cli
