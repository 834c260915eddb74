#include "serve/daemon.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <omp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/framing.hpp"
#include "comm/socket.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/serial.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace wlsms::serve {

namespace {

obs::Gauge& sessions_gauge() {
  static obs::Gauge& gauge = obs::Registry::instance().gauge("serve.sessions");
  return gauge;
}

/// Shared bucket edges of every serve.stage_ms.* series (aggregate and
/// per-tenant): the registry rejects re-registration with different bounds,
/// so a single source of truth keeps all sites agreeing.
const std::vector<double>& stage_bounds() {
  static const std::vector<double> bounds =
      obs::exponential_bounds(0.01, 4.0, 12);
  return bounds;
}

void observe_stage(const std::string& stage, const std::string& tenant_label,
                   std::uint64_t micros) {
  const double ms = static_cast<double>(micros) / 1000.0;
  obs::Registry& registry = obs::Registry::instance();
  registry.histogram("serve.stage_ms." + stage, stage_bounds()).observe(ms);
  registry
      .histogram("serve.tenant." + tenant_label + ".stage_ms." + stage,
                 stage_bounds())
      .observe(ms);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

ServeReject::Reason reject_reason(BatchScheduler::Admission admission) {
  return admission == BatchScheduler::Admission::kQueueFull
             ? ServeReject::Reason::kQueueFull
             : ServeReject::Reason::kQuotaExceeded;
}

/// Whole-file slurp; empty on any error (a missing file and an unreadable
/// one are the same to the resume path: no checkpoint).
std::vector<std::byte> read_file_bytes(const std::string& path) {
  std::vector<std::byte> bytes;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return bytes;
  char chunk[4096];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
    bytes.insert(bytes.end(), reinterpret_cast<std::byte*>(chunk),
                 reinterpret_cast<std::byte*>(chunk) + in.gcount());
  return bytes;
}

/// splitmix64: cheap, well-mixed resume tokens (never zero).
std::uint64_t next_token(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1ull;
}

}  // namespace

Daemon::Daemon(std::shared_ptr<const lsms::LsmsSolver> solver,
               ServeOptions options)
    : solver_(std::move(solver)),
      options_(std::move(options)),
      scheduler_(solver_, options_.limits) {
  // run() hands the team size to omp_set_num_threads, which takes an int.
  WLSMS_EXPECTS(options_.gemm_batch_threads <=
                static_cast<std::size_t>(std::numeric_limits<int>::max()));
  comm::Socket listener = comm::make_listener(options_.listen, 32, address_);
  set_nonblocking(listener.get());
  listener_ = listener.release();

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    ::close(listener_);
    listener_ = -1;
    throw comm::CommError(std::string("serve: self-pipe failed: ") +
                          std::strerror(errno));
  }
  stop_read_ = pipe_fds[0];
  stop_write_ = pipe_fds[1];
  set_nonblocking(stop_read_);
  comm::set_cloexec(stop_read_);
  comm::set_cloexec(stop_write_);

  token_state_ = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
                 std::random_device{}();
  seed_next_session();

  if (options_.on_listening) options_.on_listening(address_);
}

void Daemon::seed_next_session() {
  if (options_.checkpoint_dir.empty()) return;
  DIR* dir = ::opendir(options_.checkpoint_dir.c_str());
  if (dir == nullptr) return;
  // Checkpoints from previous runs own their session ids: a fresh client
  // must never be handed one, or it would first block that tenant's resume
  // and then overwrite the file on disconnect.
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    constexpr std::size_t kFixed = 13;  // "session-" + ".wlsm"
    if (name.size() <= kFixed || name.compare(0, 8, "session-") != 0 ||
        name.compare(name.size() - 5, 5, ".wlsm") != 0)
      continue;
    const std::string digits = name.substr(8, name.size() - kFixed);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    errno = 0;
    const unsigned long long id = std::strtoull(digits.c_str(), nullptr, 10);
    if (errno != 0) continue;  // out-of-range id: not one we issued
    if (id >= next_session_) next_session_ = id + 1;
  }
  ::closedir(dir);
}

const std::string& Daemon::tenant_label(const std::string& tenant) {
  static const std::string kOther = "other";
  const auto it = tenant_labels_.find(tenant);
  if (it != tenant_labels_.end()) return *it;
  if (tenant_labels_.size() < options_.max_tenant_series)
    return *tenant_labels_.insert(tenant).first;
  return kOther;
}

Daemon::~Daemon() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  if (listener_ >= 0) ::close(listener_);
  if (stop_read_ >= 0) ::close(stop_read_);
  if (stop_write_ >= 0) ::close(stop_write_);
}

void Daemon::stop() {
  const char byte = 's';
  (void)!::write(stop_write_, &byte, 1);
}

std::string Daemon::checkpoint_path(std::uint64_t session) const {
  return options_.checkpoint_dir + "/session-" + std::to_string(session) +
         ".wlsm";
}

int Daemon::poll_timeout_ms() const {
  const auto now = std::chrono::steady_clock::now();
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (scheduler_.pending() >= options_.limits.max_batch) return 0;
  if (const auto oldest = scheduler_.oldest_pending_since())
    deadline = *oldest + options_.limits.batch_window;
  for (const auto& [fd, conn] : connections_)
    if (!conn.handshaken) {
      const auto expiry = conn.connected_at + options_.handshake_timeout;
      if (!deadline || expiry < *deadline) deadline = expiry;
    }
  if (!deadline) return -1;
  const auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(*deadline - now);
  return remaining.count() < 0 ? 0 : static_cast<int>(remaining.count() + 1);
}

void Daemon::run() {
  // Pin the OpenMP team size of the daemon's solves if asked. The setting
  // belongs to the calling thread alone, and is handed back on return.
  const int saved_threads = omp_get_max_threads();
  if (options_.gemm_batch_threads > 0)
    omp_set_num_threads(static_cast<int>(options_.gemm_batch_threads));

  bool stopping = false;
  std::vector<struct pollfd> pfds;
  while (!stopping) {
    pfds.clear();
    pfds.push_back({stop_read_, POLLIN, 0});
    pfds.push_back({listener_, POLLIN, 0});
    for (const auto& [fd, conn] : connections_)
      pfds.push_back({fd, POLLIN, 0});

    const int rc = ::poll(pfds.data(), pfds.size(), poll_timeout_ms());
    if (rc < 0 && errno != EINTR) break;

    if (pfds[0].revents & POLLIN) {
      char drain[64];
      while (::read(stop_read_, drain, sizeof(drain)) > 0) {
      }
      stopping = true;
    }
    if (!stopping) {
      if (pfds[1].revents & (POLLIN | POLLERR)) accept_pending();
      for (std::size_t i = 2; i < pfds.size(); ++i)
        if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
          if (connections_.count(pfds[i].fd) != 0)
            read_connection(pfds[i].fd);
      expire_handshakes();
    }
    dispatch_ready_batches();
  }

  // Drain: solve and route everything still pending (the batch window no
  // longer applies), then checkpoint and drop every session so nothing is
  // silently lost.
  dispatch_ready_batches(/*force=*/true);
  while (!connections_.empty()) {
    const int fd = connections_.begin()->first;
    const std::uint64_t session = connections_.begin()->second.session;
    ::close(fd);
    connections_.erase(connections_.begin());
    if (session != 0 && sessions_.count(session) != 0)
      sessions_[session].fd = -1;
  }
  while (!sessions_.empty()) close_session(sessions_.begin()->first);

  if (options_.gemm_batch_threads > 0) omp_set_num_threads(saved_threads);
}

void Daemon::accept_pending() {
  while (true) {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN, or a transient accept error: try later
    comm::set_nodelay(fd);
    comm::set_cloexec(fd);
    set_nonblocking(fd);
    if (options_.client_sndbuf > 0) {
      const int bytes = static_cast<int>(options_.client_sndbuf);
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    }
    Connection conn;
    conn.connected_at = std::chrono::steady_clock::now();
    connections_.emplace(fd, std::move(conn));
  }
}

void Daemon::read_connection(int fd) {
  char buffer[65536];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      Connection& conn = connections_[fd];
      try {
        conn.rx.push(buffer, static_cast<std::size_t>(n));
        comm::Message frame;
        while (conn.rx.pop(frame))
          if (!handle_frame(fd, frame)) {
            drop_connection(fd);
            return;
          }
      } catch (const comm::CommError&) {
        // Corrupt frame length: the stream cannot be resynchronized.
        drop_connection(fd);
        return;
      } catch (const serial::SerializationError&) {
        drop_connection(fd);
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    drop_connection(fd);  // EOF or hard error
    return;
  }
}

bool Daemon::handle_frame(int fd, const comm::Message& frame) {
  if (frame.tag == comm::kTagHeartbeat) return true;
  if (frame.tag == kTagServeStatus) {
    // Introspection probe: answer with the live metrics registry rendered
    // as Prometheus text. Accepted before any handshake — a status probe is
    // not a session and holds no daemon state.
    decode_status_request(frame.payload);  // throws on garbage
    return send_frame(fd, kTagServeStatusReply,
                      encode_status_text(obs::expose_prometheus()));
  }
  const Connection& conn = connections_[fd];
  if (!conn.handshaken) {
    if (frame.tag != kTagServeHello) return false;
    return handle_hello(fd, frame.payload);
  }
  if (frame.tag != kTagServeSubmit) return false;
  return handle_submit(fd, frame.payload);
}

bool Daemon::handle_hello(int fd, const std::vector<std::byte>& payload) {
  const std::uint64_t t1_us = obs::trace_now_us();  // hello receipt time
  const ServeHello hello = decode_serve_hello(payload);  // throws on garbage
  Connection& conn = connections_[fd];

  std::uint64_t session = 0;
  SessionCheckpoint restored;
  bool resumed = false;
  if (hello.resume_session != 0) {
    // Resume: the checkpoint file is the session's entire disconnected
    // state; tenant + token are the proof of ownership.
    bool valid = !options_.checkpoint_dir.empty() &&
                 sessions_.count(hello.resume_session) == 0;
    if (valid) {
      const std::vector<std::byte> bytes =
          read_file_bytes(checkpoint_path(hello.resume_session));
      valid = !bytes.empty();
      if (valid) {
        try {
          restored = decode_session_checkpoint(bytes);
        } catch (const serial::SerializationError&) {
          valid = false;
        }
        valid = valid && restored.session == hello.resume_session &&
                restored.tenant == hello.tenant &&
                restored.resume_token == hello.resume_token;
      }
    }
    if (!valid) {
      ServeReject reject;
      reject.reason = ServeReject::Reason::kBadRequest;
      (void)send_frame(fd, kTagServeReject, encode_serve_reject(reject));
      return false;
    }
    session = restored.session;
    resumed = true;
  } else {
    session = next_session_++;
  }

  Session state;
  state.tenant = hello.tenant;
  state.metric_label = tenant_label(hello.tenant);
  state.resume_token =
      resumed ? restored.resume_token : next_token(token_state_);
  state.fd = fd;
  if (resumed)
    state.undelivered.assign(restored.undelivered.begin(),
                             restored.undelivered.end());
  sessions_.emplace(session, std::move(state));
  if (resumed && session >= next_session_) next_session_ = session + 1;
  conn.handshaken = true;
  conn.session = session;
  sessions_gauge().set(static_cast<double>(sessions_.size()));
  obs::Registry::instance()
      .counter("serve.tenant." + sessions_[session].metric_label + ".sessions")
      .inc();

  // Re-enqueue the checkpointed requests before any wire traffic: from here
  // on the scheduler plus the session's undelivered deque ARE the restored
  // state, so a disconnect at any point of the replay below re-checkpoints
  // all of it faithfully. Requests the admission path now refuses (the
  // daemon may have filled up meanwhile) come back as ordinary rejects
  // after the replay.
  std::vector<std::pair<std::uint64_t, BatchScheduler::Admission>> refused;
  if (resumed)
    for (wl::EnergyRequest& request : restored.pending) {
      const std::uint64_t ticket = request.ticket;
      const BatchScheduler::Admission admission =
          scheduler_.submit(session, std::move(request));
      if (admission != BatchScheduler::Admission::kAccepted)
        refused.emplace_back(ticket, admission);
    }

  ServeWelcome welcome;
  welcome.session = session;
  welcome.resume_token = sessions_[session].resume_token;
  welcome.n_atoms = scheduler_.n_atoms();
  welcome.resumed = resumed;
  welcome.n_replayed = resumed ? restored.undelivered.size() : 0;
  welcome.n_pending = resumed ? restored.pending.size() : 0;
  welcome.trace_node = obs::local_trace_node();
  welcome.t1_us = t1_us;
  welcome.t2_us = obs::trace_now_us();  // welcome send time
  if (!send_frame(fd, kTagServeWelcome, encode_serve_welcome(welcome)))
    return false;

  if (resumed) {
    // Replay results computed while disconnected; each one leaves the live
    // deque only once its send lands, so a client that dies mid-replay
    // keeps the unsent tail checkpointed instead of losing it.
    Session& live = sessions_[session];
    while (!live.undelivered.empty()) {
      if (!send_frame(fd, kTagServeResult,
                      encode_serve_result(live.undelivered.front())))
        return false;
      live.undelivered.pop_front();
    }
    for (const auto& [ticket, admission] : refused) {
      ServeReject reject;
      reject.ticket = ticket;
      reject.reason = reject_reason(admission);
      if (!send_frame(fd, kTagServeReject, encode_serve_reject(reject)))
        return false;
    }
    (void)std::remove(checkpoint_path(session).c_str());
  }
  return true;
}

bool Daemon::handle_submit(int fd, const std::vector<std::byte>& payload) {
  wl::EnergyRequest request = decode_serve_submit(payload);  // throws
  const std::uint64_t session = connections_[fd].session;
  Session& state = sessions_[session];
  obs::Registry& registry = obs::Registry::instance();

  if (request.config.size() != scheduler_.n_atoms()) {
    registry.counter("serve.tenant." + state.metric_label + ".rejected").inc();
    ServeReject reject;
    reject.ticket = request.ticket;
    reject.reason = ServeReject::Reason::kBadRequest;
    return send_frame(fd, kTagServeReject, encode_serve_reject(reject));
  }

  const std::uint64_t ticket = request.ticket;
  const BatchScheduler::Admission admission =
      scheduler_.submit(session, std::move(request));
  if (admission == BatchScheduler::Admission::kAccepted) {
    registry.counter("serve.tenant." + state.metric_label + ".accepted").inc();
    return true;
  }
  registry.counter("serve.tenant." + state.metric_label + ".rejected").inc();
  ServeReject reject;
  reject.ticket = ticket;
  reject.reason = reject_reason(admission);
  return send_frame(fd, kTagServeReject, encode_serve_reject(reject));
}

void Daemon::dispatch_ready_batches(bool force) {
  while (true) {
    const std::size_t pending = scheduler_.pending();
    if (pending == 0) break;
    if (!force && pending < options_.limits.max_batch) {
      const auto oldest = scheduler_.oldest_pending_since();
      if (!oldest || std::chrono::steady_clock::now() - *oldest <
                         options_.limits.batch_window)
        break;
    }
    completed_.clear();
    scheduler_.run_next_batch(completed_);
    for (const BatchScheduler::Completed& done : completed_) deliver(done);
    // A client that died mid-batch was unhooked inside deliver(); finish
    // the teardown now that every completion of this batch is routed.
    std::vector<std::uint64_t> orphaned;
    for (const auto& [session, state] : sessions_)
      if (state.fd < 0) orphaned.push_back(session);
    for (std::uint64_t session : orphaned) close_session(session);
  }
}

void Daemon::deliver(const BatchScheduler::Completed& done) {
  const auto it = sessions_.find(done.session);
  if (it == sessions_.end()) return;  // session closed while solving
  Session& state = it->second;
  if (state.fd < 0) {
    // Disconnected mid-solve: the result survives for resume; its stage
    // vector does not (a replayed result reports zero stages).
    state.undelivered.push_back(done.result);
    return;
  }
  // serialize_us closes the daemon-side critical path: solved (admitted +
  // queue + solve) -> this result frame encoded.
  StageBreakdown stages = done.stages;
  const std::uint64_t solved_us =
      done.admitted_us + stages.queue_us + stages.solve_us;
  const std::uint64_t encoding_us = obs::trace_now_us();
  stages.serialize_us = encoding_us > solved_us ? encoding_us - solved_us : 0;
  const bool sent = send_frame(state.fd, kTagServeResult,
                               encode_serve_result(done.result, stages));
  const std::uint64_t sent_us = obs::trace_now_us();
  if (!sent) {
    // The socket is gone; keep the result for a future resume and unhook
    // the connection. close_session runs after the batch finishes routing.
    state.undelivered.push_back(done.result);
    ::close(state.fd);
    connections_.erase(state.fd);
    state.fd = -1;
    return;
  }
  obs::Registry::instance()
      .counter("serve.tenant." + state.metric_label + ".results")
      .inc();
  // Critical-path attribution: per-stage histograms (aggregate + tenant)
  // and one serve.request span adopted under the client's submitting span,
  // covering admission through the delivered write.
  observe_stage("queue_wait", state.metric_label, stages.queue_us);
  observe_stage("solve", state.metric_label, stages.solve_us);
  observe_stage("deliver", state.metric_label,
                sent_us > encoding_us ? sent_us - encoding_us : 0);
  if (done.admitted_us != 0)
    obs::emit_span("serve.request", done.admitted_us, sent_us, done.trace);
}

bool Daemon::send_frame(int fd, std::uint32_t tag,
                        std::vector<std::byte> payload) {
  comm::Message message;
  message.tag = tag;
  message.payload = std::move(payload);
  const std::vector<std::byte> frame = comm::frame_bytes(message);
  return comm::write_all(fd, frame.data(), frame.size(),
                         comm::StreamClock::now() + options_.send_deadline);
}

void Daemon::drop_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  const bool handshaken = it->second.handshaken;
  const std::uint64_t session = it->second.session;
  ::close(fd);
  connections_.erase(it);
  if (handshaken && sessions_.count(session) != 0) {
    sessions_[session].fd = -1;
    close_session(session);
  }
}

void Daemon::close_session(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  std::vector<wl::EnergyRequest> pending = scheduler_.take_session(session);
  if (!options_.checkpoint_dir.empty() &&
      may_write_checkpoint(session, it->second)) {
    SessionCheckpoint checkpoint;
    checkpoint.session = session;
    checkpoint.resume_token = it->second.resume_token;
    checkpoint.tenant = it->second.tenant;
    checkpoint.pending = std::move(pending);
    checkpoint.undelivered.assign(it->second.undelivered.begin(),
                                  it->second.undelivered.end());
    const std::vector<std::byte> bytes =
        encode_session_checkpoint(checkpoint);
    std::ofstream out(checkpoint_path(session), std::ios::binary);
    if (out.good())
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
  }
  sessions_.erase(it);
  sessions_gauge().set(static_cast<double>(sessions_.size()));
}

bool Daemon::may_write_checkpoint(std::uint64_t session,
                                  const Session& state) const {
  // Defense in depth against id aliasing: never clobber a checkpoint that
  // proves to belong to a different tenant/token (a stale file from an
  // earlier daemon run). A corrupt or unreadable file holds nothing
  // recoverable, so overwriting it is fine.
  const std::vector<std::byte> bytes =
      read_file_bytes(checkpoint_path(session));
  if (bytes.empty()) return true;
  SessionCheckpoint existing;
  try {
    existing = decode_session_checkpoint(bytes);
  } catch (const serial::SerializationError&) {
    return true;
  }
  if (existing.tenant == state.tenant &&
      existing.resume_token == state.resume_token)
    return true;
  log_warn("serve: refusing to overwrite checkpoint of session ", session,
           " — it belongs to tenant '", existing.tenant,
           "', not the departing tenant '", state.tenant, "'");
  return false;
}

void Daemon::expire_handshakes() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> expired;
  for (const auto& [fd, conn] : connections_)
    if (!conn.handshaken &&
        now - conn.connected_at >= options_.handshake_timeout)
      expired.push_back(fd);
  for (int fd : expired) drop_connection(fd);
}

}  // namespace wlsms::serve
