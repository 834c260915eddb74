// End-to-end observability through the installed binary: real `wlsms`
// processes wired together over loopback TCP. Covers the live-introspection
// path (`wlsms status` against a serving daemon and a distributed
// controller), the SIGINT final-snapshot guarantee of `wlsms serve`, and the
// production of per-process trace files that tools/trace_merge.py stitches
// (the merge itself is asserted by the fixture-chained python tests).
//
// WLSMS_BINARY is injected by CMake as the path to the wlsms executable.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using Clock = std::chrono::steady_clock;

/// One spawned wlsms subprocess with its stdout captured through a pipe
/// (stderr stays on the test's stderr so failures are debuggable).
struct Child {
  pid_t pid = -1;
  int out = -1;
  std::string buffered;

  ~Child() {
    if (out >= 0) ::close(out);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

void spawn(Child& child, const std::vector<std::string>& args,
           bool with_stderr = false) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    if (with_stderr) ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(WLSMS_BINARY));
    for (const std::string& arg : args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(WLSMS_BINARY, argv.data());
    std::perror("execv wlsms");
    ::_exit(127);
  }
  ::close(fds[1]);
  child.pid = pid;
  child.out = fds[0];
}

/// Reads the child's stdout until a line containing `needle` appears;
/// returns that line. Fails the test on timeout or EOF.
std::string await_line(Child& child, const std::string& needle,
                       std::chrono::seconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    std::size_t start = 0;
    for (std::size_t end = child.buffered.find('\n', start);
         end != std::string::npos;
         start = end + 1, end = child.buffered.find('\n', start)) {
      const std::string line = child.buffered.substr(start, end - start);
      if (line.find(needle) != std::string::npos) {
        child.buffered.erase(0, end + 1);
        return line;
      }
    }
    child.buffered.erase(0, start);

    struct pollfd pfd = {child.out, POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(child.out, chunk, sizeof(chunk));
    if (got <= 0) break;  // EOF: fall through to the failure below
    child.buffered.append(chunk, static_cast<std::size_t>(got));
  }
  ADD_FAILURE() << "never saw '" << needle << "' in child stdout; got:\n"
                << child.buffered;
  return {};
}

/// Waits for exit (draining stdout so the child never blocks on a full
/// pipe); returns the exit status or -1 on timeout.
int await_exit(Child& child, std::chrono::seconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    char chunk[4096];
    struct pollfd pfd = {child.out, POLLIN, 0};
    while (::poll(&pfd, 1, 0) > 0 &&
           ::read(child.out, chunk, sizeof(chunk)) > 0) {
    }
    int status = 0;
    const pid_t got = ::waitpid(child.pid, &status, WNOHANG);
    if (got == child.pid) {
      child.pid = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
    }
    ::poll(&pfd, 1, 100);
  }
  return -1;
}

/// Runs one wlsms invocation to completion, capturing stdout (and stderr
/// with it when `with_stderr`).
std::string run_capture(const std::vector<std::string>& args, int* exit_code,
                        bool with_stderr = false) {
  Child child;
  spawn(child, args, with_stderr);
  std::string out;
  char chunk[4096];
  ssize_t got = 0;
  while ((got = ::read(child.out, chunk, sizeof(chunk))) > 0)
    out.append(chunk, static_cast<std::size_t>(got));
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  child.pid = -1;
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -2;
  return out;
}

std::string address_after(const std::string& line, const std::string& prefix) {
  const std::size_t at = line.find(prefix);
  if (at == std::string::npos) return {};
  std::string rest = line.substr(at + prefix.size());
  const std::size_t cut = rest.find_first_of(" ;");
  if (cut != std::string::npos) rest.resize(cut);
  return rest;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Minimal Prometheus 0.0.4 well-formedness check: non-empty, and every
/// line is a `# TYPE` header or `name[{labels}] value`.
void expect_prometheus_parseable(const std::string& text) {
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  std::size_t series = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "unparseable line: " << line;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    ASSERT_FALSE(name.empty()) << line;
    ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_')
        << line;
    ++series;
  }
  EXPECT_GT(series, 0u);
}

TEST(CliE2e, UnknownFlagIsRefusedBeforeTheCommandRuns) {
  // Regression: an unknown flag used to warn only after the command had
  // finished, so a typo such as --batch-thread ran a whole job on defaults
  // and exited 0 (a daemon never finishes, so it just served). Now the
  // typed parse is followed by an unknown-flag check that exits 2, naming
  // the flag, before anything runs. Values the typed parse refuses (an
  // unknown --transport, tcp-only flags on another transport) fail the
  // same way: before the solver is built.
  int code = -1;
  std::string out = run_capture({"scaling", "--walkers", "2", "--step", "5"},
                                &code, /*with_stderr=*/true);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("--step"), std::string::npos) << out;
  EXPECT_EQ(out.find("walkers"), std::string::npos)
      << "the command ran before the flag was refused:\n" << out;

  out = run_capture({"serve", "--listen", "127.0.0.1:0", "--batch-thread", "4"},
                    &code, /*with_stderr=*/true);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("--batch-thread"), std::string::npos) << out;
  EXPECT_EQ(out.find("serving on"), std::string::npos) << out;

  out = run_capture({"distributed", "--transport", "process"}, &code,
                    /*with_stderr=*/true);
  EXPECT_NE(code, 0) << out;
  EXPECT_NE(out.find("'inprocess' or 'tcp'"), std::string::npos) << out;
  EXPECT_EQ(out.find("substrate:"), std::string::npos)
      << "the solver was built before the transport was refused:\n" << out;

  out = run_capture(
      {"distributed", "--transport", "inprocess", "--external", "1"}, &code,
      /*with_stderr=*/true);
  EXPECT_NE(code, 0) << out;
  EXPECT_NE(out.find("--external"), std::string::npos) << out;
  EXPECT_EQ(out.find("substrate:"), std::string::npos) << out;
}

TEST(CliE2e, ServeStatusProbeAndSigintFinalSnapshot) {
  const std::string metrics = "e2e_serve.metrics.jsonl";
  const std::string trace = "e2e_serve.trace.json";
  std::remove(metrics.c_str());
  std::remove(trace.c_str());

  Child daemon;
  spawn(daemon, {"serve", "--listen", "127.0.0.1:0", "--cells", "2",
                 "--metrics-out", metrics, "--trace-out", trace});
  const std::string serving = await_line(daemon, "serving on ",
                                         std::chrono::seconds(60));
  const std::string address = address_after(serving, "serving on ");
  ASSERT_FALSE(address.empty()) << serving;

  // A tenant runs a few evaluations so the stage histograms have samples.
  int code = -1;
  const std::string client_out =
      run_capture({"client", "--connect", address, "--evals", "3",
                   "--walkers", "2", "--cells", "2"},
                  &code);
  EXPECT_EQ(code, 0) << client_out;

  // Live introspection while the daemon keeps serving.
  const std::string status =
      run_capture({"status", address}, &code);
  EXPECT_EQ(code, 0) << status;
  expect_prometheus_parseable(status);
  EXPECT_NE(status.find("# TYPE serve_stage_ms_solve histogram"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("serve_stage_ms_queue_wait_bucket"),
            std::string::npos);
  EXPECT_NE(status.find("serve_tenant_stage_ms_solve_count{tenant="
                        "\"default\"} 3"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("serve_request_latency_ms_bucket"),
            std::string::npos);

  // SIGINT: the daemon must drain, exit 0, and leave a "final" snapshot
  // record (the regression this guards: a killed daemon whose telemetry
  // stream just stops mid-interval).
  ASSERT_EQ(::kill(daemon.pid, SIGINT), 0);
  EXPECT_EQ(await_exit(daemon, std::chrono::seconds(30)), 0);

  const std::string records = slurp(metrics);
  ASSERT_FALSE(records.empty());
  const std::size_t last_start = records.rfind('\n', records.size() - 2);
  const std::string last = records.substr(
      last_start == std::string::npos ? 0 : last_start + 1);
  EXPECT_NE(last.find("\"reason\":\"final\""), std::string::npos) << last;
  // Every record carries the trace-health block and wall-clock stamp.
  EXPECT_NE(last.find("\"trace\":"), std::string::npos);
  EXPECT_NE(last.find("\"dropped_events\":"), std::string::npos);
  EXPECT_NE(last.find("\"clock_offset_us\":"), std::string::npos);
  EXPECT_NE(last.find("\"wall_ms\":"), std::string::npos);

  EXPECT_NE(slurp(trace).find("\"traceEvents\""), std::string::npos);
}

TEST(CliE2e, DistributedExternalWorkersAlignClocksAndEmitTraces) {
  const std::vector<std::string> traces = {"e2e_ctrl.trace.json",
                                           "e2e_worker1.trace.json",
                                           "e2e_worker2.trace.json"};
  for (const std::string& path : traces) std::remove(path.c_str());

  // Controller: 1 group x 2 ranks over TCP, workers joining from outside,
  // plus a live status endpoint. The WL phase keeps it running long enough
  // to probe, and its driver spans are the parents the workers' shard-solve
  // spans adopt.
  Child controller;
  spawn(controller,
        {"distributed", "--transport", "tcp", "--external", "1", "--groups", "1",
         "--group-size", "2", "--cells", "2", "--evals", "4", "--wl-steps",
         "2000", "--status-listen", "127.0.0.1:0", "--trace-out", traces[0],
         "--metrics-out", "e2e_ctrl.metrics.jsonl"});
  const std::string status_line = await_line(
      controller, "status endpoint on ", std::chrono::seconds(30));
  const std::string status_address =
      address_after(status_line, "status endpoint on ");
  ASSERT_FALSE(status_address.empty()) << status_line;
  const std::string listening =
      await_line(controller, "listening on ", std::chrono::seconds(60));
  const std::string address = address_after(listening, "listening on ");
  ASSERT_FALSE(address.empty()) << listening;

  Child worker1;
  Child worker2;
  spawn(worker1, {"worker", "--connect", address, "--cells", "2",
                  "--trace-out", traces[1]});
  spawn(worker2, {"worker", "--connect", address, "--cells", "2",
                  "--trace-out", traces[2]});

  // Poll the controller's status endpoint until the heartbeat clock echoes
  // have produced per-rank offset gauges (both ranks), while the run is
  // still in flight.
  std::string status;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    int code = -1;
    status = run_capture({"status", status_address}, &code);
    if (code == 0 &&
        status.find("comm_clock_offset_us{rank=\"0\"}") != std::string::npos &&
        status.find("comm_clock_offset_us{rank=\"1\"}") != std::string::npos)
      break;
    int probe = 0;
    if (::waitpid(controller.pid, &probe, WNOHANG) == controller.pid) {
      controller.pid = -1;
      FAIL() << "controller exited before per-rank clock gauges appeared; "
                "last status:\n"
             << status;
    }
    ::usleep(200000);
  }
  expect_prometheus_parseable(status);
  EXPECT_NE(status.find("comm_clock_offset_us{rank=\"0\"}"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("comm_clock_offset_us{rank=\"1\"}"),
            std::string::npos);

  EXPECT_EQ(await_exit(controller, std::chrono::seconds(300)), 0);
  EXPECT_EQ(await_exit(worker1, std::chrono::seconds(60)), 0);
  EXPECT_EQ(await_exit(worker2, std::chrono::seconds(60)), 0);

  // Each process left its own trace file: the controller as the clock
  // reference (offset 0), the workers stamped with their handshake offset
  // estimates. trace_merge.py (next in the fixture chain) stitches them.
  for (const std::string& path : traces) {
    const std::string text = slurp(path);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos) << path;
    EXPECT_NE(text.find("\"trace_node\""), std::string::npos) << path;
  }
  for (std::size_t k = 1; k < traces.size(); ++k)
    EXPECT_NE(slurp(traces[k]).find("\"clock_reference\""), std::string::npos)
        << traces[k];
}

}  // namespace
