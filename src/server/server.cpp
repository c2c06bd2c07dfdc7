#include "server/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"
#include "server/artifact_key.hpp"
#include "server/protocol.hpp"

namespace htp::serve {

namespace {

obs::Counter c_requests("serve.requests");
obs::Counter c_errors("serve.errors");
obs::Histogram h_queue_wait("serve.queue_wait", obs::HistogramKind::kTimeNs);
obs::Event e_request("serve.request");

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One client connection: the fd plus the write lock the pool tasks share
// (responses go out in completion order, one full line at a time) and the
// outstanding-request count the reader drains before closing.
struct Connection {
  int fd = -1;
  std::mutex write_mu;
  std::mutex state_mu;
  std::condition_variable drained;
  std::size_t outstanding = 0;

  void WriteLine(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    std::string out = line;
    out.push_back('\n');
    std::size_t sent = 0;
    while (sent < out.size()) {
      // MSG_NOSIGNAL: a client that hung up must cost us an EPIPE errno,
      // not a process-killing SIGPIPE.
      const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // client gone; nothing useful to do
      sent += static_cast<std::size_t>(n);
    }
  }

  void TaskDone() {
    std::lock_guard<std::mutex> lock(state_mu);
    --outstanding;
    drained.notify_all();
  }

  void DrainOutstanding() {
    std::unique_lock<std::mutex> lock(state_mu);
    drained.wait(lock, [&] { return outstanding == 0; });
  }
};

class Daemon {
 public:
  explicit Daemon(const ServeOptions& options)
      : options_(options),
        cache_(options.cache),
        pool_(ResolveThreadCount(options.threads)) {}

  ServeStats Run() {
    const int listen_fd = Listen();
    std::vector<std::thread> readers;
    while (!ShouldStop()) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
      if (ready <= 0) continue;  // timeout / EINTR: re-check the flag
      const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
      if (conn_fd < 0) continue;
      auto conn = std::make_shared<Connection>();
      conn->fd = conn_fd;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.push_back(conn);
      }
      readers.emplace_back([this, conn] { ReadLoop(conn); });
    }
    // Wake any reader blocked on a silent client, then join them all —
    // their outstanding pool tasks drain inside ReadLoop.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
    }
    for (std::thread& reader : readers) reader.join();
    ::close(listen_fd);
    ::unlink(options_.socket_path.c_str());
    ServeStats stats;
    stats.requests = served_.load();
    stats.errors = errors_.load();
    return stats;
  }

 private:
  int Listen() {
    if (options_.socket_path.empty())
      throw Error("serve: socket path must not be empty");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path))
      throw Error("serve: socket path too long: " + options_.socket_path);
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw Error("serve: cannot create socket");
    ::unlink(options_.socket_path.c_str());  // stale file from a past run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      throw Error("serve: cannot bind " + options_.socket_path + ": " +
                  std::strerror(errno));
    }
    if (::listen(fd, 16) < 0) {
      ::close(fd);
      throw Error("serve: cannot listen on " + options_.socket_path);
    }
    return fd;
  }

  bool ShouldStop() const {
    if (shutdown_.load(std::memory_order_acquire)) return true;
    return options_.max_requests > 0 &&
           dispatched_.load(std::memory_order_acquire) >=
               options_.max_requests;
  }

  void ReadLoop(const std::shared_ptr<Connection>& conn) {
    std::string buffer;
    char chunk[4096];
    bool stop = false;
    while (!stop) {
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t newline;
      while (!stop && (newline = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        stop = HandleLine(conn, line);
      }
    }
    conn->DrainOutstanding();
    ::close(conn->fd);
  }

  /// Returns true when this connection should stop reading (shutdown, or
  /// the max-requests bound was reached).
  bool HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) return false;
    ServeRequest request;
    try {
      request = ParseServeRequest(ParseJson(line));
    } catch (const std::exception& e) {
      errors_.fetch_add(1);
      c_errors.Add();
      conn->WriteLine(RenderServeError("null", e.what()));
      return false;
    }
    if (request.op == "ping") {
      conn->WriteLine(RenderServeAck(request.id_json, "ping"));
      return false;
    }
    if (request.op == "stats") {
      conn->WriteLine(RenderServeStats(request.id_json, cache_.Stats(),
                                       queued_.load(), in_flight_.load()));
      return false;
    }
    if (request.op == "shutdown") {
      conn->WriteLine(RenderServeAck(request.id_json, "shutdown"));
      shutdown_.store(true, std::memory_order_release);
      return true;
    }
    Dispatch(conn, std::move(request));
    return options_.max_requests > 0 &&
           dispatched_.load(std::memory_order_acquire) >=
               options_.max_requests;
  }

  void Dispatch(const std::shared_ptr<Connection>& conn,
                ServeRequest request) {
    dispatched_.fetch_add(1, std::memory_order_acq_rel);
    c_requests.Add();
    // The response tier: a report request always runs, since its report
    // times and counts its own run.
    const bool tiered = cache_.response_enabled() && !request.want_report;
    const std::uint64_t key =
        tiered ? HashResponseRequest(request.session) : 0;
    if (tiered && AnswerFromTier(*conn, request, key)) return;
    {
      std::lock_guard<std::mutex> lock(conn->state_mu);
      ++conn->outstanding;
    }
    queued_.fetch_add(1);
    const std::uint64_t enqueue_ns = NowNs();
    auto shared_request =
        std::make_shared<const ServeRequest>(std::move(request));
    pool_.Submit([this, conn, shared_request, enqueue_ns, tiered, key] {
      queued_.fetch_sub(1);
      in_flight_.fetch_add(1);
      const std::uint64_t wait_ns = NowNs() - enqueue_ns;
      h_queue_wait.Record(wait_ns);
      const ServeRequest& req = *shared_request;
      std::string response;
      try {
        const SessionResult result = RunSession(req.session, &cache_);
        auto section = std::make_shared<const ResponseSection>(
            MakeResponseSection(req, result));
        ResponseEnvelope envelope;
        envelope.response_cache = tiered ? "miss" : "off";
        envelope.netlist_cache = result.cache.netlist;
        envelope.run_seconds = result.run_seconds;
        envelope.queue_wait_ms = static_cast<double>(wait_ns) / 1e6;
        if (req.want_report) envelope.report = result.report;
        response = RenderServeResponse(req.id_json, *section, envelope);
        // A run its deadline cut short is not the request's answer.
        if (tiered && result.completed) cache_.StoreResponse(key, section);
        served_.fetch_add(1);
        RecordServed(section->cost, result.completed);
      } catch (const std::exception& e) {
        errors_.fetch_add(1);
        c_errors.Add();
        response = RenderServeError(req.id_json, e.what());
      }
      // The run is over before its answer leaves: a client that has read
      // it never sees this request in flight.
      in_flight_.fetch_sub(1);
      conn->WriteLine(response);
      conn->TaskDone();
    });
  }

  // Answers a request from the response tier on the reader thread, without
  // the pool: no run, so run_seconds and queue_wait_ms read 0, and the
  // netlist tier reads "off". Returns false on a miss.
  bool AnswerFromTier(Connection& conn, const ServeRequest& request,
                      std::uint64_t key) {
    const std::shared_ptr<const ResponseSection> section =
        cache_.FindResponse(key);
    if (!section) return false;
    ResponseEnvelope envelope;
    envelope.response_cache = "hit";
    conn.WriteLine(RenderServeResponse(request.id_json, *section, envelope));
    served_.fetch_add(1);
    RecordServed(section->cost, true);
    return true;
  }

  static void RecordServed(double cost, bool completed) {
    e_request.Record({{"cost", cost}, {"completed", completed ? 1.0 : 0.0}});
  }

  const ServeOptions options_;
  ArtifactCache cache_;
  ThreadPool pool_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> dispatched_{0};
  std::atomic<std::size_t> served_{0};
  std::atomic<std::size_t> errors_{0};
  // Partition requests waiting for a pool worker, and running on one.
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace

ServeStats RunServer(const ServeOptions& options) {
  return Daemon(options).Run();
}

}  // namespace htp::serve
