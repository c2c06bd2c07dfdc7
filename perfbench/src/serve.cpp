// The serve_eco workload: the real htp_serve daemon (--threads 2, default
// cache capacities) driven over its AF_UNIX socket by 4 client
// connections in a closed loop. Each client owns a c2670 design, sends its
// base request with emit_warm_state during set-up, then draws from a
// seeded mix of 20% cold, 40% repeat and 40% ECO requests.
//
// The traced run first runs the daemon exactly as the untraced run does
// (queue wait, cache outcomes and evictions only exist there), then replays
// the recorded request lines in-process -- ParseJson, ParseServeRequest,
// RunSession against one ArtifactCache, RenderServeResponse -- with spans
// around each call, and requires byte-identical deterministic sections.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "netlist/generators.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "server/cache.hpp"
#include "server/json_parse.hpp"
#include "server/protocol.hpp"

namespace pb {
namespace {

using htp::serve::JsonValue;

constexpr std::size_t kClients = 4;
constexpr std::size_t kWorkers = 2;
constexpr htp::Level kHeight = 3;
/// Enough requests that at least ten lie beyond the p90.
constexpr std::size_t kMinRequests = 100;
/// cost_geomean covers each client's first kCostPrefix responses, so it is
/// exact for a given seed however many requests the window admits.
constexpr std::size_t kCostPrefix = 20;

enum class Kind { kBase, kCold, kRepeat, kEco };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kBase: return "base";
    case Kind::kCold: return "cold";
    case Kind::kRepeat: return "repeat";
    case Kind::kEco: return "eco";
  }
  return "?";
}

/// One request/response pair as a client saw it.
struct Exchange {
  Kind kind = Kind::kCold;
  std::size_t client = 0;
  std::uint64_t seed = 0;        ///< circuit seed (the base's, for ECO)
  std::size_t delta = SIZE_MAX;  ///< ECO: index into the client's deltas
  std::size_t original = SIZE_MAX;  ///< repeat: index of the original
  std::string request;
  std::string response;
  double latency_s = 0.0;
  std::uint64_t order = 0;  ///< global send order (the replay order)
  bool io_ok = false;
};

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

// ---- socket client ------------------------------------------------------------

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) Fail("socket(): " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) Fail("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      Fail("connect(" + path + "): " + std::strerror(err));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one line and returns the next response line ("" if the daemon
  /// closed the connection).
  std::string RoundTrip(const std::string& line) {
    std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return {};
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ---- daemon process -------------------------------------------------------------

double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), {});
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// One htp_serve process. The destructor kills and reaps a daemon that was
/// not shut down, so no child outlives the benchmark.
class Daemon {
 public:
  Daemon(const Options& options, int instance) {
    const std::string stem =
        options.work_dir + "/s" + std::to_string(getpid()) + "-" +
        std::to_string(instance);
    socket_path_ = stem + ".sock";
    report_path_ = stem + ".report.json";
    log_path_ = stem + ".log";
    const std::string& log_path = log_path_;
    pid_ = ::fork();
    if (pid_ < 0) Fail("fork(): " + std::string(std::strerror(errno)));
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                             0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      const std::string threads = std::to_string(kWorkers);
      ::execl(options.serve_binary.c_str(), "htp_serve", "--socket",
              socket_path_.c_str(), "--threads", threads.c_str(), "--report",
              report_path_.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    // Ready once a ping is answered.
    const Clock::time_point start = Clock::now();
    for (;;) {
      try {
        Connection probe(socket_path_);
        if (probe.RoundTrip("{\"op\":\"ping\",\"id\":0}").find("\"ping\"") !=
            std::string::npos)
          break;
      } catch (const std::exception&) {
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        Fail("htp_serve exited during start-up (see " + log_path + ")");
      }
      if (SecondsBetween(start, Clock::now()) > 20.0) {
        Kill();  // the destructor does not run for a failed constructor
        Fail("htp_serve did not answer a ping within 20 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  ~Daemon() { Kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return socket_path_; }
  double CpuSeconds() const { return ProcCpuSeconds(pid_); }

  /// Sends the shutdown op, waits for exit, and returns the daemon's
  /// shutdown --report text. Records peak RSS from the reaped rusage.
  std::string Shutdown() {
    {
      Connection conn(socket_path_);
      conn.RoundTrip("{\"op\":\"shutdown\",\"id\":0}");
    }
    int status = 0;
    rusage usage{};
    if (::wait4(pid_, &status, 0, &usage) != pid_) Fail("wait4 failed");
    pid_ = -1;
    peak_rss_mib_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      Fail("htp_serve exited abnormally");
    std::ifstream in(report_path_);
    std::string report((std::istreambuf_iterator<char>(in)), {});
    ::unlink(report_path_.c_str());
    ::unlink(log_path_.c_str());
    return report;
  }
  double peak_rss_mib() const { return peak_rss_mib_; }

 private:
  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    ::unlink(socket_path_.c_str());
  }

  pid_t pid_ = -1;
  std::string socket_path_;
  std::string report_path_;
  std::string log_path_;
  double peak_rss_mib_ = 0.0;
};

// ---- clients ------------------------------------------------------------------------

/// Per-client state: its design, its seeded stream, and its log.
struct Client {
  std::size_t index = 0;
  std::uint64_t base_seed = 0;
  std::shared_ptr<const htp::Hypergraph> base;
  htp::Rng rng{1};
  std::string warm_text;  ///< the base response's warm_state
  std::vector<htp::NetlistDelta> deltas;
  std::vector<std::string> delta_texts;
  std::vector<Exchange> log;  ///< log[0] is the base exchange
  std::vector<Kind> schedule;  ///< the rest of the current block of kinds
  bool repeat_eco = false;     ///< the next repeat resends an ECO request
  std::string error;           ///< why the client's loop stopped early
  std::unique_ptr<Connection> conn;
};

std::string RequestLine(std::uint64_t id, std::uint64_t seed,
                        bool emit_warm_state, const std::string& delta_text,
                        const std::string& warm_text) {
  htp::obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("htp-serve-request");
  w.Key("schema_version");
  w.Number(1);
  w.Key("id");
  w.Number(id);
  w.Key("circuit");
  w.String("c2670");
  w.Key("seed");
  w.Number(seed);
  w.Key("height");
  w.Number(static_cast<std::uint64_t>(kHeight));
  w.Key("iterations");
  w.Number(1);
  w.Key("refine");
  w.Bool(true);
  if (emit_warm_state) {
    w.Key("emit_warm_state");
    w.Bool(true);
  }
  if (!delta_text.empty()) {
    w.Key("delta_text");
    w.String(delta_text);
    w.Key("warm_text");
    w.String(warm_text);
  }
  w.EndObject();
  return std::move(w).Take();
}

std::uint64_t JsonSafeSeed(htp::Rng& rng) { return rng.next_u64() >> 12; }

/// Builds the client's next request of the given kind.
Exchange MakeExchange(Client& c, Kind kind) {
  Exchange x;
  x.kind = kind;
  x.client = c.index;
  const std::uint64_t id = c.index * 1000000 + c.log.size();
  if (kind == Kind::kCold) {
    x.seed = JsonSafeSeed(c.rng);
    x.request = RequestLine(id, x.seed, false, "", "");
  } else if (kind == Kind::kRepeat) {
    // Alternate between resending a cold (or the base) request and an ECO
    // request, so every run repeats both kinds alike.
    const bool eco = c.repeat_eco && c.deltas.size() > 0;
    c.repeat_eco = !c.repeat_eco;
    std::vector<std::size_t> originals;
    for (std::size_t i = 0; i < c.log.size(); ++i)
      if (c.log[i].kind != Kind::kRepeat &&
          (c.log[i].kind == Kind::kEco) == eco)
        originals.push_back(i);
    x.original = originals[c.rng.next_below(originals.size())];
    const Exchange& o = c.log[x.original];
    x.seed = o.seed;
    x.delta = o.delta;
    x.request = o.request;  // word for word, id included
  } else {
    x.seed = c.base_seed;
    htp::NetlistDelta delta = MakeSizeNeutralDelta(*c.base, c.rng);
    // A rejected request must mean the service failed, not the generator.
    const htp::DeltaApplication app = htp::ApplyDelta(*c.base, delta);
    if (app.hg->total_size() != c.base->total_size())
      Fail("delta generator produced a size-changing delta");
    x.delta = c.deltas.size();
    c.delta_texts.push_back(htp::WriteDeltaText(delta));
    c.deltas.push_back(std::move(delta));
    x.request = RequestLine(id, x.seed, false, c.delta_texts.back(),
                            c.warm_text);
  }
  return x;
}

/// Draws the client's next request from its seeded mix: every block of
/// five requests is one cold, two repeats and two ECOs in a shuffled
/// order, so runs of any length keep the 20/40/40 mix.
Exchange NextExchange(Client& c) {
  if (c.schedule.empty()) {
    c.schedule = {Kind::kCold, Kind::kRepeat, Kind::kRepeat, Kind::kEco,
                  Kind::kEco};
    c.rng.shuffle(c.schedule);
  }
  const Kind kind = c.schedule.back();
  c.schedule.pop_back();
  return MakeExchange(c, kind);
}

void Send(Client& c, Exchange& x, std::atomic<std::uint64_t>& order) {
  x.order = order.fetch_add(1);
  const Clock::time_point t0 = Clock::now();
  x.response = c.conn->RoundTrip(x.request);
  x.latency_s = SecondsBetween(t0, Clock::now());
  x.io_ok = !x.response.empty();
}

// ---- response fields ----------------------------------------------------------------

const JsonValue* Path(const JsonValue& doc,
                      std::initializer_list<std::string_view> keys) {
  const JsonValue* v = &doc;
  for (std::string_view key : keys) {
    v = v->Find(key);
    if (!v) return nullptr;
  }
  return v;
}

double NumberAt(const JsonValue& doc,
                std::initializer_list<std::string_view> keys) {
  const JsonValue* v = Path(doc, keys);
  return v && v->kind == JsonValue::Kind::kNumber ? v->number_value : 0.0;
}

/// A parsed, checked response.
struct Outcome {
  bool ok = false;
  double cost = 0.0;
  double pins = 0.0;
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
  std::string netlist_cache;  ///< "hit" | "miss"
  double csr_hits = 0, csr_misses = 0, metric_hits = 0, metric_misses = 0;
  double blocks_reused = 0, blocks_recarved = 0;
};

/// Reference netlists the checker builds itself, keyed by circuit seed
/// (and by delta for ECO requests).
class References {
 public:
  std::shared_ptr<const htp::Hypergraph> Base(std::uint64_t seed) {
    auto it = base_.find(seed);
    if (it == base_.end())
      it = base_
               .emplace(seed, std::make_shared<const htp::Hypergraph>(
                                  htp::MakeIscas85Like("c2670", seed)))
               .first;
    return it->second;
  }
  std::shared_ptr<const htp::Hypergraph> Edited(
      std::uint64_t seed, std::size_t client, std::size_t delta_index,
      const htp::NetlistDelta& delta) {
    const auto key = std::make_pair(client, delta_index);
    auto it = edited_.find(key);
    if (it == edited_.end())
      it = edited_.emplace(key, htp::ApplyDelta(*Base(seed), delta).hg).first;
    return it->second;
  }

 private:
  std::map<std::uint64_t, std::shared_ptr<const htp::Hypergraph>> base_;
  std::map<std::pair<std::size_t, std::size_t>,
           std::shared_ptr<const htp::Hypergraph>>
      edited_;
};

/// Runs every output check on one exchange. Returns the failure or "".
std::string CheckExchange(const Client& c, const Exchange& x,
                          References& refs, Outcome& out, Tracer* tracer,
                          std::int64_t id) {
  if (!x.io_ok) return "connection dropped";
  JsonValue doc;
  try {
    doc = htp::serve::ParseJson(x.response);
  } catch (const std::exception& e) {
    return std::string("response is not JSON: ") + e.what();
  }
  const JsonValue* status = doc.Find("status");
  if (!status || status->string_value != "ok") {
    const JsonValue* error = doc.Find("error");
    return "error response: " + (error ? error->string_value : x.response);
  }
  const JsonValue* partition = Path(doc, {"deterministic", "partition"});
  if (!partition || partition->kind != JsonValue::Kind::kString)
    return "response has no partition";
  out.cost = NumberAt(doc, {"deterministic", "result", "cost"});
  out.pins = NumberAt(doc, {"deterministic", "meta", "pins"});
  out.queue_wait_ms = NumberAt(doc, {"wall", "queue_wait_ms"});
  out.run_ms = NumberAt(doc, {"wall", "run_seconds"}) * 1e3;
  if (const JsonValue* n = Path(doc, {"cache", "netlist"}))
    out.netlist_cache = n->string_value;
  out.csr_hits = NumberAt(doc, {"cache", "csr", "hits"});
  out.csr_misses = NumberAt(doc, {"cache", "csr", "misses"});
  out.metric_hits = NumberAt(doc, {"cache", "metric", "hits"});
  out.metric_misses = NumberAt(doc, {"cache", "metric", "misses"});
  out.blocks_reused =
      NumberAt(doc, {"deterministic", "result", "eco", "blocks_reused"});
  out.blocks_recarved =
      NumberAt(doc, {"deterministic", "result", "eco", "blocks_recarved"});

  const std::shared_ptr<const htp::Hypergraph> base = refs.Base(x.seed);
  const std::shared_ptr<const htp::Hypergraph> hg =
      x.delta == SIZE_MAX
          ? base
          : refs.Edited(x.seed, x.client, x.delta, c.deltas[x.delta]);
  // The session sizes the hierarchy from the pre-delta netlist.
  std::string problem =
      CheckPartition(*hg, SessionSpec(base->total_size(), kHeight),
                     partition->string_value, out.cost, tracer, id);
  if (!problem.empty()) return problem;
  if (x.kind == Kind::kRepeat) {
    problem = CheckRepeat(c.log[x.original].response, x.response);
    if (!problem.empty()) return problem;
  }
  out.ok = true;
  return {};
}

// ---- the run --------------------------------------------------------------------

struct ServeRun {
  std::vector<Client> clients;
  std::vector<double> setup_times;
  double window_s = 0.0;
  double daemon_cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  std::string report;
};

/// Set-up: per-client designs, a fresh daemon, a ping, and every client's
/// base request answered. Timed as setup_s; repeated, and the daemon of the
/// last repetition is the one measured.
std::unique_ptr<Daemon> SetUp(const Options& options, ServeRun& run,
                              std::atomic<std::uint64_t>& order) {
  std::unique_ptr<Daemon> daemon;
  const int repeats = options.smoke ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    if (daemon) daemon->Shutdown();
    const Clock::time_point start = Clock::now();
    htp::Rng rng(options.seed);
    run.clients = std::vector<Client>(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      Client& c = run.clients[i];
      c.index = i;
      // Fixed designs; --seed drives the traffic: the mix order, repeat
      // picks, deltas, and cold requests' circuits.
      c.base_seed = 1 + i;
      c.rng = rng.fork(i);
      c.base = std::make_shared<const htp::Hypergraph>(
          htp::MakeIscas85Like("c2670", c.base_seed));
    }
    daemon = std::make_unique<Daemon>(options, r);
    order = 0;
    std::vector<std::thread> threads;
    for (Client& c : run.clients) {
      threads.emplace_back([&c, &daemon, &order] {
        try {
          c.conn = std::make_unique<Connection>(daemon->socket_path());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: client %zu: %s\n", c.index,
                       e.what());
          return;
        }
        Exchange x;
        x.kind = Kind::kBase;
        x.client = c.index;
        x.seed = c.base_seed;
        x.request = RequestLine(c.index * 1000000, c.base_seed, true, "", "");
        Send(c, x, order);
        c.log.push_back(std::move(x));
      });
    }
    for (std::thread& t : threads) t.join();
    for (Client& c : run.clients) {
      if (c.log.empty() || !c.log[0].io_ok)
        Fail("base request of client " + std::to_string(c.index) +
             " got no answer");
      const JsonValue doc = htp::serve::ParseJson(c.log[0].response);
      const JsonValue* warm = Path(doc, {"deterministic", "warm_state"});
      if (!warm) Fail("base response carries no warm_state: " +
                      c.log[0].response.substr(0, 200));
      c.warm_text = warm->string_value;
    }
    run.setup_times.push_back(SecondsBetween(start, Clock::now()));
  }
  return daemon;
}

/// One client's closed loop: the next request goes out when the previous
/// answer arrives, until --seconds have passed, at least kMinRequests were
/// sent in all and kCostPrefix by this client (smoke: one request of each
/// kind).
void RunClient(const Options& options, Client& client,
               Clock::time_point start, std::atomic<std::size_t>& sent,
               std::atomic<std::uint64_t>& order) {
  for (std::size_t k = 0;; ++k) {
    if (options.smoke ? k >= 3
                      : (SecondsBetween(start, Clock::now()) >=
                             options.seconds &&
                         sent.load() >= kMinRequests && k >= kCostPrefix))
      return;
    static constexpr Kind kSmoke[] = {Kind::kCold, Kind::kRepeat, Kind::kEco};
    Exchange x = options.smoke ? MakeExchange(client, kSmoke[k])
                               : NextExchange(client);
    sent.fetch_add(1);
    Send(client, x, order);
    const bool io_ok = x.io_ok;
    client.log.push_back(std::move(x));
    if (!io_ok) return;
  }
}

/// The measuring window: all clients at once, then the daemon's shutdown.
void Measure(const Options& options, ServeRun& run, Daemon& daemon,
             std::atomic<std::uint64_t>& order) {
  std::atomic<std::size_t> sent{0};
  const double cpu0 = daemon.CpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (Client& c : run.clients) {
    threads.emplace_back([&, cp = &c] {
      try {
        RunClient(options, *cp, start, sent, order);
      } catch (const std::exception& e) {
        cp->error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Client& c : run.clients)
    if (!c.error.empty())
      Fail("client " + std::to_string(c.index) + ": " + c.error);
  run.window_s = SecondsBetween(start, Clock::now());
  run.daemon_cpu_s = daemon.CpuSeconds() - cpu0;
  for (Client& c : run.clients) c.conn.reset();
  run.report = daemon.Shutdown();
  run.peak_rss_mib = daemon.peak_rss_mib();
}

double ReportCounter(const std::string& report, std::string_view name) {
  try {
    const JsonValue doc = htp::serve::ParseJson(report);
    for (const char* section : {"deterministic", "wall"})
      if (const JsonValue* v = Path(doc, {section, "counters", name}))
        return v->number_value;
  } catch (const std::exception&) {
  }
  return 0.0;
}

struct Checked {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Parallel to the measured exchanges (the base exchanges excluded).
  std::vector<const Exchange*> exchanges;
  std::vector<Outcome> outcomes;
};

Checked CheckAll(ServeRun& run, Tracer* tracer) {
  Checked checked;
  References refs;
  std::int64_t id = 0;
  for (Client& c : run.clients) {
    for (std::size_t i = 0; i < c.log.size(); ++i) {
      const Exchange& x = c.log[i];
      Outcome out;
      const std::string problem = CheckExchange(c, x, refs, out, tracer, id++);
      if (x.kind == Kind::kBase) {
        if (!problem.empty())
          Fail("base response failed its checks: " + problem);
        continue;
      }
      ++checked.attempted;
      if (!problem.empty()) {
        ++checked.failed;
        std::fprintf(stderr, "perfbench: FAILED client %zu %s request: %s\n",
                     c.index, KindName(x.kind), problem.c_str());
      }
      checked.exchanges.push_back(&x);
      checked.outcomes.push_back(out);
    }
  }
  return checked;
}

/// Latency quantile where failed requests count as slower than any other.
double LatencyQuantileMs(const Checked& checked, double q,
                         std::optional<Kind> kind, std::size_t* n) {
  std::vector<double> lat;
  for (std::size_t i = 0; i < checked.exchanges.size(); ++i) {
    const Exchange& x = *checked.exchanges[i];
    if (kind && x.kind != *kind) continue;
    lat.push_back(checked.outcomes[i].ok ? x.latency_s * 1e3 : 1e300);
  }
  if (n) *n = lat.size();
  return Quantile(lat, q);
}

std::string Line(const char* format, double value, std::size_t n) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, value, n);
  return buf;
}

void AddEndToEnd(const ServeRun& run, const Checked& checked,
                 MetricSheet& sheet) {
  std::vector<double> costs;
  double pins = 0.0;
  std::size_t ok = 0, kinds[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < checked.outcomes.size(); ++i) {
    const Exchange& x = *checked.exchanges[i];
    ++kinds[static_cast<int>(x.kind)];
    if (!checked.outcomes[i].ok) continue;
    ++ok;
    pins += checked.outcomes[i].pins;
    // log[0] is the base exchange, so log index k is the k-th measured one.
    const std::size_t k =
        static_cast<std::size_t>(&x - run.clients[x.client].log.data());
    if (k <= kCostPrefix) costs.push_back(checked.outcomes[i].cost);
  }
  sheet.Note("requests: " + std::to_string(checked.attempted) + " (cold " +
             std::to_string(kinds[1]) + ", repeat " +
             std::to_string(kinds[2]) + ", eco " + std::to_string(kinds[3]) +
             ") over " + Line("%.3f", run.window_s, 0) + " s from " +
             std::to_string(kClients) + " clients; daemon --threads " +
             std::to_string(kWorkers));
  std::size_t n = 0;
  std::vector<double> kind_p50;
  const double failed_share =
      checked.attempted ? static_cast<double>(checked.failed) /
                              static_cast<double>(checked.attempted)
                        : 0.0;
  sheet.Note(Line("metric failed_share = %.6g fraction (n=%zu)", failed_share,
                  checked.attempted));
  for (const auto& [name, kind] :
       {std::pair{"cold_p50_ms", Kind::kCold},
        std::pair{"repeat_p50_ms", Kind::kRepeat},
        std::pair{"eco_p50_ms", Kind::kEco}}) {
    kind_p50.push_back(LatencyQuantileMs(checked, 0.5, kind, &n));
    sheet.Note(Line((std::string("metric ") + name + " = %.6g ms (n=%zu)").c_str(),
                    kind_p50.back(), n));
  }
  const double p50 = LatencyQuantileMs(checked, 0.5, std::nullopt, &n);
  sheet.Note(Line("metric latency_p50_ms = %.6g ms (n=%zu)", p50, n));
  const double p90 = LatencyQuantileMs(checked, 0.9, std::nullopt, &n);
  sheet.Note(Line("metric latency_p90_ms = %.6g ms (n=%zu)", p90, n));
  sheet.Add("setup_s", Quantile(run.setup_times, 0.5), "s",
            run.setup_times.size());
  sheet.Add("pins_per_s", pins / run.window_s, "pins/s", ok);
  sheet.Add("throughput_rps", static_cast<double>(ok) / run.window_s, "req/s",
            ok);
  sheet.Add("cost_geomean", GeoMean(costs), "cost", costs.size());
  sheet.Add("peak_rss_mb", run.peak_rss_mib, "MiB", 1);
  // The geometric mean of the cold, repeat and ECO medians: a change that
  // speeds one kind at another's expense moves it.
  sheet.Add("latency_kind_p50_ms", GeoMean(kind_p50), "ms",
            checked.exchanges.size());
}

/// In-process replay of every request line the measured daemon saw, in
/// send order, on kWorkers threads sharing one ArtifactCache.
struct Replay {
  std::vector<const Exchange*> order;
  std::vector<std::string> responses;
  std::vector<std::size_t> csr_misses;
};

Replay ReplayInProcess(const ServeRun& run, Tracer& tracer) {
  Replay replay;
  for (const Client& c : run.clients)
    for (const Exchange& x : c.log) replay.order.push_back(&x);
  std::sort(replay.order.begin(), replay.order.end(),
            [](const Exchange* a, const Exchange* b) {
              return a->order < b->order;
            });
  replay.responses.resize(replay.order.size());
  replay.csr_misses.resize(replay.order.size());
  htp::serve::ArtifactCache cache;
  std::atomic<std::size_t> next{0};
  htp::obs::ResetAll();
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < replay.order.size();) {
        const auto id = static_cast<std::int64_t>(i);
        ScopedSpan request_span(tracer, "server.request", 0, id);
        try {
          std::optional<htp::serve::ServeRequest> request;
          {
            ScopedSpan span(tracer, "server.parse", request_span.id(), id);
            request.emplace(htp::serve::ParseServeRequest(
                htp::serve::ParseJson(replay.order[i]->request)));
          }
          std::optional<htp::serve::SessionResult> result;
          {
            ScopedSpan span(tracer, "server.session", request_span.id(), id);
            result.emplace(htp::serve::RunSession(request->session, &cache));
          }
          ScopedSpan span(tracer, "server.render", request_span.id(), id);
          replay.responses[i] =
              htp::serve::RenderServeResponse(*request, *result, 0.0);
          replay.csr_misses[i] = result->cache.csr_misses;
        } catch (const std::exception& e) {
          replay.responses[i] = std::string("error: ") + e.what();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return replay;
}

/// The traced run's second half: replay the daemon's requests in-process,
/// then print the per-layer sheet.
int ReportLayers(const Options& options, const ServeRun& run,
                 const Checked& checked, Tracer& tracer) {
  MetricSheet sheet;
  const Replay replay = ReplayInProcess(run, tracer);
  const htp::obs::Snapshot snap = htp::obs::TakeSnapshot();
  const std::vector<Tracer::Span> spans = tracer.Snapshot();
  std::size_t replay_mismatch = 0, csr_builds = 0;
  double traced_run_s = 0.0;
  for (const Tracer::Span& s : spans)
    if (s.name == "server.session" &&
        replay.order[static_cast<std::size_t>(s.job)]->kind != Kind::kBase)
      traced_run_s += s.end - s.start;
  for (std::size_t i = 0; i < replay.order.size(); ++i) {
    csr_builds += replay.csr_misses[i];
    const std::string why =
        CheckRepeat(replay.order[i]->response, replay.responses[i]);
    if (!why.empty()) {
      ++replay_mismatch;
      std::fprintf(stderr,
                   "perfbench: FAILED replay of request %zu does not "
                   "reproduce the daemon's answer: %s\n",
                   i, why.c_str());
    }
  }
  tracer.WriteJsonLines(options.work_dir + "/spans-serve_eco.jsonl");
  sheet.Note("spans written to " + options.work_dir +
             "/spans-serve_eco.jsonl");

  std::vector<double> queue_wait, transport, run_ms[4];
  double request_bytes = 0, response_bytes = 0, daemon_run_s = 0;
  double netlist_hits = 0, csr_hits = 0, csr_all = 0, metric_hits = 0,
         metric_all = 0, eco_calls = 0, eco_n = 0, reused = 0, recarved = 0;
  for (std::size_t i = 0; i < checked.exchanges.size(); ++i) {
    const Exchange& x = *checked.exchanges[i];
    const Outcome& o = checked.outcomes[i];
    if (!o.ok) continue;
    queue_wait.push_back(o.queue_wait_ms);
    run_ms[static_cast<int>(x.kind)].push_back(o.run_ms);
    transport.push_back(x.latency_s * 1e3 - o.queue_wait_ms - o.run_ms);
    request_bytes += static_cast<double>(x.request.size());
    response_bytes += static_cast<double>(x.response.size());
    daemon_run_s += o.run_ms / 1e3;
    netlist_hits += o.netlist_cache == "hit" ? 1 : 0;
    csr_hits += o.csr_hits;
    csr_all += o.csr_hits + o.csr_misses;
    metric_hits += o.metric_hits;
    metric_all += o.metric_hits + o.metric_misses;
    if (x.kind == Kind::kEco) {
      eco_calls += o.csr_hits + o.csr_misses;
      ++eco_n;
      reused += o.blocks_reused;
      recarved += o.blocks_recarved;
    }
  }
  const std::size_t n = queue_wait.size();
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::size_t metric_calls = 0, io_calls = 0, check_calls = 0,
              session_calls = 0;
  (void)BusySeconds(spans, "server.session", &session_calls);

  sheet.Add("graph.csr_builds", static_cast<double>(csr_builds), "count",
            session_calls);
  sheet.Add("graph.dijkstra_pops",
            static_cast<double>(Counter(snap, "dijkstra.pops")), "count",
            session_calls);
  sheet.Add("graph.dijkstra_calls",
            static_cast<double>(Counter(snap, "dijkstra.calls")), "count",
            session_calls);
  metric_calls = Counter(snap, "flow.metrics");
  sheet.Add("core.metric_s", TimerSeconds(snap, "flow.compute_metric"), "s",
            metric_calls);
  sheet.Add("core.metric_calls", static_cast<double>(metric_calls), "count",
            session_calls);
  sheet.Add("core.injections",
            static_cast<double>(Counter(snap, "flow.injections")), "count",
            session_calls);
  sheet.Add("core.rounds", static_cast<double>(Counter(snap, "flow.rounds")),
            "count", session_calls);
  sheet.Add("core.carve_in_window_ratio",
            ratio(static_cast<double>(Counter(snap, "carve.find_cut.in_window")),
                  static_cast<double>(Counter(snap, "carve.find_cut.calls"))),
            "fraction", Counter(snap, "carve.find_cut.calls"));
  const double check_s = BusySeconds(spans, "core.check", &check_calls);
  sheet.Add("core.check_s", check_s, "s", check_calls);
  const double io_s = BusySeconds(spans, "core.io", &io_calls);
  sheet.Add("core.io_s", io_s, "s", io_calls);
  sheet.Add("partition.fm_s", TimerSeconds(snap, "fm.refine"), "s",
            Counter(snap, "fm.refines"));
  sheet.Add("partition.fm_moves",
            static_cast<double>(Counter(snap, "fm.moves_applied")), "count",
            session_calls);
  sheet.Add("partition.fm_kept_ratio",
            ratio(static_cast<double>(Counter(snap, "fm.moves_kept")),
                  static_cast<double>(Counter(snap, "fm.moves_applied"))),
            "fraction", Counter(snap, "fm.moves_applied"));
  const auto eco_runs = Counter(snap, "eco.runs");
  sheet.Add("incremental.eco_s", TimerSeconds(snap, "eco.repartition"), "s",
            eco_runs);
  sheet.Add("incremental.stitch_s", TimerSeconds(snap, "eco.stitch"), "s",
            eco_runs);
  sheet.Add("incremental.metric_calls_per_eco", ratio(eco_calls, eco_n),
            "count", static_cast<std::size_t>(eco_n));
  sheet.Add("incremental.reuse_ratio", ratio(reused, reused + recarved),
            "fraction", static_cast<std::size_t>(eco_n));
  sheet.Add("incremental.full_rebuild_share",
            ratio(static_cast<double>(Counter(snap, "eco.full_rebuilds")),
                  static_cast<double>(eco_runs)),
            "fraction", eco_runs);
  sheet.Add("server.queue_wait_p50_ms", Quantile(queue_wait, 0.5), "ms", n);
  sheet.Add("server.queue_wait_p90_ms", Quantile(queue_wait, 0.9), "ms", n);
  for (const auto& [name, kind] :
       {std::pair{"server.run_p50_ms.cold", Kind::kCold},
        std::pair{"server.run_p50_ms.repeat", Kind::kRepeat},
        std::pair{"server.run_p50_ms.eco", Kind::kEco}})
    sheet.Add(name, Quantile(run_ms[static_cast<int>(kind)], 0.5), "ms",
              run_ms[static_cast<int>(kind)].size());
  sheet.Add("server.transport_p50_ms", Quantile(transport, 0.5), "ms", n);
  sheet.Add("server.request_kb", ratio(request_bytes, 1024.0 * n), "KiB", n);
  sheet.Add("server.response_kb", ratio(response_bytes, 1024.0 * n), "KiB", n);
  sheet.Add("server.hit_ratio.netlist", ratio(netlist_hits, n), "fraction", n);
  sheet.Add("server.hit_ratio.csr", ratio(csr_hits, csr_all), "fraction", n);
  sheet.Add("server.hit_ratio.metric", ratio(metric_hits, metric_all),
            "fraction", n);
  for (const auto& [name, counter] :
       {std::pair{"server.evictions.netlist", "serve.cache_evict_netlist"},
        std::pair{"server.evictions.csr", "serve.cache_evict_csr"},
        std::pair{"server.evictions.metric", "serve.cache_evict_metric"}})
    sheet.Add(name, ReportCounter(run.report, counter), "count", 1);
  sheet.Add("runtime.cpu_util",
            run.daemon_cpu_s / (run.window_s * static_cast<double>(kWorkers)),
            "fraction", 1);
  sheet.Add("trace.overhead_share",
            ratio(traced_run_s - daemon_run_s, daemon_run_s),
            "fraction", n);
  const std::size_t failed = checked.failed + replay_mismatch;
  sheet.Print("serve_eco", true, checked.attempted + replay.order.size(),
              failed);
  return failed == 0 ? 0 : 1;
}


}  // namespace

int RunServeEco(const Options& options) {
  if (options.serve_binary.empty()) Fail("--serve-binary is required");
  ServeRun run;
  std::atomic<std::uint64_t> order{0};
  {
    std::unique_ptr<Daemon> daemon = SetUp(options, run, order);
    Measure(options, run, *daemon, order);
  }
  Tracer tracer;
  const Checked checked = CheckAll(run, options.trace ? &tracer : nullptr);
  if (options.trace) return ReportLayers(options, run, checked, tracer);
  MetricSheet sheet;
  AddEndToEnd(run, checked, sheet);
  sheet.Print("serve_eco", false, checked.attempted, checked.failed);
  return checked.failed == 0 ? 0 : 1;
}

}  // namespace pb
