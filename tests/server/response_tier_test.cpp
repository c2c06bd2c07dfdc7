// The daemon's response tier (docs/server.md, "Response tier"), end to end:
// a real RunServer on an AF_UNIX socket in this process, and clients that
// speak its wire protocol.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "server/artifact_key.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace htp::serve {
namespace {

// One client connection; lines go out and come back whole.
class Client {
 public:
  explicit Client(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The daemon starts listening on its own thread: retry until it does.
    for (int attempt = 0;; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0)
        return;
      ::close(fd_);
      if (attempt == 2000) throw std::runtime_error("daemon never listened");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Send(const std::string& line) {
    const std::string out = line + "\n";
    ASSERT_EQ(::send(fd_, out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
  }

  std::string Receive() {
    std::size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

  std::string RoundTrip(const std::string& line) {
    Send(line);
    return Receive();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// The daemon under test, on a fresh socket in the working directory. The
// destructor shuts it down and joins it.
class TestDaemon {
 public:
  explicit TestDaemon(std::size_t response_capacity = 256) {
    static std::atomic<int> next{0};
    options_.socket_path = "response_tier." + std::to_string(::getpid()) +
                           "." + std::to_string(next++) + ".sock";
    options_.threads = 2;
    options_.cache.response_capacity = response_capacity;
    thread_ = std::thread([this] { RunServer(options_); });
  }
  ~TestDaemon() {
    Client(options_.socket_path).RoundTrip(R"({"op":"shutdown"})");
    thread_.join();
  }
  TestDaemon(const TestDaemon&) = delete;
  TestDaemon& operator=(const TestDaemon&) = delete;

  const std::string& path() const { return options_.socket_path; }

 private:
  ServeOptions options_;
  std::thread thread_;
};

// A c1355 FLOW request line with `members` (a JSON fragment) added.
std::string Request(std::string_view id, std::string_view members = "") {
  std::string line = R"({"circuit":"c1355","height":3,"iterations":1,)";
  if (!members.empty()) line += std::string(members) + ",";
  return line + R"("id":")" + std::string(id) + "\"}";
}

std::string TextMember(std::string_view key, std::string_view text) {
  return "\"" + std::string(key) + "\":\"" + obs::EscapeJson(text) + "\"";
}

std::string ResponseCache(const JsonValue& doc) {
  return doc.Find("cache")->Find("response")->string_value;
}

const JsonValue& ResultOf(const JsonValue& doc) {
  return *doc.Find("deterministic")->Find("result");
}

// A size-neutral edit of c1355: one net out, one in.
constexpr std::string_view kDelta =
    "htp-delta v1\nremove-net 17\nadd-net 1 3 40\n";

TEST(ResponseTier, KeyCoversTheSectionsMembersAndNothingElse) {
  const std::map<std::string, std::string> base = {
      {"circuit", R"("c1355")"}, {"algo", R"("flow")"},
      {"height", "3"},           {"branching", "2"},
      {"slack", "0.1"},          {"weights", "[1,1,1]"},
      {"iterations", "2"},       {"refine", "false"},
      {"multilevel", "false"},   {"coarsen_threshold", "800"},
      {"max_rounds", "0"},       {"seed", "1"},
      {"delta_text", R"("")"},   {"warm_text", R"("")"},
      {"emit_warm_state", "false"}};
  const auto key = [&](const std::map<std::string, std::string>& changes) {
    std::map<std::string, std::string> members = base;
    for (const auto& [name, value] : changes) {
      if (value.empty())
        members.erase(name);
      else
        members[name] = value;
    }
    std::string line = "{";
    for (const auto& [name, value] : members)
      line += (line.size() > 1 ? ",\"" : "\"") + name + "\":" + value;
    return HashResponseRequest(
        ParseServeRequest(ParseJson(line + "}")).session);
  };
  const std::uint64_t base_key = key({});

  const std::vector<std::map<std::string, std::string>> keyed = {
      {{"circuit", R"("c2670")"}},
      {{"circuit", ""}, {"bench_text", R"("INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n")"}},
      {{"algo", R"("flow-mst")"}},
      {{"height", "4"}},
      {{"branching", "3"}},
      {{"slack", "0.2"}},
      {{"weights", "[1,2,1]"}},
      {{"iterations", "3"}},
      {{"refine", "true"}},
      {{"multilevel", "true"}},
      {{"coarsen_threshold", "300"}},
      {{"max_rounds", "50"}},
      {{"seed", "2"}},
      {{"delta_text", R"("htp-delta v1\n")"}},
      {{"warm_text", R"("w")"}},
      {{"emit_warm_state", "true"}},
      // Strings are length-prefixed: moving a byte between two members
      // changes the key.
      {{"delta_text", R"("ab")"}, {"warm_text", R"("c")"}},
      {{"delta_text", R"("a")"}, {"warm_text", R"("bc")"}},
  };
  std::set<std::uint64_t> keys = {base_key};
  for (const auto& changes : keyed) {
    SCOPED_TRACE(changes.begin()->first);
    EXPECT_TRUE(keys.insert(key(changes)).second);
  }

  const std::vector<std::map<std::string, std::string>> unkeyed = {
      {{"id", "7"}},            {{"id", R"("job")"}},
      {{"deadline_ms", "250"}}, {{"report", "true"}},
  };
  for (const auto& changes : unkeyed) {
    SCOPED_TRACE(changes.begin()->first);
    EXPECT_EQ(key(changes), base_key);
  }
}

// A hit's deterministic section is the miss's, byte for byte, and the
// miss's is what an uncached RunSession renders, for every request kind.
TEST(ResponseTier, HitBytesEqualTheMissAcrossRequestKinds) {
  TestDaemon daemon;
  Client client(daemon.path());
  std::string warm_state;
  const std::vector<std::pair<std::string, std::string>> kinds = {
      {"flow", R"("refine":true)"},
      {"flow-mst", R"("algo":"flow-mst")"},
      {"rfm", R"("algo":"rfm","refine":true)"},
      {"gfm", R"("algo":"gfm")"},
      {"multilevel", R"("multilevel":true,"coarsen_threshold":200)"},
      {"emit", R"("emit_warm_state":true)"},
      {"eco", ""},  // members filled in from the emit answer
  };
  for (auto [name, members] : kinds) {
    SCOPED_TRACE(name);
    if (name == "eco")
      members = TextMember("delta_text", kDelta) + "," +
                TextMember("warm_text", warm_state);
    const std::string miss_line = client.RoundTrip(Request(name + "-1", members));
    const std::string hit_line = client.RoundTrip(Request(name + "-2", members));
    const JsonValue miss = ParseJson(miss_line);
    const JsonValue hit = ParseJson(hit_line);
    ASSERT_EQ(miss.Find("status")->string_value, "ok") << miss_line;
    ASSERT_EQ(hit.Find("status")->string_value, "ok") << hit_line;
    EXPECT_EQ(ResponseCache(miss), "miss");
    EXPECT_EQ(ResponseCache(hit), "hit");
    EXPECT_EQ(hit.Find("id")->string_value, name + "-2");
    EXPECT_EQ(obs::DeterministicSection(hit_line),
              obs::DeterministicSection(miss_line));
    // A hit ran nothing and looked nothing else up.
    EXPECT_EQ(hit.Find("wall")->Find("run_seconds")->number_value, 0.0);
    EXPECT_EQ(hit.Find("wall")->Find("queue_wait_ms")->number_value, 0.0);
    EXPECT_EQ(hit.Find("cache")->Find("netlist")->string_value, "off");
    EXPECT_EQ(hit.Find("cache")->object_value.size(), 2u);

    const ServeRequest request =
        ParseServeRequest(ParseJson(Request(name + "-1", members)));
    const std::string direct = RenderServeResponse(
        request, RunSession(request.session, nullptr), 0.0);
    EXPECT_EQ(obs::DeterministicSection(miss_line),
              obs::DeterministicSection(direct));
    if (name == "emit") {
      warm_state = hit.Find("deterministic")->Find("warm_state")->string_value;
      ASSERT_FALSE(warm_state.empty());
    }
    if (name == "eco") {
      EXPECT_EQ(ResultOf(hit).Find("eco")->Find("warm_source")->string_value,
                "state");
    }
  }
}

// A deadline-cut run says so on every algorithm and is never stored; a
// stored completed answer then serves a request with any deadline.
TEST(ResponseTier, DeadlineCutRunsAreNeverStored) {
  TestDaemon daemon;
  Client client(daemon.path());
  for (const std::string algo : {"flow", "rfm", "gfm"}) {
    SCOPED_TRACE(algo);
    const std::string members = R"("refine":true,"algo":")" + algo + "\"";
    const std::string expired = members + R"(,"deadline_ms":0.000001)";
    const JsonValue cut =
        ParseJson(client.RoundTrip(Request(algo + "-cut", expired)));
    ASSERT_EQ(cut.Find("status")->string_value, "ok");
    EXPECT_EQ(ResponseCache(cut), "miss");
    EXPECT_FALSE(ResultOf(cut).Find("completed")->bool_value);
    EXPECT_EQ(ResultOf(cut).Find("stop_reason")->string_value, "deadline");

    const JsonValue full =
        ParseJson(client.RoundTrip(Request(algo + "-full", members)));
    EXPECT_EQ(ResponseCache(full), "miss");  // the cut run was not stored
    EXPECT_TRUE(ResultOf(full).Find("completed")->bool_value);

    const JsonValue served =
        ParseJson(client.RoundTrip(Request(algo + "-again", expired)));
    EXPECT_EQ(ResponseCache(served), "hit");
    EXPECT_TRUE(ResultOf(served).Find("completed")->bool_value);
  }
}

TEST(ResponseTier, ReportRequestsBypassTheTier) {
  TestDaemon daemon;
  Client client(daemon.path());
  for (const char* id : {"report-1", "report-2"}) {
    const JsonValue doc =
        ParseJson(client.RoundTrip(Request(id, R"("report":true)")));
    EXPECT_EQ(ResponseCache(doc), "off");
    EXPECT_NE(doc.Find("report"), nullptr);
  }
  // Neither report request stored its answer.
  EXPECT_EQ(ResponseCache(ParseJson(client.RoundTrip(Request("plain-1")))),
            "miss");
  EXPECT_EQ(ResponseCache(ParseJson(client.RoundTrip(Request("plain-2")))),
            "hit");
}

// Two identical requests in flight together both run (the tier has no
// in-flight map), both answer correctly, and the tier keeps one entry.
TEST(ResponseTier, ConcurrentIdenticalRequestsBothGetTheAnswer) {
  TestDaemon daemon;
  Client a(daemon.path());
  Client b(daemon.path());
  a.Send(Request("a", R"("refine":true)"));
  b.Send(Request("b", R"("refine":true)"));
  const std::string answer_a = a.Receive();
  const std::string answer_b = b.Receive();
  ASSERT_EQ(ParseJson(answer_a).Find("status")->string_value, "ok");
  ASSERT_EQ(ParseJson(answer_b).Find("status")->string_value, "ok");
  EXPECT_EQ(ParseJson(answer_a).Find("id")->string_value, "a");
  EXPECT_EQ(ParseJson(answer_b).Find("id")->string_value, "b");
  EXPECT_EQ(obs::DeterministicSection(answer_a),
            obs::DeterministicSection(answer_b));
  const std::string later = a.RoundTrip(Request("c", R"("refine":true)"));
  EXPECT_EQ(ResponseCache(ParseJson(later)), "hit");
  EXPECT_EQ(obs::DeterministicSection(later),
            obs::DeterministicSection(answer_a));
  const ServeRequest request =
      ParseServeRequest(ParseJson(Request("d", R"("refine":true)")));
  EXPECT_EQ(obs::DeterministicSection(answer_a),
            obs::DeterministicSection(RenderServeResponse(
                request, RunSession(request.session, nullptr), 0.0)));
  const JsonValue stats = ParseJson(a.RoundTrip(R"({"op":"stats"})"));
  EXPECT_EQ(stats.Find("cache")->Find("response")->Find("entries")
                ->number_value,
            1.0);
}

TEST(ResponseTier, StatsCountsMoveWithARepeat) {
  TestDaemon daemon;
  Client client(daemon.path());
  const auto tier = [&](const char* name) {
    const JsonValue stats = ParseJson(client.RoundTrip(R"({"op":"stats"})"));
    EXPECT_EQ(stats.Find("op")->string_value, "stats");
    EXPECT_EQ(stats.Find("pool")->Find("queued")->number_value, 0.0);
    EXPECT_EQ(stats.Find("pool")->Find("in_flight")->number_value, 0.0);
    return *stats.Find("cache")->Find(name);
  };
  const JsonValue before = tier("response");
  EXPECT_EQ(before.Find("capacity")->number_value, 256.0);
  EXPECT_EQ(before.Find("entries")->number_value, 0.0);
  client.RoundTrip(Request("1"));
  client.RoundTrip(Request("2"));
  const JsonValue after = tier("response");
  EXPECT_EQ(after.Find("entries")->number_value, 1.0);
  EXPECT_EQ(after.Find("hits")->number_value, 1.0);
  EXPECT_EQ(after.Find("misses")->number_value, 1.0);
  EXPECT_EQ(after.Find("evictions")->number_value, 0.0);
  EXPECT_EQ(tier("netlist").Find("misses")->number_value, 1.0);
}

TEST(ResponseTier, ErrorsAreNeverStored) {
  TestDaemon daemon;
  Client client(daemon.path());
  for (const char* id : {"1", "2"}) {
    const JsonValue doc =
        ParseJson(client.RoundTrip(Request(id, R"("weights":[1,1])")));
    EXPECT_EQ(doc.Find("status")->string_value, "error");
  }
  const JsonValue stats = ParseJson(client.RoundTrip(R"({"op":"stats"})"));
  const JsonValue& tier = *stats.Find("cache")->Find("response");
  EXPECT_EQ(tier.Find("entries")->number_value, 0.0);
  EXPECT_EQ(tier.Find("misses")->number_value, 2.0);
}

TEST(ResponseTier, DisabledTierRunsEveryRequest) {
  TestDaemon daemon(/*response_capacity=*/0);
  Client client(daemon.path());
  for (const char* id : {"1", "2"}) {
    const JsonValue doc = ParseJson(client.RoundTrip(Request(id)));
    EXPECT_EQ(ResponseCache(doc), "off");
    EXPECT_GT(doc.Find("wall")->Find("run_seconds")->number_value, 0.0);
  }
  const JsonValue stats = ParseJson(client.RoundTrip(R"({"op":"stats"})"));
  const JsonValue& tier = *stats.Find("cache")->Find("response");
  EXPECT_EQ(tier.Find("capacity")->number_value, 0.0);
  EXPECT_EQ(tier.Find("entries")->number_value, 0.0);
  EXPECT_EQ(tier.Find("misses")->number_value, 0.0);
}

}  // namespace
}  // namespace htp::serve
