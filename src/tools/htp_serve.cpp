// htp_serve — partition-as-a-service daemon.
//
// Listens on an AF_UNIX stream socket for newline-delimited JSON partition
// requests (docs/server.md), schedules them on a shared thread pool, and
// answers each with a schema-versioned JSON response carrying the
// partition, cost, stop reason, and per-tier cache outcome. A bounded LRU
// cache spans the daemon's lifetime: a word-for-word repeat is answered
// from its stored response without running, and other requests skip
// parsing, CSR lowering, and metric convergence they share with earlier
// ones (the serve section of bench/regression_suite fails unless a warm
// repeat hits the metric tier once per cold miss and computes nothing).
//
//   htp_serve --socket /tmp/htp.sock --threads 2 &
//   printf '%s\n' '{"circuit":"c1355","height":3,"iterations":2,"id":1}'
//     | nc -U /tmp/htp.sock
//   printf '%s\n' '{"op":"shutdown"}' | nc -U /tmp/htp.sock
//
// Exit codes mirror htp_cli: 0 clean shutdown, 2 bad usage (including
// malformed numeric arguments), 1 runtime failure (cannot bind, etc.).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "server/server.hpp"
#include "tools/numeric_flags.hpp"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [options]\n"
               "  --socket PATH      AF_UNIX socket path to listen on "
               "(required;\n"
               "                     keep it short — sun_path caps at ~108 "
               "bytes)\n"
               "  --threads T        pool workers executing requests "
               "(default 0 =\n"
               "                     all hardware threads; at most 256)\n"
               "  --cache-netlists N netlist cache entries (default 8; 0 "
               "disables)\n"
               "  --cache-csr N      CSR-view cache entries (default 16; 0 "
               "disables)\n"
               "  --cache-metrics N  spreading-metric cache entries "
               "(default 256;\n"
               "                     0 disables)\n"
               "  --max-requests N   exit after N partition requests "
               "(default 0 =\n"
               "                     run until a shutdown request)\n"
               "  --report FILE      write an htp_serve RunReport at "
               "shutdown\n"
               "                     (serve.* counters, queue-wait "
               "histogram,\n"
               "                     per-request journal)\n",
               argv0);
}

using htp::tools::ParseUnsigned;

}  // namespace

int main(int argc, char** argv) {
  using namespace htp;
  serve::ServeOptions options;
  std::string report_file;

  try {
    for (int i = 1; i < argc; ++i) {
      auto arg = [&](const char* name) {
        if (std::strcmp(argv[i], name) != 0) return false;
        if (i + 1 >= argc) {
          Usage(argv[0]);
          std::exit(2);
        }
        return true;
      };
      if (arg("--socket")) options.socket_path = argv[++i];
      else if (arg("--threads"))
        options.threads = ParseUnsigned(argv[++i], tools::kMaxThreads);
      else if (arg("--cache-netlists"))
        options.cache.netlist_capacity = ParseUnsigned(argv[++i]);
      else if (arg("--cache-csr"))
        options.cache.csr_capacity = ParseUnsigned(argv[++i]);
      else if (arg("--cache-metrics"))
        options.cache.metric_capacity = ParseUnsigned(argv[++i]);
      else if (arg("--max-requests"))
        options.max_requests = ParseUnsigned(argv[++i]);
      else if (arg("--report")) report_file = argv[++i];
      else if (std::strcmp(argv[i], "--help") == 0) {
        Usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        Usage(argv[0]);
        return 2;
      }
    }
    if (options.socket_path.empty()) {
      std::fprintf(stderr, "error: --socket is required\n");
      Usage(argv[0]);
      return 2;
    }
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "error: malformed numeric argument\n");
    Usage(argv[0]);
    return 2;
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "error: numeric argument out of range\n");
    Usage(argv[0]);
    return 2;
  }

  obs::NameThisThread("main");
  try {
    std::printf("htp_serve: listening on %s\n", options.socket_path.c_str());
    std::fflush(stdout);  // let launch scripts see readiness promptly
    const serve::ServeStats stats = serve::RunServer(options);
    std::printf("htp_serve: served %zu requests (%zu errors)\n",
                stats.requests, stats.errors);
    if (!report_file.empty()) {
      obs::RunReportBuilder rb("htp_serve");
      rb.MetaString("socket", options.socket_path);
      rb.ResultNumber("requests", static_cast<double>(stats.requests));
      rb.ResultNumber("errors", static_cast<double>(stats.errors));
      rb.WallNumber("threads", static_cast<double>(options.threads));
      std::ofstream report(report_file);
      if (!report) throw Error("cannot open for writing: " + report_file);
      report << rb.Render(obs::TakeSnapshot(), obs::DrainEvents()) << '\n';
      std::printf("run report written to %s\n", report_file.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
