// The htp_serve daemon core: accept loop, request scheduling, shutdown.
//
// RunServer listens on an AF_UNIX stream socket, reads newline-delimited
// JSON requests (protocol.hpp) from each connection, and schedules every
// partition request as one task on the shared ThreadPool. A request runs
// serially inside its pool worker (the runtime's nested-parallelism guard
// makes its FLOW iterations and candidate scan serial there), so a busy
// daemon never oversubscribes the machine with pools-within-pools, and
// the wire carries no thread knobs. Responses are
// written back on the request's connection in *completion* order, tagged
// with the request's echoed id (docs/server.md documents the matching
// rule). "ping", "stats" and "shutdown" are answered inline on the reader
// thread; shutdown drains outstanding requests, then returns from
// RunServer.
//
// One ArtifactCache (cache.hpp) spans the daemon's lifetime. Before a
// partition request is queued, the reader thread looks it up in the
// response tier and answers a hit itself, never touching the pool; a miss
// runs on the pool, and its section is stored if no deadline cut it
// short. A run that shares its netlist source with an earlier request
// skips parsing through the netlist tier, and computes the rest.
//
// Observability: serve.requests / serve.errors counters, the
// serve.queue_wait time histogram (enqueue -> start of execution, for
// requests that ran), and a serve.request journal event per completed
// request, hits included.
#pragma once

#include <cstddef>
#include <string>

#include "server/cache.hpp"

namespace htp::serve {

struct ServeOptions {
  /// Filesystem path of the AF_UNIX listening socket. A stale socket file
  /// from a previous run is unlinked first. Keep it short: the kernel
  /// limit on sun_path is ~108 bytes.
  std::string socket_path;
  /// Pool workers executing partition requests (0 = all hardware
  /// threads). Each request occupies one worker for its whole run.
  std::size_t threads = 0;
  CacheConfig cache;
  /// Stop after serving this many partition requests (0 = run until a
  /// shutdown request). Lets tests and CI smokes bound the daemon's
  /// lifetime without racing a kill signal.
  std::size_t max_requests = 0;
};

/// What the daemon did, for the driver's shutdown report.
struct ServeStats {
  std::size_t requests = 0;  ///< partition requests completed (ok)
  std::size_t errors = 0;    ///< lines answered with status "error"
};

/// Runs the daemon until shutdown (or max_requests). Throws htp::Error
/// when the socket cannot be created or bound.
ServeStats RunServer(const ServeOptions& options);

}  // namespace htp::serve
