#!/usr/bin/env python3
"""End-to-end smoke test for the htp_serve daemon.

Starts the daemon on a throwaway AF_UNIX socket, sends the same
``"report": true`` partition request twice over one connection (a report
request always runs, so the repeat runs again rather than hitting the
response tier), and checks the contracts docs/server.md promises:

* both responses report status "ok" with matching echoed ids;
* a report explains its own run: the first request misses the netlist
  tier and the repeat hits it, and that is the only difference between
  their reports. Every deterministic counter but
  ``serve.cache_{hit,miss}_netlist`` is equal, and so are ``meta``,
  ``result``, every value histogram and the journal;
* the top-level ``deterministic`` sections of the two responses are
  byte-identical (cache state must never leak into results);
* the partition the daemon returns is byte-identical to what ``htp_cli
  --out`` writes for the same request and seed — the two binaries drive
  the same session pipeline and must never drift apart;
* a request line nested 300,000 levels deep gets a typed error response
  and the same daemon keeps answering pings on the same connection;
* the ECO warm-start path keeps the same parity (docs/incremental.md): a
  request carrying ``emit_warm_state`` returns the warm-start document, an
  empty-delta resume from it reports ``warm_source`` "state" with zero
  warm injections and returns the cold partition byte for byte, and the
  daemon's warm partition is byte-identical to what ``htp_cli
  --warm-start`` writes from the same state file;
* ping answers inline and shutdown terminates the daemon cleanly;
* the response tier (docs/server.md, "Response tier"): a daemon with the
  default tiers answers a repeated cold request, a repeated
  ``emit_warm_state`` request and a repeated ECO request (a delta plus
  ``warm_text``) with ``"response": "hit"``. Each hit's deterministic
  section is byte-identical to its miss's, and its partition to what
  ``htp_cli --out`` writes for the same request. The ``stats`` reply
  parses, and its response-tier counts move by the repeats;
* report parity (docs/server.md, "Observability"): a second daemon, its
  netlist tier off, runs four concurrent ``"report": true`` requests with
  distinct seeds. Each report's deterministic ``meta``, ``result``,
  histograms, journal and non-zero counters equal ``htp_cli --report``'s
  for the same request: a report holds its own request's telemetry alone.
  The daemon-only ``serve.requests`` and ``serve.errors`` read 0 in it,
  and the daemon's shutdown ``--report`` sums the four requests.

Usage (CI and ctest run exactly this):

    python3 scripts/serve_smoke.py --serve build/src/tools/htp_serve \\
        --cli build/src/tools/htp_cli

Stdlib only.
"""

import argparse
import json
import pathlib
import socket
import subprocess
import sys
import tempfile
import time

REQUEST = {
    "circuit": "c1355",
    "height": 3,
    "iterations": 1,
    "seed": 1,
}
CLI_ARGS = [
    "--circuit", "c1355", "--height", "3", "--iterations", "1", "--seed", "1",
]
# The report-parity requests: FLOW+ (two iterations, then FM) per seed.
PARITY_SEEDS = (3, 5, 7, 9)
PARITY_REQUEST = {
    "circuit": "c1355",
    "height": 3,
    "iterations": 2,
    "refine": True,
    "report": True,
}
PARITY_CLI_ARGS = [
    "--circuit", "c1355", "--height", "3", "--iterations", "2", "--refine",
]
CACHES_OFF = ["--cache-netlists", "0"]
# A size-neutral edit for the response-tier phase's ECO request.
DELTA_TEXT = "htp-delta v1\nremove-net 17\nadd-net 1 3 40\n"
TIERS = ("netlist", "response")
# The one place two runs of the same request may differ in their reports:
# whether the netlist tier already held the parse.
NETLIST_OUTCOMES = ("serve.cache_hit_netlist", "serve.cache_miss_netlist")


def recv_line(sock):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise RuntimeError(f"daemon closed the connection early: {buf!r}")
        buf += chunk
    return json.loads(buf)


def deterministic_slice(response):
    # Key order is part of the wire format, so a plain re-dump with
    # preserved order compares the section byte for byte.
    return json.dumps(response["deterministic"])


def start_daemon(serve, sock_path, extra, deadline):
    daemon = subprocess.Popen([serve, "--socket", str(sock_path), *extra])
    while not sock_path.exists():
        if time.monotonic() > deadline:
            daemon.kill()
            daemon.wait()
            raise RuntimeError("daemon never created its socket")
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon exited early with {daemon.returncode}")
        time.sleep(0.05)
    return daemon


def connect(sock_path, timeout):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(str(sock_path))
    return sock


def report_slice(report):
    """The parts of a report's deterministic section a request owns."""
    det = report["deterministic"]
    return {
        "meta": det["meta"],
        "result": det["result"],
        "counters": {k: v for k, v in det["counters"].items() if v},
        "histograms": det["histograms"],
        "journal": det["journal"],
    }


def check_same_work(first, second):
    """Two runs of one request report the same work: every deterministic
    part of their reports is equal but the netlist tier's outcome."""
    a, b = first["deterministic"], second["deterministic"]
    for key in ("meta", "result", "histograms", "journal"):
        assert a[key] == b[key], (
            f"the repeat's report {key} differs from the first run's:\n"
            f"  first:  {json.dumps(a[key])[:300]}...\n"
            f"  repeat: {json.dumps(b[key])[:300]}...")
    differ = {name: (a["counters"].get(name), b["counters"].get(name))
              for name in sorted(set(a["counters"]) | set(b["counters"]))
              if name not in NETLIST_OUTCOMES
              and a["counters"].get(name) != b["counters"].get(name)}
    assert not differ, f"counters differ (first, repeat): {differ}"
    assert a["counters"]["flow.metrics"] > 0, a["counters"]
    return a["counters"]


def round_trip(sock, request):
    sock.sendall(json.dumps(request).encode() + b"\n")
    response = recv_line(sock)
    assert response["status"] == "ok", response
    assert response["id"] == request["id"], response
    return response


def stats(sock, request_id):
    reply = round_trip(sock, {"op": "stats", "id": request_id})
    assert reply["op"] == "stats", reply
    for tier in TIERS:
        counts = reply["cache"][tier]
        assert sorted(counts) == sorted(
            ["entries", "capacity", "hits", "misses", "evictions"]), counts
    assert sorted(reply["pool"]) == ["in_flight", "queued"], reply
    return reply


def cli_partition(args, tmp, name, extra):
    out_file = tmp / f"{name}.part"
    subprocess.run([args.cli, *CLI_ARGS, *extra, "--out", str(out_file)],
                   check=True, stdout=subprocess.DEVNULL)
    return out_file.read_text()


def check_response_tier(args, tmp):
    sock_path = tmp / "tier.sock"
    daemon = start_daemon(args.serve, sock_path, ["--threads", "2"],
                          time.monotonic() + args.timeout)
    try:
        sock = connect(sock_path, args.timeout)
        before = stats(sock, "s0")
        assert before["cache"]["response"]["capacity"] == 256, before
        assert before["pool"] == {"queued": 0, "in_flight": 0}, before

        state_file = tmp / "tier.warm"
        delta_file = tmp / "tier.delta"
        delta_file.write_text(DELTA_TEXT)
        cases = [("cold", {}, []),
                 ("emit", {"emit_warm_state": True}, []),
                 ("eco", {"delta_text": DELTA_TEXT},
                  ["--warm-start", str(state_file),
                   "--delta", str(delta_file)])]
        for name, members, cli_extra in cases:
            if name == "eco":
                members["warm_text"] = state_file.read_text()
            miss = round_trip(sock, dict(REQUEST, id=name + "-1", **members))
            hit = round_trip(sock, dict(REQUEST, id=name + "-2", **members))
            assert miss["cache"]["response"] == "miss", miss["cache"]
            assert hit["cache"]["response"] == "hit", hit["cache"]
            assert hit["wall"] == {"run_seconds": 0, "queue_wait_ms": 0}, (
                hit["wall"])
            assert deterministic_slice(hit) == deterministic_slice(miss), (
                f"{name}: the hit's deterministic section differs from the "
                "miss's")
            partition = cli_partition(args, tmp, "tier-" + name, cli_extra)
            assert hit["deterministic"]["partition"] == partition, (
                f"{name}: the hit's partition differs from htp_cli --out")
            if name == "emit":
                state_file.write_text(hit["deterministic"]["warm_state"])
        print(f"response tier: {len(cases)} repeats (cold, emit_warm_state, "
              "ECO) hit, byte-identical to their misses and to htp_cli")

        after = stats(sock, "s1")
        tier = after["cache"]["response"]
        moved = {k: tier[k] - before["cache"]["response"][k]
                 for k in ("entries", "hits", "misses")}
        assert moved == {"entries": len(cases), "hits": len(cases),
                         "misses": len(cases)}, (before, after)
        assert after["pool"] == {"queued": 0, "in_flight": 0}, after
        print(f"stats: response tier entries/hits/misses moved by {moved}")

        sock.sendall(b'{"op":"shutdown"}\n')
        assert recv_line(sock)["status"] == "ok"
        sock.close()
        if daemon.wait(timeout=args.timeout) != 0:
            raise RuntimeError(
                f"daemon exited with {daemon.returncode} after shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def check_report_parity(args, tmp):
    sock_path = tmp / "parity.sock"
    shutdown_report = tmp / "parity.report.json"
    daemon = start_daemon(
        args.serve, sock_path,
        ["--threads", "2", *CACHES_OFF, "--report", str(shutdown_report)],
        time.monotonic() + args.timeout)
    try:
        # One connection per request, every request sent before any answer
        # is read, so the daemon runs them side by side.
        socks = []
        for seed in PARITY_SEEDS:
            sock = connect(sock_path, args.timeout)
            request = dict(PARITY_REQUEST, id=seed, seed=seed)
            sock.sendall(json.dumps(request).encode() + b"\n")
            socks.append(sock)
        reports = {}
        for seed, sock in zip(PARITY_SEEDS, socks):
            response = recv_line(sock)
            sock.close()
            assert response["status"] == "ok", response
            assert response["id"] == seed, response
            reports[seed] = response["report"]
        sock = connect(sock_path, args.timeout)
        sock.sendall(b'{"op":"shutdown"}\n')
        assert recv_line(sock)["status"] == "ok"
        sock.close()
        if daemon.wait(timeout=args.timeout) != 0:
            raise RuntimeError(
                f"daemon exited with {daemon.returncode} after shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    for seed in PARITY_SEEDS:
        counters = reports[seed]["deterministic"]["counters"]
        for name in ("serve.requests", "serve.errors"):
            assert counters.get(name) == 0, (
                f"seed {seed}: {name} = {counters.get(name)} in a request's "
                "report; the daemon counts it outside any request")
        cli_report = tmp / f"cli.{seed}.report.json"
        subprocess.run(
            [args.cli, *PARITY_CLI_ARGS, "--seed", str(seed),
             "--report", str(cli_report)],
            check=True, stdout=subprocess.DEVNULL)
        cli = json.loads(cli_report.read_text())
        assert "serve.requests" not in cli["deterministic"]["counters"], (
            "htp_cli must not intern the daemon's serve.* request counters")
        daemon_slice = report_slice(reports[seed])
        cli_slice = report_slice(cli)
        for key in daemon_slice:
            assert daemon_slice[key] == cli_slice[key], (
                f"seed {seed}: the daemon report's {key} differs from "
                f"htp_cli --report's:\n  daemon: "
                f"{json.dumps(daemon_slice[key])[:300]}...\n  cli:    "
                f"{json.dumps(cli_slice[key])[:300]}...")
    print(f"report parity: {len(PARITY_SEEDS)} concurrent daemon reports "
          "each equal htp_cli --report for the same request")

    # The shutdown report is the process scope: every request's totals,
    # and a journal of the daemon's own per-request records only.
    total = json.loads(shutdown_report.read_text())["deterministic"]
    for name in ("driver.runs", "flow.metrics", "fm.refines"):
        want = sum(reports[seed]["deterministic"]["counters"][name]
                   for seed in PARITY_SEEDS)
        assert total["counters"][name] == want, (
            f"shutdown report {name} = {total['counters'][name]}, want the "
            f"requests' sum {want}")
    assert total["counters"]["serve.requests"] == len(PARITY_SEEDS), total
    events = [record["event"] for record in total["journal"]]
    assert events == ["serve.request"] * len(PARITY_SEEDS), events
    print(f"shutdown report: sums the {len(PARITY_SEEDS)} requests "
          f"(driver.runs {total['counters']['driver.runs']}), journal holds "
          "only serve.request records")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve", required=True, help="htp_serve binary")
    parser.add_argument("--cli", required=True, help="htp_cli binary")
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="overall deadline in seconds (default 120)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        sock_path = tmp / "htp.sock"
        daemon = start_daemon(args.serve, sock_path, ["--threads", "1"],
                              time.monotonic() + args.timeout)
        try:
            sock = connect(sock_path, args.timeout)

            sock.sendall(json.dumps({"op": "ping", "id": "p"}).encode()
                         + b"\n")
            ping = recv_line(sock)
            assert ping["status"] == "ok" and ping["op"] == "ping", ping

            # The JSON parser recurses once per nesting level; a deep line
            # must fail as one bad request, never crash the daemon.
            sock.sendall(b"[" * 300000 + b"\n")
            deep = recv_line(sock)
            assert deep["status"] == "error", deep
            assert "nesting" in deep["error"], deep
            sock.sendall(json.dumps({"op": "ping", "id": "p2"}).encode()
                         + b"\n")
            ping = recv_line(sock)
            assert ping["status"] == "ok" and ping["id"] == "p2", ping
            print("nesting: a 300,000-level line got a typed error; the "
                  "daemon still answers")

            # A report request bypasses the response tier, so the warm
            # repeat runs again; only its parse comes from the netlist tier.
            cold, warm = (
                round_trip(sock, dict(REQUEST, id=request_id, report=True))
                for request_id in ("cold", "warm"))
            for response in (cold, warm):
                assert response["cache"] == {
                    "response": "off",
                    "netlist": "miss" if response is cold else "hit"}, (
                    response["cache"])
            counters = check_same_work(cold["report"], warm["report"])
            print("report: the repeat reports the same work as the first "
                  f"run ({counters['flow.metrics']} metrics); only the "
                  "netlist tier's outcome differs")

            cold_det = deterministic_slice(cold)
            warm_det = deterministic_slice(warm)
            assert cold_det == warm_det, (
                "deterministic sections differ between cold and warm:\n"
                f"  cold: {cold_det[:200]}...\n  warm: {warm_det[:200]}...")
            print("determinism: cold and warm deterministic sections are "
                  "byte-identical")

            cli_part = cli_partition(args, tmp, "cli", [])
            serve_partition = cold["deterministic"]["partition"]
            assert serve_partition == cli_part, (
                "daemon partition differs from htp_cli --out for the same "
                "request and seed")
            print(f"parity: daemon partition is byte-identical to htp_cli "
                  f"({len(cli_part)} bytes)")

            # ECO warm-start parity: emit the state, resume from it, and
            # check the daemon's warm run against htp_cli --warm-start.
            emitted = round_trip(
                sock, dict(REQUEST, id="emit", emit_warm_state=True))
            warm_state = emitted["deterministic"]["warm_state"]
            assert warm_state.startswith("htp-warm-start v1"), warm_state[:40]

            eco = round_trip(sock, dict(REQUEST, id="eco", warm_text=warm_state))
            eco_summary = eco["deterministic"]["result"]["eco"]
            assert eco_summary["warm_source"] == "state", eco_summary
            assert not eco_summary["full_rebuild"], eco_summary
            assert eco_summary["warm_injections"] == 0, eco_summary
            assert eco["deterministic"]["partition"] == serve_partition, (
                "empty-delta warm resume is not byte-identical to the cold "
                "partition")

            state_file = tmp / "state.warm"
            state_file.write_text(warm_state)
            warm_part = cli_partition(args, tmp, "cli_warm",
                                      ["--warm-start", str(state_file)])
            assert eco["deterministic"]["partition"] == warm_part, (
                "daemon warm partition differs from htp_cli --warm-start "
                "for the same state and seed")
            print("eco: daemon warm resume matches htp_cli --warm-start "
                  f"(reused {eco_summary['blocks_reused']} blocks, "
                  f"0 warm injections)")

            sock.sendall(b'{"op":"shutdown"}\n')
            bye = recv_line(sock)
            assert bye["status"] == "ok" and bye["op"] == "shutdown", bye
            sock.close()
            if daemon.wait(timeout=args.timeout) != 0:
                raise RuntimeError(
                    f"daemon exited with {daemon.returncode} after shutdown")
            print("shutdown: daemon exited cleanly")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        check_response_tier(args, tmp)
        check_report_parity(args, tmp)
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
