// The two batch workloads, flat_iscas and multilevel_rent: a closed loop of
// cold jobs, one at a time, through serve::RunSession with no cache (the
// htp_cli pipeline). The traced run calls the stages RunSession runs one by
// one, with spans around each public call, and must reproduce the untraced
// partitions byte for byte.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/cost.hpp"
#include "core/htp_flow.hpp"
#include "core/partition_io.hpp"
#include "graph/csr_view.hpp"
#include "multilevel/multilevel_flow.hpp"
#include "netlist/generators.hpp"
#include "netlist/hmetis_io.hpp"
#include "netlist/rng.hpp"
#include "partition/htp_fm.hpp"
#include "server/artifact_key.hpp"
#include "server/session.hpp"

namespace pb {
namespace {

using htp::Hypergraph;

/// One job of a workload's job list.
struct Job {
  std::string name;
  std::uint64_t seed = 1;  ///< the run's seed: FLOW's and FM's streams
  /// The input netlist (flat_iscas hands it to RunSession) and the
  /// checker's reference for reading partitions back.
  std::shared_ptr<const Hypergraph> netlist;
  /// multilevel_rent: the job's input, shared by the passes.
  std::shared_ptr<const std::string> hmetis_text;
  std::size_t pins = 0;
};

struct WorkloadShape {
  std::string name;
  bool multilevel = false;
  std::size_t threads = 4;
  std::size_t metric_threads = 1;
};

struct JobRun {
  double wall = 0.0;
  double cost = 0.0;  ///< post-FM Equation (1) cost
  std::string partition;
  // Traced runs only.
  double flow_run_s = 0.0;  ///< obs timer driver.run: RunHtpFlow's time
  double fm_final_s = 0.0;    ///< span around the final RefineHtpFm
  double fm_s = 0.0;          ///< final span + FM time inside multilevel
  double levels = 0.0;
  double coarsest_nodes = 0.0;
  htp::obs::Snapshot snapshot;
};

constexpr htp::Level kHeight = 4;  // the paper's full-binary height-4 tree
constexpr std::size_t kIterations = 4;

const std::vector<std::string> kIscasCircuits = {"c1355", "c2670", "c3540",
                                                 "c6288", "c7552"};
const std::vector<std::size_t> kRentGates = {50000, 100000, 200000};

Hypergraph RentCircuit(std::size_t gates, std::uint64_t seed) {
  htp::RentCircuitParams params;
  params.num_gates = gates;
  params.num_primary_inputs = gates / 25;
  params.seed = seed;
  return htp::RentCircuit(params);
}

/// Passes over the circuit list that fill about `seconds` on a 4-core
/// box. The work is fixed by the arguments, not by the measured speed, so
/// every cost the run reports is exact for a given seed.
std::size_t Passes(const WorkloadShape& shape, const Options& options) {
  if (options.smoke) return 1;
  const double per_pass = shape.multilevel ? 10.0 : 5.5;  // seconds
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(options.seconds / per_pass));
}

/// The job list: each pass runs every circuit once with a fresh seed drawn
/// from --seed. The circuits are fixed instances -- the ISCAS85-like suite
/// as the paper tables use it, and one Rent circuit per size -- so the
/// seed varies the algorithm's random choices, not the netlist; runs on
/// different seeds then differ by the code's behaviour, not by instance
/// luck.
std::vector<Job> MakeJobs(const WorkloadShape& shape, const Options& options,
                          Tracer* tracer) {
  std::vector<std::shared_ptr<const Hypergraph>> netlists;
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const std::string>> texts;
  if (!shape.multilevel) {
    for (const std::string& circuit : kIscasCircuits) {
      std::optional<ScopedSpan> span;
      if (tracer) span.emplace(*tracer, "netlist.load", 0, -1);
      netlists.push_back(
          std::make_shared<const Hypergraph>(htp::MakeIscas85Like(circuit)));
      names.push_back(circuit);
      if (options.smoke) break;
    }
  } else {
    const std::vector<std::size_t> sizes =
        options.smoke ? std::vector<std::size_t>{10000} : kRentGates;
    for (const std::size_t gates : sizes) {
      netlists.push_back(
          std::make_shared<const Hypergraph>(RentCircuit(gates, 1)));
      names.push_back("rent" + std::to_string(gates / 1000) + "k");
      texts.push_back(std::make_shared<const std::string>(
          htp::WriteHmetis(*netlists.back())));
    }
  }
  htp::Rng rng(options.seed);
  std::vector<Job> jobs;
  for (std::size_t pass = 0; pass < Passes(shape, options); ++pass) {
    for (std::size_t i = 0; i < netlists.size(); ++i) {
      Job job;
      job.name = names[i];
      job.seed = rng.next_u64() >> 12;  // JSON-safe, like a CLI --seed
      job.netlist = netlists[i];
      if (shape.multilevel) job.hmetis_text = texts[i];
      job.pins = job.netlist->num_pins();
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

htp::serve::SessionRequest MakeRequest(const Job& job,
                                       const WorkloadShape& shape) {
  htp::serve::SessionRequest request;
  request.algo = "flow";
  request.height = kHeight;
  request.iterations = kIterations;
  request.threads = shape.threads;
  request.metric_threads = shape.metric_threads;
  request.refine = true;
  request.multilevel = shape.multilevel;
  request.seed = job.seed;
  if (!shape.multilevel) request.netlist = job.netlist;
  return request;
}

/// One job as a user runs it: (parse the hMETIS text,) RunSession, write
/// the partition.
JobRun RunJob(const Job& job, const WorkloadShape& shape) {
  const Clock::time_point start = Clock::now();
  htp::serve::SessionRequest request = MakeRequest(job, shape);
  if (shape.multilevel)
    request.netlist =
        std::make_shared<const Hypergraph>(htp::ParseHmetis(*job.hmetis_text));
  const htp::serve::SessionResult result =
      htp::serve::RunSession(request, nullptr);
  JobRun run;
  run.partition = htp::WritePartitionText(*result.partition);
  run.wall = SecondsBetween(start, Clock::now());
  run.cost = result.refined ? result.fm.final_cost : result.cost;
  return run;
}

/// The same job, stage by stage as RunSession runs it, with a span around
/// every call into a layer. The metric provider builds each CsrView itself
/// and hands it in through FlowInjectionParams::csr, so CSR lowering and
/// Algorithm 2 get separate spans; neither changes any result.
JobRun RunJobTraced(const Job& job, const WorkloadShape& shape,
                    Tracer& tracer, std::int64_t id) {
  htp::obs::ResetAll();
  JobRun run;
  const Clock::time_point start = Clock::now();
  std::shared_ptr<const Hypergraph> hg;
  std::optional<htp::TreePartition> tp;  // refers to *hg
  htp::HierarchySpec spec;
  {
    ScopedSpan job_span(tracer, "job", 0, id);
    if (shape.multilevel) {
      ScopedSpan span(tracer, "netlist.load", job_span.id(), id);
      hg = std::make_shared<const Hypergraph>(
          htp::ParseHmetis(*job.hmetis_text));
    } else {
      hg = job.netlist;
    }
    (void)htp::serve::HashNetlist(*hg);  // RunSession always fingerprints
    spec = SessionSpec(hg->total_size(), kHeight);

    htp::HtpFlowParams params;
    params.iterations = kIterations;
    params.seed = job.seed;
    params.threads = shape.threads;
    params.metric_threads = shape.metric_threads;
    {
      ScopedSpan algo_span(tracer,
                           shape.multilevel ? "multilevel.run" : "core.flow",
                           job_span.id(), id);
      const std::uint64_t parent = algo_span.id();
      params.metric_compute = [&tracer, parent, id](
                                  const Hypergraph& g,
                                  const htp::HierarchySpec& s,
                                  const htp::FlowInjectionParams& p) {
        htp::FlowInjectionParams pp = p;
        {
          ScopedSpan csr_span(tracer, "graph.csr_build", parent, id);
          pp.csr = std::make_shared<const htp::CsrView>(g);
        }
        ScopedSpan metric_span(tracer, "core.metric", parent, id);
        return htp::ComputeSpreadingMetric(g, s, pp);
      };
      if (shape.multilevel) {
        htp::MultilevelParams ml;
        ml.flow = params;
        htp::MultilevelResult result = htp::RunMultilevelFlow(*hg, spec, ml);
        run.levels = static_cast<double>(result.coarsen_levels);
        run.coarsest_nodes = static_cast<double>(result.coarsest_nodes);
        tp.emplace(std::move(result.partition));
      } else {
        tp.emplace(htp::RunHtpFlow(*hg, spec, params).partition);
      }
    }
    {
      ScopedSpan span(tracer, "core.check", job_span.id(), id);
      (void)htp::PartitionCost(*tp, spec);  // RunSession's pre-FM cost
    }
    const double fm_before =
        TimerSeconds(htp::obs::TakeSnapshot(), "fm.refine");
    htp::HtpFmStats fm;
    {
      ScopedSpan span(tracer, "partition.fm", job_span.id(), id);
      const double t0 = tracer.Now();
      htp::HtpFmParams fm_params;
      fm_params.seed = job.seed;
      fm = htp::RefineHtpFm(*tp, spec, fm_params);
      run.fm_final_s = tracer.Now() - t0;
    }
    // The span, plus FM time the library spent before it (per-level
    // refinement inside multilevel), which only the obs timer sees.
    run.fm_s = run.fm_final_s + fm_before;
    {
      ScopedSpan span(tracer, "core.check", job_span.id(), id);
      htp::RequireValidPartition(*tp, spec);
    }
    {
      ScopedSpan span(tracer, "core.io", job_span.id(), id);
      run.partition = htp::WritePartitionText(*tp);
    }
    run.cost = fm.final_cost;
  }
  run.wall = SecondsBetween(start, Clock::now());
  run.snapshot = htp::obs::TakeSnapshot();
  run.flow_run_s = TimerSeconds(run.snapshot, "driver.run");
  return run;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
};

/// Checks one job's output; `expected` is the same job's output from an
/// earlier run, which must match byte for byte.
void CheckJob(const Job& job, const JobRun& run, const JobRun* expected,
              Tally& tally, Tracer* tracer = nullptr, std::int64_t id = -1) {
  const std::string problem = CheckPartition(
      *job.netlist, SessionSpec(job.netlist->total_size(), kHeight),
      run.partition, run.cost, tracer, id);
  if (!problem.empty()) tally.Fail(job.name + ": " + problem);
  else if (expected && (expected->partition != run.partition ||
                        expected->cost != run.cost))
    tally.Fail(job.name + ": traced run does not reproduce the untraced one");
}

WorkloadShape Shape(const std::string& workload) {
  WorkloadShape shape;
  shape.name = workload;
  shape.multilevel = workload == "multilevel_rent";
  return shape;
}

std::string Fmt(const char* format, double a) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, a);
  return buf;
}

/// Set-up, timed: build the netlists and the job list (the hMETIS texts
/// included) and warm the pipeline with one small job. Repeated; the
/// median is setup_s.
std::vector<Job> SetUp(const WorkloadShape& shape, const Options& options,
                       std::vector<double>& setup_times,
                       Tracer* tracer = nullptr) {
  std::vector<Job> jobs;
  const int repeats = options.smoke ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    jobs = MakeJobs(shape, options, r == 0 ? tracer : nullptr);
    Job warm;
    warm.name = "warm-up";
    warm.netlist = std::make_shared<const Hypergraph>(
        shape.multilevel ? RentCircuit(5000, 1) : htp::MakeIscas85Like("c1355"));
    if (shape.multilevel)
      warm.hmetis_text =
          std::make_shared<const std::string>(htp::WriteHmetis(*warm.netlist));
    (void)RunJob(warm, shape);
    setup_times.push_back(SecondsBetween(start, Clock::now()));
  }
  return jobs;
}

int RunBatchUntraced(const WorkloadShape& shape, const Options& options) {
  std::vector<double> setup_times;
  const std::vector<Job> jobs = SetUp(shape, options, setup_times);

  Tally tally;
  std::vector<double> walls, costs;
  std::map<std::string, std::vector<double>> walls_by_circuit;
  std::size_t pins = 0;
  for (const Job& job : jobs) {
    ++tally.attempted;
    JobRun run;
    try {
      run = RunJob(job, shape);
    } catch (const std::exception& e) {
      tally.Fail(job.name + ": " + e.what());
      continue;
    }
    CheckJob(job, run, nullptr, tally);
    walls.push_back(run.wall);
    walls_by_circuit[job.name].push_back(run.wall * 1e3);
    costs.push_back(run.cost);
    pins += job.pins;
  }

  double job_wall = 0.0;
  for (double w : walls) job_wall += w;
  MetricSheet sheet;
  sheet.Note("jobs: " + std::to_string(jobs.size()) + " (" +
             std::to_string(Passes(shape, options)) +
             " passes over the circuits), threads: " +
             std::to_string(shape.threads));
  // The kinds of a batch workload are its circuits: each one's median job
  // time, then their geometric mean, so every circuit weighs alike.
  std::vector<double> kind_p50;
  for (const auto& [circuit, ms] : walls_by_circuit) {
    kind_p50.push_back(Quantile(ms, 0.5));
    sheet.Note("circuit " + circuit + ": p50 " + Fmt("%.1f", kind_p50.back()) +
               " ms over " + std::to_string(ms.size()) + " jobs");
  }
  sheet.Note("metric failed_share = " +
             Fmt("%.6g", tally.attempted
                             ? static_cast<double>(tally.failed) /
                                   static_cast<double>(tally.attempted)
                             : 0.0) +
             " fraction (n=" + std::to_string(tally.attempted) + ")");
  sheet.Note("metric cold_p50_ms = " +
             Fmt("%.6g", Quantile(walls, 0.5) * 1e3) + " ms (n=" +
             std::to_string(walls.size()) + "; every batch job is cold)");
  sheet.Note("metric latency_p90_ms, repeat_p50_ms, eco_p50_ms: serve_eco "
             "only (a batch run has too few jobs for a p90)");
  sheet.Add("setup_s", Quantile(setup_times, 0.5), "s", setup_times.size());
  sheet.Add("pins_per_s", static_cast<double>(pins) / job_wall, "pins/s",
            walls.size());
  sheet.Add("throughput_rps", static_cast<double>(walls.size()) / job_wall,
            "req/s", walls.size());
  sheet.Add("cost_geomean", GeoMean(costs), "cost", costs.size());
  sheet.Add("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  sheet.Add("latency_kind_p50_ms", GeoMean(kind_p50), "ms", walls.size());
  sheet.Print(shape.name, false, tally.attempted, tally.failed);
  return tally.failed == 0 ? 0 : 1;
}

int RunBatchTraced(const WorkloadShape& shape, const Options& options) {
  std::vector<double> setup_times;
  Tracer tracer;
  std::vector<Job> jobs = SetUp(shape, options, setup_times, &tracer);
  Tally tally;

  // Untraced pass: the reference costs, the wall to compare against, and
  // the CPU utilisation of the pipeline as users run it.
  std::vector<JobRun> plain;
  double plain_wall = 0.0, plain_cpu = 0.0;
  for (const Job& job : jobs) {
    ++tally.attempted;
    const double cpu0 = ProcessCpuSeconds();
    plain.push_back(RunJob(job, shape));
    plain_cpu += ProcessCpuSeconds() - cpu0;
    plain_wall += plain.back().wall;
    CheckJob(job, plain.back(), nullptr, tally);
  }
  const double cpu_util =
      plain_cpu / (plain_wall * static_cast<double>(shape.threads));

  // Traced pass over the same job list.
  std::vector<JobRun> traced;
  double traced_wall = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ++tally.attempted;
    const auto id = static_cast<std::int64_t>(j);  // span job ids
    traced.push_back(RunJobTraced(jobs[j], shape, tracer, id));
    traced_wall += traced.back().wall;
    CheckJob(jobs[j], traced.back(), &plain[j], tally, &tracer, id);
  }
  const std::vector<Tracer::Span> spans = tracer.Snapshot();

  // Per-job layer table (alg2_share: Algorithm 2's share of the
  // Algorithm-1 iteration time, from the obs timers), then the totals.
  MetricSheet sheet;
  double build_s = 0.0, fm_s = 0.0, levels = 0.0, coarsest = 0.0;
  std::uint64_t pops = 0, dcalls = 0, injections = 0, rounds = 0;
  std::uint64_t carve_calls = 0, in_window = 0, applied = 0, kept = 0;
  double coarsen_s = 0.0, project_s = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobRun& run = traced[j];
    std::vector<Tracer::Span> mine;
    for (const Tracer::Span& s : spans)
      if (s.job == static_cast<std::int64_t>(j)) mine.push_back(s);
    const double metric_wall =
        CoveredSeconds(mine, {"core.metric", "graph.csr_build"});
    const double job_build = run.flow_run_s - metric_wall;
    build_s += job_build;
    fm_s += run.fm_s;
    levels += run.levels;
    coarsest += run.coarsest_nodes;
    const htp::obs::Snapshot& snap = run.snapshot;
    pops += Counter(snap, "dijkstra.pops");
    dcalls += Counter(snap, "dijkstra.calls");
    injections += Counter(snap, "flow.injections");
    rounds += Counter(snap, "flow.rounds");
    carve_calls += Counter(snap, "carve.find_cut.calls");
    in_window += Counter(snap, "carve.find_cut.in_window");
    applied += Counter(snap, "fm.moves_applied");
    kept += Counter(snap, "fm.moves_kept");
    coarsen_s += TimerSeconds(snap, "coarsen.pass");
    project_s += TimerSeconds(snap, "uncoarsen.project");
    char line[512];
    std::snprintf(
        line, sizeof line,
        "job %-8s pins=%-8zu wall=%.3fs load=%.3fs metric_wall=%.3fs "
        "metric_busy=%.3fs build_self=%.3fs ml_pipeline=%.3fs "
        "coarsen=%.3fs project=%.3fs fm_total=%.3fs fm_final=%.3fs "
        "alg2_share=%.3f cost=%.0f",
        jobs[j].name.c_str(), jobs[j].pins, run.wall,
        BusySeconds(mine, "netlist.load"), metric_wall,
        BusySeconds(mine, "core.metric"), job_build,
        BusySeconds(mine, "multilevel.run"),
        TimerSeconds(snap, "coarsen.pass"),
        TimerSeconds(snap, "uncoarsen.project"), run.fm_s, run.fm_final_s,
        TimerSeconds(snap, "flow.compute_metric") /
            TimerSeconds(snap, "driver.iteration"),
        run.cost);
    sheet.Note(line);
  }
  const std::string dir = options.work_dir;
  tracer.WriteJsonLines(dir + "/spans-" + shape.name + ".jsonl");
  sheet.Note("spans written to " + dir + "/spans-" + shape.name + ".jsonl");

  const std::size_t n = jobs.size();
  std::size_t csr_builds = 0, metric_calls = 0, io_calls = 0, check_calls = 0;
  const double csr_s = BusySeconds(spans, "graph.csr_build", &csr_builds);
  const double metric_s = BusySeconds(spans, "core.metric", &metric_calls);
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  std::size_t loads = 0;
  const double load_s = BusySeconds(spans, "netlist.load", &loads);
  sheet.Add("netlist.load_s", load_s, "s", loads);
  sheet.Add("graph.csr_build_s", csr_s, "s", csr_builds);
  sheet.Add("graph.csr_builds", static_cast<double>(csr_builds), "count", n);
  sheet.Add("graph.dijkstra_pops", static_cast<double>(pops), "count", n);
  sheet.Add("graph.dijkstra_calls", static_cast<double>(dcalls), "count", n);
  sheet.Add("core.metric_s", metric_s, "s", metric_calls);
  sheet.Add("core.metric_calls", static_cast<double>(metric_calls), "count",
            n);
  sheet.Add("core.injections", static_cast<double>(injections), "count", n);
  sheet.Add("core.rounds", static_cast<double>(rounds), "count", n);
  sheet.Add("core.build_s", build_s, "s", n);
  sheet.Add("core.carve_in_window_ratio", ratio(in_window, carve_calls),
            "fraction", carve_calls);
  const double check_s = BusySeconds(spans, "core.check", &check_calls);
  sheet.Add("core.check_s", check_s, "s", check_calls);
  const double io_s = BusySeconds(spans, "core.io", &io_calls);
  sheet.Add("core.io_s", io_s, "s", io_calls);
  sheet.Add("partition.fm_s", fm_s, "s", n);
  sheet.Add("partition.fm_moves", static_cast<double>(applied), "count", n);
  sheet.Add("partition.fm_kept_ratio", ratio(kept, applied), "fraction",
            applied);
  if (shape.multilevel) {
    sheet.Add("multilevel.coarsen_s", coarsen_s, "s", n);
    sheet.Add("multilevel.project_s", project_s, "s", n);
    sheet.Add("multilevel.levels", levels / static_cast<double>(n), "count",
              n);
    sheet.Add("multilevel.coarsest_nodes", coarsest / static_cast<double>(n),
              "count", n);
  }
  sheet.Add("runtime.cpu_util", cpu_util, "fraction", n);
  sheet.Add("trace.overhead_share", (traced_wall - plain_wall) / plain_wall,
            "fraction", n);
  sheet.Print(shape.name, true, tally.attempted, tally.failed);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int RunFlatIscas(const Options& options) {
  const WorkloadShape shape = Shape("flat_iscas");
  return options.trace ? RunBatchTraced(shape, options)
                       : RunBatchUntraced(shape, options);
}

int RunMultilevelRent(const Options& options) {
  const WorkloadShape shape = Shape("multilevel_rent");
  return options.trace ? RunBatchTraced(shape, options)
                       : RunBatchUntraced(shape, options);
}

/// Informational thread sweep over flat_iscas's job list: threads 1, 2, 4,
/// then metric_threads 1, 2, 4 at threads = 1. Not a gated workload.
int RunThreadSweep(const Options& options) {
  Options one_pass = options;
  one_pass.seconds = 0.0;  // one pass over the five circuits
  const std::vector<Job> jobs = MakeJobs(Shape("flat_iscas"), one_pass, nullptr);
  struct Point {
    std::size_t threads, metric_threads;
  };
  const std::vector<Point> points = {{1, 1}, {2, 1}, {4, 1}, {1, 2}, {1, 4}};
  double serial = 0.0;
  Tally tally;
  std::printf("thread sweep over flat_iscas's job list (seed %llu)\n",
              static_cast<unsigned long long>(options.seed));
  std::printf("%-8s %-15s %10s %10s\n", "threads", "metric_threads",
              "wall(s)", "speedup");
  for (const Point& p : points) {
    WorkloadShape shape = Shape("flat_iscas");
    shape.threads = p.threads;
    shape.metric_threads = p.metric_threads;
    double wall = 0.0;
    for (const Job& job : jobs) {
      ++tally.attempted;
      const JobRun run = RunJob(job, shape);
      CheckJob(job, run, nullptr, tally);
      wall += run.wall;
    }
    if (serial == 0.0) serial = wall;
    std::printf("%-8zu %-15zu %10.3f %10.2f\n", p.threads, p.metric_threads,
                wall, serial / wall);
  }
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace pb
