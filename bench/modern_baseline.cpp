// Modern-baseline comparison: how do the paper's 1997 algorithms fare
// against a multilevel (hMETIS-style) carver in the same Algorithm-3
// skeleton ("MLFM")?
//
// Context from the reproduction brief: multilevel methods made flat
// partitioners obsolete shortly after this paper. This bench quantifies
// that on our substrate — and tests whether FLOW's global spreading metric
// still buys anything once the carver itself is multilevel.
#include "bench_common.hpp"
#include "core/htp_flow.hpp"
#include "multilevel/mlfm.hpp"
#include "partition/htp_fm.hpp"
#include "partition/rfm.hpp"

int main(int argc, char** argv) {
  using namespace htp;
  const bench::Options options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("MODERN BASELINE",
                     "RFM (flat FM carve) vs MLFM (multilevel carve) vs "
                     "FLOW, all +FM-refined",
                     options);
  std::printf("%-8s %8s %8s %8s | %8s %8s %8s\n", "circuit", "RFM", "MLFM",
              "FLOW", "RFM+", "MLFM+", "FLOW+");

  for (const auto& [name, hg] : bench::LoadSuite(options)) {
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());

    RfmParams rp;
    rp.seed = options.seed;
    TreePartition rfm = RunRfm(hg, spec, rp);
    MlfmParams mp;
    mp.seed = options.seed;
    TreePartition mlfm = RunMlfm(hg, spec, mp);
    HtpFlowParams fp;
    fp.iterations = options.quick ? 1 : 2;
    fp.seed = options.seed;
    fp.threads = options.threads;
    fp.budget = bench::FlowBudget(options);
    HtpFlowResult flow = RunHtpFlow(hg, spec, fp);

    const double rfm_c = PartitionCost(rfm, spec);
    const double mlfm_c = PartitionCost(mlfm, spec);
    const double flow_c = flow.cost;
    HtpFmParams hp;
    hp.seed = options.seed;
    const double rfm_p = RefineHtpFm(rfm, spec, hp).final_cost;
    const double mlfm_p = RefineHtpFm(mlfm, spec, hp).final_cost;
    const double flow_p = RefineHtpFm(flow.partition, spec, hp).final_cost;

    std::printf("%-8s %8.0f %8.0f %8.0f | %8.0f %8.0f %8.0f\n", name.c_str(),
                rfm_c, mlfm_c, flow_c, rfm_p, mlfm_p, flow_p);
  }
  return 0;
}
