#include "core/variation.h"

#include <algorithm>

#include "core/accuracy.h"
#include "sta/sta.h"
#include "util/rng.h"

namespace adq::core {

std::vector<ModeYield> TimingYield(const ImplementedDesign& design,
                                   const tech::CellLibrary& lib,
                                   const ExplorationResult& result,
                                   const VariationOptions& opt) {
  const netlist::Netlist& nl = design.op.nl;
  sta::TimingAnalyzer analyzer(nl, lib, design.loads);
  util::Rng rng(opt.seed);

  // Pre-draw the die population (shared across modes so yields are
  // comparable: the same dies are tested against every mode).
  std::vector<double> dvth(static_cast<std::size_t>(opt.samples));
  for (double& d : dvth) d = rng.Gaussian(0.0, opt.sigma_vth_v);

  std::vector<const ModeResult*> solved;
  std::vector<int> bitwidths;
  for (const ModeResult& m : result.modes)
    if (m.has_solution) {
      solved.push_back(&m);
      bitwidths.push_back(m.bitwidth);
    }
  const std::vector<netlist::CaseAnalysis> cas =
      ModeCaseAnalyses(design.op, bitwidths);

  std::vector<ModeYield> out;
  for (std::size_t k = 0; k < solved.size(); ++k) {
    const ModeResult& m = *solved[k];
    const netlist::CaseAnalysis& ca = cas[k];
    ModeYield y;
    y.bitwidth = m.bitwidth;
    y.worst_wns_ns = std::numeric_limits<double>::infinity();
    std::vector<double> scales(nl.num_instances(), 1.0);
    int pass = 0;
    for (const double shift : dvth) {
      // A global Vth0 shift moves every state's threshold equally;
      // recompute the per-state alpha-power scale at the shifted Vth.
      double scale_of_state[tech::kNumBiasStates];
      for (int s = 0; s < tech::kNumBiasStates; ++s) {
        const auto bias = static_cast<tech::BiasState>(s);
        const double vth = lib.Vth(bias) + shift;
        scale_of_state[s] =
            lib.delay_model().ScaleFactor(m.best.vdd, vth) *
            lib.threshold().bb.DrivePenalty(bias);
      }
      for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
        const int dom = design.partition.domain_of[i];
        scales[i] = scale_of_state[static_cast<int>(
            m.best.DomainState(dom))];
      }
      const sta::TimingReport rep =
          analyzer.AnalyzeWithScales(scales, design.clock_ns, &ca);
      if (rep.feasible()) ++pass;
      y.worst_wns_ns = std::min(y.worst_wns_ns, rep.wns_ns);
    }
    y.yield = static_cast<double>(pass) / opt.samples;
    out.push_back(y);
  }
  return out;
}

}  // namespace adq::core
