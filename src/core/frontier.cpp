#include "core/frontier.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <string>

#include "core/band_optimizer.h"
#include "obs/obs.h"

namespace adq::core {

ExplorationResult FrontierResult::ToExplorationResult() const {
  ExplorationResult out;
  for (const FrontierModeResult& m : modes) {
    out.modes.push_back(m);  // the shared ModeResult part
    if (m.has_solution) ++out.stats.feasible;
  }
  out.stats.sta_runs = stats.sta_runs;
  out.stats.store_hits = stats.store_hits;
  out.stats.static_mode_prunes = stats.static_mode_prunes;
  return out;
}

namespace {

/// A search node: the subtree of masks m with mask ⊆ m ⊆ mask |
/// tail[depth] at VDD index vi. Domains perm[0..depth-1] are decided
/// (their FBB bits are mask's set bits); the rest are free.
struct Node {
  std::size_t vi = 0;
  int depth = 0;
  tech::DomainMask mask = 0;
  double lb = 0.0;  ///< dyn(vi) + leak(mask): sound subtree bound
};

/// Min-heap priority (lb, vi, mask, depth): a strict total order —
/// the same (vi, mask) can only repeat at a different depth — so the
/// pop sequence is deterministic for deterministic contents.
struct NodeWorse {
  bool operator()(const Node& a, const Node& b) const {
    if (a.lb != b.lb) return a.lb > b.lb;
    if (a.vi != b.vi) return a.vi > b.vi;
    if (a.mask != b.mask) return a.mask > b.mask;
    return a.depth > b.depth;
  }
};

/// Incumbent: the lex-min (power, vi, mask) feasible point seen —
/// exactly the point the exhaustive merge's ascending (vi, mi) fold
/// with a strict `<` power test selects.
struct Incumbent {
  bool valid = false;
  std::size_t vi = 0;
  tech::DomainMask mask = 0;
  double wns_ns = 0.0;
  double dyn_w = 0.0;
  double leak_w = 0.0;

  double power() const { return dyn_w + leak_w; }
};

bool BetterThanIncumbent(std::size_t vi, tech::DomainMask mask,
                         double power, const Incumbent& inc) {
  if (!inc.valid) return true;
  const double ip = inc.power();
  if (power != ip) return power < ip;
  if (vi != inc.vi) return vi < inc.vi;
  return mask < inc.mask;
}

/// A node may be discarded iff nothing in its subtree can replace the
/// incumbent: every subtree point has power >= lb and, among decided
/// lattices, (vi, m >= mask); at equal power the exhaustive
/// tie-break keeps the lex-smaller point, so equality only survives
/// when the subtree's lex floor still beats the incumbent.
bool Prunable(const Node& n, const Incumbent& inc) {
  if (!inc.valid) return false;
  const double ip = inc.power();
  if (n.lb != ip) return n.lb > ip;
  if (n.vi != inc.vi) return n.vi >= inc.vi;
  return n.mask >= inc.mask;
}

void RecordFrontierMetrics(const FrontierResult& r, double seconds) {
  if (!obs::MetricsEnabled()) return;
  obs::GetCounter("frontier.runs").Add(1);
  obs::GetCounter("frontier.nodes_expanded").Add(r.stats.nodes_expanded);
  obs::GetCounter("frontier.nodes_pruned_bound")
      .Add(r.stats.nodes_pruned_bound);
  obs::GetCounter("frontier.nodes_pruned_infeasible")
      .Add(r.stats.nodes_pruned_infeasible);
  obs::GetCounter("frontier.nodes_closed").Add(r.stats.nodes_closed);
  obs::GetCounter("frontier.sta_runs").Add(r.stats.sta_runs);
  obs::GetCounter("frontier.store_hits").Add(r.stats.store_hits);
  obs::GetCounter("frontier.transfer_hits").Add(r.stats.transfer_hits);
  obs::GetCounter("frontier.static_mode_prunes")
      .Add(r.stats.static_mode_prunes);
  obs::GetCounter("frontier.waves").Add(r.stats.waves);
  obs::GetCounter("frontier.certified_modes").Add(r.stats.certified_modes);
  obs::GetGauge("frontier.wall_s").Add(seconds);
  if (seconds > 0.0)
    obs::GetGauge("frontier.nodes_per_sec")
        .Set(static_cast<double>(r.stats.nodes_expanded) / seconds);
}

}  // namespace

FrontierResult FrontierExplore(const ImplementedDesign& design,
                               const tech::CellLibrary& lib,
                               const FrontierOptions& opt) {
  ADQ_TRACE_SCOPE("frontier");
  const auto obs_t0 = std::chrono::steady_clock::now();
  const int ndom = design.num_domains();
  const std::vector<int>& domain_of = design.domain_of();
  ADQ_CHECK(!opt.vdds.empty());
  const ExplorePlan plan =
      PlanExploration(design, lib, opt, ExploreEngine::kFrontier);
  const std::vector<int>& bitwidths = plan.bitwidths;
  VerdictEvaluator eval(design, lib, opt, ExploreEngine::kFrontier);

  // Branch order: most accuracy-critical domains first (they decide
  // feasibility highest in the tree). The criticality probe is
  // thread-count independent, so the permutation — and with it the
  // whole search — is too.
  std::vector<int> perm(static_cast<std::size_t>(ndom));
  std::iota(perm.begin(), perm.end(), 0);
  if (opt.criticality_slack_window_ns > 0.0 && !bitwidths.empty()) {
    ADQ_TRACE_SCOPE("frontier.criticality");
    const std::vector<double> crit = AccuracyCriticality(
        design.op, lib, design.loads, design.clock_ns, bitwidths,
        opt.criticality_slack_window_ns, eval.num_threads());
    std::vector<double> dom_crit(
        static_cast<std::size_t>(ndom),
        std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < crit.size(); ++i) {
      double& slot = dom_crit[static_cast<std::size_t>(domain_of[i])];
      slot = std::min(slot, crit[i]);
    }
    std::stable_sort(perm.begin(), perm.end(), [&](int a, int b) {
      const double ca_ = dom_crit[static_cast<std::size_t>(a)];
      const double cb = dom_crit[static_cast<std::size_t>(b)];
      if (ca_ != cb) return ca_ < cb;
      return a < b;
    });
  }
  // tail[k] = undecided domains at depth k (OR of perm[k..]).
  std::vector<tech::DomainMask> tail(static_cast<std::size_t>(ndom) + 1, 0);
  for (int k = ndom - 1; k >= 0; --k)
    tail[static_cast<std::size_t>(k)] =
        tail[static_cast<std::size_t>(k) + 1] |
        tech::MaskBit(perm[static_cast<std::size_t>(k)]);

  const std::size_t nv = opt.vdds.size();
  const std::size_t wave_width =
      static_cast<std::size_t>(std::max(1, opt.wave_width));

  FrontierResult result;
  // Infeasibility is monotone in bitwidth (more active bits only add
  // paths): verdicts proved infeasible at any smaller bitwidth carry
  // forward as proofs, never re-run.
  std::set<LatticePoint> carried_infeasible;

  for (std::size_t bi = 0; bi < bitwidths.size(); ++bi) {
    const int bw = bitwidths[bi];
    const netlist::CaseAnalysis& bca = plan.case_analysis[bi];
    ADQ_TRACE_SCOPE2("frontier.bitwidth", std::to_string(bw));

    std::vector<double> dyn(nv);
    for (std::size_t vi = 0; vi < nv; ++vi)
      dyn[vi] = power::PowerModel::DynamicW(plan.energy_fj[bi], opt.vdds[vi],
                                            design.fclk_ghz());

    std::map<LatticePoint, PointVerdict> verdicts;
    Incumbent inc;
    FrontierModeResult mode;
    mode.bitwidth = bw;
    mode.switched_energy_fj = plan.energy_fj[bi];

    std::priority_queue<Node, std::vector<Node>, NodeWorse> open;
    for (std::size_t vi = 0; vi < nv; ++vi)
      open.push(Node{vi, 0, 0,
                     dyn[vi] + MaskLeakageW(plan.pmodel, plan.dom_weight,
                                            ndom, opt.vdds[vi], 0)});

    bool budget_hit = false;
    std::vector<Node> wave;
    std::vector<LatticePoint> resolved;  // this wave, first-demand order
    std::vector<LatticePoint> need;      // subset the evaluator serves
    std::vector<PointVerdict> fresh;     // aligned with need
    while (!open.empty()) {
      if (opt.node_budget > 0 &&
          mode.nodes_expanded >= opt.node_budget) {
        budget_hit = true;
        break;
      }

      // Wave selection (serial, deterministic): best nodes by
      // (lb, vi, mask, depth), bound-pruning stale entries on pop.
      wave.clear();
      std::size_t cap = wave_width;
      if (opt.node_budget > 0)
        cap = std::min(cap, static_cast<std::size_t>(
                                opt.node_budget - mode.nodes_expanded));
      while (!open.empty() && wave.size() < cap) {
        const Node n = open.top();
        open.pop();
        if (Prunable(n, inc)) {
          ++result.stats.nodes_pruned_bound;
          continue;
        }
        wave.push_back(n);
      }
      if (wave.empty()) continue;
      ++result.stats.waves;

      // Verdict demands: each node needs its minimal and maximal
      // mask. Known verdicts and bitwidth-carried proofs resolve
      // serially here; the rest go to the shared verdict path.
      resolved.clear();
      need.clear();
      auto demand = [&](std::size_t vi, tech::DomainMask m) {
        const LatticePoint key{vi, m};
        if (verdicts.count(key) != 0) return;
        if (std::find(resolved.begin(), resolved.end(), key) !=
            resolved.end())
          return;
        resolved.push_back(key);
        if (carried_infeasible.count(key) != 0) {
          verdicts.emplace(key, PointVerdict{});
          ++result.stats.transfer_hits;
          return;
        }
        need.push_back(key);
      };
      for (const Node& n : wave) {
        demand(n.vi, n.mask | tail[static_cast<std::size_t>(n.depth)]);
        demand(n.vi, n.mask);
      }
      eval.Evaluate(bw, bca, need, &fresh);
      for (std::size_t i = 0; i < need.size(); ++i) {
        verdicts.emplace(need[i], fresh[i]);
        if (fresh[i].from_store)
          ++result.stats.store_hits;
        else
          ++result.stats.sta_runs;
      }

      // Candidate fold: every feasible verdict resolved this wave is
      // a real lattice point; fold them in demand order — which is
      // independent of where each verdict came from (STA, store or
      // carry), so warm and cold runs walk identical incumbents.
      for (const LatticePoint& key : resolved) {
        const PointVerdict& v = verdicts.find(key)->second;
        if (!v.feasible) continue;
        const double leak = MaskLeakageW(plan.pmodel, plan.dom_weight, ndom,
                                         opt.vdds[key.vi], key.mask);
        if (BetterThanIncumbent(key.vi, key.mask, dyn[key.vi] + leak,
                                inc)) {
          inc.valid = true;
          inc.vi = key.vi;
          inc.mask = key.mask;
          inc.wns_ns = v.wns_ns;
          inc.dyn_w = dyn[key.vi];
          inc.leak_w = leak;
        }
      }

      // Expansion fold (serial, wave order).
      for (const Node& n : wave) {
        if (Prunable(n, inc)) {
          ++result.stats.nodes_pruned_bound;
          continue;
        }
        const tech::DomainMask maxmask =
            n.mask | tail[static_cast<std::size_t>(n.depth)];
        const PointVerdict& vmax = verdicts.find({n.vi, maxmask})->second;
        if (!vmax.feasible) {
          // Antitone feasibility: the subtree's fastest point fails,
          // so every point in it does.
          ++result.stats.nodes_pruned_infeasible;
          continue;
        }
        const PointVerdict& vmin = verdicts.find({n.vi, n.mask})->second;
        if (vmin.feasible) {
          // Monotone leakage: the subtree optimum is exactly the
          // minimal mask — already folded as a candidate above.
          ++result.stats.nodes_closed;
          continue;
        }
        ++mode.nodes_expanded;
        ++result.stats.nodes_expanded;
        const int d = perm[static_cast<std::size_t>(n.depth)];
        const tech::DomainMask m1 = n.mask | tech::MaskBit(d);
        const Node child1{n.vi, n.depth + 1, m1,
                          dyn[n.vi] + MaskLeakageW(plan.pmodel,
                                                   plan.dom_weight, ndom,
                                                   opt.vdds[n.vi], m1)};
        if (Prunable(child1, inc))
          ++result.stats.nodes_pruned_bound;
        else
          open.push(child1);
        const Node child0{n.vi, n.depth + 1, n.mask, n.lb};
        if (Prunable(child0, inc))
          ++result.stats.nodes_pruned_bound;
        else
          open.push(child0);
      }
    }

    mode.certified = !budget_hit;
    if (inc.valid) {
      mode.has_solution = true;
      mode.best.bitwidth = bw;
      mode.best.vdd = opt.vdds[inc.vi];
      mode.best.mask = inc.mask;
      mode.best.feasible = true;
      mode.best.wns_ns = inc.wns_ns;
      mode.best.power.dynamic_w = inc.dyn_w;
      mode.best.power.leakage_w = inc.leak_w;
    }
    if (budget_hit) {
      // open is a min-heap on lb: its top is the smallest bound still
      // unresolved, i.e. the proved floor of the true optimum.
      const double floor_lb =
          open.empty() ? -std::numeric_limits<double>::infinity()
                       : open.top().lb;
      mode.gap_w = inc.valid
                       ? std::max(0.0, inc.power() - floor_lb)
                       : std::numeric_limits<double>::infinity();
    } else {
      ++result.stats.certified_modes;
    }
    result.modes.push_back(mode);

    for (const auto& [key, v] : verdicts)
      if (!v.feasible) carried_infeasible.insert(key);
  }

  // Quality verdicts and static placeholders: a mode decided by its
  // proved bound alone is certified — the proof is the certificate.
  plan.FinishModes(result.modes);
  for (FrontierModeResult& m : result.modes)
    if (m.statically_pruned) m.certified = true;
  result.stats.static_mode_prunes = static_cast<long>(plan.pruned.size());
  result.stats.certified_modes += static_cast<int>(plan.pruned.size());

  RecordFrontierMetrics(
      result, std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - obs_t0)
                  .count());
  return result;
}

}  // namespace adq::core
