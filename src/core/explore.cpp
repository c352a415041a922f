#include "core/explore.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "analysis/analysis.h"
#include "core/accuracy.h"
#include "obs/obs.h"
#include "sta/sta.h"
#include "util/thread_pool.h"

namespace adq::core {

using tech::BiasState;

std::vector<BiasState> BiasVectorFor(const ImplementedDesign& design,
                                     tech::DomainMask mask) {
  const std::vector<int>& dom = design.partition.domain_of;
  std::vector<BiasState> bias(dom.size());
  for (std::size_t i = 0; i < dom.size(); ++i)
    bias[i] = tech::MaskHas(mask, dom[i]) ? BiasState::kFBB : BiasState::kNoBB;
  return bias;
}

double MaskLeakageW(const power::PowerModel& pmodel,
                    const std::vector<double>& dom_weight, int ndom,
                    double vdd, tech::DomainMask mask) {
  double leak_w = 0.0;
  for (int d = 0; d < ndom; ++d)
    leak_w += pmodel.DomainLeakageW(
        dom_weight[static_cast<std::size_t>(d)], vdd,
        tech::MaskHas(mask, d) ? BiasState::kFBB : BiasState::kNoBB);
  return leak_w;
}

namespace {

void PutU32(std::string* s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    s->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void PutF64(std::string* s, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i)
    s->push_back(static_cast<char>((bits >> (8 * i)) & 0xffu));
}

}  // namespace

store::StoreKey ExploreStoreKey(const ImplementedDesign& design) {
  const netlist::Netlist& nl = design.op.nl;
  std::string canon;
  canon.reserve(nl.num_instances() * 16 + nl.num_nets() * 16 + 64);
  // Everything an STA verdict depends on, in a fixed order. The cell
  // library and corner are deliberately outside the key: a store
  // directory is per (library, corner), like a build cache is per
  // toolchain.
  canon += "adq-explore-key-v1";
  PutU32(&canon, static_cast<std::uint32_t>(nl.num_instances()));
  for (const netlist::Instance& inst : nl.instances()) {
    canon.push_back(static_cast<char>(static_cast<int>(inst.kind)));
    canon.push_back(static_cast<char>(static_cast<int>(inst.drive)));
    for (int i = 0; i < inst.num_inputs(); ++i)
      PutU32(&canon, static_cast<std::uint32_t>(
                         inst.in[static_cast<std::size_t>(i)].index()));
    for (int o = 0; o < inst.num_outputs(); ++o)
      PutU32(&canon, static_cast<std::uint32_t>(
                         inst.out[static_cast<std::size_t>(o)].index()));
  }
  PutU32(&canon, static_cast<std::uint32_t>(nl.num_nets()));
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    PutF64(&canon, design.loads.cap_ff[n]);
    PutF64(&canon, design.loads.wire_delay_ns[n]);
  }
  // Case analysis inputs: the scalable input buses and the data width
  // decide which LSB registers each bitwidth zeroes.
  for (const netlist::Bus& bus : nl.input_buses()) {
    canon += bus.name;
    canon.push_back('\0');
    PutU32(&canon, static_cast<std::uint32_t>(bus.bits.size()));
    for (const netlist::NetId b : bus.bits)
      PutU32(&canon, static_cast<std::uint32_t>(b.index()));
  }
  for (const std::string& b : design.op.spec.scalable_buses) {
    canon += b;
    canon.push_back('\0');
  }
  PutU32(&canon, static_cast<std::uint32_t>(design.op.spec.data_width));
  const std::vector<int>& dom = design.domain_of();
  PutU32(&canon, static_cast<std::uint32_t>(dom.size()));
  for (const int d : dom) PutU32(&canon, static_cast<std::uint32_t>(d));
  PutF64(&canon, design.clock_ns);
  return store::MakeStoreKey(std::move(canon));
}

namespace {

/// Greedy RBB demotion of the mode's best point (see ExploreOptions::
/// enable_rbb_sleep). Serial by design: it mutates one point and its
/// STA count, and its cost is O(ndom) next to the O(2^ndom) sweep.
void RbbSleepPass(const ImplementedDesign& design, const ExplorePlan& plan,
                  sta::TimingAnalyzer& analyzer,
                  const netlist::CaseAnalysis& ca,
                  std::vector<BiasState>& bias, ModeResult& mode,
                  ExplorationStats& stats) {
  const netlist::Netlist& nl = design.op.nl;
  const int ndom = design.num_domains();
  ExploredPoint& best = mode.best;
  auto rebuild_bias = [&]() {
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
      bias[i] = best.DomainState(design.partition.domain_of[i]);
  };
  for (int d = 0; d < ndom; ++d) {
    if (tech::MaskHas(best.mask, d)) continue;  // boosted domains stay
    best.rbb_mask |= tech::MaskBit(d);
    rebuild_bias();
    ++stats.sta_runs;
    const sta::TimingReport rep =
        analyzer.Analyze(best.vdd, design.clock_ns, bias, &ca);
    if (!rep.feasible()) best.rbb_mask &= ~tech::MaskBit(d);
  }
  double leak_w = 0.0;
  for (int d = 0; d < ndom; ++d)
    leak_w += plan.pmodel.DomainLeakageW(
        plan.dom_weight[static_cast<std::size_t>(d)], best.vdd,
        best.DomainState(d));
  best.power.leakage_w = leak_w;
}

/// Outcome of one (bitwidth, vdd, mask) lattice point. The sweep
/// writes these into index-addressed slots; the deterministic merge
/// then folds them serially in lattice order, so stats, best-point
/// ties and all_points ordering cannot depend on thread scheduling
/// (or batch width).
struct PointRecord {
  enum class Kind : std::uint8_t {
    kPruned,      ///< implied infeasible by a smaller bitwidth
    kMaskPruned,  ///< implied infeasible by a failing supermask
    kInfeasible,  ///< STA ran, violated
    kFeasible,    ///< STA ran, met
  };
  Kind kind = Kind::kPruned;
  bool from_store = false;  ///< verdict served by the exploration store
  double wns_ns = 0.0;
};

/// The exhaustive search: per bitwidth, the (VDD, mask) lattice in
/// descending-popcount levels, each level's surviving points sent
/// through the shared verdict path, then a deterministic merge. A
/// 1-thread pool runs every batch inline on the caller, so there is
/// no separate serial code path to keep in sync — bit-identity across
/// num_threads holds by construction of the merge.
ExplorationResult ExploreSweep(const ImplementedDesign& design,
                               const tech::CellLibrary& lib,
                               const ExploreOptions& opt,
                               const ExplorePlan& plan,
                               const std::vector<tech::DomainMask>& masks) {
  const int ndom = design.num_domains();
  // Recorded infeasible points need their computed wns_ns, so the
  // dominance prune (which never computes one) must stand down.
  const bool mask_prune = opt.mask_pruning && !opt.keep_all_points;
  VerdictEvaluator eval(design, lib, opt, ExploreEngine::kExhaustive);

  // Monotone-infeasibility table, slot = lattice index vi * |masks| +
  // mi: set once a (vdd, mask) is proved infeasible at some bitwidth,
  // read by larger bitwidths only (a slot belongs to one popcount
  // level, so within a bitwidth it is read before it is written).
  // Mask-dominance hits set it too: they are proofs of infeasibility,
  // so later bitwidths prune them exactly as if the STA had run —
  // which is why every stat except the sta_runs / mask_pruned split
  // is independent of the mask_pruning switch.
  const std::size_t nv = opt.vdds.size();
  const std::size_t nm = masks.size();
  std::vector<std::uint8_t> dead(nv * nm, 0);

  // Mask-dominance schedule: masks grouped by popcount, processed in
  // descending-popcount levels. Any strict supermask has a strictly
  // larger popcount, i.e. lives in an earlier level, so by the time a
  // level is classified every potential dominator has a settled
  // verdict. Equal popcount never dominates (M ⊆ F with |M| == |F|
  // forces M == F), so decisions are independent of batch width,
  // thread count and within-level order.
  std::vector<std::vector<std::size_t>> levels;
  {
    int max_pop = 0;
    for (const tech::DomainMask m : masks)
      max_pop = std::max(max_pop, std::popcount(m));
    levels.resize(static_cast<std::size_t>(max_pop) + 1);
    for (std::size_t mi = 0; mi < nm; ++mi)
      levels[static_cast<std::size_t>(max_pop) -
             static_cast<std::size_t>(std::popcount(masks[mi]))]
          .push_back(mi);
  }

  // Stage 2: per bitwidth (ascending, so pruning sees every smaller
  // mode), classify and evaluate the lattice level by level, then
  // merge serially.
  ExplorationResult result;
  std::vector<PointRecord> rec(nv * nm);
  // Per-VDD antichain of infeasible masks from completed levels: a
  // mask M is dominated iff M ⊆ F for some listed F. (Antichain
  // because a listed mask's supersets were either feasible or already
  // listed before any submask could reach STA.)
  std::vector<std::vector<tech::DomainMask>> row_infeasible(nv);
  std::vector<LatticePoint> pending;     // level's points to evaluate
  std::vector<std::size_t> pending_mi;   // aligned with pending
  std::vector<PointVerdict> verdicts;    // aligned with pending
  for (std::size_t bi = 0; bi < plan.bitwidths.size(); ++bi) {
    const int bw = plan.bitwidths[bi];
    const netlist::CaseAnalysis& bca = plan.case_analysis[bi];

    ADQ_TRACE_SCOPE2("explore.bitwidth", std::to_string(bw));
    obs::ProgressReporter prog("explore bw=" + std::to_string(bw),
                               static_cast<std::int64_t>(nv * nm));
    std::fill(rec.begin(), rec.end(), PointRecord{});
    for (auto& row : row_infeasible) row.clear();

    for (const std::vector<std::size_t>& level : levels) {
      // Phase A: classify the level. Points condemned by a smaller
      // bitwidth keep kPruned; points dominated by an earlier level's
      // infeasible supermask become kMaskPruned; the rest are queued
      // for a verdict, in (vi, level) order.
      pending.clear();
      pending_mi.clear();
      for (std::size_t vi = 0; vi < nv; ++vi) {
        for (const std::size_t mi : level) {
          const std::size_t slot = vi * nm + mi;
          if (opt.monotonic_pruning && dead[slot]) continue;
          if (mask_prune) {
            const tech::DomainMask mask = masks[mi];
            bool dominated = false;
            for (const tech::DomainMask f : row_infeasible[vi])
              if ((mask & ~f) == 0u) {
                dominated = true;
                break;
              }
            if (dominated) {
              rec[slot].kind = PointRecord::Kind::kMaskPruned;
              dead[slot] = 1;
              continue;
            }
          }
          pending.push_back({vi, masks[mi]});
          pending_mi.push_back(mi);
        }
      }

      // Phase B: the shared verdict path — store hits, then batched
      // STA on the pool. It runs after both prunes, so the pruning
      // decisions (and their stats) are identical with or without a
      // store; an infeasible store hit condemns the point exactly
      // like a fresh STA failure.
      eval.Evaluate(bw, bca, pending, &verdicts);
      for (std::size_t k = 0; k < pending.size(); ++k) {
        const std::size_t slot = pending[k].vi * nm + pending_mi[k];
        PointRecord& r = rec[slot];
        r.from_store = verdicts[k].from_store;
        r.wns_ns = verdicts[k].wns_ns;
        if (verdicts[k].feasible) {
          r.kind = PointRecord::Kind::kFeasible;
        } else {
          r.kind = PointRecord::Kind::kInfeasible;
          dead[slot] = 1;
        }
      }
      prog.Tick(static_cast<std::int64_t>(level.size() * nv));

      // Phase C: extend the per-VDD antichains with this level's fresh
      // failures, in deterministic (vi, mi) order.
      if (mask_prune)
        for (std::size_t vi = 0; vi < nv; ++vi)
          for (const std::size_t mi : level)
            if (rec[vi * nm + mi].kind == PointRecord::Kind::kInfeasible)
              row_infeasible[vi].push_back(masks[mi]);
    }

    // Deterministic merge: fold the records in (vi, mi) lattice
    // order, regardless of the popcount-level order they were
    // computed in. Every number below is either copied from a record
    // or recomputed from the same expressions for every thread count
    // and batch width, so the result is bit-identical across both.
    ModeResult mode;
    mode.bitwidth = bw;
    mode.switched_energy_fj = plan.energy_fj[bi];
    for (std::size_t vi = 0; vi < nv; ++vi) {
      const double vdd = opt.vdds[vi];
      const double dyn_w = power::PowerModel::DynamicW(
          plan.energy_fj[bi], vdd, design.fclk_ghz());
      for (std::size_t mi = 0; mi < nm; ++mi) {
        const PointRecord& r = rec[vi * nm + mi];
        ++result.stats.points_considered;
        if (r.kind == PointRecord::Kind::kPruned) {
          ++result.stats.filtered;
          ++result.stats.pruned;
          continue;
        }
        if (r.kind == PointRecord::Kind::kMaskPruned) {
          ++result.stats.filtered;
          ++result.stats.mask_pruned;
          continue;
        }
        if (r.from_store)
          ++result.stats.store_hits;
        else
          ++result.stats.sta_runs;
        ExploredPoint p;
        p.bitwidth = bw;
        p.vdd = vdd;
        p.mask = masks[mi];
        p.wns_ns = r.wns_ns;
        if (r.kind == PointRecord::Kind::kInfeasible) {
          ++result.stats.filtered;
          if (opt.keep_all_points) result.all_points.push_back(p);
          continue;
        }
        ++result.stats.feasible;
        p.feasible = true;
        p.power.dynamic_w = dyn_w;
        p.power.leakage_w =
            MaskLeakageW(plan.pmodel, plan.dom_weight, ndom, vdd, masks[mi]);
        if (!mode.has_solution ||
            p.total_power_w() < mode.best.total_power_w()) {
          mode.has_solution = true;
          mode.best = p;
        }
        if (opt.keep_all_points) result.all_points.push_back(p);
      }
    }

    if (opt.enable_rbb_sleep && mode.has_solution) {
      std::vector<BiasState> bias(design.op.nl.num_instances());
      RbbSleepPass(design, plan, eval.analyzer(0), bca, bias, mode,
                   result.stats);
    }

    result.modes.push_back(mode);
  }
  return result;
}

/// Folds one finished exploration into the metrics registry. All the
/// numbers come from the (already deterministic) ExplorationStats, so
/// the snapshot is bit-identical across thread counts — the contract
/// tests/test_explore_golden pins.
void RecordExploreMetrics(const ExplorationResult& r, double seconds) {
  if (!obs::MetricsEnabled()) return;
  obs::GetCounter("explore.runs").Add(1);
  obs::GetCounter("explore.points_considered")
      .Add(r.stats.points_considered);
  obs::GetCounter("explore.sta_runs").Add(r.stats.sta_runs);
  obs::GetCounter("explore.store_hits").Add(r.stats.store_hits);
  obs::GetCounter("explore.filtered").Add(r.stats.filtered);
  obs::GetCounter("explore.pruned_hits").Add(r.stats.pruned);
  obs::GetCounter("explore.mask_pruned").Add(r.stats.mask_pruned);
  obs::GetCounter("explore.static_mode_prunes")
      .Add(r.stats.static_mode_prunes);
  obs::GetCounter("explore.feasible").Add(r.stats.feasible);
  obs::GetGauge("explore.wall_s").Add(seconds);
  if (seconds > 0.0)
    obs::GetGauge("explore.points_per_sec")
        .Set(static_cast<double>(r.stats.points_considered) / seconds);
  // Margin profile of the chosen operating points: how close the
  // selected optima sit to the STA-filter edge (cf. the variation
  // study in bench_ablations).
  obs::HistogramMetric& wns =
      obs::GetHistogram("explore.best_wns_ns", -0.1, 0.4, 50);
  for (const ModeResult& m : r.modes)
    if (m.has_solution) wns.Observe(m.best.wns_ns);
}

}  // namespace

ExplorationResult ExploreDesignSpace(const ImplementedDesign& design,
                                     const tech::CellLibrary& lib,
                                     const ExploreOptions& opt) {
  ADQ_TRACE_SCOPE("explore");
  const auto obs_t0 = std::chrono::steady_clock::now();
  const int ndom = design.num_domains();
  // A full-lattice request beyond the enumeration ceiling is a
  // recoverable request error, not a contract violation: callers
  // reroute to core::FrontierExplore (examples/domain_explorer does).
  if (opt.masks.empty() && ndom > kMaxExhaustiveDomains)
    throw ExploreError(
        "2^" + std::to_string(ndom) +
        " masks is beyond exhaustive enumeration (kMaxExhaustiveDomains"
        " = " + std::to_string(kMaxExhaustiveDomains) +
        "); restrict ExploreOptions::masks or use core::FrontierExplore");

  const ExplorePlan plan =
      PlanExploration(design, lib, opt, ExploreEngine::kExhaustive);

  std::vector<tech::DomainMask> masks = opt.masks;
  if (masks.empty()) {
    const tech::DomainMask full = tech::FullMask(ndom);
    masks.reserve(static_cast<std::size_t>(full) + 1);
    for (tech::DomainMask m = 0; m <= full; ++m) masks.push_back(m);
  }

  // Every mode may have been statically pruned: then there is nothing
  // to sweep (and no pool to start).
  ExplorationResult result;
  if (!plan.bitwidths.empty())
    result = ExploreSweep(design, lib, opt, plan, masks);
  plan.FinishModes(result.modes);
  result.stats.static_mode_prunes = static_cast<long>(plan.pruned.size());
  RecordExploreMetrics(
      result, std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - obs_t0)
                  .count());
  return result;
}

// ---------------------------------------------------------------------
// The shared front end.
// ---------------------------------------------------------------------

namespace {

ModeResult StaticPrunePlaceholder(int bitwidth, double bound) {
  ModeResult m;
  m.bitwidth = bitwidth;
  m.proved_max_abs_error = bound;
  m.statically_pruned = true;
  return m;
}

}  // namespace

bool ExplorePlan::ApplyQualityVerdict(ModeResult& m) const {
  const auto it = proved_bound.find(m.bitwidth);
  if (it == proved_bound.end()) return false;
  if (it->second > quality_max_abs_error) {
    m = StaticPrunePlaceholder(m.bitwidth, it->second);
    return true;
  }
  m.proved_max_abs_error = it->second;
  return false;
}

ExplorePlan PlanExploration(const ImplementedDesign& design,
                            const tech::CellLibrary& lib,
                            const ExploreRequest& req, ExploreEngine engine) {
  const int ndom = design.num_domains();
  ADQ_CHECK_MSG(ndom >= 1 && ndom <= tech::kMaxDomains,
                "domain count " << ndom << " outside [1, "
                                << tech::kMaxDomains << "]");
  // Signoff lint gate (shared with the flow): exploring a corrupt
  // netlist fails here, loudly, instead of deep inside a worker.
  SignoffLint(design, lib, req.lint);

  std::vector<int> bitwidths = req.bitwidths;
  if (bitwidths.empty()) {
    for (int b = 1; b <= design.op.spec.data_width; ++b)
      bitwidths.push_back(b);
  }
  std::sort(bitwidths.begin(), bitwidths.end());

  // Static-prune stage — the admissible accuracy bound of both
  // searches. analysis::AccuracyAnalyzer proves a sound per-mode
  // error bound (interval analysis of the validated word model, taint
  // fallback otherwise; pinned against PackedLogicSim by
  // tests/test_analysis_soundness), so a mode whose bound violates
  // the quality target has an empty feasible set and is decided right
  // here: no activity simulation, no STA, no criticality probe.
  // Surviving modes are searched exactly as before, and stage 1 is a
  // pure per-mode function, so their results are bit-identical to an
  // unpruned run (tests/test_static_prune).
  std::map<int, double> proved_bound;
  std::vector<ModeResult> pruned;
  if (std::isfinite(req.quality_max_abs_error)) {
    ADQ_TRACE_SCOPE(engine == ExploreEngine::kExhaustive
                        ? "explore.static_prune"
                        : "frontier.static_prune");
    const analysis::AccuracyAnalyzer quality(design.op);
    for (const int bw : bitwidths)
      proved_bound[bw] = quality.ProvedMaxAbsError(bw);
    if (req.static_prune) {
      std::vector<int> kept;
      for (const int bw : bitwidths) {
        if (proved_bound[bw] > req.quality_max_abs_error)
          pruned.push_back(StaticPrunePlaceholder(bw, proved_bound[bw]));
        else
          kept.push_back(bw);
      }
      bitwidths = std::move(kept);
    }
  }

  power::PowerModel pmodel(design.op.nl, lib, design.loads);
  std::vector<double> dom_weight =
      pmodel.LeakWeightByDomain(design.partition.domain_of, ndom);

  // Stage 1: per-mode constants.
  std::vector<netlist::CaseAnalysis> case_analysis;
  std::vector<double> energy_fj;
  if (!bitwidths.empty()) {
    ADQ_TRACE_SCOPE("explore.mode_constants");
    std::vector<int> mode_lsbs;
    for (const int bw : bitwidths)
      mode_lsbs.push_back(ZeroedLsbs(design.op, bw));
    const std::vector<sim::ActivityProfile> acts = sim::ExtractActivityBatch(
        design.op, mode_lsbs, req.activity_cycles, req.seed, req.stimulus);
    for (const sim::ActivityProfile& act : acts)
      energy_fj.push_back(pmodel.SwitchedEnergyPerCycleFj(act));
    case_analysis = ModeCaseAnalyses(design.op, bitwidths);
  }
  return ExplorePlan{std::move(bitwidths),    std::move(pruned),
                     std::move(pmodel),       std::move(dom_weight),
                     std::move(case_analysis), std::move(energy_fj),
                     std::move(proved_bound), req.quality_max_abs_error};
}

VerdictEvaluator::VerdictEvaluator(const ImplementedDesign& design,
                                   const tech::CellLibrary& lib,
                                   const ExploreRequest& req,
                                   ExploreEngine engine)
    : design_(design),
      lib_(lib),
      req_(req),
      lane_prefix_(engine == ExploreEngine::kExhaustive
                       ? "explore worker "
                       : "frontier worker "),
      // The canonical key encodes the whole implemented design, so it
      // is resolved once per exploration.
      store_ctx_(req.store != nullptr
                     ? req.store->Context(ExploreStoreKey(design))
                     : -1),
      pool_(std::make_unique<util::ThreadPool>(req.num_threads)),
      analyzers_(static_cast<std::size_t>(pool_->num_threads())) {}

VerdictEvaluator::~VerdictEvaluator() = default;

int VerdictEvaluator::num_threads() const { return pool_->num_threads(); }

sta::TimingAnalyzer& VerdictEvaluator::analyzer(int w) {
  std::unique_ptr<sta::TimingAnalyzer>& a =
      analyzers_[static_cast<std::size_t>(w)];
  if (!a)
    a = std::make_unique<sta::TimingAnalyzer>(design_.op.nl, lib_,
                                              design_.loads);
  return *a;
}

void VerdictEvaluator::Evaluate(int bw, const netlist::CaseAnalysis& ca,
                                const std::vector<LatticePoint>& points,
                                std::vector<PointVerdict>* out) {
  store::ExplorationStore* const store = req_.store;
  out->assign(points.size(), PointVerdict{});
  std::vector<std::size_t> miss;  // points the store did not serve
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointVerdict& v = (*out)[i];
    v.from_store = store != nullptr &&
                   store->Lookup(store_ctx_, bw, req_.vdds[points[i].vi],
                                 points[i].mask, &v.feasible, &v.wns_ns);
    if (!v.from_store) miss.push_back(i);
  }
  if (miss.empty()) return;

  // Lane l of a chunk is point lane_idx[begin + l]; a chunk never
  // spans two VDD rows.
  struct Chunk {
    std::size_t vi = 0;
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  const std::size_t batch_width =
      static_cast<std::size_t>(req_.batch_width > 0 ? req_.batch_width : 8);
  std::vector<std::size_t> lane_idx;
  std::vector<tech::DomainMask> lane_masks;
  std::vector<Chunk> chunks;
  for (std::size_t vi = 0; vi < req_.vdds.size(); ++vi) {
    const std::size_t row_begin = lane_idx.size();
    for (const std::size_t i : miss)
      if (points[i].vi == vi) {
        lane_idx.push_back(i);
        lane_masks.push_back(points[i].mask);
      }
    for (std::size_t c = row_begin; c < lane_idx.size(); c += batch_width)
      chunks.push_back({vi, c, std::min(batch_width, lane_idx.size() - c)});
  }

  // One AnalyzeBatch per chunk; lanes write their own slots.
  pool_->ParallelFor(
      static_cast<std::int64_t>(chunks.size()), 1,
      [&](std::int64_t idx, int w) {
        // Lane naming for the trace viewer: each pool thread registers
        // its stable worker index once (worker 0 is the caller).
        if (obs::TraceEnabled()) {
          thread_local bool named = false;
          if (!named) {
            obs::NameThisThreadLane(lane_prefix_ + std::to_string(w));
            named = true;
          }
        }
        const Chunk& c = chunks[static_cast<std::size_t>(idx)];
        obs::TraceSpan batch_span("sta.batch");
        const std::vector<sta::TimingReport> reps = analyzer(w).AnalyzeBatch(
            req_.vdds[c.vi], design_.clock_ns,
            std::span<const tech::DomainMask>(lane_masks.data() + c.begin,
                                              c.count),
            design_.domain_of(), &ca);
        for (std::size_t l = 0; l < c.count; ++l) {
          PointVerdict& v = (*out)[lane_idx[c.begin + l]];
          v.feasible = reps[l].feasible();
          v.wns_ns = reps[l].wns_ns;
        }
      });

  if (store != nullptr)
    for (const std::size_t i : miss)
      store->Insert(store_ctx_, bw, req_.vdds[points[i].vi], points[i].mask,
                    (*out)[i].feasible, (*out)[i].wns_ns);
}

}  // namespace adq::core
