#pragma once
/// \file explore.h
/// \brief Exhaustive design-space exploration (paper Fig. 4, blue
/// phase; Sec. III-C).
///
/// For every combination of (i) back-bias assignment to the NMAX
/// domains (2^NMAX masks), (ii) input bitwidth, and (iii) global VDD,
/// the design is checked by STA — points with violations are
/// discarded (the paper reports ~75% filtered) — and surviving points
/// are analyzed for power (leakage + activity-annotated dynamic).
/// The minimum-power configuration per bitwidth is the output: the
/// table a runtime controller uses to switch accuracy modes.
///
/// Complexity is O(2^NMAX * B * NVDD) points, as in the paper; three
/// exact accelerations are applied: per-condition delay scaling is
/// two global multipliers (see sta.h); infeasibility is monotone
/// in bitwidth (activating more input bits only adds timing paths),
/// so a (VDD, mask) pair that fails at bitwidth b is skipped — and
/// counted as filtered — for larger bitwidths; and infeasibility is
/// antitone in the FBB mask lattice (forward bias only lowers delay),
/// so a mask that fails at (VDD, b) proves every submask infeasible
/// at the same point without running STA (mask-dominance pruning).
///
/// This header is also the one front end both engines share
/// (ExploreDesignSpace here, FrontierExplore in core/frontier.h): one
/// request (ExploreRequest), one mode result (ModeResult), one
/// prologue (PlanExploration: lint gate, bitwidths, static prune,
/// power model, stage-1 mode constants), one verdict path
/// (VerdictEvaluator: store lookup, batch_width-lane AnalyzeBatch
/// chunks on the worker pool, store write-back) and one epilogue
/// (ExplorePlan::FinishModes: quality verdicts, pruned placeholders).
/// Only the two searches differ.

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.h"
#include "power/power.h"
#include "sim/activity.h"
#include "store/exploration_store.h"

namespace adq::sta {
class TimingAnalyzer;
}  // namespace adq::sta

namespace adq::util {
class ThreadPool;
}  // namespace adq::util

namespace adq::core {

/// Recoverable failure of an exploration request. Unlike CheckError
/// (a programming/contract error that should crash loudly), an
/// ExploreError means the *request* cannot be served as posed — e.g.
/// an exhaustive sweep over a grid whose 2^NMAX lattice is beyond
/// enumeration — and the caller can recover by rerouting to the
/// frontier engine (core/frontier.h) instead of dying.
class ExploreError : public std::runtime_error {
 public:
  explicit ExploreError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Largest domain count the exhaustive engine will enumerate when
/// asked for the full 2^NMAX mask lattice (2^20 masks per (VDD,
/// bitwidth) row). Bigger grids must either restrict
/// ExploreOptions::masks or use core::FrontierExplore.
inline constexpr int kMaxExhaustiveDomains = 20;

/// One explored operating point. `mask` bit d = 1 means domain d is
/// forward back-biased (FBB); 0 means NoBB — unless the same bit is
/// set in `rbb_mask`, in which case the domain sleeps in reverse
/// back-bias (optional post-pass; see ExploreOptions).
struct ExploredPoint {
  int bitwidth = 0;
  double vdd = 0.0;
  tech::DomainMask mask = 0;
  tech::DomainMask rbb_mask = 0;
  bool feasible = false;
  double wns_ns = 0.0;
  power::PowerBreakdown power;

  double total_power_w() const { return power.total_w(); }

  tech::BiasState DomainState(int d) const {
    if (tech::MaskHas(mask, d)) return tech::BiasState::kFBB;
    if (tech::MaskHas(rbb_mask, d)) return tech::BiasState::kRBB;
    return tech::BiasState::kNoBB;
  }
};

/// Best configuration found for one accuracy mode.
struct ModeResult {
  int bitwidth = 0;
  bool has_solution = false;
  ExploredPoint best;
  double switched_energy_fj = 0.0;  ///< per cycle at 1 V, this mode
  /// Proved worst-case |exact - mode| bound from the static accuracy
  /// analyzer (analysis::AccuracyAnalyzer::ProvedMaxAbsError).
  /// Populated only when ExploreRequest::quality_max_abs_error is
  /// finite; +inf otherwise.
  double proved_max_abs_error = std::numeric_limits<double>::infinity();
  /// True when the proved bound exceeds the quality target: the mode
  /// is infeasible by construction and has_solution is false. With
  /// static_prune on, such a mode was decided without any simulation
  /// or STA; with it off the verdict is identical but reached
  /// post-sweep (stats.static_mode_prunes stays 0).
  bool statically_pruned = false;
};

struct ExplorationStats {
  long points_considered = 0;  ///< full O(2^NMAX * B * NVDD) count
  long sta_runs = 0;           ///< STA actually executed
  long filtered = 0;           ///< discarded by the STA filter
  long pruned = 0;  ///< monotone-pruning hits (subset of filtered):
                    ///< points whose infeasibility was implied by a
                    ///< smaller bitwidth, so no STA was spent
  long mask_pruned = 0;  ///< mask-dominance hits (subset of filtered):
                         ///< points whose infeasibility was implied by
                         ///< a failing supermask at the same (VDD,
                         ///< bitwidth), so no STA was spent. Always an
                         ///< exact trade against sta_runs:
                         ///< points_considered ==
                         ///<     sta_runs + store_hits + pruned +
                         ///<     mask_pruned.
  long store_hits = 0;  ///< verdicts served by the persistent
                        ///< exploration store instead of an STA run
                        ///< (0 unless ExploreRequest::store is set);
                        ///< bit-identical trade against sta_runs
  long static_mode_prunes = 0;  ///< accuracy modes decided by the
                                ///< static analyzer alone (proved
                                ///< bound > quality target): zero
                                ///< activity simulation, zero STA.
                                ///< Statically pruned modes never
                                ///< enter points_considered, so the
                                ///< identity above still holds.
  long feasible = 0;

  double FilterRate() const {
    return points_considered == 0
               ? 0.0
               : static_cast<double>(filtered) /
                     static_cast<double>(points_considered);
  }
};

/// The mode of `bitwidth` in either engine's mode list.
template <class Mode>
const Mode& FindMode(const std::vector<Mode>& modes, int bitwidth) {
  const auto it = std::find_if(modes.begin(), modes.end(), [&](const Mode& m) {
    return m.bitwidth == bitwidth;
  });
  ADQ_CHECK_MSG(it != modes.end(),
                "bitwidth " << bitwidth << " was not explored");
  return *it;
}

struct ExplorationResult {
  std::vector<ModeResult> modes;  ///< one per requested bitwidth
  ExplorationStats stats;
  std::vector<ExploredPoint> all_points;  ///< if keep_all_points

  const ModeResult& Mode(int bitwidth) const {
    return FindMode(modes, bitwidth);
  }
};

/// The request both exploration engines share: which accuracy modes
/// and supplies to explore, how activity is simulated, how the STA
/// verdicts are computed (batch width, worker threads, persistent
/// store) and the quality target and lint gate applied around the
/// search. ExploreOptions and FrontierOptions add only their own
/// search fields.
struct ExploreRequest {
  /// Supply range: paper Sec. IV-B uses 1.0 .. 0.6 V in 0.1 V steps.
  std::vector<double> vdds = {1.0, 0.9, 0.8, 0.7, 0.6};
  /// Accuracy modes (active bits); empty = 1 .. data_width.
  std::vector<int> bitwidths;
  int activity_cycles = 1024;
  std::uint64_t seed = 7;
  sim::StimulusKind stimulus = sim::StimulusKind::kCorrelated;
  /// Lanes per batched STA call (sta::TimingAnalyzer::AnalyzeBatch):
  /// one topological traversal serves this many masks. 0 or negative
  /// selects the default (8). Any value yields bit-identical results;
  /// only throughput changes.
  int batch_width = 8;
  /// Worker threads evaluating the STA verdicts (and, in the
  /// frontier, the criticality probe): 0 = one per hardware thread,
  /// 1 = run everything inline on the caller, n > 1 = n workers.
  /// Every setting yields a bit-identical result — modes, stats and
  /// all_points ordering included — because each verdict is a pure
  /// function of (bitwidth, VDD, mask) and each engine folds the
  /// verdicts serially in a thread-independent order. Contract
  /// enforced by tests/test_parallel_explore and tests/test_frontier.
  int num_threads = 0;
  /// Optional persistent exploration store (store/exploration_store.h)
  /// warm-starting the search: every (bitwidth, VDD, mask) STA verdict
  /// already present is reused instead of re-running STA (counted in
  /// stats.store_hits), and every fresh verdict is inserted back. The
  /// result is bit-identical with or without the store — stored wns
  /// values round-trip as exact double bit patterns — only the
  /// sta_runs / store_hits split changes. Both engines key verdicts
  /// identically (ExploreStoreKey), so they share a store. nullptr
  /// (the default) disables both directions; the caller owns the
  /// store and decides when to Flush() it to disk.
  store::ExplorationStore* store = nullptr;
  /// Quality target: largest acceptable worst-case |exact - mode|
  /// error. When finite, every mode's proved bound (analysis::
  /// AccuracyAnalyzer) is recorded in ModeResult::proved_max_abs_error
  /// and modes whose *proved* bound exceeds the target are discarded
  /// as infeasible-by-construction — no solution is ever reported for
  /// them. Infinity (the default) disables the whole stage and keeps
  /// historical results byte-identical.
  double quality_max_abs_error = std::numeric_limits<double>::infinity();
  /// When the quality target is finite, decide violating modes
  /// *before* the search: they are dropped from activity extraction,
  /// the STA lattice and the frontier's criticality probe entirely
  /// (counted in stats.static_mode_prunes). With static_prune = false
  /// the same modes are searched and then discarded post-hoc — the
  /// returned modes list is bit-identical either way (pinned by
  /// tests/test_static_prune); only the stats (and wall time) differ,
  /// which is the ablation bench_ablations measures.
  bool static_prune = true;
  /// Signoff lint gate applied to the implemented netlist before the
  /// search — the same netlist DRC + flow-artifact rules the
  /// implementation flow enforces at signoff (core::SignoffLint), so
  /// a corrupt or hand-mutated netlist is rejected identically on both
  /// engines. kOff (the default) preserves historical behavior.
  lint::LintGate lint = lint::LintGate::kOff;
};

/// The exhaustive sweep's own search fields.
struct ExploreOptions : ExploreRequest {
  /// BB masks to consider; empty = all 2^NMAX (the paper's method).
  /// DVAS baselines restrict this to all-NoBB {0} or all-FBB.
  std::vector<tech::DomainMask> masks;
  bool monotonic_pruning = true;
  /// Mask-dominance pruning: FBB only lowers delay, so WNS is
  /// monotone non-increasing in the mask lattice and an infeasible
  /// mask condemns all its submasks at the same (VDD, bitwidth). The
  /// prune is exact (never changes modes or stats other than trading
  /// sta_runs for mask_pruned) and deterministic at any num_threads /
  /// batch_width: masks are swept in descending-popcount levels, and
  /// dominance is only checked against infeasibles from completed
  /// levels. Automatically inactive when keep_all_points is set,
  /// because recorded infeasible points need their computed wns_ns.
  bool mask_pruning = true;
  bool keep_all_points = false;
  /// RBB sleep post-pass (extension beyond the paper's 2-state
  /// exploration): after the best (VDD, FBB mask) is found for a
  /// mode, domains still at NoBB are greedily demoted to reverse
  /// back-bias where STA stays feasible — an order-of-magnitude
  /// leakage cut for logic that the accuracy mode disabled.
  bool enable_rbb_sleep = false;
};

/// Throws ExploreError when the request asks for the full mask
/// lattice of a grid beyond kMaxExhaustiveDomains (use
/// core::FrontierExplore for those); all other contract violations
/// still fail fast via ADQ_CHECK.
ExplorationResult ExploreDesignSpace(const ImplementedDesign& design,
                                     const tech::CellLibrary& lib,
                                     const ExploreOptions& opt = {});

/// Expands a domain mask into a per-instance bias vector.
std::vector<tech::BiasState> BiasVectorFor(const ImplementedDesign& design,
                                           tech::DomainMask mask);

/// Leakage of a mask as the exhaustive sweep computes it: the
/// ndom-term DomainLeakageW sum folded in ascending-domain order.
/// Shared with the frontier engine so both produce bit-identical
/// leakage (and therefore bit-identical best points and bounds).
double MaskLeakageW(const power::PowerModel& pmodel,
                    const std::vector<double>& dom_weight, int ndom,
                    double vdd, tech::DomainMask mask);

// ---- The shared front end of both engines ----

/// Which engine a shared step serves. Selects only trace names: the
/// "explore.*" / "frontier.*" static-prune span and the
/// "explore worker N" / "frontier worker N" lanes.
enum class ExploreEngine { kExhaustive, kFrontier };

/// The prologue of both engines and what it hands to the search.
struct ExplorePlan {
  /// Modes to search, ascending, statically pruned ones removed.
  std::vector<int> bitwidths;
  /// Placeholders of the statically pruned modes: no solution, the
  /// proved bound, statically_pruned set (static_prune on only).
  std::vector<ModeResult> pruned;
  power::PowerModel pmodel;
  std::vector<double> dom_weight;  ///< per-domain leakage weights
  /// Stage 1, per searched mode (aligned with `bitwidths`): the case
  /// analysis (which timing paths its zeroed LSBs disable) and the
  /// activity-annotated switched energy per cycle.
  std::vector<netlist::CaseAnalysis> case_analysis;
  std::vector<double> energy_fj;
  /// Proved error bound of every requested mode; empty when the
  /// quality target is infinite.
  std::map<int, double> proved_bound;
  double quality_max_abs_error = std::numeric_limits<double>::infinity();

  /// The epilogue: annotates the searched `modes` with their proved
  /// bounds — replacing, when static_prune was off, each mode over
  /// the target by the placeholder the prune stage would have
  /// emitted, so the list is bit-identical either way — then merges
  /// the `pruned` placeholders in bitwidth order. Replaced and merged
  /// modes carry only their ModeResult part.
  template <class Mode>
  void FinishModes(std::vector<Mode>& modes) const {
    auto from_base = [](const ModeResult& base) {
      Mode m;
      static_cast<ModeResult&>(m) = base;
      return m;
    };
    for (Mode& m : modes)
      if (ApplyQualityVerdict(m)) m = from_base(m);
    if (pruned.empty()) return;
    for (const ModeResult& p : pruned) modes.push_back(from_base(p));
    std::sort(modes.begin(), modes.end(), [](const Mode& a, const Mode& b) {
      return a.bitwidth < b.bitwidth;
    });
  }

  /// Records the proved bound of one searched mode, or replaces the
  /// mode by its placeholder when the bound exceeds the target.
  /// Returns true when replaced.
  bool ApplyQualityVerdict(ModeResult& m) const;
};

/// Builds the plan: the domain-count check, the signoff lint gate
/// (core::SignoffLint), the sorted bitwidths (empty = 1 ..
/// data_width), the static-prune split, the PowerModel with its
/// per-domain leakage weights, and stage 1 — one bit-parallel activity
/// simulation (sim::ExtractActivityBatch, which also warms the
/// process-wide activity cache) and one all-mode case analysis
/// (netlist::CaseAnalysis::Batch).
ExplorePlan PlanExploration(const ImplementedDesign& design,
                            const tech::CellLibrary& lib,
                            const ExploreRequest& req, ExploreEngine engine);

/// One point of a bitwidth's (VDD, FBB-mask) lattice.
struct LatticePoint {
  std::size_t vi = 0;  ///< index into ExploreRequest::vdds
  tech::DomainMask mask = 0;

  auto operator<=>(const LatticePoint&) const = default;
};

/// STA verdict of one lattice point. wns_ns round-trips through the
/// store as exact bits, so a warm start folds the very doubles a cold
/// one does.
struct PointVerdict {
  bool feasible = false;
  bool from_store = false;  ///< served by the persistent store
  double wns_ns = 0.0;
};

/// The one verdict path of an exploration. Owns the worker pool, one
/// lazily built sta::TimingAnalyzer per worker (it caches its
/// levelization, delay tables and sweep schedules across calls) and
/// the persistent-store context.
class VerdictEvaluator {
 public:
  VerdictEvaluator(const ImplementedDesign& design,
                   const tech::CellLibrary& lib, const ExploreRequest& req,
                   ExploreEngine engine);
  ~VerdictEvaluator();
  VerdictEvaluator(const VerdictEvaluator&) = delete;
  VerdictEvaluator& operator=(const VerdictEvaluator&) = delete;

  /// Verdicts of the distinct `points` at bitwidth `bw`, in input
  /// order. Store hits are served first; the rest run through
  /// AnalyzeBatch on the pool, grouped by VDD row (input order within
  /// a row) and cut into batch_width-lane chunks; their fresh
  /// verdicts are then written back to the store serially, in input
  /// order. The result is bit-identical at any thread count and batch
  /// width, and the store never sees concurrent traffic.
  void Evaluate(int bw, const netlist::CaseAnalysis& ca,
                const std::vector<LatticePoint>& points,
                std::vector<PointVerdict>* out);

  int num_threads() const;
  /// Worker `w`'s analyzer, built on first use (worker 0 is the
  /// calling thread).
  sta::TimingAnalyzer& analyzer(int w);

 private:
  const ImplementedDesign& design_;
  const tech::CellLibrary& lib_;
  const ExploreRequest& req_;
  const char* lane_prefix_;
  int store_ctx_ = -1;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::unique_ptr<sta::TimingAnalyzer>> analyzers_;
};

/// Canonical persistent-store key of an implemented design: the full
/// byte encoding of everything an STA verdict depends on — netlist
/// structure (cell kinds, pin nets, drive strengths), extracted
/// per-net loads, the cell->domain map and the implementation clock —
/// plus its 64-bit FNV-1a digest. The store verifies the full
/// encoding on every hash hit, so a digest collision degrades to a
/// miss, never to a wrong verdict.
store::StoreKey ExploreStoreKey(const ImplementedDesign& design);

}  // namespace adq::core
