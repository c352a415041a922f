#pragma once
/// \file frontier.h
/// \brief Best-first branch-and-bound over the FBB-mask dominance
/// lattice — exploration beyond the exhaustive 2^NMAX ceiling.
///
/// The exhaustive engine (core/explore.h) enumerates every mask; past
/// kMaxExhaustiveDomains that is hopeless (2^36 points for a 6x6
/// grid). FrontierExplore searches the same lattice with the same two
/// exact monotonicity facts the exhaustive pruner uses, but as
/// *bounds* instead of filters:
///
///   * feasibility is antitone in the FBB mask (forward bias only
///     lowers delay): a node's subtree — all masks between its
///     decided mask and decided|undecided-tail — is entirely
///     infeasible when its maximal mask fails STA, and its minimal
///     mask is the subtree's exact leakage optimum when it passes;
///   * leakage is monotone non-decreasing in the mask (FBB raises
///     leakage), and the fold order of the leakage sum is fixed, so
///     dyn + leak(minimal mask) is a sound lower bound on every
///     point in the subtree — in the very double-precision
///     expressions the exhaustive merge evaluates.
///
/// Branching follows per-domain accuracy criticality (core/
/// band_optimizer.h): the domains that carry critical paths at the
/// smallest bitwidths are decided first, which settles feasibility
/// high in the tree. Each expansion costs at most two fresh STA
/// verdicts (children share the other two with their parent).
///
/// Outcome per accuracy mode: either a *certificate* — the open
/// frontier was exhausted, so the returned point is exactly the
/// point the exhaustive sweep would have selected (bit-identical
/// power/wns, identical tie-breaking; pinned by tests/test_frontier)
/// — or, when the node budget ran out first, the incumbent plus a
/// proved optimality gap (incumbent power minus the smallest open
/// lower bound).
///
/// Only the search lives here. The request (FrontierOptions derives
/// from ExploreRequest), the prologue, the verdict path and the
/// epilogue are the front end shared with the exhaustive engine
/// (core/explore.h), so both engines key the persistent store alike
/// and trade sta_runs for store_hits with bit-identical results.
///
/// Determinism: results are bit-identical at every worker count.
/// Expansion proceeds in waves of a fixed (option-controlled, never
/// thread-derived) width; the wave's deduplicated verdict demands go
/// through the shared VerdictEvaluator in one call, and all search
/// state mutation — incumbent updates, child generation — happens
/// serially in wave order.

#include <cstdint>
#include <vector>

#include "core/explore.h"
#include "core/flow.h"

namespace adq::core {

/// The frontier's own search fields; everything else — supplies,
/// modes, activity, batch width, workers, store, quality target,
/// lint gate — is the shared ExploreRequest.
struct FrontierOptions : ExploreRequest {
  /// Nodes expanded per wave. Fixed by this option — never derived
  /// from the worker count — so the search trajectory (and therefore
  /// the result, stats included) is bit-identical at any num_threads.
  int wave_width = 64;
  /// Expansion budget per accuracy mode; <= 0 means unlimited (run to
  /// certificate). When the budget stops a mode early, its result
  /// carries certified = false and the proved gap_w.
  long node_budget = 0;
  /// Branch-order criticality probe: the slack window handed to
  /// core::AccuracyCriticality. 0 disables the probe (domains are
  /// decided in index order) — results stay identical, only the
  /// search trajectory (and node count) changes.
  double criticality_slack_window_ns = 0.05;
};

/// Outcome of one accuracy mode's lattice search: the mode result
/// both engines share plus the frontier's certificate.
struct FrontierModeResult : ModeResult {
  /// True when the open frontier was exhausted: `best` is proved
  /// optimal (exactly the exhaustive sweep's selection). A statically
  /// pruned mode is certified too — the empty feasible set is a
  /// proof, not a budget artifact.
  bool certified = false;
  /// Proved optimality gap [W] when not certified: best.power minus
  /// the smallest lower bound still open. 0 when certified or when
  /// every open bound already exceeds the incumbent.
  double gap_w = 0.0;
  long nodes_expanded = 0;
};

struct FrontierStats {
  long nodes_expanded = 0;
  long nodes_pruned_bound = 0;       ///< popped with lb >= incumbent
  long nodes_pruned_infeasible = 0;  ///< subtree killed by maxmask STA
  long nodes_closed = 0;             ///< subtree solved by minmask STA
  long sta_runs = 0;      ///< fresh STA verdicts (lattice points)
  long store_hits = 0;    ///< verdicts served by the persistent store
  long transfer_hits = 0; ///< infeasibility carried from a smaller
                          ///< bitwidth (monotone in bitwidth)
  long static_mode_prunes = 0;  ///< modes decided by the static
                                ///< accuracy bound alone (no sim/STA)
  long waves = 0;
  int certified_modes = 0;
};

struct FrontierResult {
  std::vector<FrontierModeResult> modes;  ///< one per requested bitwidth
  FrontierStats stats;

  const FrontierModeResult& Mode(int bitwidth) const {
    return FindMode(modes, bitwidth);
  }

  /// Adapts the result into the exhaustive engine's shape so existing
  /// consumers (RuntimeController, pareto::Frontier, the lint mode
  /// gate) run unchanged. Stats map onto their exhaustive
  /// counterparts where one exists (sta_runs, store_hits, feasible).
  ExplorationResult ToExplorationResult() const;
};

/// Searches the (VDD, FBB-mask) lattice of every requested accuracy
/// mode. Works for any domain count up to tech::kMaxDomains; for
/// grids within the exhaustive ceiling it returns certificates that
/// match ExploreDesignSpace bit-for-bit.
FrontierResult FrontierExplore(const ImplementedDesign& design,
                               const tech::CellLibrary& lib,
                               const FrontierOptions& opt = {});

}  // namespace adq::core
