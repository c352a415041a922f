#pragma once
/// \file pipeline.h
/// \brief The three benchmark workloads. A job is one complete user
/// request through the public library API: generate the operators,
/// run the Fig. 4 implementation flow, explore (mask x VDD x
/// bitwidth) for the proposed method and the DVAS baselines, and
/// emit the mode tables. Every option that takes a thread count is
/// pinned to 1.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "tech/cell_library.h"

namespace perfbench {

enum class Workload { kPaperFig5, kLattice4x4, kGridSweep };

/// Parses "paper_fig5" / "lattice_4x4" / "grid_sweep".
bool ParseWorkload(const std::string& name, Workload* out);

/// FlowOptions::seed of every job. The placement seed changes the
/// implemented design itself (timing closure, modes solved, savings),
/// so it stays at the library default and only the explorers' seed
/// follows the benchmark's --seed.
constexpr std::uint64_t kFlowSeed = 1;

struct JobSpec {
  Workload workload = Workload::kPaperFig5;
  std::uint64_t explore_seed = 7;  ///< Explore/FrontierOptions::seed
  /// Self-test hook: replace each design's proposed exploration by
  /// its DVAS (NoBB) one before the output checks run.
  bool tamper = false;
};

/// Quality of a job's tables; exact and deterministic in the seeds.
struct Quality {
  double timing_met_frac = 0.0;
  double modes_solved = 0.0;
  double saving_ref_pct = 0.0;
  double saving_best_pct = 0.0;
};

struct JobOutcome {
  std::vector<std::string> failures;  ///< output checks that failed
  std::uint64_t digest = 0;           ///< of every table in the job
  Quality quality;
  /// Per-layer counts of a traced job (empty when untraced).
  std::map<std::string, double> counts;
};

/// Runs one job. With a ledger, the job is traced: layer spans are
/// recorded, the activity simulation and one case-analysis mode set
/// are run ahead of the explorations so their time can be booked to
/// their own layers, and per-layer counts are filled in.
JobOutcome RunJob(const JobSpec& spec, const adq::tech::CellLibrary& lib,
                  Ledger* ledger);

}  // namespace perfbench
