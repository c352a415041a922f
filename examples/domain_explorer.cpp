/// \file domain_explorer.cpp
/// \brief User-facing design-space exploration tool: pick an operator
/// and a Vth-domain grid, get the full methodology report.
///
/// Usage: domain_explorer [booth|butterfly|fir|mac|array] [NX] [NY]
///                        [regular|bands] [threads] [--lint=off|warn|error]
///                        [--engine=exhaustive|frontier|auto]
///                        [--store=DIR] [--budget=N] [--quality=E]
///                        [--no-static-prune]
///                        [--trace=f.json] [--metrics=f.json] [--progress]
/// Defaults: booth 2 2 regular 0 (threads: 0 = one per hardware
/// thread, 1 = serial; any value gives identical results — the
/// exploration's deterministic-merge guarantee). This generalizes
/// the paper's Fig. 6
/// study to any operator/grid combination (optionally with
/// criticality-fitted band cuts) and prints everything a designer
/// needs to pick a grid: area overhead, per-mode optimal knobs, and
/// the savings against both DVAS baselines.
///
/// --engine picks the exploration engine: `exhaustive` enumerates
/// every mask (grids up to core::kMaxExhaustiveDomains domains),
/// `frontier` runs the branch-and-bound lattice search
/// (core::FrontierExplore — any grid up to tech::kMaxDomains; prints
/// per-mode certificates or proved gaps), and `auto` (the default)
/// routes oversize grids to frontier. --store=DIR warm-starts either
/// engine from a persistent exploration store at DIR (created when
/// absent) and writes fresh verdicts back — a second run trades its
/// STA runs for store hits with bit-identical results. --budget=N
/// caps the frontier search at N node expansions per accuracy mode
/// (0 = run to certificate). --quality=E sets the worst-case absolute
/// error target: modes whose statically *proved* error bound
/// (analysis::AccuracyAnalyzer) exceeds E are discarded before any
/// simulation or STA — the sim-free static-prune stage —
/// and --no-static-prune runs the same target the slow way (sweep
/// everything, discard post-hoc; bit-identical modes, for ablation).
/// The --lint gate is applied by *both* exploration engines (the same
/// core::SignoffLint the flow runs), not just by the flow itself.
///
/// Exit codes: 0 on success, 1 on bad arguments, 2 when the flow
/// cannot implement the request (core::FlowError, e.g. a grid so fine
/// that a domain tile overflows); the diagnosis goes to stderr.
///
/// Observability (see README "Observability"): --trace writes a
/// Chrome/Perfetto trace of the whole run (flow phases + per-worker
/// exploration lanes), --metrics a counters/gauges/histograms
/// snapshot (.csv selects CSV), --progress a rate-limited stderr
/// status line. ADQ_TRACE/ADQ_METRICS/ADQ_PROGRESS env vars set the
/// same knobs; flags win.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <memory>
#include <string>

#include "core/controller.h"
#include "core/dvas.h"
#include "core/explore.h"
#include "core/flow.h"
#include "core/frontier.h"
#include "core/pareto.h"
#include "store/exploration_store.h"
#include "gen/operator.h"
#include "lint/lint.h"
#include "netlist/stats.h"
#include "obs/obs.h"
#include "util/table.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace adq;
  obs::Options oopt = obs::OptionsFromEnv();
  lint::LintGate lint_gate = lint::LintGate::kError;
  std::string engine = "auto";
  std::string store_dir;
  long budget = 0;
  double quality = std::numeric_limits<double>::infinity();
  bool static_prune = true;
  std::vector<const char*> pos;  // positional args, flags stripped
  for (int i = 1; i < argc; ++i) {
    if (obs::ParseObsFlag(argv[i], &oopt)) continue;
    if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine = argv[i] + 9;
      if (engine != "exhaustive" && engine != "frontier" &&
          engine != "auto") {
        std::fprintf(stderr, "--engine must be exhaustive, frontier or auto\n");
        return 1;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--store=", 8) == 0) {
      store_dir = argv[i] + 8;
      continue;
    }
    if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      budget = std::atol(argv[i] + 9);
      continue;
    }
    if (std::strncmp(argv[i], "--quality=", 10) == 0) {
      quality = std::atof(argv[i] + 10);
      if (!(quality >= 0.0)) {
        std::fprintf(stderr, "--quality must be a non-negative error bound\n");
        return 1;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--no-static-prune") == 0) {
      static_prune = false;
      continue;
    }
    if (std::strncmp(argv[i], "--lint=", 7) == 0) {
      const char* v = argv[i] + 7;
      if (std::strcmp(v, "off") == 0) lint_gate = lint::LintGate::kOff;
      else if (std::strcmp(v, "warn") == 0) lint_gate = lint::LintGate::kWarn;
      else if (std::strcmp(v, "error") == 0) lint_gate = lint::LintGate::kError;
      else {
        std::fprintf(stderr, "--lint must be off, warn or error\n");
        return 1;
      }
      continue;
    }
    pos.push_back(argv[i]);
  }
  obs::Configure(oopt);

  const char* which = pos.size() > 0 ? pos[0] : "booth";
  place::GridConfig grid{pos.size() > 1 ? std::atoi(pos[1]) : 2,
                         pos.size() > 2 ? std::atoi(pos[2]) : 2};
  if (grid.nx < 1 || grid.ny < 1 ||
      grid.num_domains() > tech::kMaxDomains) {
    std::fprintf(stderr, "grid must be 1x1 .. %d domains\n",
                 tech::kMaxDomains);
    return 1;
  }
  if (engine == "exhaustive" &&
      grid.num_domains() > core::kMaxExhaustiveDomains) {
    std::fprintf(stderr,
                 "grid has %d domains; --engine=exhaustive tops out at "
                 "%d (use --engine=frontier)\n",
                 grid.num_domains(), core::kMaxExhaustiveDomains);
    return 1;
  }

  gen::Operator op = std::strcmp(which, "butterfly") == 0
                         ? gen::BuildButterflyOperator(16)
                     : std::strcmp(which, "fir") == 0
                         ? gen::BuildFirMacOperator(16)
                     : std::strcmp(which, "mac") == 0
                         ? gen::BuildMacOperator(16)
                     : std::strcmp(which, "array") == 0
                         ? gen::BuildArrayMultOperator(16)
                         : gen::BuildBoothOperator(16);

  const tech::CellLibrary lib;
  core::FlowOptions fopt;
  fopt.grid = grid;
  if (pos.size() > 3 && std::strcmp(pos[3], "bands") == 0)
    fopt.strategy = core::DomainStrategy::kCriticalityBands;
  const int threads = pos.size() > 4 ? std::atoi(pos[4]) : 0;
  fopt.num_threads = threads;
  fopt.lint = lint_gate;
  std::printf("operator %s, grid %s (%s)\n", op.spec.name.c_str(),
              grid.ToString().c_str(),
              fopt.strategy == core::DomainStrategy::kCriticalityBands
                  ? "criticality bands"
                  : "regular grid");
  core::ImplementedDesign design;
  try {
    design = core::RunImplementationFlow(std::move(op), lib, fopt);
  } catch (const core::FlowError& e) {
    std::fprintf(stderr, "domain_explorer: %s\n", e.what());
    return 2;
  }
  const auto stats = netlist::ComputeStats(design.op.nl, lib);
  std::printf(
      "implemented: %zu cells, %.3e mm^2 cell area, fclk %.2f GHz,\n"
      "guardband overhead %.1f%%, timing %s (wns %+.3f ns)\n\n",
      stats.num_instances, stats.cell_area_um2 * 1e-6, design.fclk_ghz(),
      100.0 * design.partition.area_overhead(),
      design.timing_met ? "met" : "VIOLATED", design.sizing.wns_ns);

  std::unique_ptr<store::ExplorationStore> store;
  if (!store_dir.empty()) {
    store = std::make_unique<store::ExplorationStore>(store_dir);
    std::printf("exploration store: %s (%llu records on open)\n",
                store->dir().c_str(),
                static_cast<unsigned long long>(store->num_records()));
  }
  const bool use_frontier =
      engine == "frontier" ||
      (engine == "auto" &&
       design.num_domains() > core::kMaxExhaustiveDomains);

  core::ExploreOptions xopt;
  xopt.num_threads = threads;
  xopt.store = store.get();
  xopt.lint = lint_gate;
  xopt.quality_max_abs_error = quality;
  xopt.static_prune = static_prune;
  core::ExplorationResult ours;
  core::FrontierResult frontier;
  if (use_frontier) {
    core::FrontierOptions fropt;
    static_cast<core::ExploreRequest&>(fropt) = xopt;  // shared request
    fropt.node_budget = budget;
    frontier = core::FrontierExplore(design, lib, fropt);
    ours = frontier.ToExplorationResult();
  } else {
    ours = core::ExploreDesignSpace(design, lib, xopt);
  }
  const auto dvas_fbb =
      core::ExploreDvas(design, lib, core::DvasVariant::kFBB, xopt);
  const auto dvas_nobb =
      core::ExploreDvas(design, lib, core::DvasVariant::kNoBB, xopt);

  // The schedule the runtime controller would program, gated by the
  // same --lint policy as the flow (rules FL004 / MD001).
  const core::RuntimeController ctl(ours);
  lint::EnforceGate(ctl.Lint(design.num_domains(), design.op.spec.data_width),
                    lint_gate);

  const auto fo = core::Frontier(ours);
  const auto ff = core::Frontier(dvas_fbb);
  const auto fn = core::Frontier(dvas_nobb);

  util::Table t({"bits", "optimal [W]", "VDD", "mask", "vs DVAS FBB",
                 "vs DVAS NoBB"});
  for (const core::ParetoPoint& p : fo) {
    auto rel = [&](const std::vector<core::ParetoPoint>& base) {
      const auto s = core::SavingAt(fo, base, p.bitwidth);
      return s ? util::Table::Num(100.0 * *s, 1) + "%" : std::string("--");
    };
    char mask[40];
    std::snprintf(mask, sizeof(mask), "0x%llx",
                  static_cast<unsigned long long>(p.mask));
    t.AddRow({std::to_string(p.bitwidth), util::Table::Sci(p.power_w, 3),
              util::Table::Num(p.vdd, 1), mask, rel(ff), rel(fn)});
  }
  std::fputs(t.Render().c_str(), stdout);
  if (use_frontier) {
    std::printf("\nmode certificates (frontier engine):\n");
    for (const core::FrontierModeResult& m : frontier.modes) {
      if (m.statically_pruned)
        std::printf(
            "  bits %2d: statically pruned — proved error bound %.3e "
            "exceeds the quality target (no sim, no STA)\n",
            m.bitwidth, m.proved_max_abs_error);
      else if (m.certified)
        std::printf("  bits %2d: proved optimal (%ld nodes expanded)\n",
                    m.bitwidth, m.nodes_expanded);
      else
        std::printf(
            "  bits %2d: budget hit after %ld nodes, proved gap "
            "%.3e W\n",
            m.bitwidth, m.nodes_expanded, m.gap_w);
    }
    std::printf(
        "frontier: %ld nodes expanded over %ld waves, %ld STA runs, "
        "%ld store hits, %ld cross-bitwidth transfers, %ld modes "
        "statically pruned (%d/%zu modes certified, %d worker "
        "threads)\n",
        frontier.stats.nodes_expanded, frontier.stats.waves,
        frontier.stats.sta_runs, frontier.stats.store_hits,
        frontier.stats.transfer_hits, frontier.stats.static_mode_prunes,
        frontier.stats.certified_modes, frontier.modes.size(),
        util::ResolveNumThreads(threads));
  } else {
    std::printf(
        "\nexploration: %ld points considered, %ld STA runs (%ld "
        "mask-dominance pruned), %.0f%% filtered, %ld modes "
        "statically pruned (%d worker threads)\n",
        ours.stats.points_considered, ours.stats.sta_runs,
        ours.stats.mask_pruned, 100.0 * ours.stats.FilterRate(),
        ours.stats.static_mode_prunes, util::ResolveNumThreads(threads));
  }
  if (store) {
    const store::StoreStats ss = store->stats();
    std::printf(
        "store: %llu hits / %llu lookups this run; flushing %s\n",
        static_cast<unsigned long long>(ss.hits),
        static_cast<unsigned long long>(ss.lookups),
        store->Flush() ? "ok" : "FAILED");
  }
  // The --metrics snapshot accumulates over every exploration in the
  // process (the main sweep plus both DVAS baselines); print the same
  // totals so the two outputs reconcile exactly.
  const core::ExplorationStats* all[] = {&ours.stats, &dvas_fbb.stats,
                                         &dvas_nobb.stats};
  core::ExplorationStats tot;
  for (const core::ExplorationStats* s : all) {
    tot.points_considered += s->points_considered;
    tot.sta_runs += s->sta_runs;
    tot.filtered += s->filtered;
    tot.pruned += s->pruned;
    tot.mask_pruned += s->mask_pruned;
    tot.feasible += s->feasible;
  }
  std::printf(
      "incl. DVAS baselines (= --metrics totals): %ld points, %ld STA "
      "runs, %ld pruned, %ld mask-pruned, %ld filtered, %ld feasible\n",
      tot.points_considered, tot.sta_runs, tot.pruned, tot.mask_pruned,
      tot.filtered, tot.feasible);
  obs::Flush();
  return 0;
}
