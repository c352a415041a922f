#include "pipeline.h"

#include <cstring>
#include <optional>

#include "core/accuracy.h"
#include "core/dvas.h"
#include "core/explore.h"
#include "core/flow.h"
#include "core/frontier.h"
#include "core/pareto.h"
#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "obs/metrics.h"
#include "sim/activity.h"

namespace perfbench {

namespace core = adq::core;
namespace gen = adq::gen;
namespace obs = adq::obs;
namespace sim = adq::sim;

namespace {

using Clock = std::chrono::steady_clock;

struct DesignCase {
  const char* name;
  gen::Operator (*build)(int);
  adq::place::GridConfig grid;
  int ref_bits;  ///< paper Fig. 5 headline bitwidth
};

constexpr int kDataWidth = 16;

const DesignCase kBooth22{"booth", &gen::BuildBoothOperator, {2, 2}, 10};
const DesignCase kButterfly33{"butterfly", &gen::BuildButterflyOperator,
                              {3, 3}, 8};
const DesignCase kFir33{"fir", &gen::BuildFirMacOperator, {3, 3}, 10};

/// What a workload runs on each of its designs.
struct Plan {
  std::vector<DesignCase> designs;
  std::vector<int> bitwidths;  ///< empty = 1 .. 16
  bool fbb_flat = false;       ///< DVAS (FBB) on the flat view too
  bool frontier = false;       ///< FrontierExplore beside the sweep
};

Plan PlanFor(Workload w) {
  switch (w) {
    case Workload::kPaperFig5:
      return {{kBooth22, kButterfly33, kFir33}, {}, true, false};
    case Workload::kLattice4x4:
      return {{{"booth", &gen::BuildBoothOperator, {4, 4}, 10}},
              {},
              false,
              true};
    case Workload::kGridSweep: {
      Plan p;
      const adq::place::GridConfig grids[] = {{1, 2}, {2, 1}, {1, 3},
                                              {3, 1}, {2, 2}, {3, 3}};
      for (const auto& g : grids)
        p.designs.push_back({"booth", &gen::BuildBoothOperator, g, 10});
      for (int b = 8; b <= kDataWidth; ++b) p.bitwidths.push_back(b);
      return p;
    }
  }
  return {};
}

std::string DesignName(const DesignCase& c) {
  return std::string(c.name) + "_" + c.grid.ToString();
}

/// One row of a mode table, as a runtime controller would load it.
struct ModeRow {
  int bitwidth = 0;
  bool has_solution = false;
  double vdd = 0.0;
  std::uint64_t mask = 0;
  double dynamic_w = 0.0;
  double leakage_w = 0.0;
  double wns_ns = 0.0;
  bool certified = false;  ///< frontier tables only
};
using ModeTable = std::vector<ModeRow>;

struct DesignOutcome {
  std::string name;
  int ref_bits = 0;
  bool timing_met = false;
  ModeTable proposed;
  ModeTable dvas_nobb;  ///< iso-layout
  ModeTable dvas_fbb;   ///< iso-layout
  ModeTable fbb_flat;   ///< guardband-free layout (paper_fig5 only)
  ModeTable frontier;   ///< lattice_4x4 only
  // Pareto frontiers (core::Frontier) of the iso-layout explorations.
  std::vector<core::ParetoPoint> front_proposed, front_nobb, front_fbb;
};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

ModeTable Table(const core::ExplorationResult& r) {
  ModeTable t;
  for (const core::ModeResult& m : r.modes)
    t.push_back({m.bitwidth, m.has_solution, m.best.vdd, m.best.mask,
                 m.best.power.dynamic_w, m.best.power.leakage_w,
                 m.best.wns_ns, false});
  return t;
}

ModeTable Table(const core::FrontierResult& r) {
  ModeTable t;
  for (const core::FrontierModeResult& m : r.modes)
    t.push_back({m.bitwidth, m.has_solution, m.best.vdd, m.best.mask,
                 m.best.power.dynamic_w, m.best.power.leakage_w,
                 m.best.wns_ns, m.certified});
  return t;
}

bool SameSolution(const ModeRow& a, const ModeRow& b) {
  if (a.bitwidth != b.bitwidth || a.has_solution != b.has_solution)
    return false;
  if (!a.has_solution) return true;
  return a.vdd == b.vdd && a.mask == b.mask && a.wns_ns == b.wns_ns &&
         a.dynamic_w == b.dynamic_w && a.leakage_w == b.leakage_w;
}

// ---------------------------------------------------------------------
// Digest of every table of a job (FNV-1a over exact bit patterns).

class Digest {
 public:
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    unsigned char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    Bytes(buf, sizeof(T));
  }
  void Table(const ModeTable& t) {
    Pod(t.size());
    for (const ModeRow& r : t) {
      Pod(r.bitwidth);
      Pod(r.has_solution);
      Pod(r.vdd);
      Pod(r.mask);
      Pod(r.dynamic_w);
      Pod(r.leakage_w);
      Pod(r.wns_ns);
      Pod(r.certified);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t DigestOf(const std::vector<DesignOutcome>& designs) {
  Digest d;
  for (const DesignOutcome& o : designs) {
    d.Bytes(o.name.data(), o.name.size());
    d.Pod(o.timing_met);
    for (const ModeTable* t : {&o.proposed, &o.dvas_nobb, &o.dvas_fbb,
                               &o.fbb_flat, &o.frontier})
      d.Table(*t);
  }
  return d.value();
}

// ---------------------------------------------------------------------
// Savings against the best iso-layout DVAS variant (paper Fig. 5).

std::optional<double> BestDvasAt(const DesignOutcome& d, int bw) {
  std::optional<double> best = core::PowerAt(d.front_nobb, bw);
  if (const auto f = core::PowerAt(d.front_fbb, bw);
      f && (!best || *f < *best))
    best = f;
  return best;
}

std::optional<double> SavingPct(const DesignOutcome& d, int bw) {
  const auto ours = core::PowerAt(d.front_proposed, bw);
  const auto dvas = BestDvasAt(d, bw);
  if (!ours || !dvas) return std::nullopt;
  return 100.0 * (*dvas - *ours) / *dvas;
}

Quality QualityOf(const std::vector<DesignOutcome>& designs) {
  Quality q;
  int met = 0, n_ref = 0, n_best = 0;
  for (const DesignOutcome& d : designs) {
    met += d.timing_met ? 1 : 0;
    for (const ModeRow& r : d.proposed)
      q.modes_solved += r.has_solution ? 1.0 : 0.0;
    if (const auto s = SavingPct(d, d.ref_bits)) {
      q.saving_ref_pct += *s;
      ++n_ref;
    }
    std::optional<double> best;
    for (int bw = 6; bw <= kDataWidth; ++bw)
      if (const auto s = SavingPct(d, bw); s && (!best || *s > *best))
        best = s;
    if (best) {
      q.saving_best_pct += *best;
      ++n_best;
    }
  }
  q.timing_met_frac =
      static_cast<double>(met) / static_cast<double>(designs.size());
  if (n_ref > 0) q.saving_ref_pct /= n_ref;
  if (n_best > 0) q.saving_best_pct /= n_best;
  return q;
}

// ---------------------------------------------------------------------
// Output checks.

/// The proposed method explores a superset of the DVAS masks on the
/// same layout, so wherever a DVAS variant has a solution the
/// proposed one must too, at no more power.
void CheckNotWorseThanDvas(const DesignOutcome& d,
                           std::vector<std::string>* failures) {
  for (const ModeRow& r : d.proposed) {
    const auto dvas = BestDvasAt(d, r.bitwidth);
    const auto ours = core::PowerAt(d.front_proposed, r.bitwidth);
    if (dvas && (!ours || *ours > *dvas))
      failures->push_back(d.name + ": proposed power exceeds iso-layout "
                                   "DVAS at " +
                          std::to_string(r.bitwidth) + " bits");
  }
}

/// Every certified frontier mode must be bit-identical to the
/// exhaustive sweep's selection.
void CheckFrontierCertificates(const DesignOutcome& d,
                               std::vector<std::string>* failures) {
  if (d.frontier.size() != d.proposed.size()) {
    failures->push_back(d.name + ": frontier and sweep mode counts differ");
    return;
  }
  for (std::size_t i = 0; i < d.frontier.size(); ++i)
    if (d.frontier[i].certified &&
        !SameSolution(d.frontier[i], d.proposed[i]))
      failures->push_back(d.name + ": certified frontier mode " +
                          std::to_string(d.frontier[i].bitwidth) +
                          " differs from the exhaustive selection");
}

// ---------------------------------------------------------------------
// Traced-job helpers.

/// Phase gauges the flow publishes (obs PhaseScope), grouped by the
/// layer they are booked to.
struct FlowLayer {
  const char* layer;
  std::vector<const char*> gauges;
};
const FlowLayer kFlowLayers[] = {
    {"place.place",
     {"phase.flow.place.wall_ms", "phase.flow.partition.wall_ms",
      "phase.flow.legalize.wall_ms"}},
    {"opt.eco",
     {"phase.flow.sizing.wall_ms", "phase.flow.buffering.wall_ms",
      "phase.flow.postplace_eco.wall_ms", "phase.flow.extract_eco.wall_ms"}},
    {"lint.lint", {"phase.flow.lint.wall_ms"}},
};

std::vector<double> FlowGaugesMs() {
  std::vector<double> v;
  for (const FlowLayer& l : kFlowLayers) {
    double ms = 0.0;
    for (const char* g : l.gauges) ms += obs::GetGauge(g).value();
    v.push_back(ms);
  }
  return v;
}

/// obs counters read per traced job (deltas over the job).
const char* const kObsCounters[] = {
    "sta.batch_calls",      "sta.batch_lanes",    "sta.incremental_calls",
    "sta.incremental_hits", "power.energy_scans", "flow.relegalized_tiles",
    "lint.warnings",
};

std::map<std::string, double> ObsCounterValues() {
  std::map<std::string, double> v;
  for (const char* c : kObsCounters)
    v[c] = static_cast<double>(obs::GetCounter(c).value());
  return v;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "paper_fig5") *out = Workload::kPaperFig5;
  else if (name == "lattice_4x4") *out = Workload::kLattice4x4;
  else if (name == "grid_sweep") *out = Workload::kGridSweep;
  else return false;
  return true;
}

JobOutcome RunJob(const JobSpec& spec, const adq::tech::CellLibrary& lib,
                  Ledger* ledger) {
  const Plan plan = PlanFor(spec.workload);
  JobOutcome out;
  const std::map<std::string, double> obs_before =
      ledger ? ObsCounterValues() : std::map<std::string, double>{};

  core::FlowOptions fopt;
  fopt.seed = kFlowSeed;
  fopt.num_threads = 1;
  core::ExploreOptions xopt;
  xopt.seed = spec.explore_seed;
  xopt.num_threads = 1;
  xopt.bitwidths = plan.bitwidths;
  core::FrontierOptions ropt;
  ropt.seed = spec.explore_seed;
  ropt.num_threads = 1;
  ropt.bitwidths = plan.bitwidths;

  std::vector<int> bitwidths = plan.bitwidths;
  if (bitwidths.empty())
    for (int b = 1; b <= kDataWidth; ++b) bitwidths.push_back(b);

  std::vector<DesignOutcome> designs;
  double points = 0.0, sta_runs = 0.0, mask_pruned = 0.0;
  double nodes = 0.0, frontier_sta_runs = 0.0, certified = 0.0;
  for (const DesignCase& c : plan.designs) {
    DesignOutcome d;
    d.name = DesignName(c);
    d.ref_bits = c.ref_bits;

    gen::Operator op;
    {
      Span s(ledger, "gen.build");
      op = c.build(kDataWidth);
    }
    core::ImplementedDesign impl;
    std::optional<core::ImplementedDesign> flat;
    {
      Span s(ledger, "core.flow");
      const std::vector<double> g0 =
          ledger ? FlowGaugesMs() : std::vector<double>{};
      fopt.grid = c.grid;
      impl = core::RunImplementationFlow(std::move(op), lib, fopt);
      if (plan.fbb_flat) flat = core::FlatView(impl, lib);
      if (ledger) {
        const std::vector<double> g1 = FlowGaugesMs();
        for (std::size_t i = 0; i < g1.size(); ++i)
          ledger->Attribute(kFlowLayers[i].layer, 1e-3 * (g1[i] - g0[i]));
      }
    }
    d.timing_met = impl.timing_met;

    // Traced jobs simulate up front, with the explorations' own
    // arguments, so the explorations below only hit the activity
    // cache; and time one case-analysis mode set, the stage-1 work
    // every exploration call repeats.
    double case_analysis_s = 0.0;
    std::uint64_t misses_after_sim = 0;
    if (ledger) {
      {
        Span s(ledger, "sim.activity");
        std::vector<int> lsbs;
        for (const int bw : bitwidths)
          lsbs.push_back(core::ZeroedLsbs(impl.op, bw));
        sim::ExtractActivityBatch(impl.op, lsbs, xopt.activity_cycles,
                                  xopt.seed, xopt.stimulus);
      }
      misses_after_sim = sim::GetActivityCacheStats().misses;
      Span s(ledger, "bench.case_probe");
      const Clock::time_point t0 = Clock::now();
      for (const int bw : bitwidths)
        adq::netlist::CaseAnalysis(impl.op.nl, core::ForcedZeros(impl.op, bw));
      case_analysis_s = SecondsSince(t0);
    }
    const auto book_case_analysis = [&] {
      if (ledger) ledger->Attribute("netlist.case_analysis", case_analysis_s);
    };

    core::ExplorationResult proposed, nobb, fbb, fbb_flat;
    {
      Span s(ledger, "core.explore");
      proposed = core::ExploreDesignSpace(impl, lib, xopt);
      book_case_analysis();
      points += static_cast<double>(proposed.stats.points_considered);
      sta_runs += static_cast<double>(proposed.stats.sta_runs);
      mask_pruned += static_cast<double>(proposed.stats.mask_pruned);
    }
    if (plan.frontier) {
      Span s(ledger, "core.frontier");
      const core::FrontierResult r = core::FrontierExplore(impl, lib, ropt);
      book_case_analysis();
      d.frontier = Table(r);
      nodes += static_cast<double>(r.stats.nodes_expanded);
      frontier_sta_runs += static_cast<double>(r.stats.sta_runs);
      certified += r.stats.certified_modes;
    }
    {
      Span s(ledger, "core.dvas");
      nobb = core::ExploreDvas(impl, lib, core::DvasVariant::kNoBB, xopt);
      book_case_analysis();
      fbb = core::ExploreDvas(impl, lib, core::DvasVariant::kFBB, xopt);
      book_case_analysis();
      if (flat) {
        fbb_flat =
            core::ExploreDvas(*flat, lib, core::DvasVariant::kFBB, xopt);
        book_case_analysis();
      }
    }
    if (ledger && sim::GetActivityCacheStats().misses != misses_after_sim)
      out.failures.push_back(d.name +
                             ": explorations missed the activity cache "
                             "after the benchmark's own simulation");

    if (spec.tamper) proposed = nobb;
    d.proposed = Table(proposed);
    d.dvas_nobb = Table(nobb);
    d.dvas_fbb = Table(fbb);
    if (flat) d.fbb_flat = Table(fbb_flat);
    d.front_proposed = core::Frontier(proposed);
    d.front_nobb = core::Frontier(nobb);
    d.front_fbb = core::Frontier(fbb);
    CheckNotWorseThanDvas(d, &out.failures);
    if (plan.frontier) CheckFrontierCertificates(d, &out.failures);
    designs.push_back(std::move(d));
  }
  out.digest = DigestOf(designs);
  out.quality = QualityOf(designs);

  if (ledger) {
    const sim::ActivityCacheStats cs = sim::GetActivityCacheStats();
    out.counts["sim.cache_misses"] = static_cast<double>(cs.misses);
    out.counts["sim.cache_hit_ratio"] =
        Ratio(static_cast<double>(cs.hits),
              static_cast<double>(cs.hits + cs.misses));
    out.counts["explore.points_considered"] = points;
    out.counts["explore.sta_runs"] = sta_runs;
    out.counts["explore.sta_ratio"] = Ratio(sta_runs, points);
    out.counts["explore.mask_pruned"] = mask_pruned;
    out.counts["frontier.nodes_expanded"] = nodes;
    out.counts["frontier.sta_runs"] = frontier_sta_runs;
    out.counts["frontier.certified_modes"] = certified;
    std::map<std::string, double> delta = ObsCounterValues();
    for (auto& [name, v] : delta) v -= obs_before.at(name);
    out.counts["sta.batch_calls"] = delta["sta.batch_calls"];
    out.counts["sta.lanes_per_batch"] =
        Ratio(delta["sta.batch_lanes"], delta["sta.batch_calls"]);
    out.counts["sta.incremental_hit_ratio"] =
        Ratio(delta["sta.incremental_hits"], delta["sta.incremental_calls"]);
    for (const char* c :
         {"power.energy_scans", "flow.relegalized_tiles", "lint.warnings"})
      out.counts[c] = delta[c];
  }
  return out;
}

}  // namespace perfbench
