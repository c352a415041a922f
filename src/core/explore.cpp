#include "core/explore.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "analysis/analysis.h"
#include "core/accuracy.h"
#include "obs/obs.h"
#include "sta/sta.h"
#include "util/thread_pool.h"

namespace adq::core {

using tech::BiasState;

const ModeResult& ExplorationResult::Mode(int bitwidth) const {
  for (const ModeResult& m : modes)
    if (m.bitwidth == bitwidth) return m;
  ADQ_CHECK_MSG(false, "bitwidth " << bitwidth << " was not explored");
  static ModeResult dummy;
  return dummy;
}

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

ModeConstants BuildModeConstants(const ImplementedDesign& design,
                                 const power::PowerModel& pmodel,
                                 const std::vector<int>& bitwidths,
                                 int activity_cycles, std::uint64_t seed,
                                 sim::StimulusKind stimulus) {
  ModeConstants mc;
  if (bitwidths.empty()) return mc;
  ADQ_TRACE_SCOPE("explore.mode_constants");
  std::vector<int> mode_lsbs;
  for (const int bw : bitwidths) mode_lsbs.push_back(ZeroedLsbs(design.op, bw));
  const std::vector<sim::ActivityProfile> acts = sim::ExtractActivityBatch(
      design.op, mode_lsbs, activity_cycles, seed, stimulus);
  for (const sim::ActivityProfile& act : acts)
    mc.energy_fj.push_back(pmodel.SwitchedEnergyPerCycleFj(act));
  mc.case_analysis = ModeCaseAnalyses(design.op, bitwidths);
  return mc;
}

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
void RbbSleepPass(const ImplementedDesign& design,
                  const power::PowerModel& pmodel,
                  const std::vector<double>& dom_weight,
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
    leak_w += pmodel.DomainLeakageW(
        dom_weight[static_cast<std::size_t>(d)], best.vdd,
        best.DomainState(d));
  best.power.leakage_w = leak_w;
}

/// Outcome of one (bitwidth, vdd, mask) lattice point as recorded by
/// a worker. The sweep writes these into index-addressed slots; the
/// deterministic merge then folds them serially in lattice order, so
/// stats, best-point ties and all_points ordering cannot depend on
/// thread scheduling (or batch width).
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
  double leak_w = 0.0;
};

/// A ≤batch_width run of same-VDD lattice points handed to one
/// AnalyzeBatch call. Lane l is lattice point (vi, lane_mi[begin+l]).
struct BatchChunk {
  std::size_t vi = 0;
  std::size_t begin = 0;  ///< offset into the level's lane arrays
  std::size_t count = 0;
};

/// The one exploration sweep. A 1-thread pool runs every ParallelFor
/// inline on the caller, so there is no separate serial code path to
/// keep in sync — bit-identity across num_threads holds by
/// construction of the merge, not by duplicated logic.
ExplorationResult ExploreSweep(const ImplementedDesign& design,
                               const tech::CellLibrary& lib,
                               const ExploreOptions& opt,
                               const std::vector<int>& bitwidths,
                               const std::vector<tech::DomainMask>& masks,
                               const power::PowerModel& pmodel,
                               const std::vector<double>& dom_weight,
                               int num_threads) {
  const netlist::Netlist& nl = design.op.nl;
  const int ndom = design.num_domains();
  const std::vector<int>& domain_of = design.domain_of();
  const std::size_t batch_width =
      static_cast<std::size_t>(opt.batch_width > 0 ? opt.batch_width : 8);
  // Recorded infeasible points need their computed wns_ns, so the
  // dominance prune (which never computes one) must stand down.
  const bool mask_prune = opt.mask_pruning && !opt.keep_all_points;

  util::ThreadPool pool(num_threads);
  const int nworkers = pool.num_threads();

  // Persistent-store context: resolved once per sweep (the canonical
  // key encodes the whole implemented design). All lookups happen in
  // the serial Phase A and all insertions in a serial post-B pass, so
  // the store never sees concurrent traffic from this sweep and the
  // sta_runs / store_hits split is deterministic.
  store::ExplorationStore* const store = opt.store;
  const int store_ctx =
      store != nullptr ? store->Context(ExploreStoreKey(design)) : -1;

  // Per-worker STA contexts: the analyzer reuses per-net scratch and
  // caches its levelization, delay tables and sweep schedules across
  // chunks, so each worker owns an analyzer over the shared read-only
  // netlist. Created lazily by the first point a worker claims (also
  // spreading the construction cost across the pool).
  std::vector<std::unique_ptr<sta::TimingAnalyzer>> analyzer(
      static_cast<std::size_t>(nworkers));
  auto worker_analyzer = [&](int w) -> sta::TimingAnalyzer& {
    auto& a = analyzer[static_cast<std::size_t>(w)];
    if (!a)
      a = std::make_unique<sta::TimingAnalyzer>(nl, lib, design.loads);
    return *a;
  };
  // Lane naming for the trace viewer: each pool thread registers its
  // stable worker index once (worker 0 is the calling thread).
  auto name_lane = [](int w) {
    if (!obs::TraceEnabled()) return;
    thread_local bool named = false;
    if (!named) {
      obs::NameThisThreadLane("explore worker " + std::to_string(w));
      named = true;
    }
  };

  // Stage 1: per-mode constants.
  const ModeConstants mc =
      BuildModeConstants(design, pmodel, bitwidths, opt.activity_cycles,
                         opt.seed, opt.stimulus);

  // Monotone-infeasibility table shared across shards, slot = lattice
  // index vi * |masks| + mi. A worker that proves (vdd, mask)
  // infeasible at bitwidth b publishes the failure with a release
  // store; sweeps of larger bitwidths read it with an acquire load.
  // (Each slot is written at most once per bitwidth and only read by
  // later bitwidths, which a pool barrier separates — the ordering
  // makes the publication self-contained rather than barrier-reliant.)
  // Mask-dominance hits publish the same way: they are proofs of
  // infeasibility, so later bitwidths prune them exactly as if the
  // STA had run — which is why every stat except the sta_runs /
  // mask_pruned split is independent of the mask_pruning switch.
  const std::size_t nv = opt.vdds.size();
  const std::size_t nm = masks.size();
  std::vector<std::atomic<std::uint8_t>> dead(nv * nm);
  for (auto& d : dead) d.store(0, std::memory_order_relaxed);

  // Mask-dominance schedule: masks grouped by popcount, processed in
  // descending-popcount levels. Any strict supermask has a strictly
  // larger popcount, i.e. lives in an earlier level, so by the time a
  // level is classified every potential dominator has a settled
  // verdict (ParallelFor is a barrier). Equal popcount never
  // dominates (M ⊆ F with |M| == |F| forces M == F), so decisions are
  // independent of batch width, thread count and within-level order.
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
  // mode), shard the (VDD, mask) lattice in batched chunks, then
  // merge serially.
  ExplorationResult result;
  std::vector<PointRecord> rec(nv * nm);
  // Per-VDD antichain of infeasible masks from completed levels: a
  // mask M is dominated iff M ⊆ F for some listed F. (Antichain
  // because a listed mask's supersets were either feasible or already
  // listed before any submask could reach STA.)
  std::vector<std::vector<tech::DomainMask>> row_infeasible(nv);
  std::vector<std::size_t> lane_mi;          // level's pending points
  std::vector<tech::DomainMask> lane_masks;  // aligned with lane_mi
  std::vector<BatchChunk> chunks;
  for (std::size_t bi = 0; bi < bitwidths.size(); ++bi) {
    const int bw = bitwidths[bi];
    const netlist::CaseAnalysis& bca = mc.case_analysis[bi];

    ADQ_TRACE_SCOPE2("explore.bitwidth", std::to_string(bw));
    obs::ProgressReporter prog("explore bw=" + std::to_string(bw),
                               static_cast<std::int64_t>(nv * nm));
    std::fill(rec.begin(), rec.end(), PointRecord{});
    for (auto& row : row_infeasible) row.clear();

    for (const std::vector<std::size_t>& level : levels) {
      // Phase A (serial): classify the level. Points condemned by a
      // smaller bitwidth keep kPruned; points dominated by an earlier
      // level's infeasible supermask become kMaskPruned; the rest
      // queue for batched STA, grouped by VDD row.
      lane_mi.clear();
      lane_masks.clear();
      chunks.clear();
      for (std::size_t vi = 0; vi < nv; ++vi) {
        const std::size_t row_begin = lane_mi.size();
        for (const std::size_t mi : level) {
          const std::size_t slot = vi * nm + mi;
          if (opt.monotonic_pruning &&
              dead[slot].load(std::memory_order_acquire)) {
            prog.Tick();
            continue;  // record stays kPruned
          }
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
              dead[slot].store(1, std::memory_order_release);
              prog.Tick();
              continue;
            }
          }
          // Store warm-start: a persisted verdict replaces the STA
          // run. The lookup sits *after* both prunes, so the pruning
          // decisions (and their stats) are identical with or without
          // a store; an infeasible hit publishes to the dead table and
          // (via Phase C, which keys on kInfeasible) to the dominance
          // antichain exactly like a fresh STA failure would.
          if (store != nullptr) {
            bool feas = false;
            double wns = 0.0;
            if (store->Lookup(store_ctx, bw, opt.vdds[vi], masks[mi],
                              &feas, &wns)) {
              PointRecord& r = rec[slot];
              r.from_store = true;
              r.wns_ns = wns;
              if (feas) {
                r.kind = PointRecord::Kind::kFeasible;
                r.leak_w = MaskLeakageW(pmodel, dom_weight, ndom,
                                        opt.vdds[vi], masks[mi]);
              } else {
                r.kind = PointRecord::Kind::kInfeasible;
                dead[slot].store(1, std::memory_order_release);
              }
              prog.Tick();
              continue;
            }
          }
          lane_mi.push_back(mi);
          lane_masks.push_back(masks[mi]);
        }
        for (std::size_t c = row_begin; c < lane_mi.size();
             c += batch_width)
          chunks.push_back(
              {vi, c, std::min(batch_width, lane_mi.size() - c)});
      }

      // Phase B (parallel): one AnalyzeBatch per chunk; lanes write
      // their own slots. The ParallelFor barrier makes every verdict
      // of this level visible before the next level classifies.
      pool.ParallelFor(
          static_cast<std::int64_t>(chunks.size()), 1,
          [&](std::int64_t idx, int w) {
            name_lane(w);
            const BatchChunk& c = chunks[static_cast<std::size_t>(idx)];
            const double vdd = opt.vdds[c.vi];
            obs::TraceSpan batch_span("sta.batch");
            const std::span<const tech::DomainMask> chunk_masks(
                lane_masks.data() + c.begin, c.count);
            const std::vector<sta::TimingReport> reps =
                worker_analyzer(w).AnalyzeBatch(vdd, design.clock_ns,
                                                chunk_masks, domain_of, &bca);
            for (std::size_t l = 0; l < c.count; ++l) {
              const std::size_t mi = lane_mi[c.begin + l];
              const std::size_t slot = c.vi * nm + mi;
              PointRecord& r = rec[slot];
              r.wns_ns = reps[l].wns_ns;
              if (!reps[l].feasible()) {
                r.kind = PointRecord::Kind::kInfeasible;
                dead[slot].store(1, std::memory_order_release);
              } else {
                r.kind = PointRecord::Kind::kFeasible;
                r.leak_w = MaskLeakageW(pmodel, dom_weight, ndom, vdd,
                                        masks[mi]);
              }
              prog.Tick();
            }
          });

      // Serial store write-back: persist this level's fresh STA
      // verdicts in deterministic chunk order (the chunk layout is a
      // pure function of the surviving set).
      if (store != nullptr)
        for (const BatchChunk& c : chunks)
          for (std::size_t l = 0; l < c.count; ++l) {
            const std::size_t mi = lane_mi[c.begin + l];
            const PointRecord& r = rec[c.vi * nm + mi];
            store->Insert(store_ctx, bw, opt.vdds[c.vi], masks[mi],
                          r.kind == PointRecord::Kind::kFeasible,
                          r.wns_ns);
          }

      // Phase C (serial): extend the per-VDD antichains with this
      // level's fresh failures, in deterministic (vi, mi) order.
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
    mode.switched_energy_fj = mc.energy_fj[bi];
    for (std::size_t vi = 0; vi < nv; ++vi) {
      const double vdd = opt.vdds[vi];
      const double dyn_w = power::PowerModel::DynamicW(
          mc.energy_fj[bi], vdd, design.fclk_ghz());
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
        if (r.kind == PointRecord::Kind::kInfeasible) {
          ++result.stats.filtered;
          if (opt.keep_all_points) {
            ExploredPoint p;
            p.bitwidth = bw;
            p.vdd = vdd;
            p.mask = masks[mi];
            p.feasible = false;
            p.wns_ns = r.wns_ns;
            result.all_points.push_back(p);
          }
          continue;
        }
        ++result.stats.feasible;
        ExploredPoint p;
        p.bitwidth = bw;
        p.vdd = vdd;
        p.mask = masks[mi];
        p.feasible = true;
        p.wns_ns = r.wns_ns;
        p.power.dynamic_w = dyn_w;
        p.power.leakage_w = r.leak_w;
        if (!mode.has_solution ||
            p.total_power_w() < mode.best.total_power_w()) {
          mode.has_solution = true;
          mode.best = p;
        }
        if (opt.keep_all_points) result.all_points.push_back(p);
      }
    }

    if (opt.enable_rbb_sleep && mode.has_solution) {
      std::vector<BiasState> bias(nl.num_instances());
      RbbSleepPass(design, pmodel, dom_weight, worker_analyzer(0), bca,
                   bias, mode, result.stats);
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
  const netlist::Netlist& nl = design.op.nl;
  const int ndom = design.num_domains();
  ADQ_CHECK_MSG(ndom >= 1 && ndom <= tech::kMaxDomains,
                "domain count " << ndom << " outside [1, "
                                << tech::kMaxDomains << "]");
  // A full-lattice request beyond the enumeration ceiling is a
  // recoverable request error, not a contract violation: callers
  // reroute to core::FrontierExplore (examples/domain_explorer does).
  if (opt.masks.empty() && ndom > kMaxExhaustiveDomains)
    throw ExploreError(
        "2^" + std::to_string(ndom) +
        " masks is beyond exhaustive enumeration (kMaxExhaustiveDomains"
        " = " + std::to_string(kMaxExhaustiveDomains) +
        "); restrict ExploreOptions::masks or use core::FrontierExplore");

  // Signoff lint gate (shared with the flow and the frontier engine):
  // exploring a corrupt netlist fails here, loudly, instead of deep
  // inside a worker. Off by default.
  SignoffLint(design, lib, opt.lint);

  std::vector<int> bitwidths = opt.bitwidths;
  if (bitwidths.empty()) {
    for (int b = 1; b <= design.op.spec.data_width; ++b)
      bitwidths.push_back(b);
  }
  std::sort(bitwidths.begin(), bitwidths.end());

  // Static-prune stage: modes whose *proved* worst-case error bound
  // (analysis::AccuracyAnalyzer — interval analysis of the validated
  // word model, taint fallback otherwise) already violates the
  // quality target are decided right here, with zero simulation and
  // zero STA. The analyzer bound is sound (pinned against
  // PackedLogicSim by tests/test_analysis_soundness), so a pruned
  // mode could never have satisfied the target; surviving modes are
  // swept exactly as before, and the per-mode activity extraction is
  // a pure per-mode function, so their results are bit-identical to
  // an unpruned run (tests/test_static_prune).
  std::optional<analysis::AccuracyAnalyzer> quality;
  const bool quality_finite = std::isfinite(opt.quality_max_abs_error);
  if (quality_finite) quality.emplace(design.op);
  std::vector<ModeResult> statically_pruned;
  if (quality_finite && opt.static_prune) {
    ADQ_TRACE_SCOPE("explore.static_prune");
    std::vector<int> kept;
    kept.reserve(bitwidths.size());
    for (int bw : bitwidths) {
      const double bound = quality->ProvedMaxAbsError(bw);
      if (bound > opt.quality_max_abs_error) {
        ModeResult m;
        m.bitwidth = bw;
        m.proved_max_abs_error = bound;
        m.statically_pruned = true;
        statically_pruned.push_back(m);
      } else {
        kept.push_back(bw);
      }
    }
    bitwidths = std::move(kept);
  }

  std::vector<tech::DomainMask> masks = opt.masks;
  if (masks.empty()) {
    const tech::DomainMask full = tech::FullMask(ndom);
    masks.reserve(static_cast<std::size_t>(full) + 1);
    for (tech::DomainMask m = 0; m <= full; ++m) masks.push_back(m);
  }

  // Per-domain leakage weights: leakage of a mask is a ndom-term sum.
  power::PowerModel pmodel(nl, lib, design.loads);
  const std::vector<double> dom_weight =
      pmodel.LeakWeightByDomain(design.partition.domain_of, ndom);

  const int num_threads = util::ResolveNumThreads(opt.num_threads);
  // Every mode may have been statically pruned; the sweep (and its
  // batched activity extraction) requires at least one mode, so skip
  // it entirely in that case.
  ExplorationResult result;
  if (!bitwidths.empty())
    result = ExploreSweep(design, lib, opt, bitwidths, masks, pmodel,
                          dom_weight, num_threads);

  if (quality_finite) {
    // Annotate swept modes with their proved bound; with the
    // static-prune stage disabled, apply the same verdicts post-hoc
    // so the returned modes are bit-identical either way (only the
    // stats — and the wall time — differ).
    for (ModeResult& m : result.modes) {
      const double bound = quality->ProvedMaxAbsError(m.bitwidth);
      if (!opt.static_prune && bound > opt.quality_max_abs_error) {
        ModeResult repl;
        repl.bitwidth = m.bitwidth;
        repl.proved_max_abs_error = bound;
        repl.statically_pruned = true;
        m = repl;
      } else {
        m.proved_max_abs_error = bound;
      }
    }
    if (!statically_pruned.empty()) {
      result.stats.static_mode_prunes =
          static_cast<long>(statically_pruned.size());
      for (ModeResult& m : statically_pruned)
        result.modes.push_back(std::move(m));
      std::sort(result.modes.begin(), result.modes.end(),
                [](const ModeResult& a, const ModeResult& b) {
                  return a.bitwidth < b.bitwidth;
                });
    }
  }
  RecordExploreMetrics(
      result, std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - obs_t0)
                  .count());
  return result;
}

}  // namespace adq::core
