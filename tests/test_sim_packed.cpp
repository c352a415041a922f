/// Tests for the bit-parallel packed logic simulator and the
/// process-wide activity cache: word-wise cell evaluation against the
/// scalar truth tables, 64-lane functional simulation, bit-identity
/// of per-net toggle counts between PackedLogicSim-based batch
/// extraction and the scalar LogicSim oracle across operators /
/// stimulus kinds / accuracy modes, vertical-counter flush behavior
/// on long runs, cache hit/miss accounting, and a determinism pin for
/// cached exploration at several thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/explore.h"
#include "gen/operator.h"
#include "obs/obs.h"
#include "sim/activity.h"
#include "sim/logic_sim.h"
#include "sim/packed_sim.h"
#include "util/fixed_point.h"
#include "util/rng.h"

namespace adq::sim {
namespace {

using tech::CellKind;

TEST(EvaluateWord, MatchesScalarEvaluateForEveryKindAndInput) {
  for (int k = 0; k < tech::kNumCellKinds; ++k) {
    const CellKind kind = static_cast<CellKind>(k);
    const int n_in = tech::NumInputs(kind);
    const int n_out = tech::NumOutputs(kind);
    const int combos = 1 << n_in;
    // Lane c carries input combination c; lanes past the last combo
    // repeat combination 0.
    std::uint64_t in_w[tech::kMaxCellInputs] = {0, 0, 0};
    for (int c = 0; c < combos; ++c)
      for (int p = 0; p < n_in; ++p)
        if ((c >> p) & 1) in_w[p] |= 1ULL << c;
    std::uint64_t out_w[tech::kMaxCellOutputs] = {0, 0};
    tech::EvaluateWord(kind, in_w, out_w);
    for (int c = 0; c < combos; ++c) {
      bool in_b[tech::kMaxCellInputs] = {false, false, false};
      bool out_b[tech::kMaxCellOutputs] = {false, false};
      for (int p = 0; p < n_in; ++p) in_b[p] = (c >> p) & 1;
      tech::Evaluate(kind, in_b, out_b);
      for (int o = 0; o < n_out; ++o)
        EXPECT_EQ(((out_w[o] >> c) & 1ULL) != 0, out_b[o])
            << tech::ToString(kind) << " combo " << c << " out " << o;
    }
  }
}

TEST(PackedLogicSim, SixtyFourLaneMultiplyMatchesArithmetic) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  PackedLogicSim sim(op.nl);
  sim.Reset();
  std::vector<std::uint64_t> a(PackedLogicSim::kLanes);
  std::vector<std::uint64_t> b(PackedLogicSim::kLanes);
  for (int l = 0; l < PackedLogicSim::kLanes; ++l) {
    a[static_cast<std::size_t>(l)] =
        util::FromSigned(l * 3 - 90, 8);  // mixes signs across lanes
    b[static_cast<std::size_t>(l)] = util::FromSigned(47 - l, 8);
  }
  sim.SetBus(op.nl.InputBus("a"), a);
  sim.SetBus(op.nl.InputBus("b"), b);
  sim.Tick();  // operands into the input registers
  sim.Tick();  // product into the output registers
  for (int l = 0; l < PackedLogicSim::kLanes; ++l) {
    const std::int64_t expect =
        util::ToSigned(a[static_cast<std::size_t>(l)], 8) *
        util::ToSigned(b[static_cast<std::size_t>(l)], 8);
    EXPECT_EQ(util::ToSigned(sim.ReadBus(op.nl.OutputBus("p"), l), 16),
              expect)
        << "lane " << l;
  }
}

TEST(PackedLogicSim, ShortSpanReplicatesLastValueAndEmptyRejected) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  PackedLogicSim sim(op.nl);
  sim.Reset();
  const std::vector<std::uint64_t> a = {util::FromSigned(-5, 8)};
  const std::vector<std::uint64_t> b = {util::FromSigned(11, 8),
                                        util::FromSigned(-7, 8)};
  sim.SetBus(op.nl.InputBus("a"), a);
  sim.SetBus(op.nl.InputBus("b"), b);
  sim.Tick();
  sim.Tick();
  EXPECT_EQ(util::ToSigned(sim.ReadBus(op.nl.OutputBus("p"), 0), 16), -55);
  for (int l = 1; l < PackedLogicSim::kLanes; ++l)
    EXPECT_EQ(util::ToSigned(sim.ReadBus(op.nl.OutputBus("p"), l), 16), 35)
        << "lane " << l;
  EXPECT_THROW(sim.SetBus(op.nl.InputBus("a"), {}), CheckError);
}

TEST(PackedLogicSim, MatchesScalarLogicSimTickForTick) {
  // Drive both engines with identical lane-0 stimulus and compare the
  // full per-net state and toggle counters after every tick.
  const gen::Operator op = gen::BuildMacOperator(8);
  LogicSim ref(op.nl);
  PackedLogicSim packed(op.nl);
  ref.Reset();
  packed.Reset();
  util::Rng rng(99);
  for (int t = 0; t < 40; ++t) {
    for (const netlist::Bus& bus : op.nl.input_buses()) {
      const std::uint64_t v = rng.Word() & ((1ULL << bus.width()) - 1ULL);
      ref.SetBus(bus, v);
      const std::vector<std::uint64_t> lanes = {v};
      packed.SetBus(bus, lanes);
    }
    ref.Tick();
    packed.Tick();
  }
  ASSERT_EQ(ref.cycles(), packed.cycles());
  for (std::uint32_t n = 0; n < op.nl.num_nets(); ++n) {
    const netlist::NetId id(n);
    EXPECT_EQ(ref.Value(id), packed.Value(id, 0)) << "net " << n;
    EXPECT_EQ(ref.toggles()[n], packed.Toggles(id, 0)) << "net " << n;
  }
}

TEST(PackedLogicSim, VerticalCountersSurviveFlushBoundary) {
  // > 2^16 - 1 ticks forces at least one mid-run counter-plane flush;
  // lane-dependent stimulus checks the flush keeps lanes separate.
  netlist::Netlist nl;
  const auto d = nl.AddInputPort("d");
  const auto q = nl.AddGate(CellKind::kDff, {d});
  nl.AddOutputPort("q", q);
  PackedLogicSim sim(nl);
  sim.Reset();
  const std::uint64_t odd_lanes = 0xAAAAAAAAAAAAAAAAULL;
  const int kTicks = 70000;
  for (int t = 0; t < kTicks; ++t) {
    sim.SetInput(d, (t % 2) ? odd_lanes : 0);
    sim.Tick();
    if (t == 40000) {
      // Mid-run query: lazy flush must not disturb later counting.
      EXPECT_EQ(sim.Toggles(q, 1), static_cast<std::uint64_t>(t));
    }
  }
  EXPECT_EQ(sim.cycles(), static_cast<std::uint64_t>(kTicks - 1));
  for (int l = 0; l < PackedLogicSim::kLanes; ++l) {
    const bool toggling = (odd_lanes >> l) & 1ULL;
    EXPECT_EQ(sim.Toggles(q, l),
              toggling ? static_cast<std::uint64_t>(kTicks - 1) : 0u)
        << "lane " << l;
  }
  EXPECT_EQ(sim.TotalToggles(q),
            32ULL * static_cast<std::uint64_t>(kTicks - 1));
  sim.Reset();
  EXPECT_EQ(sim.TotalToggles(q), 0u);
  EXPECT_EQ(sim.cycles(), 0u);
}

/// A packed run and one scalar LogicSim per checked lane, fed the same
/// per-lane random stimulus: lane l of every input bus gets its own
/// draw, and the scalar run for lane l sees exactly that draw.
class LaneHarness {
 public:
  LaneHarness(const netlist::Netlist& nl, int live_lanes,
              std::vector<int> lanes, std::uint64_t seed)
      : nl_(nl), packed_(nl, live_lanes), live_lanes_(live_lanes),
        lanes_(std::move(lanes)), rng_(seed) {
    for (std::size_t k = 0; k < lanes_.size(); ++k) refs_.emplace_back(nl);
    Reset();
  }

  void Reset() {
    packed_.Reset();
    for (LogicSim& r : refs_) r.Reset();
  }

  void Tick() {
    for (const netlist::Bus& bus : nl_.input_buses()) {
      std::vector<std::uint64_t> vals(PackedLogicSim::kLanes);
      for (std::uint64_t& v : vals)
        v = rng_.Word() & ((1ULL << bus.width()) - 1ULL);
      packed_.SetBus(bus, vals);
      for (std::size_t k = 0; k < refs_.size(); ++k)
        refs_[k].SetBus(bus, vals[static_cast<std::size_t>(lanes_[k])]);
    }
    packed_.Tick();
    for (LogicSim& r : refs_) r.Tick();
  }

  /// Per-net toggles of every checked lane, and (when the checked
  /// lanes are all the live lanes) TotalToggles, against the scalar
  /// runs.
  void ExpectToggles(const std::string& what) const {
    for (std::size_t k = 0; k < refs_.size(); ++k) {
      ASSERT_EQ(packed_.cycles(), refs_[k].cycles()) << what;
      for (std::uint32_t n = 0; n < nl_.num_nets(); ++n)
        ASSERT_EQ(packed_.Toggles(netlist::NetId(n), lanes_[k]),
                  refs_[k].toggles()[n])
            << what << " lane " << lanes_[k] << " net " << n;
    }
    if (lanes_.size() != static_cast<std::size_t>(live_lanes_)) return;
    for (std::uint32_t n = 0; n < nl_.num_nets(); ++n) {
      std::uint64_t sum = 0;
      for (const LogicSim& r : refs_) sum += r.toggles()[n];
      ASSERT_EQ(packed_.TotalToggles(netlist::NetId(n)), sum)
          << what << " net " << n;
    }
  }

  const PackedLogicSim& packed() const { return packed_; }

 private:
  const netlist::Netlist& nl_;
  PackedLogicSim packed_;
  int live_lanes_;
  std::vector<int> lanes_;  // distinct lanes below live_lanes_
  std::vector<LogicSim> refs_;
  util::Rng rng_;
};

TEST(PackedLogicSim, CountsMatchScalarForCycleCountsOffTheBlock) {
  // Every count from 1 to 20 ticks: the block counter holds a few
  // ticks before it drains into the planes, so most counts end with
  // a partly filled block that the read must drain.
  const gen::Operator op = gen::BuildMacOperator(8);
  for (int ticks = 1; ticks <= 20; ++ticks) {
    LaneHarness h(op.nl, PackedLogicSim::kLanes, {0, 17, 63},
                  static_cast<std::uint64_t>(ticks));
    for (int t = 0; t < ticks; ++t) h.Tick();
    h.ExpectToggles("ticks=" + std::to_string(ticks));
  }
}

TEST(PackedLogicSim, ReadsMidBlockDoNotDisturbCounting) {
  // Three live lanes, all checked: Toggles and TotalToggles after
  // every tick, so reads land at every fill level of the block.
  const gen::Operator op = gen::BuildMacOperator(8);
  LaneHarness h(op.nl, 3, {0, 1, 2}, 5);
  for (int t = 0; t < 40; ++t) {
    h.Tick();
    h.ExpectToggles("tick " + std::to_string(t));
  }
}

TEST(PackedLogicSim, ResetMidBlockClearsEveryCounter) {
  const gen::Operator op = gen::BuildMacOperator(8);
  LaneHarness h(op.nl, 4, {0, 3}, 11);
  for (int t = 0; t < 10; ++t) h.Tick();  // block partly filled
  h.Reset();
  EXPECT_EQ(h.packed().cycles(), 0u);
  for (std::uint32_t n = 0; n < op.nl.num_nets(); ++n)
    ASSERT_EQ(h.packed().TotalToggles(netlist::NetId(n)), 0u) << n;
  for (int t = 0; t < 12; ++t) h.Tick();
  h.ExpectToggles("after reset");
}

TEST(PackedLogicSim, LiveLanesMatchScalarAcrossTheFlushPeriod) {
  // More than 2^16 - 1 counted ticks with per-lane random stimulus on
  // a small registered datapath with feedback, plus a toggle flop that
  // flips at every edge, so its count exceeds what the counter planes
  // hold: they must flush mid-run, and the block drains around the
  // flush must neither drop nor double-count a lane's toggles.
  netlist::Netlist nl;
  const auto a = nl.AddInputPort("a");
  const auto b = nl.AddInputPort("b");
  nl.AddInputBus("a", {a});
  nl.AddInputBus("b", {b});
  const auto qa = nl.AddGate(CellKind::kDff, {a});
  const auto qb = nl.AddGate(CellKind::kDff, {b});
  const auto acc = nl.NewNet();
  const auto sum = nl.AddGate(CellKind::kXor2, {acc, qa});
  const auto gate = nl.AddGate(CellKind::kAnd2, {sum, qb});
  nl.AddCellWithOutputs(CellKind::kDff, tech::DriveStrength::kX1, {gate},
                        {acc});
  nl.AddOutputPort("y", acc);
  const auto flop = nl.NewNet();
  nl.AddCellWithOutputs(CellKind::kDff, tech::DriveStrength::kX1,
                        {nl.AddGate(CellKind::kInv, {flop})}, {flop});
  nl.AddOutputPort("t", flop);
  LaneHarness h(nl, 3, {0, 1, 2}, 77);
  const int kTicks = 65540;
  for (int t = 0; t < kTicks; ++t) h.Tick();
  EXPECT_EQ(h.packed().Toggles(flop, 1),
            static_cast<std::uint64_t>(kTicks - 1));
  EXPECT_EQ(h.packed().cycles(), static_cast<std::uint64_t>(kTicks - 1));
  h.ExpectToggles("end");
}

TEST(PackedLogicSim, UnregisteredInputsSettleBeforeTheEdge) {
  // Input ports feeding logic ahead of a register: the pre-edge settle
  // must evaluate that fan-out, or the register captures stale values.
  netlist::Netlist nl;
  const auto a = nl.AddInputPort("a");
  const auto b = nl.AddInputPort("b");
  nl.AddInputBus("a", {a});
  nl.AddInputBus("b", {b});
  const auto x = nl.AddGate(CellKind::kXor2, {a, b});
  const auto q = nl.AddGate(CellKind::kDff, {nl.AddGate(CellKind::kInv, {x})});
  nl.AddOutputPort("y", nl.AddGate(CellKind::kAnd2, {q, a}));
  LaneHarness h(nl, 4, {0, 1, 2, 3}, 19);
  for (int t = 0; t < 25; ++t) h.Tick();
  h.ExpectToggles("unregistered inputs");
}

TEST(PackedLogicSim, RegisterUpdateOrderMatchesScalarOnDffChains) {
  // Both engines copy Q <= D register by register in instance order.
  // In a DFF -> DFF chain whose first stage comes first, the second
  // stage therefore captures the value the first stage captured at the
  // same edge (the chain collapses to one stage); created the other
  // way round, it captures the previous one (a true shift register).
  // The compiled simulator must reproduce both orders exactly.
  for (const bool first_stage_first : {true, false}) {
    SCOPED_TRACE(first_stage_first ? "first stage first"
                                   : "second stage first");
    netlist::Netlist nl;
    const auto d = nl.AddInputPort("d");
    nl.AddInputBus("d", {d});
    netlist::NetId q1, q2;
    if (first_stage_first) {
      q1 = nl.AddGate(CellKind::kDff, {d});
      q2 = nl.AddGate(CellKind::kDff, {q1});
    } else {
      q1 = nl.NewNet();
      q2 = nl.AddGate(CellKind::kDff, {q1});
      nl.AddCellWithOutputs(CellKind::kDff, tech::DriveStrength::kX1, {d},
                            {q1});
    }
    nl.AddOutputPort("q", q2);
    LaneHarness h(nl, PackedLogicSim::kLanes, {0, 9}, 3);
    LogicSim ref(nl);
    PackedLogicSim packed(nl);
    ref.Reset();
    packed.Reset();
    util::Rng rng(8);
    bool prev_q1 = false;
    for (int t = 0; t < 30; ++t) {
      const bool v = rng.Word() & 1ULL;
      ref.SetInput(d, v);
      packed.SetInput(d, v ? ~0ULL : 0ULL);
      ref.Tick();
      packed.Tick();
      for (const netlist::NetId n : {d, q1, q2})
        ASSERT_EQ(packed.Value(n, 0), ref.Value(n)) << "tick " << t;
      EXPECT_EQ(ref.Value(q2), first_stage_first ? ref.Value(q1) : prev_q1)
          << "tick " << t;
      prev_q1 = ref.Value(q1);
      h.Tick();
    }
    h.ExpectToggles("chain");
  }
}

// The tentpole contract: for every operator, stimulus kind and
// accuracy mode, the packed batch extraction reproduces the scalar
// oracle's per-net toggle profile bit-for-bit.
TEST(ActivityBatch, BitIdenticalToScalarOracleAcrossOperators) {
  const gen::Operator ops[] = {
      gen::BuildBoothOperator(8), gen::BuildArrayMultOperator(8),
      gen::BuildMacOperator(8), gen::BuildFirMacOperator(8)};
  const int kCycles = 96;
  const std::uint64_t kSeed = 21;
  for (const gen::Operator& op : ops) {
    for (const StimulusKind kind :
         {StimulusKind::kUniform, StimulusKind::kCorrelated}) {
      const std::vector<int> zs = {0, 3, op.spec.data_width};
      ClearActivityCache();
      const std::vector<ActivityProfile> batch =
          ExtractActivityBatch(op, zs, kCycles, kSeed, kind);
      ASSERT_EQ(batch.size(), zs.size());
      for (std::size_t i = 0; i < zs.size(); ++i) {
        const ActivityProfile scalar =
            ExtractActivityScalar(op, zs[i], kCycles, kSeed, kind);
        SCOPED_TRACE(op.spec.name + " kind=" +
                     std::to_string(static_cast<int>(kind)) +
                     " zs=" + std::to_string(zs[i]));
        EXPECT_EQ(batch[i].cycles, scalar.cycles);
        EXPECT_EQ(batch[i].toggle_rate, scalar.toggle_rate);
      }
    }
  }
}

TEST(ActivityCache, HitsMissesAndProfileEquality) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  ClearActivityCache();
  ActivityCacheStats s = GetActivityCacheStats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);

  const ActivityProfile first = ExtractActivity(op, 2, 64, 9);
  s = GetActivityCacheStats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);

  const ActivityProfile again = ExtractActivity(op, 2, 64, 9);
  s = GetActivityCacheStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(again.toggle_rate, first.toggle_rate);
  EXPECT_EQ(again.cycles, first.cycles);

  // Any key component change is a distinct entry...
  ExtractActivity(op, 3, 64, 9);                          // zeroed_lsbs
  ExtractActivity(op, 2, 96, 9);                          // cycles
  ExtractActivity(op, 2, 64, 10);                         // seed
  ExtractActivity(op, 2, 64, 9, StimulusKind::kUniform);  // kind
  s = GetActivityCacheStats();
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.entries, 5u);

  // ...and a batch with duplicates simulates each mode once.
  const std::vector<int> zs = {4, 4, 2};
  ExtractActivityBatch(op, zs, 64, 9);
  s = GetActivityCacheStats();
  EXPECT_EQ(s.entries, 6u);   // only zs=4 is new
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.hits, 3u);      // duplicate zs=4 + cached zs=2, plus prior
  ClearActivityCache();
  EXPECT_EQ(GetActivityCacheStats().entries, 0u);
}

TEST(ActivityCache, SizingChangesShareEntriesStructuralChangesDoNot) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  ClearActivityCache();
  ExtractActivity(op, 1, 64, 13);
  ASSERT_EQ(GetActivityCacheStats().misses, 1u);

  // Drive strengths do not affect logic values, so a resized copy
  // (what the VDD-island engine simulates) must hit.
  gen::Operator resized = op;
  for (std::uint32_t i = 0; i < resized.nl.num_instances(); ++i)
    resized.nl.SetDrive(netlist::InstId(i), tech::DriveStrength::kX4);
  ExtractActivity(resized, 1, 64, 13);
  ActivityCacheStats s = GetActivityCacheStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // A structurally different operator of the same arity must miss.
  const gen::Operator other = gen::BuildArrayMultOperator(8);
  ExtractActivity(other, 1, 64, 13);
  s = GetActivityCacheStats();
  EXPECT_EQ(s.misses, 2u);
  ClearActivityCache();
}

#ifndef ADQ_OBS_DISABLED
TEST(ActivityCache, ObsSnapshotMirrorsCacheCounters) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  ClearActivityCache();
  obs::EnableMetrics(true);
  obs::ResetMetrics();
  ExtractActivity(op, 5, 64, 3);
  ExtractActivity(op, 5, 64, 3);
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  obs::EnableMetrics(false);
  ASSERT_TRUE(snap.counters.count("sim.activity_cache_hits"));
  ASSERT_TRUE(snap.counters.count("sim.activity_cache_misses"));
  EXPECT_EQ(snap.counters.at("sim.activity_cache_hits"), 1u);
  EXPECT_EQ(snap.counters.at("sim.activity_cache_misses"), 1u);
  EXPECT_EQ(snap.counters.at("sim.activity_extractions"), 2u);
  ClearActivityCache();
}
#endif

// Golden determinism with the cache in the loop: exploration results
// are identical whether profiles are simulated fresh or served from
// cache, at both the serial and sharded thread counts.
TEST(ActivityCache, ExplorationIdenticalColdAndWarmAcrossThreads) {
  const tech::CellLibrary lib;
  core::FlowOptions fopt;
  fopt.grid = {2, 2};
  fopt.clock_ns = 0.55;
  const core::ImplementedDesign design =
      core::RunImplementationFlow(gen::BuildBoothOperator(8), lib, fopt);
  auto run = [&](int nt) {
    core::ExploreOptions opt;
    opt.bitwidths = {2, 4, 6, 8};
    opt.activity_cycles = 128;
    opt.num_threads = nt;
    return core::ExploreDesignSpace(design, lib, opt);
  };
  ClearActivityCache();
  const core::ExplorationResult cold = run(1);
  EXPECT_GE(GetActivityCacheStats().misses, 4u);
  for (const int nt : {1, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(nt));
    const std::uint64_t hits_before = GetActivityCacheStats().hits;
    const core::ExplorationResult warm = run(nt);
    EXPECT_GE(GetActivityCacheStats().hits, hits_before + 4)
        << "re-exploration must be served from the activity cache";
    EXPECT_EQ(warm.stats.sta_runs, cold.stats.sta_runs);
    EXPECT_EQ(warm.stats.pruned, cold.stats.pruned);
    EXPECT_EQ(warm.stats.feasible, cold.stats.feasible);
    ASSERT_EQ(warm.modes.size(), cold.modes.size());
    for (std::size_t i = 0; i < cold.modes.size(); ++i) {
      EXPECT_EQ(warm.modes[i].best.vdd, cold.modes[i].best.vdd);
      EXPECT_EQ(warm.modes[i].best.mask, cold.modes[i].best.mask);
      EXPECT_EQ(warm.modes[i].best.total_power_w(),
                cold.modes[i].best.total_power_w());
    }
  }
  ClearActivityCache();
}

}  // namespace
}  // namespace adq::sim
