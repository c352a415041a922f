#pragma once
/// \file packed_sim.h
/// \brief Bit-parallel packed logic simulator: 64 lanes per word.
///
/// One std::uint64_t per net carries 64 independent Monte Carlo
/// simulation lanes; a cell evaluates for all lanes with one bitwise
/// op (tech::EvaluateWord), run over the netlist's compiled op stream
/// (netlist/compiled.h). Lane semantics are exactly those of the
/// scalar LogicSim — same settle/tick model, same toggle-counting
/// contract (comparisons between consecutive post-edge steady states,
/// the first tick establishing the baseline) — so lane l of a packed
/// run is bit-identical to a scalar run fed lane l's stimulus. The
/// scalar LogicSim stays as the reference oracle; the property tests
/// in tests/test_sim_packed.cpp pin the equivalence across operators.
///
/// The clock edge re-settles only what can have changed: before the
/// edge, the cells in the combinational fan-out of the primary inputs
/// (none, when every input port is registered, as in every operator
/// here); after it, the whole network.
///
/// Per-lane toggle counts are accumulated with bit-sliced "vertical"
/// counters in two stages. Each tick adds the 64-lane toggle word into
/// a kBlockPlanes-deep block counter with a fixed, branch-free carry
/// chain; every 2^kBlockPlanes - 1 ticks the block is drained into
/// kCounterPlanes binary counter planes by a bit-sliced add (whose
/// carry runs as deep as the deepest lane of a SIMD group needs, so
/// paying it once per block, not once per tick, is the point of the
/// block); the planes are flushed into plain 64-bit per-lane counters
/// before they can overflow. This is what keeps counting from costing
/// 64x the evaluation work.

#include <cstdint>
#include <span>
#include <vector>

#include "gen/words.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace adq::sim {

class PackedLogicSim {
 public:
  /// Lanes per net word. Fixed by the word width.
  static constexpr int kLanes = 64;

  /// Toggles are counted for lanes [0, live_lanes) only; the other
  /// lanes still simulate. Sizing it to the lanes a caller reads
  /// shrinks the per-lane counters accordingly.
  explicit PackedLogicSim(const netlist::Netlist& nl,
                          int live_lanes = kLanes);

  /// Sets a primary-input port for the current cycle in every lane at
  /// once: bit l of `lanes` is the port value in lane l.
  void SetInput(netlist::NetId port, std::uint64_t lanes);

  /// Sets an input bus from per-lane unsigned words (LSB-first bits):
  /// lane l of bus bit i becomes bit i of `lane_values[l]`. Accepts
  /// 1..64 values; lanes beyond the span replicate the last value.
  void SetBus(const netlist::Bus& bus,
              std::span<const std::uint64_t> lane_values);

  /// Propagates values through the combinational network (all lanes).
  void Settle();

  /// Clock edge: DFF Q <= D in every lane, then re-settles. Counts
  /// per-lane toggles exactly as LogicSim::Tick does per run.
  void Tick();

  /// Resets all state registers to 0 in every lane and clears toggle
  /// statistics.
  void Reset();

  /// All 64 lanes of a net as one word.
  std::uint64_t LaneWord(netlist::NetId net) const {
    return values_[net.index()];
  }
  bool Value(netlist::NetId net, int lane) const {
    ADQ_DCHECK(lane >= 0 && lane < kLanes);
    return (values_[net.index()] >> lane) & 1ULL;
  }

  /// Reads a bus as an unsigned word (LSB-first) from one lane.
  std::uint64_t ReadBus(const netlist::Bus& bus, int lane) const;

  /// Number of value changes observed on `net` in live lane `lane` at
  /// clock edges — identical to LogicSim::toggles()[net] for a scalar
  /// run over the same lane stimulus.
  std::uint64_t Toggles(netlist::NetId net, int lane) const;

  /// Toggles summed across the live lanes.
  std::uint64_t TotalToggles(netlist::NetId net) const;

  /// Clocked cycles counted per lane (same for every lane).
  std::uint64_t cycles() const { return cycles_; }

 private:
  /// Block counter depth: the block is drained every
  /// 2^kBlockPlanes - 1 ticks, the largest count it can hold.
  static constexpr int kBlockPlanes = 3;
  static constexpr std::uint64_t kBlockTicks = (1ULL << kBlockPlanes) - 1ULL;
  /// Counter plane depth: the planes are flushed before they hold more
  /// than 2^kCounterPlanes - 1 ticks, the largest count they can hold.
  static constexpr int kCounterPlanes = 16;
  static constexpr std::uint64_t kFlushPeriod =
      (1ULL << kCounterPlanes) - 1ULL;

  /// Adds the block into the counter planes and clears it.
  void DrainBlock() const;
  /// Adds the counter planes into lane_toggles_ and clears them.
  void FlushPlanes() const;
  /// Drains the block, then flushes the planes. Const because the
  /// accessors trigger it lazily; only mutates the mutable counters.
  void FlushCounters() const;

  const netlist::Netlist& nl_;
  const netlist::CompiledNetlist compiled_;
  const int live_lanes_;
  std::vector<std::uint64_t> values_;      // per net, 64 lanes
  std::vector<std::uint64_t> prev_values_; // per net, at last edge
  // Vertical counters, plane-major: block_[p * num_nets + n] and
  // planes_[p * num_nets + n] hold bit p of every lane's in-flight
  // toggle count for net n.
  mutable std::vector<std::uint64_t> block_;
  mutable std::vector<std::uint64_t> planes_;
  mutable std::vector<std::uint64_t> lane_toggles_;  // [net * live + lane]
  mutable std::uint64_t block_pending_ = 0;  // ticks held in block_
  mutable std::uint64_t pending_ = 0;        // ticks held in planes_
  std::uint64_t cycles_ = 0;
  bool have_prev_ = false;
};

}  // namespace adq::sim
