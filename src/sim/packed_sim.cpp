#include "sim/packed_sim.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "util/simd.h"

namespace adq::sim {

using netlist::NetId;

PackedLogicSim::PackedLogicSim(const netlist::Netlist& nl, int live_lanes)
    : nl_(nl),
      compiled_(nl),
      live_lanes_(live_lanes),
      values_(nl.num_nets(), 0),
      prev_values_(nl.num_nets(), 0),
      block_(static_cast<std::size_t>(kBlockPlanes) * nl.num_nets(), 0),
      planes_(static_cast<std::size_t>(kCounterPlanes) * nl.num_nets(), 0),
      lane_toggles_(nl.num_nets() * static_cast<std::size_t>(live_lanes),
                    0) {
  ADQ_CHECK(live_lanes >= 1 && live_lanes <= kLanes);
  Settle();
}

void PackedLogicSim::SetInput(NetId port, std::uint64_t lanes) {
  ADQ_DCHECK(nl_.net(port).is_primary_input);
  values_[port.index()] = lanes;
}

void PackedLogicSim::SetBus(const netlist::Bus& bus,
                            std::span<const std::uint64_t> lane_values) {
  ADQ_CHECK(!lane_values.empty() &&
            lane_values.size() <= static_cast<std::size_t>(kLanes));
  for (int i = 0; i < bus.width(); ++i) {
    std::uint64_t w = 0;
    for (std::size_t l = 0; l < static_cast<std::size_t>(kLanes); ++l) {
      const std::uint64_t v =
          lane_values[std::min(l, lane_values.size() - 1)];
      w |= ((v >> i) & 1ULL) << l;
    }
    SetInput(bus.bits[static_cast<std::size_t>(i)], w);
  }
}

void PackedLogicSim::Settle() {
  netlist::EvaluateWords(compiled_.comb(), values_.data());
}

void PackedLogicSim::Tick() {
  static obs::Counter& ticks = obs::GetCounter("sim.packed_ticks");
  ticks.Add();
  // Mirror LogicSim::Tick: settle D pins, clock edge, settle anew.
  // Only the inputs changed since the last full settle, so settling
  // the D pins needs just the inputs' combinational fan-out. Q <= D
  // runs in instance order, exactly as LogicSim does.
  netlist::EvaluateWords(compiled_.input_fanout(), values_.data());
  for (const netlist::RegisterPins& r : compiled_.registers())
    values_[r.q] = values_[r.d];
  Settle();

  // Per-lane cycle-based activity between consecutive post-edge
  // steady states, added into the block counter with a fixed
  // three-plane carry chain (integer ops, bit-exact).
  static_assert(kBlockPlanes == 3, "the carry chain below has 3 planes");
  const std::size_t n_nets = values_.size();
  if (have_prev_) {
    if (block_pending_ == kBlockTicks) DrainBlock();
    std::uint64_t* const b0 = block_.data();
    std::uint64_t* const b1 = b0 + n_nets;
    std::uint64_t* const b2 = b1 + n_nets;
    std::size_t n = 0;
    for (; n + simd::U64::kWidth <= n_nets; n += simd::U64::kWidth) {
      const simd::U64 v = simd::U64::Load(&values_[n]);
      const simd::U64 x = simd::Xor(v, simd::U64::Load(&prev_values_[n]));
      v.Store(&prev_values_[n]);
      const simd::U64 p0 = simd::U64::Load(b0 + n);
      const simd::U64 c0 = simd::And(p0, x);
      simd::Xor(p0, x).Store(b0 + n);
      const simd::U64 p1 = simd::U64::Load(b1 + n);
      const simd::U64 c1 = simd::And(p1, c0);
      simd::Xor(p1, c0).Store(b1 + n);
      simd::Xor(simd::U64::Load(b2 + n), c1).Store(b2 + n);
    }
    for (; n < n_nets; ++n) {
      const std::uint64_t x = values_[n] ^ prev_values_[n];
      prev_values_[n] = values_[n];
      const std::uint64_t c0 = b0[n] & x;
      b0[n] ^= x;
      const std::uint64_t c1 = b1[n] & c0;
      b1[n] ^= c0;
      b2[n] ^= c1;
    }
    ++block_pending_;
    ++cycles_;
  } else {
    prev_values_ = values_;
  }
  have_prev_ = true;
}

void PackedLogicSim::Reset() {
  for (const netlist::RegisterPins& r : compiled_.registers())
    values_[r.q] = 0;
  std::fill(block_.begin(), block_.end(), 0);
  std::fill(planes_.begin(), planes_.end(), 0);
  std::fill(lane_toggles_.begin(), lane_toggles_.end(), 0);
  block_pending_ = 0;
  pending_ = 0;
  cycles_ = 0;
  have_prev_ = false;
  Settle();
}

void PackedLogicSim::DrainBlock() const {
  if (block_pending_ == 0) return;
  if (pending_ + block_pending_ > kFlushPeriod) FlushPlanes();
  const std::size_t n_nets = values_.size();
  const auto at = [n_nets](std::size_t p, std::size_t n) {
    return p * n_nets + n;
  };
  constexpr auto kBlock = static_cast<std::size_t>(kBlockPlanes);
  // Bit-sliced add of the block planes into the counter planes,
  // U64::kWidth adjacent nets at a time; the carry out of the block's
  // top plane ripples on until no net in the group still carries.
  // Groups whose block is all zero (quiet nets) are skipped.
  std::size_t n = 0;
  for (; n + simd::U64::kWidth <= n_nets; n += simd::U64::kWidth) {
    simd::U64 x[kBlock];
    simd::U64 any = simd::U64::Broadcast(0);
    for (std::size_t p = 0; p < kBlock; ++p) {
      x[p] = simd::U64::Load(&block_[at(p, n)]);
      any = simd::Or(any, x[p]);
    }
    if (!simd::AnyNonZero(any)) continue;
    simd::U64 carry = simd::U64::Broadcast(0);
    for (std::size_t p = 0; p < kBlock; ++p) {
      const simd::U64 a = simd::U64::Load(&planes_[at(p, n)]);
      const simd::U64 ax = simd::Xor(a, x[p]);
      simd::Xor(ax, carry).Store(&planes_[at(p, n)]);
      carry = simd::Or(simd::And(a, x[p]), simd::And(carry, ax));
      simd::U64::Broadcast(0).Store(&block_[at(p, n)]);
    }
    for (std::size_t p = kBlock; simd::AnyNonZero(carry); ++p) {
      ADQ_DCHECK(p < static_cast<std::size_t>(kCounterPlanes));
      const simd::U64 a = simd::U64::Load(&planes_[at(p, n)]);
      simd::Xor(a, carry).Store(&planes_[at(p, n)]);
      carry = simd::And(a, carry);
    }
  }
  for (; n < n_nets; ++n) {
    std::uint64_t carry = 0;
    for (std::size_t p = 0; p < kBlock; ++p) {
      std::uint64_t& x = block_[at(p, n)];
      std::uint64_t& w = planes_[at(p, n)];
      const std::uint64_t ax = w ^ x;
      const std::uint64_t carry_out = (w & x) | (carry & ax);
      w = ax ^ carry;
      carry = carry_out;
      x = 0;
    }
    for (std::size_t p = kBlock; carry; ++p) {
      ADQ_DCHECK(p < static_cast<std::size_t>(kCounterPlanes));
      std::uint64_t& w = planes_[at(p, n)];
      const std::uint64_t c = w & carry;
      w ^= carry;
      carry = c;
    }
  }
  pending_ += block_pending_;
  block_pending_ = 0;
}

void PackedLogicSim::FlushPlanes() const {
  if (pending_ == 0) return;
  const std::size_t n_nets = values_.size();
  const auto live = static_cast<std::size_t>(live_lanes_);
  for (std::size_t n = 0; n < n_nets; ++n) {
    std::uint64_t any = 0;
    for (int p = 0; p < kCounterPlanes; ++p)
      any |= planes_[static_cast<std::size_t>(p) * n_nets + n];
    if (!any) continue;
    // Vertical popcount reassembly, U64::kWidth lanes per step: each
    // plane word is broadcast and its group of lane bits gathered
    // with a per-lane variable shift, then OR-merged at bit p. Lanes
    // whose `any` bit is clear accumulate an exact zero, so skipping
    // is purely a fast-out for all-quiet groups.
    constexpr int kGroup = simd::U64::kWidth;
    const std::uint64_t group_bits =
        kGroup >= 64 ? ~0ull : ((1ull << kGroup) - 1ull);
    const simd::U64 one = simd::U64::Broadcast(1);
    int l = 0;
    for (; l + kGroup <= live_lanes_; l += kGroup) {
      if (!((any >> l) & group_bits)) continue;
      const simd::U64 shifts =
          simd::U64::Iota(static_cast<std::uint64_t>(l));
      simd::U64 cnt = simd::U64::Broadcast(0);
      for (int p = 0; p < kCounterPlanes; ++p) {
        const std::uint64_t word =
            planes_[static_cast<std::size_t>(p) * n_nets + n];
        if (!word) continue;
        const simd::U64 bits =
            simd::And(simd::ShrVar(simd::U64::Broadcast(word), shifts),
                      one);
        cnt = simd::Or(cnt, simd::Shl(bits, p));
      }
      std::uint64_t* t = &lane_toggles_[n * live + static_cast<std::size_t>(l)];
      simd::Add(simd::U64::Load(t), cnt).Store(t);
    }
    for (; l < live_lanes_; ++l) {
      if (!((any >> l) & 1ULL)) continue;
      std::uint64_t c = 0;
      for (int p = 0; p < kCounterPlanes; ++p)
        c |= ((planes_[static_cast<std::size_t>(p) * n_nets + n] >> l) &
              1ULL)
             << p;
      lane_toggles_[n * live + static_cast<std::size_t>(l)] += c;
    }
    for (int p = 0; p < kCounterPlanes; ++p)
      planes_[static_cast<std::size_t>(p) * n_nets + n] = 0;
  }
  pending_ = 0;
}

void PackedLogicSim::FlushCounters() const {
  DrainBlock();
  FlushPlanes();
}

std::uint64_t PackedLogicSim::ReadBus(const netlist::Bus& bus,
                                      int lane) const {
  ADQ_DCHECK(lane >= 0 && lane < kLanes);
  std::uint64_t v = 0;
  for (int i = 0; i < bus.width(); ++i)
    if (Value(bus.bits[static_cast<std::size_t>(i)], lane))
      v |= 1ULL << i;
  return v;
}

std::uint64_t PackedLogicSim::Toggles(NetId net, int lane) const {
  ADQ_DCHECK(lane >= 0 && lane < live_lanes_);
  FlushCounters();
  return lane_toggles_[net.index() * static_cast<std::size_t>(live_lanes_) +
                       static_cast<std::size_t>(lane)];
}

std::uint64_t PackedLogicSim::TotalToggles(NetId net) const {
  FlushCounters();
  const auto live = static_cast<std::size_t>(live_lanes_);
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < live; ++l)
    total += lane_toggles_[net.index() * live + l];
  return total;
}

}  // namespace adq::sim
