#include "sim/activity.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <string_view>
#include <tuple>

#include "obs/obs.h"
#include "sim/packed_sim.h"
#include "sim/stimulus.h"

namespace adq::sim {

namespace {

/// One pre-generated stimulus stream per input bus. The base streams
/// are shared by every accuracy mode: the Rng draw order depends only
/// on the bus list, never on zeroed_lsbs, so lane masking can be
/// applied afterwards without disturbing determinism.
struct BusStream {
  const netlist::Bus* bus = nullptr;
  bool scalable = false;
  std::vector<std::uint64_t> data;
};

std::vector<BusStream> GenerateStreams(const gen::Operator& op, int cycles,
                                       std::uint64_t seed,
                                       StimulusKind kind) {
  util::Rng rng(seed);
  std::vector<BusStream> streams;
  for (const netlist::Bus& bus : op.nl.input_buses()) {
    BusStream s;
    s.bus = &bus;
    if (bus.name == "clr") {
      // Accumulator framing: one-cycle clear pulse at the operator's
      // output-sample cadence (e.g. ceil(taps/MACs) for the folded
      // FIR). The spec must declare it — a silent default would bake
      // the wrong frame length into the activity profile.
      const int period = op.spec.accumulation_cycles;
      ADQ_CHECK_MSG(period > 0,
                    "operator has a clr bus but no accumulation_cycles");
      s.data.resize(static_cast<std::size_t>(cycles));
      for (int i = 0; i < cycles; ++i)
        s.data[static_cast<std::size_t>(i)] = (i % period) == 0;
    } else {
      s.data = (kind == StimulusKind::kUniform)
                   ? UniformStream(rng, bus.width(), cycles)
                   : CorrelatedStream(rng, bus.width(), cycles);
      s.scalable = std::find(op.spec.scalable_buses.begin(),
                             op.spec.scalable_buses.end(),
                             bus.name) != op.spec.scalable_buses.end();
    }
    streams.push_back(std::move(s));
  }
  return streams;
}

void PutWord(std::string* s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    s->push_back(static_cast<char>((v >> (8 * i)) & 0xffULL));
}

void PutStr(std::string* s, std::string_view str) {
  s->append(str);
  PutWord(s, str.size());  // length word: "ab"+"c" != "a"+"bc"
}

/// Canonical byte encoding of everything the simulation result
/// depends on: topology (cell kinds and pin nets), bus framing and
/// the stimulus-relevant spec fields. Drive strengths are
/// deliberately excluded — sizing changes electrical data only, so a
/// resized copy of an operator (the VDD-island engine works on one)
/// encodes identically and hits the cache entries the explorer
/// populated. The encoding itself is part of the cache key (full-key
/// comparison), so a digest collision between two different operators
/// degrades to a cache miss, never to a wrong profile.
std::string CanonicalStructure(const gen::Operator& op) {
  const netlist::Netlist& nl = op.nl;
  std::string canon;
  canon.reserve(nl.num_instances() * 24 + 64);
  PutWord(&canon, nl.num_nets());
  PutWord(&canon, nl.num_instances());
  for (const netlist::Instance& inst : nl.instances()) {
    PutWord(&canon, static_cast<std::uint64_t>(inst.kind));
    for (int p = 0; p < inst.num_inputs(); ++p)
      PutWord(&canon, inst.in[static_cast<std::size_t>(p)].index());
    for (int o = 0; o < inst.num_outputs(); ++o)
      PutWord(&canon, inst.out[static_cast<std::size_t>(o)].index());
  }
  for (const netlist::Bus& bus : nl.input_buses()) {
    PutStr(&canon, bus.name);
    for (const netlist::NetId bit : bus.bits) PutWord(&canon, bit.index());
  }
  for (const std::string& name : op.spec.scalable_buses)
    PutStr(&canon, name);
  PutWord(&canon, static_cast<std::uint64_t>(op.spec.data_width));
  PutWord(&canon, static_cast<std::uint64_t>(op.spec.accumulation_cycles));
  return canon;
}

bool g_force_hash_collisions = false;

/// FNV-1a of the canonical encoding. Field-for-field the same fold
/// the historical StructuralHash computed (words enter as 8 LE bytes,
/// strings as bytes plus a length word), so digests persist across
/// this refactor. Only an index accelerator now — correctness rests
/// on the canonical bytes in the key.
std::uint64_t StructuralDigest(std::string_view canon) {
  if (g_force_hash_collisions) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : canon) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// (name, digest, canonical structure, zeroed_lsbs, cycles, seed,
// kind): the canonical bytes make lookups full-key exact.
using CacheKey = std::tuple<std::string, std::uint64_t, std::string, int,
                            int, std::uint64_t, int>;

CacheKey MakeKey(const gen::Operator& op, std::uint64_t struct_hash,
                 const std::string& canon, int zeroed_lsbs, int cycles,
                 std::uint64_t seed, StimulusKind kind) {
  return CacheKey(op.spec.name, struct_hash, canon, zeroed_lsbs, cycles,
                  seed, static_cast<int>(kind));
}

struct ActivityCache {
  std::mutex mu;
  std::map<CacheKey, ActivityProfile> entries;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

ActivityCache& TheCache() {
  static ActivityCache* cache = new ActivityCache;
  return *cache;
}

void CheckArgs(const gen::Operator& op, std::span<const int> zeroed_lsbs,
               int cycles) {
  // cycles == 1 only establishes the toggle baseline (sim.cycles()
  // stays 0) and would silently produce an all-zero profile.
  ADQ_CHECK_MSG(cycles >= 2, "activity extraction needs cycles >= 2");
  ADQ_CHECK(!zeroed_lsbs.empty());
  for (const int zs : zeroed_lsbs)
    ADQ_CHECK(zs >= 0 && zs <= op.spec.data_width);
}

/// Runs up to 64 accuracy modes through one packed simulation. Lane l
/// carries zeroed_lsbs[min(l, n-1)]; stimulus is the shared base
/// stream with a per-bus, per-bit lane keep mask applied, so lane l
/// sees exactly what a scalar run for its mode would.
std::vector<ActivityProfile> RunPackedChunk(
    const gen::Operator& op, const std::vector<BusStream>& streams,
    std::span<const int> zs, int cycles) {
  const netlist::Netlist& nl = op.nl;
  const std::size_t lanes = zs.size();
  ADQ_CHECK(lanes >= 1 &&
            lanes <= static_cast<std::size_t>(PackedLogicSim::kLanes));

  std::vector<std::vector<std::uint64_t>> keep(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const BusStream& s = streams[i];
    keep[i].assign(static_cast<std::size_t>(s.bus->width()), ~0ULL);
    if (!s.scalable) continue;
    for (int bit = 0; bit < s.bus->width(); ++bit) {
      std::uint64_t m = 0;
      for (int l = 0; l < PackedLogicSim::kLanes; ++l) {
        const int z =
            zs[std::min(static_cast<std::size_t>(l), lanes - 1)];
        if (bit >= z) m |= 1ULL << l;
      }
      keep[i][static_cast<std::size_t>(bit)] = m;
    }
  }

  PackedLogicSim sim(nl, static_cast<int>(lanes));
  sim.Reset();
  for (int t = 0; t < cycles; ++t) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const std::uint64_t v =
          streams[i].data[static_cast<std::size_t>(t)];
      const std::vector<netlist::NetId>& bits = streams[i].bus->bits;
      for (std::size_t b = 0; b < bits.size(); ++b)
        sim.SetInput(bits[b], ((v >> b) & 1ULL) ? keep[i][b] : 0ULL);
    }
    sim.Tick();
  }

  std::vector<ActivityProfile> out(lanes);
  const double denom =
      static_cast<double>(std::max<std::uint64_t>(1, sim.cycles()));
  for (std::size_t j = 0; j < lanes; ++j) {
    out[j].cycles = sim.cycles();
    out[j].toggle_rate.resize(nl.num_nets(), 0.0);
    for (std::size_t n = 0; n < nl.num_nets(); ++n)
      out[j].toggle_rate[n] =
          static_cast<double>(
              sim.Toggles(netlist::NetId(static_cast<std::uint32_t>(n)),
                          static_cast<int>(j))) /
          denom;
  }
  return out;
}

}  // namespace

ActivityProfile ExtractActivityScalar(const gen::Operator& op,
                                      int zeroed_lsbs, int cycles,
                                      std::uint64_t seed,
                                      StimulusKind kind) {
  ADQ_TRACE_SCOPE2("sim.extract_activity_scalar",
                   op.spec.name + " lsb0=" + std::to_string(zeroed_lsbs));
  const int zs[1] = {zeroed_lsbs};
  CheckArgs(op, zs, cycles);
  const netlist::Netlist& nl = op.nl;

  std::vector<BusStream> streams = GenerateStreams(op, cycles, seed, kind);
  for (BusStream& s : streams)
    if (s.scalable) MaskStream(s.data, s.bus->width(), zeroed_lsbs);

  LogicSim sim(nl);
  sim.Reset();
  for (int t = 0; t < cycles; ++t) {
    for (const BusStream& s : streams)
      sim.SetBus(*s.bus, s.data[static_cast<std::size_t>(t)]);
    sim.Tick();
  }

  ActivityProfile prof;
  prof.cycles = sim.cycles();
  prof.toggle_rate.resize(nl.num_nets(), 0.0);
  const double denom = static_cast<double>(std::max<std::uint64_t>(
      1, sim.cycles()));
  for (std::size_t n = 0; n < nl.num_nets(); ++n)
    prof.toggle_rate[n] = static_cast<double>(sim.toggles()[n]) / denom;
  return prof;
}

std::vector<ActivityProfile> ExtractActivityBatch(
    const gen::Operator& op, std::span<const int> zeroed_lsbs, int cycles,
    std::uint64_t seed, StimulusKind kind) {
  ADQ_TRACE_SCOPE2("sim.extract_activity_batch",
                   op.spec.name + " modes=" +
                       std::to_string(zeroed_lsbs.size()));
  static obs::Counter& extractions =
      obs::GetCounter("sim.activity_extractions");
  static obs::Counter& sim_cycles = obs::GetCounter("sim.activity_cycles");
  static obs::Counter& cache_hits =
      obs::GetCounter("sim.activity_cache_hits");
  static obs::Counter& cache_misses =
      obs::GetCounter("sim.activity_cache_misses");
  CheckArgs(op, zeroed_lsbs, cycles);
  extractions.Add(static_cast<std::uint64_t>(zeroed_lsbs.size()));
  sim_cycles.Add(static_cast<std::uint64_t>(cycles) * zeroed_lsbs.size());

  const std::string canon = CanonicalStructure(op);
  const std::uint64_t struct_hash = StructuralDigest(canon);
  ActivityCache& cache = TheCache();

  // Find the modes not yet cached (deduplicated, first-seen order).
  std::vector<int> missing;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    for (const int zs : zeroed_lsbs) {
      const CacheKey key =
          MakeKey(op, struct_hash, canon, zs, cycles, seed, kind);
      if (!cache.entries.count(key) &&
          std::find(missing.begin(), missing.end(), zs) == missing.end())
        missing.push_back(zs);
    }
  }

  // Simulate the missing modes outside the lock, 64 lanes at a time.
  if (!missing.empty()) {
    const std::vector<BusStream> streams =
        GenerateStreams(op, cycles, seed, kind);
    std::vector<std::pair<int, ActivityProfile>> fresh;
    fresh.reserve(missing.size());
    for (std::size_t at = 0; at < missing.size();
         at += static_cast<std::size_t>(PackedLogicSim::kLanes)) {
      const std::size_t n =
          std::min(missing.size() - at,
                   static_cast<std::size_t>(PackedLogicSim::kLanes));
      std::vector<ActivityProfile> profs = RunPackedChunk(
          op, streams, std::span<const int>(missing).subspan(at, n),
          cycles);
      for (std::size_t j = 0; j < n; ++j)
        fresh.emplace_back(missing[at + j], std::move(profs[j]));
    }
    std::lock_guard<std::mutex> lock(cache.mu);
    for (auto& [zs, prof] : fresh)
      cache.entries.try_emplace(
          MakeKey(op, struct_hash, canon, zs, cycles, seed, kind),
          std::move(prof));
  }

  // Assemble results in request order; everything is cached now.
  std::vector<ActivityProfile> out;
  out.reserve(zeroed_lsbs.size());
  std::uint64_t hits = 0;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    for (const int zs : zeroed_lsbs) {
      const auto it = cache.entries.find(
          MakeKey(op, struct_hash, canon, zs, cycles, seed, kind));
      ADQ_CHECK(it != cache.entries.end());
      out.push_back(it->second);
    }
    hits = zeroed_lsbs.size() - missing.size();
    cache.hits += hits;
    cache.misses += missing.size();
  }
  cache_hits.Add(hits);
  cache_misses.Add(static_cast<std::uint64_t>(missing.size()));
  static obs::Gauge& hit_rate = obs::GetGauge("sim.activity_cache_hit_rate");
  if (const long total = cache_hits.value() + cache_misses.value();
      total > 0)
    hit_rate.Set(static_cast<double>(cache_hits.value()) /
                 static_cast<double>(total));
  return out;
}

ActivityProfile ExtractActivity(const gen::Operator& op, int zeroed_lsbs,
                                int cycles, std::uint64_t seed,
                                StimulusKind kind) {
  const int zs[1] = {zeroed_lsbs};
  std::vector<ActivityProfile> profs =
      ExtractActivityBatch(op, zs, cycles, seed, kind);
  return std::move(profs[0]);
}

ActivityCacheStats GetActivityCacheStats() {
  ActivityCache& cache = TheCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return ActivityCacheStats{cache.hits, cache.misses,
                            cache.entries.size()};
}

void ClearActivityCache() {
  ActivityCache& cache = TheCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
  cache.hits = 0;
  cache.misses = 0;
}

void ForceActivityHashCollisionsForTest(bool on) {
  g_force_hash_collisions = on;
}

}  // namespace adq::sim
