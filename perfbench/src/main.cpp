/// perfbench_e2e: runs one benchmark workload as a closed loop of jobs
/// (one client, one thread) and prints the raw samples as the last
/// line of stdout, one JSON object. perfbench/run.py builds this
/// program, runs it and turns the samples into metrics.
///
/// Usage:
///   perfbench_e2e --workload paper_fig5|lattice_4x4|grid_sweep
///                 [--seed N] [--seconds T] [--trace 0|1]
///                 [--min-jobs N] [--trace-out FILE] [--setup-only]
///                 [--tamper]
///
/// Set-up is the cell library plus one untimed, cold warm-up job; its
/// mode-table digest is the reference every timed job must match.
/// Timed jobs then run back to back for T seconds, and on until at
/// least N jobs have run (default 1; 2 with --trace 1). Every job starts
/// with an empty activity cache, so it pays the simulation a fresh
/// process pays. With --trace 1, every second job is traced: its
/// per-layer self times and counts go to the output, and the last
/// traced job's spans to the Chrome trace FILE; the untraced jobs in
/// between give the tracing overhead. Throughout, the process moves
/// to the next allowed CPU every 20 ms (see CpuRotation).
///
/// --seed N sets the explorers' seed (the activity stimulus) to N + 6,
/// so the default N = 1 reproduces the library default (7). The
/// placement seed is fixed (see pipeline.h).
/// --tamper swaps a DVAS table in for the proposed one, to show that
/// the output checks catch it.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline.h"
#include "sim/activity.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// High-water resident set of this process image. (getrusage's
/// ru_maxrss would also count the parent's peak inherited across
/// fork + exec.)
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// `open` + items separated by commas + `close`.
std::string Join(const char* open, const std::vector<std::string>& items,
                 const char* close) {
  std::string out = open;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + close;
}

std::string NumList(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (const double x : v) items.push_back(Num(x));
  return Join("[", items, "]");
}

std::string NumMap(const std::map<std::string, double>& m) {
  std::vector<std::string> items;
  for (const auto& [k, v] : m) items.push_back(Str(k) + ":" + Num(v));
  return Join("{", items, "}");
}

/// Moves the thread that creates it round every CPU the process may run
/// on, to the next one each `period`, until destroyed. The vCPUs of a
/// shared host run at different speeds that change over minutes (other
/// tenants load their cores), and the scheduler tends to keep a busy
/// thread where it is, so an unmoved job's time depends on which vCPU it
/// landed on. Rotating makes every job see all of them in turn. The
/// helper thread only sleeps and sets the affinity.
class CpuRotation {
 public:
  explicit CpuRotation(std::chrono::milliseconds period) {
#ifdef __linux__
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    if (cpus.size() < 2) return;
    const pthread_t target = pthread_self();
    helper_ = std::thread([this, target, period, cpus, allowed] {
      std::unique_lock<std::mutex> lock(mu_);
      for (std::size_t i = 0; !stop_; i = (i + 1) % cpus.size()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        pthread_setaffinity_np(target, sizeof(one), &one);
        cv_.wait_for(lock, period, [this] { return stop_; });
      }
      pthread_setaffinity_np(target, sizeof(allowed), &allowed);
    });
#else
    (void)period;
#endif
  }
  ~CpuRotation() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (helper_.joinable()) helper_.join();
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread helper_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload paper_fig5|lattice_4x4|"
               "grid_sweep [--seed N] [--seconds T] [--trace 0|1] "
               "[--min-jobs N] [--trace-out FILE] [--setup-only] "
               "[--tamper]\n");
  return 2;
}

/// Per-layer values of one traced job. Self times of every layer the
/// job's spans booked, plus the counts; `bench.case_probe` (the
/// benchmark's own timing probe) and the job's uncovered remainder are
/// not layers.
std::map<std::string, double> LayerValues(const perfbench::Ledger& ledger,
                                          const perfbench::JobOutcome& o,
                                          double wall_s) {
  std::map<std::string, double> v;
  double covered = 0.0;
  for (const auto& [layer, s] : ledger.self_seconds()) {
    if (layer == "job" || layer == "bench.case_probe") continue;
    v[layer + "_s"] = s;
    covered += s;
  }
  v["bench.span_coverage_pct"] = 100.0 * covered / wall_s;
  for (const auto& [k, c] : o.counts) v[k] = c;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point t_start = Clock::now();

  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  long min_jobs = 1;
  bool trace = false, setup_only = false, tamper = false;
  std::string trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--workload" && has_value) workload_name = argv[++i];
      else if (a == "--seed" && has_value) seed = std::stoull(argv[++i]);
      else if (a == "--seconds" && has_value) seconds = std::stod(argv[++i]);
      else if (a == "--trace" && has_value) trace = std::stoi(argv[++i]) != 0;
      else if (a == "--min-jobs" && has_value) min_jobs = std::stol(argv[++i]);
      else if (a == "--trace-out" && has_value) trace_out = argv[++i];
      else if (a == "--setup-only") setup_only = true;
      else if (a == "--tamper") tamper = true;
      else return Usage();
    }
  } catch (const std::exception&) {
    return Usage();
  }
  JobSpec spec;
  if (!ParseWorkload(workload_name, &spec.workload)) return Usage();
  spec.explore_seed = seed + 6;
  spec.tamper = tamper;

  // Lives until main returns, so set-up and every job run on every
  // allowed CPU in turn.
  const CpuRotation rotation(std::chrono::milliseconds(20));

  // --- Set-up: library + cold warm-up job (its tables are the
  // reference digest).
  const adq::tech::CellLibrary lib;
  adq::sim::ClearActivityCache();
  JobOutcome ref;
  try {
    ref = RunJob(spec, lib, nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warm-up job failed: %s\n", e.what());
    return 1;
  }
  const double setup_s = SecondsSince(t_start);
  if (setup_only) {
    std::printf("{\"setup_s\":%s}\n", Num(setup_s).c_str());
    return 0;
  }

  // --- Timed closed loop.
  std::vector<double> wall_s, cpu_s, traced_wall_s;
  std::vector<std::map<std::string, double>> traced_layers;
  std::vector<std::string> failures;
  long attempted = 0, failed = 0;
  if (trace && min_jobs < 2) min_jobs = 2;  // one traced, one untraced
  const Clock::time_point t_loop = Clock::now();
  while (attempted < min_jobs || SecondsSince(t_loop) < seconds) {
    const bool traced = trace && attempted % 2 == 1;
    Ledger ledger;
    adq::sim::ClearActivityCache();
    if (traced) {
      // The written trace holds the last traced job only.
      adq::obs::ResetTracing();
      adq::obs::EnableMetrics(true);
      adq::obs::StartTracing();
    }
    JobOutcome o;
    std::vector<std::string> job_failures;
    const double c0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    try {
      Span job(traced ? &ledger : nullptr, "job");
      o = RunJob(spec, lib, traced ? &ledger : nullptr);
      job_failures = o.failures;
      if (o.digest != ref.digest)
        job_failures.push_back("mode-table digest differs from the warm-up "
                               "job's");
    } catch (const std::exception& e) {
      job_failures.push_back(std::string("job threw: ") + e.what());
    }
    const double w = SecondsSince(t0);
    const double c = ProcessCpuSeconds() - c0;
    if (traced) {
      adq::obs::StopTracing();
      adq::obs::EnableMetrics(false);
    }
    ++attempted;
    if (!job_failures.empty()) {
      ++failed;
      for (const std::string& f : job_failures)
        if (failures.size() < 8) failures.push_back(f);
    }
    if (traced) {
      traced_wall_s.push_back(w);
      traced_layers.push_back(LayerValues(ledger, o, w));
    } else {
      wall_s.push_back(w);
      cpu_s.push_back(c);
    }
  }
  const double loop_s = SecondsSince(t_loop);
  if (trace && !trace_out.empty() && !adq::obs::WriteTrace(trace_out))
    std::fprintf(stderr, "could not write trace %s\n", trace_out.c_str());

  const Quality& q = ref.quality;
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(ref.digest));
  std::string out = "{\"workload\":" + Str(workload_name) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"explore_seed\":" + std::to_string(spec.explore_seed) +
                    ",\"threads\":1,\"setup_s\":" + Num(setup_s) +
                    ",\"digest\":" + Str(digest) + ",\"quality\":" +
                    NumMap({{"timing_met_frac", q.timing_met_frac},
                            {"modes_solved", q.modes_solved},
                            {"saving_ref_pct", q.saving_ref_pct},
                            {"saving_best_pct", q.saving_best_pct}}) +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"failures\":";
  std::vector<std::string> failure_items, traced_items;
  for (const std::string& f : failures) failure_items.push_back(Str(f));
  for (const auto& layers : traced_layers) traced_items.push_back(NumMap(layers));
  out += Join("[", failure_items, "]") + ",\"wall_s\":" + NumList(wall_s) +
         ",\"cpu_s\":" + NumList(cpu_s) + ",\"loop_s\":" + Num(loop_s) +
         ",\"peak_rss_mb\":" + Num(PeakRssMb()) +
         ",\"traced_wall_s\":" + NumList(traced_wall_s) +
         ",\"traced\":" + Join("[", traced_items, "]") + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
