#include "obs/openmetrics.h"

#include <cctype>
#include <cstdio>

namespace adq::obs {

namespace {

void AppendNum(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// Sample-line timestamp: OpenMetrics wants seconds (float ok).
void AppendTimestamp(std::string& out, std::int64_t ts_ms) {
  if (ts_ms <= 0) return;
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %lld.%03d",
                static_cast<long long>(ts_ms / 1000),
                static_cast<int>(ts_ms % 1000));
  out += buf;
}

void HelpLine(std::string& out, const std::string& om_name,
              const std::string& raw_name) {
  out += "# HELP " + om_name + " adq metric " + raw_name + "\n";
}

}  // namespace

std::string OpenMetricsName(const std::string& name) {
  std::string out = "adq_";
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string ToOpenMetrics(const MetricsSnapshot& snap,
                          std::int64_t timestamp_ms) {
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string om = OpenMetricsName(name);
    HelpLine(out, om, name);
    out += "# TYPE " + om + " counter\n";
    out += om + "_total " + std::to_string(v);
    AppendTimestamp(out, timestamp_ms);
    out += '\n';
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string om = OpenMetricsName(name);
    HelpLine(out, om, name);
    out += "# TYPE " + om + " gauge\n";
    out += om + ' ';
    AppendNum(out, v);
    AppendTimestamp(out, timestamp_ms);
    out += '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string om = OpenMetricsName(name);
    HelpLine(out, om, name);
    out += "# TYPE " + om + " histogram\n";
    // Cumulative buckets; the top bin doubles as +Inf because the
    // histogram clamps overflow samples into it.
    long cum = 0;
    const std::size_t nbins = h.counts.size();
    const double width =
        nbins ? (h.hi - h.lo) / static_cast<double>(nbins) : 0.0;
    for (std::size_t b = 0; b < nbins; ++b) {
      cum += h.counts[b];
      out += om + "_bucket{le=\"";
      if (b + 1 == nbins) {
        out += "+Inf";
      } else {
        AppendNum(out, h.lo + width * static_cast<double>(b + 1));
      }
      out += "\"} " + std::to_string(cum);
      AppendTimestamp(out, timestamp_ms);
      out += '\n';
    }
    if (nbins == 0) {
      out += om + "_bucket{le=\"+Inf\"} " + std::to_string(h.total);
      AppendTimestamp(out, timestamp_ms);
      out += '\n';
    }
    out += om + "_count " + std::to_string(h.total);
    AppendTimestamp(out, timestamp_ms);
    out += '\n';
    out += om + "_sum ";
    AppendNum(out, h.sum);
    AppendTimestamp(out, timestamp_ms);
    out += '\n';
  }
  out += "# EOF\n";
  return out;
}

}  // namespace adq::obs
