#pragma once
/// \file openmetrics.h
/// \brief OpenMetrics / Prometheus text-format rendering of the
/// metrics registry (`--metrics=<f>.prom` or `.om`, see WriteMetrics).
///
/// Rendering maps the registry onto the exposition format any
/// Prometheus-compatible scraper ingests:
///
///   counter    adq_sta_batch_calls_total 12
///   gauge      adq_explore_points_per_sec 135383.2
///   histogram  adq_explore_best_wns_ns_bucket{le="0.05"} 3
///              ... adq_explore_best_wns_ns_bucket{le="+Inf"} 20
///              adq_explore_best_wns_ns_count 20
///              adq_explore_best_wns_ns_sum 1.25
///
/// Metric names are sanitized ('.' and any non-[a-zA-Z0-9_:] byte
/// become '_') and prefixed `adq_`; the original dotted name is kept
/// as a HELP line so dashboards stay greppable against the JSON
/// snapshot. Buckets are cumulative; because util::Histogram clamps
/// out-of-range samples into its edge bins, the last bucket is
/// le="+Inf" and always equals `_count`. The document ends with the
/// `# EOF` marker OpenMetrics requires.

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace adq::obs {

/// Sanitizes one metric name for the exposition format: [a-zA-Z0-9_:]
/// kept, everything else '_', `adq_` prefixed.
std::string OpenMetricsName(const std::string& name);

/// Renders a snapshot as OpenMetrics text (ends in "# EOF\n").
/// `timestamp_ms` > 0 stamps every sample line with the given unix
/// epoch milliseconds (rendered in seconds, as the format specifies).
std::string ToOpenMetrics(const MetricsSnapshot& snap,
                          std::int64_t timestamp_ms = 0);

}  // namespace adq::obs
