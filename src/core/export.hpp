// Telemetry exporters (DESIGN.md §12): a TelemetrySession's trace as
// Chrome trace-event JSON and a metrics snapshot as CSV or Prometheus
// text. Study results are exported through report/ (RunReport JSON and
// its CSV view), not here.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

/// Escapes a CSV field (quotes when the field contains , " or newline).
std::string csv_escape(const std::string& s);

// ---- telemetry exporters (DESIGN.md §12) ---------------------------------

/// Writes a TelemetrySession's trace as Chrome trace-event JSON
/// (loadable in chrome://tracing and Perfetto): one complete ("X") event
/// per span and one instant ("i") event per marker, with thread_name
/// metadata per telemetry lane. Timestamps are microseconds since the
/// process monotonic epoch (common/clock.hpp).
void write_chrome_trace(std::ostream& os,
                        const telemetry::TelemetrySession& session);

/// Writes an aggregated metrics snapshot as CSV:
///   metric,kind,value,count,p50,p90,p99,max
/// (histograms fill count/quantiles; counters/gauges leave them zero).
void write_metrics_csv(std::ostream& os, const telemetry::MetricsSnapshot& snap);

/// Writes the snapshot in Prometheus text exposition format; metric
/// names are prefixed `parsgd_` and dots become underscores.
void write_metrics_prometheus(std::ostream& os,
                              const telemetry::MetricsSnapshot& snap);

}  // namespace parsgd
