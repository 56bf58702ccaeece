#include "core/export.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/format.hpp"

namespace parsgd {

namespace {

std::string num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

}  // namespace

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// ---- telemetry exporters -------------------------------------------------

void write_chrome_trace(std::ostream& os,
                        const telemetry::TelemetrySession& session) {
  const std::vector<telemetry::TraceEvent> events = session.trace().events();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // One named lane per telemetry thread slot that recorded anything.
  // Slot 0 is whichever thread recorded first (typically the driver).
  std::vector<bool> lane_seen;
  for (const telemetry::TraceEvent& ev : events) {
    if (ev.tid >= lane_seen.size()) lane_seen.resize(ev.tid + 1, false);
    if (!lane_seen[ev.tid]) {
      lane_seen[ev.tid] = true;
      os << (first ? "" : ",\n")
         << "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << ev.tid << ",\"args\":{\"name\":\"lane " << ev.tid << "\"}}";
      first = false;
    }
    os << (first ? "" : ",\n") << "  {\"name\":\"" << json_escape(ev.name)
       << "\",\"ph\":\"" << (ev.instant ? "i" : "X")
       << "\",\"pid\":1,\"tid\":" << ev.tid
       << ",\"ts\":" << num(static_cast<double>(ev.start_ns) * 1e-3);
    if (ev.instant) {
      os << ",\"s\":\"t\"";
    } else {
      os << ",\"dur\":" << num(static_cast<double>(ev.dur_ns) * 1e-3);
    }
    if (ev.n_args > 0) {
      os << ",\"args\":{";
      for (std::size_t a = 0; a < ev.n_args; ++a) {
        os << (a > 0 ? "," : "") << "\"" << json_escape(ev.args[a].key)
           << "\":" << num(ev.args[a].value);
      }
      os << "}";
    }
    os << "}";
    first = false;
  }
  // Surface recorder loss in the trace itself: an instant event pinned at
  // the last span's timestamp, carrying the drop count as an arg.
  if (const std::uint64_t dropped = session.trace().dropped(); dropped > 0) {
    std::uint64_t last_ns = 0;
    for (const telemetry::TraceEvent& ev : events) {
      last_ns = std::max(last_ns, ev.start_ns + ev.dur_ns);
    }
    os << (first ? "" : ",\n")
       << "  {\"name\":\"trace.dropped_spans\",\"ph\":\"i\",\"pid\":1,"
          "\"tid\":0,\"ts\":"
       << num(static_cast<double>(last_ns) * 1e-3)
       << ",\"s\":\"g\",\"args\":{\"dropped\":" << dropped << "}}";
    first = false;
  }
  os << "\n]}\n";
}

void write_metrics_csv(std::ostream& os,
                       const telemetry::MetricsSnapshot& snap) {
  os << "metric,kind,value,count,p50,p90,p99,max\n";
  for (const telemetry::MetricSample& s : snap.samples) {
    os << csv_escape(s.name) << ',' << to_string(s.kind) << ','
       << num(s.value) << ',' << s.count << ',' << num(s.p50) << ','
       << num(s.p90) << ',' << num(s.p99) << ',' << num(s.max) << '\n';
  }
}

namespace {

/// parsgd_pool_queue_wait_ns from pool.queue_wait_ns.
std::string prometheus_name(const std::string& name) {
  std::string out = "parsgd_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void write_metrics_prometheus(std::ostream& os,
                              const telemetry::MetricsSnapshot& snap) {
  for (const telemetry::MetricSample& s : snap.samples) {
    const std::string pname = prometheus_name(s.name);
    switch (s.kind) {
      case telemetry::MetricKind::kCounter:
        os << "# TYPE " << pname << " counter\n"
           << pname << " " << num(s.value) << "\n";
        break;
      case telemetry::MetricKind::kGauge:
        os << "# TYPE " << pname << " gauge\n"
           << pname << " " << num(s.value) << "\n";
        break;
      case telemetry::MetricKind::kHistogram:
        // Power-of-two-bucket quantiles exported summary-style.
        os << "# TYPE " << pname << " summary\n"
           << pname << "{quantile=\"0.5\"} " << num(s.p50) << "\n"
           << pname << "{quantile=\"0.9\"} " << num(s.p90) << "\n"
           << pname << "{quantile=\"0.99\"} " << num(s.p99) << "\n"
           << pname << "_sum " << num(s.value) << "\n"
           << pname << "_count " << s.count << "\n";
        break;
    }
  }
}

}  // namespace parsgd
