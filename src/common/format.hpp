// Formatting helpers used by the report/table printers and the JSON
// writers.
#pragma once

#include <string>

namespace parsgd {

/// "1.23 KB", "4.50 MB", "1.20 GB" — decimal SI units, two decimals.
std::string format_bytes(double bytes);

/// Seconds with an adaptive unit: "15 ms", "1.05 s", "2h 3m".
std::string format_seconds(double s);

/// Fixed-precision double, trimming to `prec` decimals ("1.23").
std::string format_fixed(double v, int prec);

/// Large counts with thousands separators ("581,012").
std::string format_count(std::uint64_t n);

/// "12.5%" from a fraction 0.125.
std::string format_percent(double fraction, int prec = 2);

/// Escapes a string for embedding in a JSON document: quote, backslash
/// and control characters; other bytes (UTF-8 included) pass through.
std::string json_escape(const std::string& s);

}  // namespace parsgd
