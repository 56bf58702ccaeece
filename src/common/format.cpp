#include "common/format.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>

namespace parsgd {

std::string format_fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string format_bytes(double bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1000.0 && u < 4) {
    bytes /= 1000.0;
    ++u;
  }
  return format_fixed(bytes, u == 0 ? 0 : 2) + " " + units[u];
}

std::string format_seconds(double s) {
  if (!std::isfinite(s)) return "inf";
  if (s < 1e-3) return format_fixed(s * 1e6, 2) + " us";
  if (s < 1.0) return format_fixed(s * 1e3, 2) + " ms";
  if (s < 120.0) return format_fixed(s, 2) + " s";
  const auto total = static_cast<std::int64_t>(s);
  const auto h = total / 3600, m = (total % 3600) / 60, sec = total % 60;
  char buf[64];
  if (h > 0)
    std::snprintf(buf, sizeof(buf), "%ldh %ldm", h, m);
  else
    std::snprintf(buf, sizeof(buf), "%ldm %lds", m, sec);
  return buf;
}

std::string format_count(std::uint64_t n) {
  std::string raw = std::to_string(n);
  std::string out;
  out.reserve(raw.size() + raw.size() / 3);
  const std::size_t first = raw.size() % 3 == 0 ? 3 : raw.size() % 3;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out.push_back(',');
    out.push_back(raw[i]);
  }
  return out;
}

std::string format_percent(double fraction, int prec) {
  return format_fixed(fraction * 100.0, prec) + "%";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace parsgd
