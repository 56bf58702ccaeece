#include "common/format.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace parsgd {
namespace {

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4.4e6), "4.40 MB");
  EXPECT_EQ(format_bytes(1.2e9), "1.20 GB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(0.0000052), "5.20 us");
  EXPECT_EQ(format_seconds(0.015), "15.00 ms");
  EXPECT_EQ(format_seconds(1.05), "1.05 s");
  EXPECT_EQ(format_seconds(3725), "1h 2m");
  EXPECT_EQ(format_seconds(130), "2m 10s");
  EXPECT_EQ(format_seconds(std::numeric_limits<double>::infinity()), "inf");
}

TEST(Format, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(581012), "581,012");
  EXPECT_EQ(format_count(1355191), "1,355,191");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.0388), "3.88%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(Format, Fixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.14159, 0), "3");
}

TEST(Format, JsonEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string("\x01")), "\\u0001");
}

}  // namespace
}  // namespace parsgd
