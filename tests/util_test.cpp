#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ht::util {
namespace {

// ---- status -------------------------------------------------------------

TEST(StatusTest, CheckSpecThrowsOnFalse) {
  EXPECT_THROW(check_spec(false, "boom"), SpecError);
  EXPECT_NO_THROW(check_spec(true, "fine"));
}

TEST(StatusTest, CheckInternalThrowsOnFalse) {
  EXPECT_THROW(check_internal(false, "boom"), InternalError);
  EXPECT_NO_THROW(check_internal(true, "fine"));
}

TEST(StatusTest, ExceptionHierarchy) {
  try {
    throw InfeasibleError("no way");
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "no way");
  }
}

// ---- rng ----------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(12);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(13);
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(RngTest, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), SpecError);
}

TEST(RngTest, Uniform01Bounds) {
  Rng rng(21);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, PickFromEmptyThrows) {
  Rng rng(3);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), SpecError);
}

// ---- strings --------------------------------------------------------------

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(join({"x", "y", "z"}, "--"), "x--y--z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hello\t\n"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("benchmark", "bench"));
  EXPECT_FALSE(starts_with("ben", "bench"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(22000), "22,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-4160), "-4,160");
}

TEST(StringsTest, FormatMoney) {
  EXPECT_EQ(format_money(4160), "$4,160");
  EXPECT_EQ(format_money(-5), "-$5");
}

TEST(StringsTest, ParseNumberReadsWholeTokens) {
  EXPECT_EQ(parse_number<int>("4", "--threads"), 4);
  EXPECT_EQ(parse_number<int>("-7", "--priority"), -7);
  EXPECT_EQ(parse_number<long long>("9000000000", "--area"), 9'000'000'000LL);
  EXPECT_EQ(parse_number<unsigned long long>("18446744073709551615", "--seed"),
            18'446'744'073'709'551'615ULL);
  EXPECT_DOUBLE_EQ(parse_number<double>("2.5", "--time-limit"), 2.5);
  EXPECT_DOUBLE_EQ(parse_number<double>("1e-3", "--time-limit"), 0.001);
}

TEST(StringsTest, ParseNumberRejectsJunkTrailingAndOverflowNamingTheFlag) {
  const auto message_of = [](auto parse) -> std::string {
    try {
      parse();
    } catch (const SpecError& error) {
      return error.what();
    }
    return "";
  };
  for (const char* bad : {"", "x", "4x", " 4", "4 ", "0x10", "--1"}) {
    const std::string message =
        message_of([&] { parse_number<int>(bad, "--threads"); });
    EXPECT_NE(message.find("--threads"), std::string::npos)
        << "'" << bad << "'";
  }
  EXPECT_THROW(parse_number<int>("2147483648", "--threads"), SpecError);
  EXPECT_THROW(parse_number<int>("-2147483649", "--threads"), SpecError);
  EXPECT_THROW(parse_number<unsigned long long>("-1", "--seed"), SpecError);
  EXPECT_THROW(
      parse_number<unsigned long long>("18446744073709551616", "--seed"),
      SpecError);
  EXPECT_THROW(parse_number<double>("1e999", "--time-limit"), SpecError);
  EXPECT_THROW(parse_number<double>("2.5s", "--time-limit"), SpecError);
  EXPECT_NE(message_of([] { parse_number<int>("99999999999", "--workers"); })
                .find("out of range"),
            std::string::npos);
}

// ---- table ----------------------------------------------------------------

TEST(TableTest, AlignsColumns) {
  TablePrinter table({"name", "n"});
  table.add_row({"polynom", "5"});
  table.add_row({"ellipticicass", "29"});
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("| polynom       |"), std::string::npos);
  EXPECT_NE(rendered.find("| ellipticicass |"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), SpecError);
}

TEST(TableTest, CsvEscapesCommasAndQuotes) {
  TablePrinter table({"k", "v"});
  table.add_row({"a,b", "say \"hi\""});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, TitleIsPrinted) {
  TablePrinter table({"x"});
  table.add_row({"1"});
  EXPECT_TRUE(starts_with(table.to_string("Table 3"), "Table 3\n"));
}

}  // namespace
}  // namespace ht::util
