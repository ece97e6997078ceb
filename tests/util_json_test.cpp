#include "util/json.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/rng.hpp"

namespace myrtus::util {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.Dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(-7).Dump(), "-7");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Json(1.5).Dump(), "1.5");
}

TEST(Json, ObjectBuilderAndLookup) {
  Json j = Json::MakeObject();
  j.Set("name", "edge-0").Set("cores", 4).Set("ghz", 1.2);
  EXPECT_TRUE(j.has("name"));
  EXPECT_EQ(j.at("name").as_string(), "edge-0");
  EXPECT_EQ(j.at("cores").as_int(), 4);
  EXPECT_DOUBLE_EQ(j.at("ghz").as_double(), 1.2);
  EXPECT_TRUE(j.at("missing").is_null());
}

TEST(Json, CanonicalObjectOrderingIsSorted) {
  Json j = Json::MakeObject();
  j.Set("zeta", 1).Set("alpha", 2);
  EXPECT_EQ(j.Dump(), "{\"alpha\":2,\"zeta\":1}");
}

TEST(Json, ArrayAppend) {
  Json j = Json::MakeArray();
  j.Append(1).Append("two").Append(Json::MakeObject().Set("k", 3));
  EXPECT_EQ(j.Dump(), "[1,\"two\",{\"k\":3}]");
  EXPECT_EQ(j.items().size(), 3u);
}

TEST(Json, StringEscaping) {
  Json j = Json(std::string("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(j.Dump(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(Json, ParseRoundtrip) {
  // Keys are already in canonical (sorted) order so Dump() reproduces the
  // input byte-for-byte.
  const std::string text =
      R"({"app":"telerehab","pinned":true,"replicas":2,"stages":[{"ms":3.5,"name":"pose"},{"ms":1,"name":"score"}]})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(Json, ParseNestedAndWhitespace) {
  auto parsed = Json::Parse("  { \"a\" : [ 1 , 2.0e1 , null , false ] }  ");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->at("a").items().size(), 4u);
  EXPECT_DOUBLE_EQ(parsed->at("a").items()[1].as_double(), 20.0);
}

TEST(Json, ParseUnicodeEscape) {
  auto parsed = Json::Parse(R"("Aé")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "A\xc3\xa9");
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("{'single':1}").ok());
}

TEST(Json, DeepNestingRejected) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(Json, IntegerOverflowFallsBackToDouble) {
  auto parsed = Json::Parse("123456789012345678901234567890");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->is_double());
}

TEST(Json, PrettyIsReparseable) {
  Json j = Json::MakeObject();
  j.Set("list", Json::MakeArray().Append(1).Append(2))
      .Set("obj", Json::MakeObject().Set("x", true));
  auto reparsed = Json::Parse(j.Pretty());
  ASSERT_TRUE(reparsed.ok()) << j.Pretty();
  EXPECT_EQ(*reparsed, j);
}

TEST(Json, EqualityIsDeep) {
  auto a = Json::Parse(R"({"x":[1,{"y":2}]})");
  auto b = Json::Parse(R"({ "x" : [ 1, { "y": 2 } ] })");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

// What the random documents below must have covered.
struct DumpSizeCoverage {
  std::array<bool, 0x20> control{};  // each control character
  bool quote = false;
  bool backslash = false;
  bool integral_double = false;
  bool non_finite = false;
  bool int64_min = false;
  bool empty_array = false;
  bool empty_object = false;
  bool nested = false;
};

std::string RandomString(Rng& rng, DumpSizeCoverage& seen) {
  std::string s;
  const std::uint64_t length = rng.NextBounded(12);
  for (std::uint64_t i = 0; i < length; ++i) {
    char c = 0;
    switch (rng.NextBounded(5)) {
      case 0: c = static_cast<char>(rng.NextBounded(0x20)); break;
      case 1: c = rng.NextBool() ? '"' : '\\'; break;
      case 2: c = static_cast<char>(0x80 + rng.NextBounded(0x80)); break;
      default: c = static_cast<char>(0x20 + rng.NextBounded(0x5f)); break;
    }
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20) seen.control[u] = true;
    seen.quote = seen.quote || c == '"';
    seen.backslash = seen.backslash || c == '\\';
    s.push_back(c);
  }
  return s;
}

double RandomDouble(Rng& rng, DumpSizeCoverage& seen) {
  switch (rng.NextBounded(6)) {
    case 0:
      seen.integral_double = true;
      return static_cast<double>(static_cast<std::int64_t>(rng.NextBounded(2000)) - 1000);
    case 1: {
      seen.non_finite = true;
      const double kNonFinite[] = {std::numeric_limits<double>::infinity(),
                                   -std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::quiet_NaN()};
      return kNonFinite[rng.NextBounded(3)];
    }
    case 2: {
      const double kEdges[] = {0.0, -0.0, 1e300, -1e-300, 5e-324, 1e17, 1e16,
                               std::numeric_limits<double>::max()};
      return kEdges[rng.NextBounded(8)];
    }
    case 3: return std::ldexp(rng.NextDouble(), static_cast<int>(rng.NextBounded(200)) - 100);
    default: return rng.Uniform(-1e6, 1e6);
  }
}

Json RandomJson(Rng& rng, int depth, DumpSizeCoverage& seen) {
  switch (rng.NextBounded(depth > 0 ? 8 : 6)) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.NextBool());
    case 2: {
      const std::int64_t kEdges[] = {std::numeric_limits<std::int64_t>::min(),
                                     std::numeric_limits<std::int64_t>::max(),
                                     0, -1, 9, 10, -10};
      const std::uint64_t pick = rng.NextBounded(10);
      if (pick < 7) {
        seen.int64_min = seen.int64_min || pick == 0;
        return Json(kEdges[pick]);
      }
      return Json(static_cast<std::int64_t>(rng.NextU64()));
    }
    case 3:
    case 4: return Json(RandomDouble(rng, seen));
    case 5: return Json(RandomString(rng, seen));
    case 6: {
      Json array = Json::MakeArray();
      const std::uint64_t n = rng.NextBounded(5);
      seen.empty_array = seen.empty_array || n == 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        array.Append(RandomJson(rng, depth - 1, seen));
        seen.nested = seen.nested || array.items().back().is_array() ||
                      array.items().back().is_object();
      }
      return array;
    }
    default: {
      Json object = Json::MakeObject();
      const std::uint64_t n = rng.NextBounded(5);
      seen.empty_object = seen.empty_object || n == 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        Json value = RandomJson(rng, depth - 1, seen);
        seen.nested = seen.nested || value.is_array() || value.is_object();
        object.Set(RandomString(rng, seen), std::move(value));
      }
      return object;
    }
  }
}

TEST(Json, DumpSizeEqualsDumpLength) {
  Rng rng(20261019, "json-dump-size");
  DumpSizeCoverage seen;
  for (int i = 0; i < 10'000; ++i) {
    const Json doc = RandomJson(rng, 4, seen);
    const std::string dumped = doc.Dump();
    ASSERT_EQ(doc.DumpSize(), dumped.size()) << "document " << i << ": " << dumped;
    if (doc.is_string()) {
      ASSERT_EQ(Json::QuotedSize(doc.as_string()), dumped.size()) << dumped;
    }
  }
  for (std::size_t c = 0; c < seen.control.size(); ++c) {
    EXPECT_TRUE(seen.control[c]) << "no document held control character " << c;
  }
  EXPECT_TRUE(seen.quote);
  EXPECT_TRUE(seen.backslash);
  EXPECT_TRUE(seen.integral_double);
  EXPECT_TRUE(seen.non_finite);
  EXPECT_TRUE(seen.int64_min);
  EXPECT_TRUE(seen.empty_array);
  EXPECT_TRUE(seen.empty_object);
  EXPECT_TRUE(seen.nested);
}

}  // namespace
}  // namespace myrtus::util
