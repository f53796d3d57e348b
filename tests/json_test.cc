#include "util/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>

namespace tdg::util {
namespace {

TEST(JsonValueTest, TypePredicatesAndAccessors) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(1.5).is_number());
  EXPECT_TRUE(JsonValue("hi").is_string());
  EXPECT_TRUE(JsonValue::MakeArray().is_array());
  EXPECT_TRUE(JsonValue::MakeObject().is_object());

  EXPECT_EQ(JsonValue(true).AsBool(), true);
  EXPECT_DOUBLE_EQ(JsonValue(2.5).AsNumber(), 2.5);
  EXPECT_EQ(JsonValue("x").AsString(), "x");
}

TEST(JsonValueTest, BuildAndSerializeCompact) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("name", "tdg");
  root.Set("n", 10000);
  root.Set("ok", true);
  root.Set("ratio", 1.5);
  JsonValue list = JsonValue::MakeArray();
  list.Append(1);
  list.Append(2);
  root.Set("values", std::move(list));
  root.Set("nothing", JsonValue::Null());
  EXPECT_EQ(root.Serialize(),
            "{\"n\":10000,\"name\":\"tdg\",\"nothing\":null,\"ok\":true,"
            "\"ratio\":1.5,\"values\":[1,2]}");
}

TEST(JsonValueTest, PrettySerializationIndents) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("a", 1);
  std::string pretty = root.SerializePretty();
  EXPECT_EQ(pretty, "{\n  \"a\": 1\n}");
}

TEST(JsonValueTest, EscapingRoundTrips) {
  JsonValue value(std::string("line\nquote\"back\\slash\ttab"));
  auto parsed = JsonValue::Parse(value.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), value.AsString());
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_EQ(JsonValue::Parse("true")->AsBool(), true);
  EXPECT_EQ(JsonValue::Parse("false")->AsBool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-2.5e3")->AsNumber(), -2500.0);
  EXPECT_EQ(JsonValue::Parse("\"abc\"")->AsString(), "abc");
}

TEST(JsonParseTest, ParsesNestedStructures) {
  auto parsed = JsonValue::Parse(
      R"({"cells": [{"n": 10, "gain": 1.5}, {"n": 20, "gain": 3.25}],
          "name": "sweep"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetField("name").value()->AsString(), "sweep");
  // GetField points into *parsed, so the reference lives as long as it.
  const auto& cells = parsed->GetField("cells").value()->AsArray();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_DOUBLE_EQ(cells[1].GetField("gain").value()->AsNumber(), 3.25);
  EXPECT_FALSE(parsed->GetField("missing").ok());
}

TEST(JsonParseTest, UnicodeEscapes) {
  auto parsed = JsonValue::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "A\xc3\xa9");  // "Aé" in UTF-8
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("{'a': 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());       // trailing junk
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\escape\"").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\\ud800\"").ok());  // surrogate
}

TEST(JsonParseTest, RoundTripsComplexDocument) {
  JsonValue root = JsonValue::MakeObject();
  JsonValue cells = JsonValue::MakeArray();
  for (int i = 0; i < 3; ++i) {
    JsonValue cell = JsonValue::MakeObject();
    cell.Set("index", i);
    cell.Set("gain", 1.0 / (i + 1));
    cells.Append(std::move(cell));
  }
  root.Set("cells", std::move(cells));
  root.Set("meta", JsonValue::MakeObject());

  auto reparsed = JsonValue::Parse(root.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value(), root);
  auto reparsed_pretty = JsonValue::Parse(root.SerializePretty());
  ASSERT_TRUE(reparsed_pretty.ok());
  EXPECT_EQ(reparsed_pretty.value(), root);
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto parsed = JsonValue::Parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetField("a").value()->AsArray().size(), 2u);
}

TEST(JsonValueTest, NumbersSerializeToPinnedBytes) {
  // Integral values below 1e15 print as integers, everything else as
  // printf's %.17g; these are the bytes every earlier journal, golden and
  // served round carries.
  const std::pair<double, const char*> cases[] = {
      {-0.0, "0"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3.0, "0.33333333333333331"},
      {1e15 - 1, "999999999999999"},
      {1e15, "1000000000000000"},
      {9007199254740992.0, "9007199254740992"},  // 2^53
      {5e-324, "4.9406564584124654e-324"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {-1e-7, "-9.9999999999999995e-08"},
  };
  for (const auto& [value, bytes] : cases) {
    EXPECT_EQ(JsonValue(value).Serialize(), bytes);
  }
}

TEST(JsonParseTest, NumbersFollowTheRfc8259Grammar) {
  for (const char* bad :
       {"+1", "01", ".5", "1.", "-.5", "-", "--1", "-01", "00", "1e", "1e+",
        "1.e5", "0x10", "[01]", "[1.]", "{\"a\":+1}", "Infinity", "NaN"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(JsonValue::Parse(bad).ok());
  }
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},       {"-0", -0.0},     {"0.5", 0.5},
      {"-0.0e0", -0.0}, {"1e5", 1e5},     {"1E+5", 1e5},
      {"2.5e-3", 2.5e-3}, {"-12.75", -12.75}, {"10", 10.0}};
  for (const auto& [text, value] : good) {
    SCOPED_TRACE(text);
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->AsNumber(), value);
    EXPECT_EQ(std::signbit(parsed->AsNumber()), std::signbit(value));
  }
}

TEST(JsonParseTest, RejectsNumbersOutsideDoubleRange) {
  EXPECT_FALSE(JsonValue::Parse("1e999").ok());
  EXPECT_FALSE(JsonValue::Parse("-1e999").ok());
  EXPECT_FALSE(JsonValue::Parse("1e-400").ok());
}

TEST(JsonParseTest, SubnormalsRoundTripBitwise) {
  for (double value : {5e-324, -5e-324, 2.2250738585072009e-308, 1e-310}) {
    SCOPED_TRACE(value);
    const std::string text = JsonValue(value).Serialize();
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    const double back = parsed->AsNumber();
    EXPECT_EQ(std::memcmp(&back, &value, sizeof(double)), 0) << text;
  }
}

TEST(JsonValueTest, GetFieldReturnsAPointerIntoTheParsedDocument) {
  auto parsed = JsonValue::Parse(R"({"a": [1, 2], "b": "x"})");
  ASSERT_TRUE(parsed.ok());
  auto field = parsed->GetField("a");
  ASSERT_TRUE(field.ok());
  EXPECT_EQ(*field, &parsed->AsObject().find("a")->second);

  auto missing = parsed->GetField("c");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("'c'"), std::string::npos);

  for (const JsonValue& not_object :
       {JsonValue::MakeArray(), JsonValue(1.0), JsonValue("a"),
        JsonValue::Null()}) {
    EXPECT_EQ(not_object.GetField("a").status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(JsonToIntTest, AcceptsExactlyTheIntegralNumbersInIntRange) {
  EXPECT_EQ(JsonToInt(JsonValue(7), "x").value(), 7);
  EXPECT_EQ(JsonToInt(JsonValue(-3.0), "x").value(), -3);
  EXPECT_EQ(JsonToInt(JsonValue(-0.0), "x").value(), 0);
  EXPECT_EQ(JsonToInt(JsonValue(2147483647.0), "x").value(), 2147483647);
  EXPECT_EQ(JsonToInt(JsonValue(-2147483648.0), "x").value(),
            -2147483647 - 1);
  for (double bad : {2.5, -0.5, 2147483648.0, -2147483649.0, 1e10, -1e10,
                     1e300}) {
    SCOPED_TRACE(bad);
    auto status = JsonToInt(JsonValue(bad), "group_size").status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("group_size"), std::string::npos);
  }
  EXPECT_EQ(JsonToInt(JsonValue("3"), "x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonToInt(JsonValue(), "x").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tdg::util
