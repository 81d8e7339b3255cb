#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace liger::util {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_number(), 1000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParseTest, IntAccessor) {
  EXPECT_EQ(parse_json("42").as_int(), 42);
  EXPECT_THROW(parse_json("42.5").as_int(), JsonError);
}

TEST(JsonParseTest, IntAccessorRangeChecksBeforeCasting) {
  // -2^63 is the smallest int64 and exact as a double; 2^63 and beyond
  // do not fit and must throw rather than hit an undefined cast.
  EXPECT_EQ(parse_json("-9223372036854775808").as_int(), INT64_MIN);
  EXPECT_EQ(parse_json("9007199254740992").as_int(), std::int64_t{1} << 53);
  EXPECT_THROW(parse_json("9223372036854775808").as_int(), JsonError);
  EXPECT_THROW(parse_json("1e19").as_int(), JsonError);
  EXPECT_THROW(parse_json("-1e19").as_int(), JsonError);
  EXPECT_THROW(parse_json("1e300").as_int(), JsonError);
  EXPECT_THROW(parse_json(R"({"n": 1e20})").int_or("n", 0), JsonError);
}

TEST(JsonParseTest, NestedDocument) {
  const auto doc = parse_json(R"({
    "name": "liger",
    "devices": 4,
    "rates": [1.5, 2.5],
    "nested": { "deep": true }
  })");
  EXPECT_EQ(doc.as_object().size(), 4u);
  EXPECT_EQ(doc.find("name")->as_string(), "liger");
  EXPECT_EQ(doc.find("devices")->as_int(), 4);
  const auto& rates = doc.find("rates")->as_array();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[1].as_number(), 2.5);
  EXPECT_TRUE(doc.find("nested")->find("deep")->as_bool());
}

TEST(JsonParseTest, DefaultLookups) {
  const auto doc = parse_json(R"({"a": 1, "s": "x", "b": true})");
  EXPECT_EQ(doc.int_or("a", 9), 1);
  EXPECT_EQ(doc.int_or("missing", 9), 9);
  EXPECT_EQ(doc.string_or("s", "d"), "x");
  EXPECT_EQ(doc.string_or("missing", "d"), "d");
  EXPECT_TRUE(doc.bool_or("b", false));
  EXPECT_FALSE(doc.bool_or("missing", false));
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse_json(R"("A")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParseTest, EmptyContainers) {
  EXPECT_TRUE(parse_json("{}").as_object().empty());
  EXPECT_TRUE(parse_json("[]").as_array().empty());
  EXPECT_TRUE(parse_json("  [ ]  ").as_array().empty());
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("[1,]"), JsonError);
  EXPECT_THROW(parse_json("{\"a\" 1}"), JsonError);
  EXPECT_THROW(parse_json("tru"), JsonError);
  EXPECT_THROW(parse_json("1 2"), JsonError);  // trailing content
  EXPECT_THROW(parse_json("\"unterminated"), JsonError);
  EXPECT_THROW(parse_json("nan"), JsonError);
}

TEST(JsonParseTest, TypeMismatchThrows) {
  const auto doc = parse_json(R"({"a": 1})");
  EXPECT_THROW(doc.find("a")->as_string(), JsonError);
  EXPECT_THROW(doc.find("a")->as_array(), JsonError);
  EXPECT_THROW(parse_json("[1]").as_object(), JsonError);
}

TEST(JsonParseTest, RoundTripThroughWriter) {
  // parse(write(doc)) == doc for a representative document.
  const char* text = R"({"a":[1,2,{"b":"x"}],"c":true,"d":null})";
  const auto doc = parse_json(text);
  EXPECT_EQ(doc.find("a")->as_array()[2].find("b")->as_string(), "x");
  EXPECT_TRUE(doc.find("d")->is_null());
}

TEST(JsonParseTest, ParseFileErrors) {
  EXPECT_THROW(parse_json_file("/nonexistent/path.json"), std::runtime_error);
}

}  // namespace
}  // namespace liger::util
