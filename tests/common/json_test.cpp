// The shared JSON reader: the serve daemon's whole input surface and the
// validator of every exported trace.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hm::common {
namespace {

TEST(Json, ParsesNestedDocuments) {
  std::string error;
  const auto document = parse_json(
      " {\"a\": [1, -2.5e3, true, false, null, \"x\\\"\\u0041\\n\"],"
      " \"b\": {}, \"c\": []} ",
      &error);
  ASSERT_TRUE(document.has_value()) << error;
  ASSERT_EQ(document->kind, JsonValue::Kind::kObject);
  const JsonValue* a = document->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 6u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, -2500.0);
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(a->array[3].boolean);
  EXPECT_EQ(a->array[4].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(a->array[5].string, "x\"A\n");
  EXPECT_EQ(document->find("b")->kind, JsonValue::Kind::kObject);
  EXPECT_TRUE(document->find("c")->array.empty());
  EXPECT_EQ(document->find("d"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
  const struct {
    const char* label;
    std::string text;
  } cases[] = {
      {"empty", ""},
      {"trailing bytes", "{} {}"},
      {"missing comma", "[1 2]"},
      {"trailing comma", "[1, ]"},
      {"unterminated string", "\"abc"},
      {"raw newline in a string", "\"a\nb\""},
      {"raw tab in a key", "{\"a\tb\": 1}"},
      {"bad escape", "\"\\q\""},
      {"short \\u escape", "\"\\u12\""},
      {"non-hex \\u escape", "\"\\u00g1\""},
      {"\\u beyond ASCII", "\"\\u00e9\""},
      {"bad literal", "tru"},
      {"bad number", "1.2.3"},
      {"non-finite number", "1e999"},
      {"unquoted key", "{a: 1}"},
      {"too deep", std::string(40, '[') + std::string(40, ']')},
  };
  for (const auto& bad : cases) {
    SCOPED_TRACE(bad.label);
    std::string error;
    EXPECT_FALSE(parse_json(bad.text, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(Json, EscapeRoundTripsThroughTheReader) {
  const std::string text = "quote\" slash\\ nl\n tab\t cr\r bell\x07";
  std::string error;
  const auto parsed = parse_json("\"" + json_escape(text) + "\"", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->string, text);
}

}  // namespace
}  // namespace hm::common
