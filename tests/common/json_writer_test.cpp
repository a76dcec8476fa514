// The shared JSON writer and every document built on it. Writer cases pin
// the one layout, the escapes, exact integers and bit-exact doubles; the
// emitter cases feed hostile strings (quote, backslash, control bytes,
// invalid UTF-8) into each document the repo writes and require that the
// result parses with the repo's own reader and is valid UTF-8.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "serve/campaign.hpp"
#include "serve/scenario.hpp"
#include "valid_utf8.hpp"

namespace hm::common {
namespace {

/// Quote, backslash, control bytes, a lone 0xff and a truncated two-byte
/// sequence: everything a careless writer passes through.
const std::string kHostile = "q\"b\\s\n\x01\x1f\xff|\xc3";

/// Parses `text` with the repo's reader and checks it is valid UTF-8.
[[nodiscard]] JsonValue parse_strict(const std::string& text) {
  EXPECT_TRUE(hm::testutil::valid_utf8(text)) << text;
  std::string error;
  auto document = parse_json(text, &error);
  EXPECT_TRUE(document.has_value()) << error << "\n" << text;
  return document.value_or(JsonValue{});
}

// --- the writer ------------------------------------------------------------

TEST(JsonWriter, NestsWithTheOneLayout) {
  JsonWriter json;
  json.begin_object().key("a").integer(1);
  json.key("list").begin_array().integer(2).string("x");
  json.begin_object().key("k").boolean(true).end_object();
  json.begin_array().end_array().end_array();
  json.key("flag").boolean(false).end_object();
  EXPECT_EQ(json.str(),
            "{\"a\": 1, \"list\": [2, \"x\", {\"k\": true}, []], "
            "\"flag\": false}\n");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter object;
  object.begin_object().end_object();
  EXPECT_EQ(object.str(), "{}\n");
  JsonWriter array;
  array.begin_array().end_array();
  EXPECT_EQ(array.str(), "[]\n");
  JsonWriter nested;
  nested.begin_object().key("a").begin_object().end_object();
  nested.key("b").begin_array().end_array().end_object();
  EXPECT_EQ(nested.str(), "{\"a\": {}, \"b\": []}\n");
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  JsonWriter json;
  json.begin_object().key("k\"ey").string("a\"b\\c\nd\te\rf\x01g\x1f");
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"k\\\"ey\": \"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001f\"}\n");
}

TEST(JsonWriter, ReplacesInvalidUtf8WithReplacementCharacter) {
  const std::string kReplacement = "\xEF\xBF\xBD";
  const struct {
    const char* label;
    std::string in;
    std::string out;
  } cases[] = {
      {"valid two-byte", "caf\xc3\xa9", "caf\xc3\xa9"},
      {"valid four-byte", "\xf0\x9f\x98\x80", "\xf0\x9f\x98\x80"},
      {"lone 0xff", "a\xff" "b", "a" + kReplacement + "b"},
      {"truncated at the end", "a\xc3", "a" + kReplacement},
      {"truncated three-byte", "\xe2\x82" "x", kReplacement + "x"},
      {"stray continuation", "\x80", kReplacement},
      {"overlong slash", "\xc0\xaf", kReplacement + kReplacement},
      {"surrogate", "\xed\xa0\x80",
       kReplacement + kReplacement + kReplacement},
      {"beyond U+10FFFF", "\xf4\x90\x80\x80",
       kReplacement + kReplacement + kReplacement + kReplacement},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(json_escape(c.in), c.out);
    JsonWriter json;
    json.begin_array().string(c.in).end_array();
    EXPECT_EQ(parse_strict(json.str()).array.at(0).string, c.out);
  }
}

TEST(JsonWriter, IntegersAreExactPastTwoToThe53) {
  JsonWriter json;
  json.begin_array();
  json.integer(std::int64_t{9007199254740992});   // 2^53
  json.integer(std::int64_t{-9007199254740992});  // -2^53
  json.integer(std::int64_t{9007199254740993});   // 2^53 + 1
  json.integer(std::numeric_limits<std::int64_t>::min());
  json.integer(std::numeric_limits<std::uint64_t>::max());
  json.integer(0);
  json.end_array();
  EXPECT_EQ(json.str(),
            "[9007199254740992, -9007199254740992, 9007199254740993, "
            "-9223372036854775808, 18446744073709551615, 0]\n");
}

TEST(JsonWriter, DoublesRoundTripBitForBit) {
  const double values[] = {0.1,
                           -0.0,
                           1.0 / 3.0,
                           -2.5e-7,
                           123456789.125,
                           9007199254740992.0,
                           1e15,
                           1e300,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min()};
  JsonWriter json;
  json.begin_array();
  for (const double value : values) json.number(value);
  json.end_array();
  const JsonValue document = parse_strict(json.str());
  ASSERT_EQ(document.array.size(), std::size(values));
  for (std::size_t i = 0; i < std::size(values); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(document.array[i].number),
              std::bit_cast<std::uint64_t>(values[i]))
        << json.str();
  }
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.begin_array();
  json.number(std::numeric_limits<double>::quiet_NaN());
  json.number(std::numeric_limits<double>::infinity());
  json.end_array();
  EXPECT_EQ(json.str(), "[null, null]\n");
}

// --- every emitter, fed hostile strings --------------------------------------

TEST(JsonEmitters, MetricsSnapshotWithHostileLabel) {
  MetricsRegistry registry;
  registry.counter("hm_hostile_total", "label", kHostile).increment(2);
  registry.gauge("hm_hostile_gauge", "label", kHostile).set(0.25);
  const JsonValue document = parse_strict(to_json(registry.snapshot()));
  EXPECT_EQ(document.find("counters")->object.size(), 1u);
  EXPECT_EQ(document.find("gauges")->object.begin()->second.number, 0.25);
}

TEST(JsonEmitters, ChromeTraceWithHostileSpanName) {
  const std::vector<RemoteTraceEvent> events = {
      {kHostile, kHostile, 7, 1, 1'000, 2'000, 42}};
  const JsonValue document = parse_strict(chrome_trace_json(events));
  const JsonValue& event = document.find("traceEvents")->array.at(0);
  EXPECT_EQ(event.find("name")->string.substr(0, 5), "q\"b\\s");
  EXPECT_EQ(event.find("args")->find("trace_id")->string, "42");
}

TEST(JsonEmitters, FlightRecorderWithHostileAndTruncatedDetail) {
  // 46 ASCII bytes then a two-byte character: the 47-byte slot keeps only
  // its lead byte.
  const auto recorder = std::make_unique<FlightRecorder>();
  recorder->record(FlightEventKind::kPark, kHostile, 1);
  recorder->record(FlightEventKind::kPark, std::string(46, 'a') + "\xc3\xa9");
  const JsonValue document = parse_strict(recorder->to_json());
  const auto& events = document.find("events")->array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].find("detail")->string,
            std::string(46, 'a') + "\xEF\xBF\xBD");
}

TEST(JsonEmitters, CampaignStatusWithHostileParkReason) {
  const std::string dir =
      ::testing::TempDir() + "json_writer_test_campaign";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string error;
  auto scenario = hm::serve::parse_scenario(
      "{\"name\": \"hostile\", \"space\": [{\"kind\": \"integer\", "
      "\"name\": \"x\", \"lo\": 0, \"hi\": 9}], \"budget\": "
      "{\"random_samples\": 4, \"max_iterations\": 1}}",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  auto campaign =
      hm::serve::Campaign::open(dir, std::move(*scenario), &error);
  ASSERT_NE(campaign, nullptr) << error;
  // Park before dispatching anything: nothing is in flight, so the park
  // takes effect at once and the reason sticks.
  campaign->park(kHostile);
  ASSERT_EQ(campaign->state(), hm::serve::Campaign::State::kParked);
  JsonWriter json;
  campaign->write_status(json);
  const JsonValue document = parse_strict(json.str());
  EXPECT_EQ(document.find("id")->string, "hostile");
  EXPECT_EQ(document.find("state")->string, "parked");
  EXPECT_EQ(document.find("park_reason")->string.substr(0, 5), "q\"b\\s");
  campaign.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hm::common
