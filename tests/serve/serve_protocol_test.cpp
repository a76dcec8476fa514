// Frame protocol over real sockets (ctest label "serve").
//
// The sandbox pipe protocol promised to be transport-agnostic; this suite
// holds it to that over a stream socketpair, walking the exact failure
// matrix the daemon must classify: orderly EOF at a frame boundary versus
// EOF *inside* a frame (a peer that died mid-send), a corrupted checksum,
// an oversize length header (rejected before any allocation), and a writer
// that stalls against the read deadline. The serve-frame codec and the
// scenario JSON reader are covered here too — they are the daemon's entire
// input surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/frame.hpp"
#include "hypermapper/resilient_evaluator.hpp"
#include "sandbox/protocol.hpp"
#include "serve/protocol.hpp"
#include "serve/scenario.hpp"
#include "slambench/adapters.hpp"

namespace hm::serve {
namespace {

using hm::common::FrameStatus;
using hm::common::kMaxFramePayload;

/// A connected stream socketpair; [0] is "ours", [1] the peer's.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    close_peer();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  void close_peer() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

void write_raw(int fd, const void* bytes, std::size_t count) {
  ASSERT_EQ(::write(fd, bytes, count), static_cast<ssize_t>(count));
}

/// Little-endian u32, as the frame header encodes lengths and checksums.
void write_u32(int fd, std::uint32_t value) {
  unsigned char bytes[4];
  bytes[0] = static_cast<unsigned char>(value & 0xff);
  bytes[1] = static_cast<unsigned char>((value >> 8) & 0xff);
  bytes[2] = static_cast<unsigned char>((value >> 16) & 0xff);
  bytes[3] = static_cast<unsigned char>((value >> 24) & 0xff);
  write_raw(fd, bytes, 4);
}

TEST(ServeFraming, RoundTripsOverASocketpair) {
  SocketPair pair;
  const std::string payload = "serve payload \x01\x02 with bytes";
  ASSERT_TRUE(hm::common::write_frame(pair.fds[1], payload));
  std::string read_back;
  EXPECT_EQ(hm::common::read_frame(pair.fds[0], &read_back, 2.0),
            FrameStatus::kOk);
  EXPECT_EQ(read_back, payload);
}

TEST(ServeFraming, EofAtAFrameBoundaryIsEof) {
  SocketPair pair;
  pair.close_peer();
  std::string payload;
  EXPECT_EQ(hm::common::read_frame(pair.fds[0], &payload, 2.0),
            FrameStatus::kEof);
}

TEST(ServeFraming, EofMidHeaderIsCorrupt) {
  SocketPair pair;
  const unsigned char partial[3] = {0x10, 0x00, 0x00};
  write_raw(pair.fds[1], partial, sizeof partial);
  pair.close_peer();
  std::string payload;
  EXPECT_EQ(hm::common::read_frame(pair.fds[0], &payload, 2.0),
            FrameStatus::kCorrupt);
}

TEST(ServeFraming, EofMidPayloadIsCorrupt) {
  SocketPair pair;
  // Header promises 64 payload bytes; only 10 ever arrive before EOF.
  write_u32(pair.fds[1], 64);
  write_u32(pair.fds[1], 0xdeadbeef);
  write_raw(pair.fds[1], "0123456789", 10);
  pair.close_peer();
  std::string payload;
  EXPECT_EQ(hm::common::read_frame(pair.fds[0], &payload, 2.0),
            FrameStatus::kCorrupt);
}

TEST(ServeFraming, OversizeLengthHeaderIsCorrupt) {
  SocketPair pair;
  // One byte above the cap: rejected from the header alone, before any
  // payload byte is read or any buffer is sized.
  write_u32(pair.fds[1], static_cast<std::uint32_t>(kMaxFramePayload + 1));
  write_u32(pair.fds[1], 0);
  std::string payload;
  EXPECT_EQ(hm::common::read_frame(pair.fds[0], &payload, 2.0),
            FrameStatus::kCorrupt);
}

TEST(ServeFraming, CorruptedChecksumIsCorrupt) {
  // Capture a valid frame's bytes, flip one payload byte, replay it.
  SocketPair capture;
  ASSERT_TRUE(hm::common::write_frame(capture.fds[1], "checksummed"));
  char wire[64];
  const ssize_t got = ::read(capture.fds[0], wire, sizeof wire);
  ASSERT_GT(got, 8);
  wire[8] ^= 0x40;  // First payload byte.
  SocketPair replay;
  write_raw(replay.fds[1], wire, static_cast<std::size_t>(got));
  std::string payload;
  EXPECT_EQ(hm::common::read_frame(replay.fds[0], &payload, 2.0),
            FrameStatus::kCorrupt);
}

TEST(ServeFraming, GarbageBytesAreCorrupt) {
  SocketPair pair;
  const unsigned char garbage[8] = {0xff, 0xff, 0xff, 0xff,
                                    0xff, 0xff, 0xff, 0xff};
  write_raw(pair.fds[1], garbage, sizeof garbage);
  std::string payload;
  EXPECT_EQ(hm::common::read_frame(pair.fds[0], &payload, 2.0),
            FrameStatus::kCorrupt);
}

TEST(ServeFraming, StalledWriterHitsTheDeadline) {
  SocketPair pair;
  // Half a header, then silence: the reader must give up at its deadline
  // and classify the wait as a timeout, not EOF or corruption.
  const unsigned char partial[4] = {0x10, 0x00, 0x00, 0x00};
  write_raw(pair.fds[1], partial, sizeof partial);
  std::string payload;
  EXPECT_EQ(hm::common::read_frame(pair.fds[0], &payload, 0.2),
            FrameStatus::kTimeout);
}

TEST(ServeFrameCodec, RoundTripsKindAndFields) {
  ServeFrame frame;
  frame.kind = "progress";
  frame.fields = {"campaign-1", "3", "58", "7"};
  const auto decoded =
      decode_serve_frame(encode_serve_frame(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, frame.kind);
  EXPECT_EQ(decoded->fields, frame.fields);
}

TEST(ServeFrameCodec, RoundTripsTraceAndSpanIds) {
  ServeFrame frame;
  frame.kind = "submit";
  frame.trace_id = 0xabcdef0123456789ULL;
  frame.span_id = 42;
  frame.fields = {"{\"name\": \"demo\"}"};
  const auto decoded =
      decode_serve_frame(encode_serve_frame(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->trace_id, frame.trace_id);
  EXPECT_EQ(decoded->span_id, frame.span_id);
  EXPECT_EQ(decoded->fields, frame.fields);
  // Untraced frames carry explicit zeros, not missing fields.
  frame.trace_id = 0;
  frame.span_id = 0;
  const auto untraced =
      decode_serve_frame(encode_serve_frame(frame));
  ASSERT_TRUE(untraced.has_value());
  EXPECT_EQ(untraced->trace_id, 0u);
  EXPECT_EQ(untraced->span_id, 0u);
}

TEST(ServeFrameCodec, RejectsForeignPayloads) {
  EXPECT_FALSE(decode_serve_frame("").has_value());
  EXPECT_FALSE(decode_serve_frame("not a frame").has_value());
  // A sandbox eval-request payload is a valid *frame* but not a serve
  // message; the codecs must not be confusable.
  hm::sandbox::EvalRequest request;
  request.config = {1.0, 2.0};
  EXPECT_FALSE(
      decode_serve_frame(hm::sandbox::encode_request(request))
          .has_value());
}

TEST(ServeScenario, MinimalScenarioGetsDefaults) {
  std::string error;
  const auto scenario = parse_scenario(
      R"({"name": "demo", "space": [)"
      R"({"kind": "integer", "name": "x", "lo": 0, "hi": 39}]})",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->name, "demo");
  EXPECT_EQ(scenario->config.random_samples, 40u);
  EXPECT_EQ(scenario->config.max_iterations, 4u);
  EXPECT_EQ(scenario->config.max_samples_per_iteration, 15u);
  EXPECT_EQ(scenario->config.pool_size, 200u);
  EXPECT_EQ(scenario->config.forest.tree_count, 8u);
  EXPECT_EQ(scenario->objective_names,
            (std::vector<std::string>{"f0", "f1"}));
  EXPECT_EQ(scenario->evaluator_kind, "grid");
  EXPECT_FALSE(scenario->sandbox);
  EXPECT_EQ(scenario->space.parameter_count(), 1u);
}

TEST(ServeScenario, FullScenarioParsesEveryField) {
  std::string error;
  const std::string text =
      R"({"name": "full-1", "seed": 123, "objectives": ["lat"],)"
      R"( "space": [)"
      R"(  {"kind": "integer", "name": "x", "lo": 0, "hi": 7},)"
      R"(  {"kind": "ordinal", "name": "r", "values": [1, 2, 4]},)"
      R"(  {"kind": "boolean", "name": "b"},)"
      R"(  {"kind": "categorical", "name": "c", "labels": ["lo", "hi"]},)"
      R"(  {"kind": "real", "name": "t", "lo": 0.0, "hi": 1.0}],)"
      R"( "budget": {"random_samples": 9, "max_iterations": 2,)"
      R"(            "max_samples_per_iteration": 5, "pool_size": 50,)"
      R"(            "tree_count": 3},)"
      R"( "evaluator": {"kind": "synthetic", "fail_modulo": 11,)"
      R"(               "fail_remainder": 2},)"
      R"( "sandbox": true,)"
      R"( "deadlines": {"eval_seconds": 1.5, "campaign_seconds": 30.0}})";
  const auto scenario = parse_scenario(text, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->raw, text);  // Byte-for-byte: this becomes the sidecar.
  EXPECT_EQ(scenario->config.seed, 123u);
  EXPECT_EQ(scenario->objective_names, (std::vector<std::string>{"lat"}));
  EXPECT_EQ(scenario->space.parameter_count(), 5u);
  EXPECT_EQ(scenario->config.random_samples, 9u);
  EXPECT_EQ(scenario->evaluator_kind, "synthetic");
  EXPECT_EQ(scenario->fail_modulo, 11u);
  EXPECT_EQ(scenario->fail_remainder, 2u);
  EXPECT_TRUE(scenario->sandbox);
  EXPECT_DOUBLE_EQ(scenario->eval_deadline_seconds, 1.5);
  EXPECT_DOUBLE_EQ(scenario->campaign_deadline_seconds, 30.0);
}

TEST(ServeScenario, RejectsMalformedDocuments) {
  const std::string space =
      R"("space": [{"kind": "integer", "name": "x", "lo": 0, "hi": 3}])";
  // `reason`, when set, must appear in the error: a document rejected for
  // some other reason does not prove the check it names.
  const struct {
    const char* label;
    std::string text;
    const char* reason = nullptr;
  } cases[] = {
      {"unterminated JSON", R"({"name": "a", )" + space},
      {"trailing bytes", R"({"name": "a", )" + space + R"(} extra)"},
      {"not an object", R"([1, 2, 3])"},
      {"missing name", R"({)" + space + R"(})"},
      {"bad name characters", R"({"name": "no spaces!", )" + space + R"(})"},
      {"missing space", R"({"name": "a"})"},
      {"empty space", R"({"name": "a", "space": []})"},
      {"unknown parameter kind",
       R"({"name": "a", "space": [{"kind": "warp", "name": "x"}]})"},
      {"duplicate parameter",
       R"({"name": "a", "space": [)"
       R"({"kind": "boolean", "name": "x"}, {"kind": "boolean", "name": "x"}]})"},
      {"three objectives",
       R"({"name": "a", "objectives": ["a", "b", "c"], )" + space + R"(})"},
      {"zero random samples",
       R"({"name": "a", "budget": {"random_samples": 0}, )" + space + R"(})"},
      {"unsorted ordinal values",
       R"({"name": "a", "space": [)"
       R"({"kind": "ordinal", "name": "r", "values": [4, 1, 2]}]})",
       "strictly increasing"},
      {"duplicate ordinal values",
       R"({"name": "a", "space": [)"
       R"({"kind": "ordinal", "name": "r", "values": [1, 2, 2]}]})",
       "strictly increasing"},
      {"integer upper bound beyond 2^53",
       R"({"name": "a", "space": [)"
       R"({"kind": "integer", "name": "x", "lo": 0, "hi": 1e300}]})",
       "2^53"},
      {"integer lower bound beyond -2^53",
       R"({"name": "a", "space": [)"
       R"({"kind": "integer", "name": "x", "lo": -1e17, "hi": 0}]})",
       "2^53"},
      {"raw control byte in a string",
       "{\"name\": \"a\", \"space\": [{\"kind\": \"categorical\", "
       "\"name\": \"c\", \"labels\": [\"lo\nhi\"]}]}",
       "raw control byte"},
      {"space given with kfusion",
       R"({"name": "a", "evaluator": {"kind": "kfusion"}, )" + space + R"(})",
       "built-in space"},
      {"unknown device",
       R"({"name": "a", "evaluator": {"kind": "kfusion", "device": "pixel"}})",
       "unknown device"},
      {"frames below range",
       R"({"name": "a", "evaluator": {"kind": "elasticfusion", "frames": 1}})",
       "'frames' must be in"},
      {"frames above range",
       R"({"name": "a", "evaluator": {"kind": "kfusion", "frames": 1001}})",
       "'frames' must be in"},
      {"frames with the grid evaluator",
       R"({"name": "a", "evaluator": {"kind": "grid", "frames": 4}, )" +
           space + R"(})",
       "apply only to"},
      {"one objective for kfusion",
       R"({"name": "a", "objectives": ["t"], "evaluator": {"kind": "kfusion"}})",
       "2 objectives"},
  };
  for (const auto& bad : cases) {
    SCOPED_TRACE(bad.label);
    std::string error;
    EXPECT_FALSE(parse_scenario(bad.text, &error).has_value());
    EXPECT_FALSE(error.empty());
    if (bad.reason != nullptr) {
      EXPECT_NE(error.find(bad.reason), std::string::npos) << error;
    }
  }
}

TEST(ServeScenario, SlamKindsUseTheBuiltInSpacesAndPaperDefaults) {
  std::string error;
  const auto kfusion = parse_scenario(
      R"({"name": "kf", "evaluator": {"kind": "kfusion"}})", &error);
  ASSERT_TRUE(kfusion.has_value()) << error;
  EXPECT_EQ(kfusion->space.cardinality(),
            hm::slambench::build_kfusion_space().cardinality());
  EXPECT_EQ(kfusion->objective_names,
            (std::vector<std::string>{"runtime_s", "max_ate_m"}));
  EXPECT_EQ(kfusion->device, "odroid");
  EXPECT_EQ(kfusion->frames, 30u);

  const auto ef = parse_scenario(
      R"({"name": "ef", "evaluator": {"kind": "elasticfusion", )"
      R"("device": "asus", "frames": 400}})",
      &error);
  ASSERT_TRUE(ef.has_value()) << error;
  EXPECT_EQ(ef->space.cardinality(),
            hm::slambench::build_elasticfusion_space().cardinality());
  EXPECT_EQ(ef->objective_names,
            (std::vector<std::string>{"runtime_s", "mean_ate_m"}));
  EXPECT_EQ(ef->device, "asus");
  EXPECT_EQ(ef->frames, 400u);
}

TEST(ServeScenario, CheckedInScenariosCarryThePaperCampaignBudgets) {
  const struct {
    const char* file;
    const char* kind;
    const char* device;
    std::size_t frames;
    std::size_t random_samples;
    std::size_t max_samples_per_iteration;
  } expected[] = {
      {"kfusion_odroid.json", "kfusion", "odroid", 30, 80, 50},
      {"elasticfusion_gtx780ti.json", "elasticfusion", "nvidia", 40, 100, 60},
  };
  for (const auto& want : expected) {
    SCOPED_TRACE(want.file);
    std::ifstream in(std::string(HM_SCENARIO_DIR) + "/" + want.file);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string error;
    const auto scenario = parse_scenario(text, &error);
    ASSERT_TRUE(scenario.has_value()) << error;
    EXPECT_EQ(scenario->evaluator_kind, want.kind);
    EXPECT_EQ(scenario->device, want.device);
    EXPECT_EQ(scenario->frames, want.frames);
    EXPECT_EQ(scenario->config.seed, 42u);
    EXPECT_EQ(scenario->config.random_samples, want.random_samples);
    EXPECT_EQ(scenario->config.max_iterations, 3u);
    EXPECT_EQ(scenario->config.max_samples_per_iteration,
              want.max_samples_per_iteration);
    EXPECT_EQ(scenario->config.pool_size, 20000u);
    EXPECT_EQ(scenario->config.forest.tree_count, 48u);
  }
}

TEST(ServeScenario, GridEvaluatorIsDeterministicAndInjectsFailures) {
  std::string error;
  const auto scenario = parse_scenario(
      R"({"name": "grid", "space": [)"
      R"({"kind": "integer", "name": "x", "lo": 0, "hi": 39},)"
      R"({"kind": "integer", "name": "y", "lo": 0, "hi": 39}],)"
      R"("evaluator": {"fail_modulo": 17, "fail_remainder": 3}})",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const auto evaluator = make_scenario_evaluator(*scenario);
  ASSERT_NE(evaluator, nullptr);
  EXPECT_TRUE(evaluator->thread_safe());
  EXPECT_EQ(evaluator->objective_count(), 2u);

  // A non-failing configuration evaluates to the documented surface, and
  // identically on every call.
  hm::hypermapper::Configuration ok_config{13.0, 20.0};
  ASSERT_NE(scenario->space.key(ok_config) % 17, 3u);
  const std::vector<double> first = evaluator->evaluate(ok_config);
  ASSERT_EQ(first.size(), 2u);
  const std::vector<double> features = scenario->space.features(ok_config);
  EXPECT_DOUBLE_EQ(first[0], features[0] + 0.01 * features[1]);
  EXPECT_EQ(evaluator->evaluate(ok_config), first);

  // The failure band throws a *permanent* error keyed by configuration.
  bool failed = false;
  for (double x = 0.0; x < 40.0 && !failed; x += 1.0) {
    hm::hypermapper::Configuration config{x, 0.0};
    if (scenario->space.key(config) % 17 != 3) continue;
    failed = true;
    try {
      (void)evaluator->evaluate(config);
      FAIL() << "expected EvaluationError";
    } catch (const hm::hypermapper::EvaluationError& e) {
      EXPECT_FALSE(e.transient());
    }
  }
  EXPECT_TRUE(failed);
}

TEST(ServeScenario, UnknownEvaluatorKindYieldsNull) {
  std::string error;
  auto scenario = parse_scenario(
      R"({"name": "a", "space": [)"
      R"({"kind": "boolean", "name": "x"}]})",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  scenario->evaluator_kind = "bogus";
  EXPECT_EQ(make_scenario_evaluator(*scenario), nullptr);
}

}  // namespace
}  // namespace hm::serve
