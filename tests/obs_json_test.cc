// Edge-case suite for the obs::JsonValue parser/serializer: escape
// handling (including \uXXXX re-encoding to UTF-8), the recursion depth
// limit, rejection of malformed documents with positioned error
// messages, large-integer round-trips, and a full trace-document round
// trip through the Chrome-trace exporter. The parser backs both the
// RunReport tests and the CI trace artifact, so "almost JSON" inputs
// must fail loudly rather than parse into something surprising.

#include "src/obs/json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/trace_export.h"

namespace safe {
namespace obs {
namespace {

JsonValue ParseOk(const std::string& text) {
  JsonValue out;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(text, &out, &error)) << text << ": " << error;
  return out;
}

std::string ParseError(const std::string& text) {
  JsonValue out;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(text, &out, &error))
      << "unexpectedly parsed: " << text;
  EXPECT_FALSE(error.empty()) << "rejection must carry an error message";
  return error;
}

// --- Escapes ---

TEST(JsonParseTest, SimpleEscapesDecode) {
  const JsonValue v = ParseOk(R"("a\"b\\c\/d\ne\rf\tg\bh\fi")");
  EXPECT_EQ(v.string_value(), "a\"b\\c/d\ne\rf\tg\bh\fi");
}

TEST(JsonParseTest, EscapedStringsRoundTripThroughSerialize) {
  const JsonValue v(std::string("quote\" slash\\ tab\t newline\n ctrl\x01"));
  JsonValue back;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(v.Serialize(/*indent=*/-1), &back, &error))
      << error;
  EXPECT_EQ(back, v);
}

TEST(JsonParseTest, UnicodeEscapesDecodeToUtf8) {
  // One code point from each UTF-8 length class the decoder handles.
  EXPECT_EQ(ParseOk("\"\\u0041\"").string_value(), "A");
  EXPECT_EQ(ParseOk("\"\\u00e9\"").string_value(), "\xC3\xA9");      // é
  EXPECT_EQ(ParseOk("\"\\u20ac\"").string_value(), "\xE2\x82\xAC");  // €
  // Uppercase hex digits are accepted too.
  EXPECT_EQ(ParseOk("\"\\u20AC\"").string_value(), "\xE2\x82\xAC");
}

TEST(JsonParseTest, BadEscapesAreRejected) {
  EXPECT_NE(ParseError(R"("\x41")").find("unknown escape"),
            std::string::npos);
  EXPECT_NE(ParseError(R"("\u12")").find("truncated"), std::string::npos);
  EXPECT_NE(ParseError(R"("\uZZZZ")").find("bad \\u"), std::string::npos);
  EXPECT_NE(ParseError(R"("no closing quote)").find("unterminated"),
            std::string::npos);
}

// --- Depth limit ---

std::string Nested(size_t levels) {
  std::string text;
  text.append(levels, '[');
  text.append(levels, ']');
  return text;
}

TEST(JsonParseTest, DeepNestingParsesUpToTheLimit) {
  // kMaxDepth = 64: the innermost value of L nested arrays sits at
  // depth L-1, so 65 levels parse and 66 do not.
  ParseOk(Nested(60));
  ParseOk(Nested(65));
}

TEST(JsonParseTest, NestingBeyondTheLimitIsRejected) {
  EXPECT_NE(ParseError(Nested(66)).find("nesting too deep"),
            std::string::npos);
  EXPECT_NE(ParseError(Nested(100)).find("nesting too deep"),
            std::string::npos);
  // Mixed object/array nesting counts against the same budget.
  std::string mixed;
  for (int i = 0; i < 40; ++i) mixed += R"({"k":[)";
  mixed += "1";
  for (int i = 0; i < 40; ++i) mixed += "]}";
  EXPECT_NE(ParseError(mixed).find("nesting too deep"), std::string::npos);
}

// --- Malformed documents ---

TEST(JsonParseTest, MalformedInputsAreRejected) {
  ParseError("");
  ParseError("   ");
  ParseError("bareword");
  ParseError("nul");           // truncated literal
  ParseError("[1,]");          // trailing comma
  ParseError("[1 2]");         // missing comma
  ParseError(R"({"a" 1})");    // missing colon
  ParseError(R"({"a":})");     // missing value
  ParseError(R"({"a":1)");     // unterminated object
  ParseError(R"({a: 1})");     // unquoted key
  ParseError("[1, 2");         // unterminated array
  EXPECT_NE(ParseError("{} extra").find("trailing"), std::string::npos);
  EXPECT_NE(ParseError("1 2").find("trailing"), std::string::npos);
}

TEST(JsonParseTest, ErrorsReportAnOffset) {
  EXPECT_NE(ParseError("[1,]").find("at offset"), std::string::npos);
}

// --- Numbers ---

TEST(JsonParseTest, LargeIntegersRoundTripExactly) {
  // 2^53 is the largest power of two a double holds exactly alongside
  // all smaller integers; the report serializer prints it integrally.
  const double big = 9007199254740992.0;  // 2^53
  JsonValue doc = JsonValue::Object();
  doc.Set("count", JsonValue(big));
  doc.Set("neg", JsonValue(-big));
  doc.Set("frac", JsonValue(0.1));
  JsonValue back;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(doc.Serialize(), &back, &error)) << error;
  EXPECT_EQ(back, doc);
  EXPECT_EQ(back.Find("count")->number_value(), big);
  EXPECT_EQ(back.Find("frac")->number_value(), 0.1);
}

TEST(JsonParseTest, ParsesScientificNotationAndSignedNumbers) {
  EXPECT_EQ(ParseOk("1e3").number_value(), 1000.0);
  EXPECT_EQ(ParseOk("-2.5e-2").number_value(), -0.025);
  EXPECT_EQ(ParseOk("-0").number_value(), 0.0);
}

// --- Whitespace and ordering ---

TEST(JsonParseTest, WhitespaceIsInsignificant) {
  const JsonValue v = ParseOk(" {\n\t\"a\" :\r [ 1 , 2 ] , \"b\" : null } ");
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(v.members()[0].first, "a");
  EXPECT_EQ(v.Find("a")->items().size(), 2u);
  EXPECT_TRUE(v.Find("b")->is_null());
}

TEST(JsonParseTest, ObjectOrderSurvivesAndMattersForEquality) {
  const JsonValue ab = ParseOk(R"({"a":1,"b":2})");
  const JsonValue ba = ParseOk(R"({"b":2,"a":1})");
  EXPECT_NE(ab, ba);  // reports are byte-stable, so order is semantic
  EXPECT_EQ(ab.members()[0].first, "a");
  EXPECT_EQ(ba.members()[0].first, "b");
}

// --- Trace-document round trip through the parser ---

TEST(JsonParseTest, ChromeTraceDocumentRoundTrips) {
  ThreadTimeline timeline;
  timeline.thread_index = 2;
  timeline.label = "main";
  TraceEvent begin;
  begin.ts_ns = 1500;
  begin.name = "phase \"quoted\"\n";  // exporter must escape span names
  begin.type = TraceEventType::kBegin;
  TraceEvent end = begin;
  end.ts_ns = 2500;
  end.type = TraceEventType::kEnd;
  timeline.events = {begin, end};

  const JsonValue doc = ChromeTraceJson({timeline});
  for (int indent : {-1, 0, 2}) {
    JsonValue back;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(doc.Serialize(indent), &back, &error))
        << "indent " << indent << ": " << error;
    EXPECT_EQ(back, doc) << "indent " << indent;
  }
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 3u);  // metadata + B + E
  EXPECT_EQ(events->items()[1].Find("name")->string_value(),
            "phase \"quoted\"\n");
}

}  // namespace
}  // namespace obs
}  // namespace safe
