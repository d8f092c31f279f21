#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>

namespace feam::support {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5")->as_number(), 3.5);
  EXPECT_EQ(Json::parse("-42")->to_int(), -42);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParse, NestedStructure) {
  const auto v = Json::parse(R"({"libs": ["libc.so.6", "libmpi.so.0"],
                                 "bits": 64, "ok": true})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)["libs"].as_array().size(), 2u);
  EXPECT_EQ((*v)["libs"].as_array()[1].as_string(), "libmpi.so.0");
  EXPECT_EQ(v->get_int("bits"), 64);
  EXPECT_TRUE(v->get_bool("ok"));
}

TEST(JsonParse, StringEscapes) {
  const auto v = Json::parse(R"("a\nb\t\"q\"\\A")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\nb\t\"q\"\\A");
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("tru").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
}

TEST(JsonAccess, MissingKeysAreNull) {
  const Json v = *Json::parse("{\"a\": 1}");
  EXPECT_TRUE(v["missing"].is_null());
  EXPECT_EQ(v.get_string("missing", "fallback"), "fallback");
  EXPECT_EQ(v.get_int("missing", 7), 7);
}

TEST(JsonAccess, IntegerReadsRejectUnrepresentableNumbers) {
  const Json v = *Json::parse(
      R"({"huge": 1e300, "low": -1e19, "neg": -1, "frac": -2.75})");
  EXPECT_EQ(v.get_int("huge", 7), 7);
  EXPECT_EQ(v.get_int("low", 7), 7);
  EXPECT_EQ(v.get_int("neg", 7), -1);
  EXPECT_EQ(v.get_int("frac", 7), -2);  // truncates toward zero
  EXPECT_EQ(v.get_uint("huge", 7), 7u);
  EXPECT_EQ(v.get_uint("low", 7), 7u);
  EXPECT_EQ(v.get_uint("neg", 7), 7u);  // -1 is no count
  EXPECT_EQ(Json::parse(R"({"tid":-1e19})")->get_int("tid"), 0);

  // The range ends: -2^63 and 2^64 - 2048 (the largest double below 2^64)
  // fit; 2^63 and 2^64 do not.
  EXPECT_EQ(Json::parse("-9223372036854775808")->to_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(Json::parse("9223372036854775808")->to_int().has_value());
  EXPECT_EQ(Json::parse("18446744073709549568")->to_uint(),
            18446744073709549568ull);
  EXPECT_FALSE(Json::parse("18446744073709551616")->to_uint().has_value());
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {inf, -inf, std::nan("")}) {
    EXPECT_FALSE(Json(bad).to_int().has_value()) << bad;
    EXPECT_FALSE(Json(bad).to_uint().has_value()) << bad;
  }
  EXPECT_FALSE(Json("12").to_int().has_value());  // not a number
}

TEST(JsonDump, RoundTrip) {
  Json obj;
  obj.set("name", "libmpich.so.1.2");
  obj.set("size", std::int64_t{2621440});
  obj.set("versions", Json(Json::Array{Json("GLIBC_2.3"), Json("GLIBC_2.4")}));
  Json nested;
  nested.set("deep", true);
  obj.set("meta", nested);

  for (const int indent : {0, 2}) {
    const auto reparsed = Json::parse(obj.dump(indent));
    ASSERT_TRUE(reparsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(reparsed->get_string("name"), "libmpich.so.1.2");
    EXPECT_EQ(reparsed->get_int("size"), 2621440);
    EXPECT_EQ((*reparsed)["versions"].as_array().size(), 2u);
    EXPECT_TRUE((*reparsed)["meta"].get_bool("deep"));
  }
}

TEST(JsonDump, DeterministicKeyOrder) {
  Json a;
  a.set("zeta", 1);
  a.set("alpha", 2);
  Json b;
  b.set("alpha", 2);
  b.set("zeta", 1);
  EXPECT_EQ(a.dump(), b.dump());  // std::map ordering, insertion-order free
}

TEST(JsonDump, EscapesControlCharacters) {
  const Json v{std::string("a\x01z")};
  const auto reparsed = Json::parse(v.dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), "a\x01z");
}

TEST(JsonDump, QuotesAndBackslashesRoundTrip) {
  const std::string nasty = "say \"hi\" c:\\path\\to\nend\tok\r.";
  const auto reparsed = Json::parse(Json(nasty).dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), nasty);
}

TEST(JsonDump, ValidUtf8RoundTrips) {
  // 2-, 3-, and 4-byte UTF-8 sequences (é, €, 𝄞). BMP sequences pass
  // through raw; the non-BMP one writes as a surrogate pair but decodes
  // back to the identical bytes.
  const std::string text = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9d\x84\x9e";
  const std::string dumped = Json(text).dump();
  EXPECT_NE(dumped.find("caf\xc3\xa9"), std::string::npos);
  const auto reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), text);
}

TEST(JsonDump, NonBmpWritesAsSurrogatePairAndRoundTrips) {
  // U+1D11E MUSICAL SYMBOL G CLEF and U+10FFFF, the last codepoint.
  const std::string clef = "\xf0\x9d\x84\x9e";
  const std::string last = "\xf4\x8f\xbf\xbf";
  const std::string dumped = Json(clef + last).dump();
  EXPECT_EQ(dumped, "\"\\ud834\\udd1e\\udbff\\udfff\"");
  const auto reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), clef + last);
  // And the re-dump is byte-stable.
  EXPECT_EQ(reparsed->dump(), dumped);
}

TEST(JsonParse, SurrogatePairEscapesDecodeToUtf8) {
  const auto parsed = Json::parse("\"\\uD834\\uDD1E\"");  // uppercase hex too
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "\xf0\x9d\x84\x9e");
}

TEST(JsonParse, RejectsLoneAndMismatchedSurrogates) {
  EXPECT_FALSE(Json::parse("\"\\ud834\"").has_value());        // lone high
  EXPECT_FALSE(Json::parse("\"\\udd1e\"").has_value());        // lone low
  EXPECT_FALSE(Json::parse("\"\\ud834\\u0041\"").has_value()); // high + BMP
  EXPECT_FALSE(Json::parse("\"\\ud834x\"").has_value());       // high + raw
  EXPECT_FALSE(Json::parse("\"\\ud834\\ud835\"").has_value()); // high + high
}

TEST(JsonDump, InvalidUtf8BytesAreEscapedToValidJson) {
  // The shapes a synthetic ELF .comment section can smuggle in: a stray
  // continuation byte, an overlong lead, a truncated sequence, 0xff.
  const std::vector<std::string> cases = {
      std::string("GCC: (GNU) 4.1.2 \x93 oops"),   // stray continuation
      std::string("\xc0\xaf" "bad overlong"),      // 0xc0 never valid
      std::string("truncated \xe2\x82"),           // 3-byte seq cut short
      std::string("\xff\xfe byte-order mark-ish"), // never-valid bytes
      std::string("ed surrogate \xed\xa0\x80"),    // encoded surrogate
  };
  for (const auto& raw : cases) {
    const std::string dumped = Json(raw).dump();
    const auto reparsed = Json::parse(dumped);
    ASSERT_TRUE(reparsed.has_value()) << dumped;
    // Every escaped invalid byte decodes to its Latin-1 codepoint, so no
    // information is silently dropped.
    EXPECT_FALSE(reparsed->as_string().empty());
  }
}

TEST(JsonDump, InvalidByteSurvivesAsLatin1Codepoint) {
  const std::string raw = "a\x93z";
  const std::string dumped = Json(raw).dump();
  EXPECT_NE(dumped.find("\\u0093"), std::string::npos);
  const auto reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  // \u0093 decodes as UTF-8 for U+0093 (0xc2 0x93).
  EXPECT_EQ(reparsed->as_string(), "a\xc2\x93z");
}

TEST(JsonDump, NonFiniteNumbersWriteAsNullAndRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  Json obj;
  obj.set("inf", inf);
  obj.set("nan", std::nan(""));
  obj.set("ninf", -inf);
  obj.set("one", 1);
  const std::string dumped = obj.dump();
  EXPECT_EQ(dumped, R"({"inf":null,"nan":null,"ninf":null,"one":1})");
  const auto reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE((*reparsed)["inf"].is_null());
  EXPECT_TRUE((*reparsed)["nan"].is_null());
  EXPECT_EQ(reparsed->dump(), dumped);
}

// One input of the dump tests above: the tree, and the same value written
// through the streaming calls a bulk producer would make.
struct DumpCase {
  Json tree;
  std::function<void(JsonWriter&)> stream;
};

std::vector<DumpCase> dump_cases() {
  std::vector<DumpCase> cases;
  const auto text = [&](const std::string& s) {
    cases.push_back({Json(s), [s](JsonWriter& w) { w.string(s); }});
  };
  // RoundTrip's object, keys written in sorted order.
  Json obj;
  obj.set("name", "libmpich.so.1.2");
  obj.set("size", std::int64_t{2621440});
  obj.set("versions", Json(Json::Array{Json("GLIBC_2.3"), Json("GLIBC_2.4")}));
  Json nested;
  nested.set("deep", true);
  obj.set("meta", nested);
  cases.push_back({obj, [](JsonWriter& w) {
                     w.begin_object();
                     w.key("meta").begin_object().key("deep").boolean(true)
                         .end_object();
                     w.key("name").string("libmpich.so.1.2");
                     w.key("size").number(std::int64_t{2621440});
                     w.key("versions").begin_array().string("GLIBC_2.3")
                         .string("GLIBC_2.4").end_array();
                     w.end_object();
                   }});
  // DeterministicKeyOrder's object.
  Json keys;
  keys.set("zeta", 1);
  keys.set("alpha", 2);
  cases.push_back({keys, [](JsonWriter& w) {
                     w.begin_object().key("alpha").number(2).key("zeta")
                         .number(1).end_object();
                   }});
  // Escapes, control bytes, UTF-8, non-BMP and invalid UTF-8.
  text("a\x01z");
  text(std::string("nul \0 bell \x07 esc \x1b del \x7f", 24));
  text("say \"hi\" c:\\path\\to\nend\tok\r.");
  text("caf\xc3\xa9 \xe2\x82\xac \xf0\x9d\x84\x9e");
  text("\xf0\x9d\x84\x9e\xf4\x8f\xbf\xbf");
  text("GCC: (GNU) 4.1.2 \x93 oops");
  text("\xc0\xaf" "bad overlong");
  text("truncated \xe2\x82");
  text("\xff\xfe byte-order mark-ish");
  text("ed surrogate \xed\xa0\x80");
  text("a\x93z");
  text("");
  // Numbers: integral and fractional, negative, at and past 1e15, past
  // 2^53, through each integer overload and through doubles.
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  const std::int64_t min64 = std::numeric_limits<std::int64_t>::min();
  cases.push_back({Json(Json::Array{
                       Json(0), Json(-42), Json(3.25), Json(-0.5), Json(0.1),
                       Json(1e15), Json(-1e15), Json(999999999999999.0),
                       Json(1e300), Json(std::size_t{1'000'000'000'000'000}),
                       Json(std::size_t{999'999'999'999'999}), Json(big),
                       Json(min64), Json(-0.0)}),
                   [=](JsonWriter& w) {
                     w.begin_array()
                         .number(0)
                         .number(std::int64_t{-42})
                         .number(3.25)
                         .number(-0.5)
                         .number(0.1)
                         .number(std::uint64_t{1'000'000'000'000'000})
                         .number(std::int64_t{-1'000'000'000'000'000})
                         .number(std::uint64_t{999'999'999'999'999})
                         .number(1e300)
                         .number(std::uint64_t{1'000'000'000'000'000})
                         .number(std::uint64_t{999'999'999'999'999})
                         .number(big)
                         .number(min64)
                         .number(-0.0)
                         .end_array();
                   }});
  // Empty and nested containers, and the scalars.
  Json holder;
  holder.set("a", Json(Json::Array{}));
  holder.set("b", Json(Json::Object{}));
  holder.set("c", Json(Json::Array{Json(Json::Array{}),
                                   Json(Json::Array{Json(Json::Object{})})}));
  holder.set("d", nullptr);
  holder.set("e", false);
  cases.push_back({holder, [](JsonWriter& w) {
                     w.begin_object();
                     w.key("a").begin_array().end_array();
                     w.key("b").begin_object().end_object();
                     w.key("c").begin_array().begin_array().end_array()
                         .begin_array().begin_object().end_object()
                         .end_array().end_array();
                     w.key("d").null();
                     w.key("e").boolean(false);
                     w.end_object();
                   }});
  cases.push_back({Json(Json::Array{}),
                   [](JsonWriter& w) { w.begin_array().end_array(); }});
  cases.push_back({Json(Json::Object{}),
                   [](JsonWriter& w) { w.begin_object().end_object(); }});
  return cases;
}

TEST(JsonDump, StreamingWriterMatchesTreeDump) {
  const auto cases = dump_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (const int indent : {0, 2}) {
      std::string streamed;
      JsonWriter w(streamed, indent);
      cases[i].stream(w);
      EXPECT_EQ(streamed, cases[i].tree.dump(indent))
          << "case " << i << " indent " << indent;
      EXPECT_TRUE(Json::parse(streamed).has_value()) << streamed;
    }
  }
}

TEST(JsonDump, PinnedLayouts) {
  // The compact and indented layouts every committed manifest and record
  // was written in.
  const auto cases = dump_cases();
  EXPECT_EQ(cases[0].tree.dump(),
            R"({"meta":{"deep":true},"name":"libmpich.so.1.2",)"
            R"("size":2621440,"versions":["GLIBC_2.3","GLIBC_2.4"]})");
  EXPECT_EQ(cases[0].tree.dump(2),
            "{\n  \"meta\": {\n    \"deep\": true\n  },\n"
            "  \"name\": \"libmpich.so.1.2\",\n  \"size\": 2621440,\n"
            "  \"versions\": [\n    \"GLIBC_2.3\",\n    \"GLIBC_2.4\"\n  ]\n}");
  std::string numbers;
  JsonWriter(numbers).value(*Json::parse(
      "[1e15, 999999999999999, -0.5, 0.1, 9007199254740993, 1e300]"));
  EXPECT_EQ(numbers,
            "[1000000000000000,999999999999999,-0.5,0.10000000000000001,"
            "9007199254740992,1.0000000000000001e+300]");
  EXPECT_EQ(Json(std::string("\x01\x1f\x7f")).dump(),
            "\"\\u0001\\u001f\x7f\"");
}

TEST(JsonDump, WriterAppendsOneLinePerTopLevelValue) {
  std::string out = "prefix\n";
  JsonWriter w(out);
  w.begin_object().key("a").number(1).end_object();
  out += '\n';
  w.begin_array().number(2).end_array();
  out += '\n';
  w.string("s");
  EXPECT_EQ(out, "prefix\n{\"a\":1}\n[2]\n\"s\"");
}

}  // namespace
}  // namespace feam::support
