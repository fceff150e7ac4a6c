/**
 * @file
 * Tests for the JSON reader: an accept/reject corpus run through both
 * entry points (jsonWellFormed and jsonParse), decoded values for the
 * escape and number grammar, and a seeded mutation fuzz asserting the
 * two entry points agree on every input.
 */
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "util/random.hpp"

namespace chaos {
namespace {

bool
parses(const std::string &text)
{
    obs::JsonValue value;
    return obs::jsonParse(text, value);
}

std::string
nested(int depth)
{
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
}

const std::vector<std::string> &
acceptCorpus()
{
    static const std::vector<std::string> corpus = {
        "{}", "[]", "0", "-0", "1", "-1", "10", "0.5", "-0.5",
        "1e5", "1E5", "1e+5", "1e-5", "1.25e-3", "-12.5E+10",
        "true", "false", "null", "\"\"", "\"abc\"",
        "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"", "\"\\u0041\"",
        "\"\\u00e9\"", "\"\\u20AC\"", "\"\\uD83D\"", "\"\\uabcd\"",
        " \t\n\r{ \"a\" : [ 1 , 2 , { \"b\" : null } ] } \n",
        "{\"a\": {\"b\": {\"c\": []}}, \"d\": \"\"}",
        "[1, -2.5, \"x\", true, false, null, [], {}]",
        "\"\x7f\xc3\xa9\"", // DEL and raw UTF-8 bytes are legal.
        nested(256),
    };
    return corpus;
}

const std::vector<std::string> &
rejectCorpus()
{
    static const std::vector<std::string> corpus = {
        "", " ", "{", "}", "[", "]", "[1,]", "[,1]", "{\"a\"}",
        "{\"a\":}", "{\"a\" 1}", "{a: 1}", "{\"a\": 1,}", "{,}",
        "01", "-01", "00", "-", "+1", ".5", "1.", "1.e5", "1e",
        "1e+", "1e-", "-a", "0x10", "NaN", "Infinity", "-Infinity",
        "tru", "truee", "nul", "falsy", "True", "\"abc", "\"\\\"",
        "\"\\x\"", "\"\\u\"", "\"\\u12\"", "\"\\u12g4\"",
        "\"\\U0041\"", "\"\\'\"", "'a'", std::string("\"a\nb\""),
        std::string("\"a\tb\""), std::string("\"\x01\""),
        std::string("\"\x1f\""), std::string("\"a\0b\"", 5),
        "{} {}", "[] x", "1 2", "true false", "\"a\" \"b\"", "{}]",
        "null,", nested(257),
    };
    return corpus;
}

TEST(Json, AcceptCorpusIsWellFormedAndParses)
{
    for (const std::string &text : acceptCorpus()) {
        EXPECT_TRUE(obs::jsonWellFormed(text)) << text;
        EXPECT_TRUE(parses(text)) << text;
    }
}

TEST(Json, RejectCorpusIsMalformedAndFailsToParse)
{
    for (const std::string &text : rejectCorpus()) {
        EXPECT_FALSE(obs::jsonWellFormed(text)) << text;
        EXPECT_FALSE(parses(text)) << text;
    }
}

TEST(Json, DepthLimitIsExactly256)
{
    EXPECT_TRUE(obs::jsonWellFormed(nested(256)));
    EXPECT_FALSE(obs::jsonWellFormed(nested(257)));
    const std::string objects256 = [] {
        std::string s;
        for (int i = 0; i < 255; ++i)
            s += "{\"k\":";
        s += "{}";
        for (int i = 0; i < 255; ++i)
            s += "}";
        return s;
    }();
    EXPECT_TRUE(obs::jsonWellFormed(objects256));
    EXPECT_TRUE(parses(objects256));
    EXPECT_FALSE(obs::jsonWellFormed("[" + objects256 + "]"));
    EXPECT_FALSE(parses("[" + objects256 + "]"));
}

TEST(Json, DecodesEscapesAndNumbers)
{
    obs::JsonValue v;
    ASSERT_TRUE(obs::jsonParse(
        "{\"s\": \"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\\u00e9\\u20ac"
        "\\ud800\", \"n\": -12.5e2, \"z\": -0, \"t\": true, "
        "\"a\": [null, 1]}",
        v));
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.stringOr("s", ""),
              "\"\\/\b\f\n\r\tA\xc3\xa9\xe2\x82\xac?");
    EXPECT_DOUBLE_EQ(v.numberOr("n", 0.0), -1250.0);
    EXPECT_DOUBLE_EQ(v.numberOr("z", 1.0), 0.0);
    EXPECT_TRUE(v.boolOr("t", false));
    const obs::JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 2u);
    EXPECT_TRUE(a->items()[0].isNull());
    EXPECT_DOUBLE_EQ(a->items()[1].asNumber(), 1.0);
}

/**
 * Seeded mutation fuzz: byte flips, insertions, deletions, and
 * truncations of corpus entries. Whatever the mutated input is, both
 * entry points must reach the same verdict.
 */
TEST(Json, MutationFuzzBothEntryPointsAgree)
{
    std::vector<std::string> seeds = acceptCorpus();
    seeds.insert(seeds.end(), rejectCorpus().begin(),
                 rejectCorpus().end());
    static const char kAlphabet[] = "{}[]:,\"\\/ -+.0123456789eEtrufalsn"
                                    "bu\x01\x1f\x7f\xff";
    Rng rng(20120923);
    std::size_t accepted = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        std::string s = seeds[rng.uniformInt(seeds.size())];
        const int edits = 1 + static_cast<int>(rng.uniformInt(4));
        for (int e = 0; e < edits; ++e) {
            const char c =
                kAlphabet[rng.uniformInt(sizeof(kAlphabet) - 1)];
            const std::size_t at =
                s.empty() ? 0 : rng.uniformInt(s.size() + 1);
            switch (rng.uniformInt(4)) {
              case 0:
                if (at < s.size())
                    s[at] = c;
                break;
              case 1: s.insert(at, 1, c); break;
              case 2:
                if (at < s.size())
                    s.erase(at, 1);
                break;
              default: s.resize(at); break;
            }
        }
        const bool wellFormed = obs::jsonWellFormed(s);
        ASSERT_EQ(wellFormed, parses(s)) << "input: " << s;
        accepted += wellFormed ? 1 : 0;
    }
    // The fuzz explores both sides of the grammar.
    EXPECT_GT(accepted, 100u);
    EXPECT_LT(accepted, 19900u);
}

} // namespace
} // namespace chaos
