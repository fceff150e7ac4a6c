/**
 * @file
 * Minimal JSON support without an external dependency: one
 * recursive-descent parser building a small read-only DOM (JsonValue
 * + jsonParse), used by the roll-up layer to ingest the telemetry
 * JSONL the exporter writes, and a well-formedness check on top of it
 * that validates exported trace, metrics, and event files.
 *
 * Like the rest of this library it sits below chaos_util: parse
 * failures report through a bool, never an exception.
 */
#ifndef CHAOS_OBS_JSON_HPP
#define CHAOS_OBS_JSON_HPP

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace chaos::obs {

/**
 * @return True when @p text is exactly one well-formed JSON value
 *         (object, array, string, number, true/false/null) with
 *         nothing but whitespace around it (jsonParse into a
 *         discarded value).
 */
bool jsonWellFormed(const std::string &text);

/**
 * One parsed JSON value. Objects keep member insertion order (lookup
 * by find() is a linear scan — telemetry records have a handful of
 * keys); numbers are held as double, which covers every value this
 * codebase emits.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isBool() const { return kind_ == Kind::Bool; }

    /** Bool payload (false unless isBool()). */
    bool asBool() const { return boolean_; }

    /** Number payload (0 unless isNumber()). */
    double asNumber() const { return number_; }

    /** String payload with escapes decoded ("" unless isString()). */
    const std::string &asString() const { return string_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in insertion order (empty unless isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** @return Member @p key of an object, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key's number, or @p fallback when absent/not one. */
    double numberOr(const std::string &key, double fallback) const;

    /** Member @p key's string, or @p fallback when absent/not one. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Member @p key's bool, or @p fallback when absent/not one. */
    bool boolOr(const std::string &key, bool fallback) const;

  private:
    friend struct JsonParser; // The builder in json.cpp.

    Kind kind_ = Kind::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse @p text — exactly one JSON value with only whitespace around
 * it — into @p out. @return False (leaving @p out unspecified) on
 * malformed input. Accepts exactly what jsonWellFormed accepts;
 * \uXXXX escapes decode to UTF-8 (unpaired surrogates become '?').
 */
bool jsonParse(const std::string &text, JsonValue &out);

/**
 * @return @p s with the characters that would break a JSON string
 *         literal escaped (quotes, backslashes, control characters).
 */
std::string jsonEscape(const std::string &s);

} // namespace chaos::obs

#endif // CHAOS_OBS_JSON_HPP
