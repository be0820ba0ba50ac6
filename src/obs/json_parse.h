/**
 * @file
 * Minimal recursive-descent JSON parser for the repo's own artifacts.
 *
 * The report generator (harness/report.h) reads back the JSON files
 * the harness itself wrote (summary.json, telemetry.json,
 * blackbox.json, attribution.json), so this parser only needs to
 * cover what obs::JsonWriter can emit: objects, arrays, strings with
 * \" \\ \n \t \u escapes, numbers (integers and doubles), booleans,
 * and null. It keeps everything in a tree of JsonValue nodes; numbers
 * are stored as double plus the raw text so 64-bit tick values
 * round-trip exactly via asU64().
 *
 * Errors throw std::runtime_error with a byte offset. Input may come
 * from outside the program (`checkin_cli report DIR`), so nesting is
 * capped instead of recursing without bound.
 */

#ifndef CHECKIN_OBS_JSON_PARSE_H_
#define CHECKIN_OBS_JSON_PARSE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace checkin::obs {

/** One node of a parsed JSON document. */
struct JsonValue
{
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    /** Raw numeric text (exact u64 round-trip) or string payload. */
    std::string text;
    std::vector<JsonValue> items;
    /** Sorted by key: JsonWriter emits sorted keys, std::map keeps
     *  them that way. */
    std::map<std::string, JsonValue> fields;

    bool isNull() const { return type == Type::Null; }
    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Member lookup with a Null fallback (chainable). */
    const JsonValue &at(const std::string &key) const;

    /** Array element with a Null fallback. */
    const JsonValue &at(std::size_t index) const;

    double asDouble(double fallback = 0.0) const;
    /**
     * Exact for integers JsonWriter wrote (parses the raw text);
     * @p fallback when not a number.
     * @throws std::runtime_error for a number that is not a whole
     * number in [0, 2^64): a sign, fraction or exponent.
     */
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    std::string asString(const std::string &fallback = "") const;
    bool asBool(bool fallback = false) const;
};

/** Parse @p text; throws std::runtime_error on malformed input or
 *  nesting deeper than 256 levels. */
JsonValue parseJson(const std::string &text);

} // namespace checkin::obs

#endif // CHECKIN_OBS_JSON_PARSE_H_
