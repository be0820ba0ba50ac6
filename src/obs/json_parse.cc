#include "obs/json_parse.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace checkin::obs {

namespace {

/** Deepest nesting accepted: far above the few levels JsonWriter
 *  emits, far below what the recursion's stack can take. */
constexpr int kMaxDepth = 256;

/** Cursor over the input with shared error reporting. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        ws();
        if (pos_ != s_.size())
            fail("trailing bytes after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("json parse error at byte " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        ws();
        switch (peek()) {
          case '{':
          case '[': {
            if (++depth_ > kMaxDepth)
                fail("nested deeper than " + std::to_string(kMaxDepth) +
                     " levels");
            JsonValue v = peek() == '{' ? object() : array();
            --depth_;
            return v;
          }
          case '"':
            return string();
          case 't':
          case 'f':
            return boolean();
          case 'n':
            literal("null");
            return JsonValue{};
          default:
            return number();
        }
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p) {
            if (pos_ >= s_.size() || s_[pos_] != *p)
                fail(std::string("expected literal ") + word);
            ++pos_;
        }
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (peek() == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        ws();
        if (consume('}'))
            return v;
        while (true) {
            ws();
            JsonValue key = string();
            ws();
            expect(':');
            v.fields[key.text] = value();
            ws();
            if (consume(','))
                continue;
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        ws();
        if (consume(']'))
            return v;
        while (true) {
            v.items.push_back(value());
            ws();
            if (consume(','))
                continue;
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        expect('"');
        JsonValue v;
        v.type = JsonValue::Type::String;
        while (true) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.text.push_back(c);
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                v.text.push_back(e);
                break;
              case 'b':
                v.text.push_back('\b');
                break;
              case 'f':
                v.text.push_back('\f');
                break;
              case 'n':
                v.text.push_back('\n');
                break;
              case 'r':
                v.text.push_back('\r');
                break;
              case 't':
                v.text.push_back('\t');
                break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // Artifacts are ASCII; encode the BMP code point as
                // UTF-8 without surrogate-pair handling.
                if (cp < 0x80) {
                    v.text.push_back(char(cp));
                } else if (cp < 0x800) {
                    v.text.push_back(char(0xC0 | (cp >> 6)));
                    v.text.push_back(char(0x80 | (cp & 0x3F)));
                } else {
                    v.text.push_back(char(0xE0 | (cp >> 12)));
                    v.text.push_back(
                        char(0x80 | ((cp >> 6) & 0x3F)));
                    v.text.push_back(char(0x80 | (cp & 0x3F)));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    /** Digits at the cursor; returns how many. */
    std::size_t
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0)
            ++pos_;
        return pos_ - start;
    }

    /** RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    JsonValue
    number()
    {
        const std::size_t start = pos_;
        consume('-');
        if (!consume('0') && digits() == 0)
            fail("expected a value");
        if (consume('.') && digits() == 0)
            fail("expected a digit after '.'");
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (digits() == 0)
                fail("expected a digit in the exponent");
        }
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.text = s_.substr(start, pos_ - start);
        v.number = std::strtod(v.text.c_str(), nullptr);
        return v;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

const JsonValue kNullValue{};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    return v != nullptr ? *v : kNullValue;
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    if (type != Type::Array || index >= items.size())
        return kNullValue;
    return items[index];
}

double
JsonValue::asDouble(double fallback) const
{
    return type == Type::Number ? number : fallback;
}

std::uint64_t
JsonValue::asU64(std::uint64_t fallback) const
{
    if (type != Type::Number)
        return fallback;
    // Parse the raw text: doubles lose precision above 2^53 and tick
    // values are full 64-bit.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end) {
        throw std::runtime_error("'" + text +
                                 "' is not a whole number in "
                                 "[0, 2^64)");
    }
    return v;
}

std::string
JsonValue::asString(const std::string &fallback) const
{
    return type == Type::String ? text : fallback;
}

bool
JsonValue::asBool(bool fallback) const
{
    return type == Type::Bool ? boolean : fallback;
}

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace checkin::obs
