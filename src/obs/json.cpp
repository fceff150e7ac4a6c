#include "obs/json.hpp"

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace chaos::obs {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->asString() : fallback;
}

bool
JsonValue::boolOr(const std::string &key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isBool() ? v->asBool() : fallback;
}

/// Recursive-descent parser building a JsonValue DOM. Each parse*
/// function returns false on malformed input and otherwise advances
/// pos past the parsed construct.
struct JsonParser {
    const std::string &text;
    std::size_t pos = 0;
    int depth = 0;
    static constexpr int maxDepth = 256;

    bool atEnd() const { return pos >= text.size(); }
    char peek() const { return text[pos]; }

    void
    skipSpace()
    {
        while (!atEnd() && (text[pos] == ' ' || text[pos] == '\t' ||
                            text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (atEnd() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }

    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    bool
    parseHex4(unsigned &code)
    {
        code = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd() ||
                !std::isxdigit(static_cast<unsigned char>(text[pos])))
                return false;
            const char c = text[pos++];
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else
                code |= static_cast<unsigned>(
                            std::tolower(static_cast<unsigned char>(c)) -
                            'a') +
                        10;
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (!atEnd()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (atEnd())
                return false;
            char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code;
                if (!parseHex4(code))
                    return false;
                if (code >= 0xd800 && code <= 0xdfff)
                    out += '?'; // Surrogate: nothing we emit uses them.
                else
                    appendUtf8(out, code);
                break;
              }
              default:
                return false;
            }
        }
        return false; // Unterminated.
    }

    bool
    digit() const
    {
        return !atEnd() &&
               std::isdigit(static_cast<unsigned char>(peek()));
    }

    /** Consume one or more digits; false when none is there. */
    bool
    digits()
    {
        if (!digit())
            return false;
        while (digit())
            ++pos;
        return true;
    }

    bool
    parseNumber(double &out)
    {
        const std::size_t start = pos;
        consume('-');
        if (!digit())
            return false;
        if (!consume('0'))
            digits();
        if (consume('.') && !digits())
            return false;
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (!digits())
                return false;
        }
        out = std::strtod(text.c_str() + start, nullptr);
        return true;
    }

    bool
    parseLiteral(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (atEnd() || text[pos] != *p)
                return false;
            ++pos;
        }
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth > maxDepth)
            return false;
        skipSpace();
        if (atEnd()) {
            --depth;
            return false;
        }
        bool ok = false;
        switch (peek()) {
          case '{':
            out.kind_ = JsonValue::Kind::Object;
            ok = parseObject(out.members_);
            break;
          case '[':
            out.kind_ = JsonValue::Kind::Array;
            ok = parseArray(out.items_);
            break;
          case '"':
            out.kind_ = JsonValue::Kind::String;
            ok = parseString(out.string_);
            break;
          case 't':
            out.kind_ = JsonValue::Kind::Bool;
            out.boolean_ = true;
            ok = parseLiteral("true");
            break;
          case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            out.boolean_ = false;
            ok = parseLiteral("false");
            break;
          case 'n':
            out.kind_ = JsonValue::Kind::Null;
            ok = parseLiteral("null");
            break;
          default:
            out.kind_ = JsonValue::Kind::Number;
            ok = parseNumber(out.number_);
            break;
        }
        --depth;
        return ok;
    }

    bool
    parseObject(std::vector<std::pair<std::string, JsonValue>> &out)
    {
        if (!consume('{'))
            return false;
        skipSpace();
        if (consume('}'))
            return true;
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return false;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseArray(std::vector<JsonValue> &out)
    {
        if (!consume('['))
            return false;
        skipSpace();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.push_back(std::move(value));
            skipSpace();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }
};

bool
jsonWellFormed(const std::string &text)
{
    JsonValue discarded;
    return jsonParse(text, discarded);
}

bool
jsonParse(const std::string &text, JsonValue &out)
{
    out = JsonValue();
    JsonParser p{text};
    if (!p.parseValue(out))
        return false;
    p.skipSpace();
    return p.atEnd();
}

} // namespace chaos::obs
