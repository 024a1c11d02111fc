#include "ir/xml.h"

#include <cctype>
#include <ostream>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

const std::string &
XmlNode::attr(const std::string &name) const
{
    for (const auto &kv : attrs) {
        if (kv.first == name)
            return kv.second;
    }
    throw Error("xml: element <" + tag + "> missing attribute '" +
                name + "'");
}

std::string
XmlNode::attrOr(const std::string &name, const std::string &fallback) const
{
    for (const auto &kv : attrs) {
        if (kv.first == name)
            return kv.second;
    }
    return fallback;
}

bool
XmlNode::hasAttr(const std::string &name) const
{
    for (const auto &kv : attrs) {
        if (kv.first == name)
            return true;
    }
    return false;
}

int
XmlNode::attrInt(const std::string &name) const
{
    try {
        return std::stoi(attr(name));
    } catch (const std::logic_error &) {
        throw Error("xml: attribute '" + name + "' of <" + tag +
                    "> is not an integer");
    }
}

int
XmlNode::attrIntOr(const std::string &name, int fallback) const
{
    if (!hasAttr(name))
        return fallback;
    return attrInt(name);
}

double
XmlNode::attrDouble(const std::string &name) const
{
    try {
        return std::stod(attr(name));
    } catch (const std::logic_error &) {
        throw Error("xml: attribute '" + name + "' of <" + tag +
                    "> is not a number");
    }
}

namespace {

/** Recursive-descent parser over a flat character range. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    XmlNode
    parseDocument()
    {
        skipMisc();
        XmlNode root = parseElement();
        skipMisc();
        if (pos_ != text_.size())
            fail("trailing content after the root element");
        return root;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw Error(strprintf("xml: %s (at offset %zu)", why.c_str(),
                              pos_));
    }

    char
    peek() const
    {
        if (pos_ >= text_.size())
            return '\0';
        return text_[pos_];
    }

    bool
    startsWith(const char *prefix) const
    {
        return text_.compare(pos_, std::string::traits_type::length(prefix),
                             prefix) == 0;
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            pos_++;
        }
    }

    /** Skips whitespace, comments and processing instructions. */
    void
    skipMisc()
    {
        for (;;) {
            skipWhitespace();
            if (startsWith("<!--")) {
                size_t end = text_.find("-->", pos_ + 4);
                if (end == std::string::npos)
                    fail("unterminated comment");
                pos_ = end + 3;
            } else if (startsWith("<?")) {
                size_t end = text_.find("?>", pos_ + 2);
                if (end == std::string::npos)
                    fail("unterminated processing instruction");
                pos_ = end + 2;
            } else {
                return;
            }
        }
    }

    std::string
    parseName()
    {
        size_t start = pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                c == '-' || c == '.' || c == ':') {
                pos_++;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected a name");
        return text_.substr(start, pos_ - start);
    }

    /** Longest recognized entity body ("&#x10FFFF;" is 8 chars). */
    static constexpr size_t kMaxEntityLen = 8;

    /** Decodes "#NN" / "#xNN" character references (bytes only). */
    char
    numericEntity(const std::string &entity)
    {
        size_t p = 1;
        int base = 10;
        if (p < entity.size() &&
            (entity[p] == 'x' || entity[p] == 'X')) {
            base = 16;
            p++;
        }
        if (p >= entity.size())
            fail("empty character reference");
        unsigned long value = 0;
        for (; p < entity.size(); p++) {
            int digit;
            char c = entity[p];
            if (c >= '0' && c <= '9') digit = c - '0';
            else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
            else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
            else fail("malformed character reference '&" + entity + ";'");
            value = value * static_cast<unsigned long>(base) +
                static_cast<unsigned long>(digit);
            if (value > 0xFF)
                fail("character reference '&" + entity +
                     ";' out of byte range");
        }
        return static_cast<char>(static_cast<unsigned char>(value));
    }

    std::string
    unescape(const std::string &raw)
    {
        std::string out;
        out.reserve(raw.size());
        for (size_t i = 0; i < raw.size(); i++) {
            if (raw[i] != '&') {
                out.push_back(raw[i]);
                continue;
            }
            // Bound the scan for ';' so a stray '&' fails fast with a
            // short message instead of swallowing the rest of the
            // value into an "unknown entity" report.
            size_t semi = raw.find(';', i);
            if (semi == std::string::npos ||
                semi - i - 1 > kMaxEntityLen) {
                fail("unterminated entity");
            }
            std::string entity = raw.substr(i + 1, semi - i - 1);
            if (entity.empty()) fail("empty entity '&;'");
            else if (entity == "amp") out.push_back('&');
            else if (entity == "lt") out.push_back('<');
            else if (entity == "gt") out.push_back('>');
            else if (entity == "quot") out.push_back('"');
            else if (entity == "apos") out.push_back('\'');
            else if (entity[0] == '#') out.push_back(numericEntity(entity));
            else fail("unknown entity '&" + entity + ";'");
            i = semi;
        }
        return out;
    }

    std::string
    parseAttrValue()
    {
        char quote = peek();
        if (quote != '"' && quote != '\'')
            fail("expected a quoted attribute value");
        pos_++;
        size_t end = text_.find(quote, pos_);
        if (end == std::string::npos)
            fail("unterminated attribute value");
        std::string raw = text_.substr(pos_, end - pos_);
        pos_ = end + 1;
        return unescape(raw);
    }

    XmlNode
    parseElement()
    {
        if (peek() != '<')
            fail("expected '<'");
        pos_++;
        XmlNode node;
        node.tag = parseName();
        for (;;) {
            skipWhitespace();
            char c = peek();
            if (c == '/') {
                pos_++;
                if (peek() != '>')
                    fail("expected '>' after '/'");
                pos_++;
                return node; // self-closing
            }
            if (c == '>') {
                pos_++;
                break;
            }
            std::string name = parseName();
            skipWhitespace();
            if (peek() != '=')
                fail("expected '=' in attribute");
            pos_++;
            skipWhitespace();
            node.attrs.emplace_back(name, parseAttrValue());
        }
        // children until the close tag
        for (;;) {
            skipMisc();
            if (startsWith("</")) {
                pos_ += 2;
                std::string closing = parseName();
                if (closing != node.tag)
                    fail("mismatched close tag </" + closing + "> for <" +
                         node.tag + ">");
                skipWhitespace();
                if (peek() != '>')
                    fail("expected '>' in close tag");
                pos_++;
                return node;
            }
            if (peek() == '<') {
                node.children.push_back(parseElement());
            } else if (pos_ >= text_.size()) {
                fail("unexpected end of input inside <" + node.tag + ">");
            } else {
                fail("text content is not supported");
            }
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

XmlNode
parseXml(const std::string &text)
{
    Parser parser(text);
    return parser.parseDocument();
}

std::string
xmlEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          case '\'': out += "&apos;"; break;
          default: {
            // Control characters go out as numeric references so
            // attribute values round-trip byte-exactly (a literal
            // newline would be normalized away by any XML parser).
            unsigned char u = static_cast<unsigned char>(c);
            if (u < 0x20 || u == 0x7F)
                out += strprintf("&#%u;", static_cast<unsigned>(u));
            else
                out.push_back(c);
          }
        }
    }
    return out;
}

void
XmlWriter::open(const std::string &tag)
{
    finishOpenTag();
    if (out_.size() >= kFlushBytes)
        flush();
    out_ += std::string(stack_.size() * 2, ' ') + "<" + tag;
    stack_.push_back(tag);
    openTagPending_ = true;
}

void
XmlWriter::attr(const std::string &name, const std::string &value)
{
    if (!openTagPending_)
        throw Error("xml: attr() outside an open tag");
    out_ += " " + name + "=\"" + xmlEscape(value) + "\"";
}

void
XmlWriter::attr(const std::string &name, int value)
{
    attr(name, std::to_string(value));
}

void
XmlWriter::attr(const std::string &name, double value)
{
    attr(name, strprintf("%.17g", value));
}

void
XmlWriter::close()
{
    if (stack_.empty())
        throw Error("xml: close() without open()");
    if (openTagPending_) {
        out_ += "/>\n";
        openTagPending_ = false;
        stack_.pop_back();
        return;
    }
    std::string tag = std::move(stack_.back());
    stack_.pop_back();
    out_ += std::string(stack_.size() * 2, ' ') + "</" + tag + ">\n";
}

void
XmlWriter::finish()
{
    if (!stack_.empty() || openTagPending_)
        throw Error("xml: document has unclosed elements");
    flush();
}

void
XmlWriter::flush()
{
    sink_.write(out_.data(), static_cast<std::streamsize>(out_.size()));
    out_.clear();
}

void
XmlWriter::finishOpenTag()
{
    if (!openTagPending_)
        return;
    out_ += ">\n";
    openTagPending_ = false;
}

} // namespace mscclang
