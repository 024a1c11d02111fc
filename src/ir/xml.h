/**
 * @file
 * A deliberately tiny XML reader/writer for the MSCCL-IR exchange
 * format: elements with attributes and child elements only (no text
 * nodes, namespaces or entities beyond the five standard ones). Kept
 * internal to src/ir.
 */

#ifndef MSCCLANG_IR_XML_H_
#define MSCCLANG_IR_XML_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mscclang {

/** One parsed XML element. */
struct XmlNode
{
    std::string tag;
    std::vector<std::pair<std::string, std::string>> attrs;
    std::vector<XmlNode> children;

    /** Attribute lookup; @throws mscclang::Error if missing. */
    const std::string &attr(const std::string &name) const;

    /** Attribute lookup with default. */
    std::string attrOr(const std::string &name,
                       const std::string &fallback) const;

    bool hasAttr(const std::string &name) const;

    int attrInt(const std::string &name) const;
    int attrIntOr(const std::string &name, int fallback) const;
    double attrDouble(const std::string &name) const;
};

/** Parses one document; @throws mscclang::Error on malformed input. */
XmlNode parseXml(const std::string &text);

/**
 * Incremental writer producing indented output, streamed into a sink
 * a bounded buffer at a time; call finish() after the last close().
 */
class XmlWriter
{
  public:
    explicit XmlWriter(std::ostream &sink) : sink_(sink) {}

    /** Opens an element; attributes are added until the next child or
     *  close call. */
    void open(const std::string &tag);
    void attr(const std::string &name, const std::string &value);
    void attr(const std::string &name, int value);
    void attr(const std::string &name, double value);
    void close();

    /** Flushes the rest to the sink; the caller checks the sink's
     *  state. @throws mscclang::Error if an element is still open. */
    void finish();

  private:
    void finishOpenTag();
    /** Hands the buffered text to the sink. */
    void flush();

    /** Buffered bytes that make open() flush. */
    static constexpr std::size_t kFlushBytes = 1 << 16;

    std::ostream &sink_;
    std::string out_;
    std::vector<std::string> stack_;
    bool openTagPending_ = false;
};

/** Escapes &<>"' for attribute values. */
std::string xmlEscape(const std::string &text);

} // namespace mscclang

#endif // MSCCLANG_IR_XML_H_
