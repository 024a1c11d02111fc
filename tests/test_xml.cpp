/**
 * @file
 * Tests for the XML reader/writer and the MSCCL-IR exchange format:
 * parser features and error reporting, escaping, and exact IR
 * round-trips for every collective in the library.
 */

#include <gtest/gtest.h>

#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "ir/xml.h"

namespace mscclang {
namespace {

TEST(Xml, ParsesAttributesAndChildren)
{
    XmlNode root = parseXml(
        "<a x=\"1\" y='two'><b/><c z=\"3\"></c></a>");
    EXPECT_EQ(root.tag, "a");
    EXPECT_EQ(root.attrInt("x"), 1);
    EXPECT_EQ(root.attr("y"), "two");
    ASSERT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0].tag, "b");
    EXPECT_EQ(root.children[1].attrInt("z"), 3);
}

TEST(Xml, SkipsCommentsAndProlog)
{
    XmlNode root = parseXml(
        "<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a>");
    EXPECT_EQ(root.tag, "a");
    EXPECT_EQ(root.children.size(), 1u);
}

TEST(Xml, UnescapesEntities)
{
    XmlNode root = parseXml("<a v=\"&lt;&amp;&gt;&quot;&apos;\"/>");
    EXPECT_EQ(root.attr("v"), "<&>\"'");
}

TEST(Xml, NumericCharacterReferences)
{
    // Decimal and hex forms, lower/upper hex digits, byte range.
    XmlNode root = parseXml("<a v=\"&#65;&#x42;&#x63;&#10;&#x7F;\"/>");
    EXPECT_EQ(root.attr("v"), std::string("ABc\n\x7F"));
    // Out-of-byte-range and malformed references are rejected.
    EXPECT_THROW(parseXml("<a v=\"&#256;\"/>"), Error);
    EXPECT_THROW(parseXml("<a v=\"&#x100;\"/>"), Error);
    EXPECT_THROW(parseXml("<a v=\"&#;\"/>"), Error);
    EXPECT_THROW(parseXml("<a v=\"&#x;\"/>"), Error);
    EXPECT_THROW(parseXml("<a v=\"&#12a;\"/>"), Error);
}

TEST(Xml, UnterminatedEntityScanIsBounded)
{
    // A stray '&' must fail fast with "unterminated entity" instead
    // of scanning to the end of the value (or matching a ';' far
    // away and reporting the swallowed text as an unknown entity).
    EXPECT_THROW(parseXml("<a v=\"a &amp b\"/>"), Error);
    try {
        parseXml("<a v=\"x & yyyyyyyyyyyyyyyyyyy ; z\"/>");
        FAIL() << "expected the bounded entity scan to reject this";
    } catch (const Error &error) {
        EXPECT_NE(std::string(error.what()).find("unterminated entity"),
                  std::string::npos);
    }
    EXPECT_THROW(parseXml("<a v=\"dangling &quo\"/>"), Error);
}

TEST(Xml, ControlCharactersRoundTripThroughAttributes)
{
    // xmlEscape emits numeric references for control characters so a
    // write-then-parse round trip is byte-exact.
    std::string nasty = "line1\nline2\ttab\rret\x01\x1F\x7F end";
    EXPECT_EQ(xmlEscape("\n"), "&#10;");
    XmlWriter writer;
    writer.open("a");
    writer.attr("v", nasty);
    writer.close();
    XmlNode root = parseXml(writer.str());
    EXPECT_EQ(root.attr("v"), nasty);
}

TEST(Xml, AttrHelpers)
{
    XmlNode root = parseXml("<a x=\"5\" f=\"2.5\"/>");
    EXPECT_TRUE(root.hasAttr("x"));
    EXPECT_FALSE(root.hasAttr("q"));
    EXPECT_EQ(root.attrOr("q", "dflt"), "dflt");
    EXPECT_EQ(root.attrIntOr("q", 9), 9);
    EXPECT_DOUBLE_EQ(root.attrDouble("f"), 2.5);
    EXPECT_THROW(root.attr("missing"), Error);
    EXPECT_EQ(root.attrInt("f"), 2); // stoi truncates "2.5"
}

TEST(Xml, RejectsMalformedInput)
{
    EXPECT_THROW(parseXml(""), Error);
    EXPECT_THROW(parseXml("<a>"), Error);
    EXPECT_THROW(parseXml("<a></b>"), Error);
    EXPECT_THROW(parseXml("<a x=1/>"), Error);
    EXPECT_THROW(parseXml("<a>text</a>"), Error);
    EXPECT_THROW(parseXml("<a/><b/>"), Error);
    EXPECT_THROW(parseXml("<a v=\"&bogus;\"/>"), Error);
}

TEST(Xml, WriterProducesParsableNesting)
{
    XmlWriter writer;
    writer.open("root");
    writer.attr("n", 2);
    writer.open("child");
    writer.attr("s", "a<b");
    writer.close();
    writer.open("child");
    writer.close();
    writer.close();
    XmlNode root = parseXml(writer.str());
    EXPECT_EQ(root.tag, "root");
    EXPECT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0].attr("s"), "a<b");
}

TEST(Xml, WriterRejectsMisuse)
{
    XmlWriter writer;
    EXPECT_THROW(writer.attr("x", 1), Error);
    EXPECT_THROW(writer.close(), Error);
    writer.open("a");
    EXPECT_THROW(writer.str(), Error); // unclosed
}

TEST(IrXml, RoundTripsEveryCollective)
{
    Topology dgx1 = makeDgx1();
    std::vector<std::unique_ptr<Program>> programs;
    AlgoConfig config;
    config.instances = 2;
    config.protocol = Protocol::LL;
    programs.push_back(makeRingAllReduce(4, 2, config));
    programs.push_back(makeAllPairsAllReduce(4, config));
    programs.push_back(makeHierarchicalAllReduce(2, 3, 2, config));
    programs.push_back(makeTwoStepAllToAll(2, 2, config));
    programs.push_back(makeAllToNext(2, 3, config));
    programs.push_back(makeRingAllGather(4, 2, config));
    programs.push_back(makeSccl122AllGather(dgx1, config));
    for (auto &prog : programs) {
        Compiled out = compileProgram(*prog);
        IrProgram reloaded = IrProgram::fromXml(out.ir.toXml());
        EXPECT_EQ(reloaded, out.ir) << prog->options().name;
    }
}

TEST(IrXml, RejectsUnknownStructure)
{
    EXPECT_THROW(IrProgram::fromXml("<wrong/>"), Error);
    EXPECT_THROW(IrProgram::fromXml("<algo nranks=\"1\"><oops/></algo>"),
                 Error);
    EXPECT_THROW(IrProgram::fromXml(
                     "<algo nranks=\"1\"><gpu id=\"0\" i_chunks=\"1\" "
                     "o_chunks=\"1\" s_chunks=\"0\"><tb id=\"0\" "
                     "send=\"-1\" recv=\"-1\" chan=\"0\">"
                     "<step s=\"0\" type=\"xyz\" srcbuf=\"i\" "
                     "srcoff=\"0\" dstbuf=\"o\" dstoff=\"0\" "
                     "cnt=\"1\" hasdep=\"0\"/></tb></gpu></algo>"),
                 Error);
}

TEST(IrXml, DumpMentionsEveryThreadBlock)
{
    Compiled out = compileProgram(*makeRingAllReduce(4, 1, {}));
    std::string dump = out.ir.dump();
    for (const IrGpu &gpu : out.ir.gpus) {
        EXPECT_NE(dump.find(strprintf("gpu %d", gpu.rank)),
                  std::string::npos);
    }
}

TEST(IrXml, CopiesShareOneImmutableBody)
{
    Compiled out = compileProgram(*makeRingAllReduce(4, 2, {}));
    IrProgram copy = out.ir;
    EXPECT_EQ(copy.gpus.bodyId(), out.ir.gpus.bodyId());
    EXPECT_EQ(copy, out.ir);

    // Editing the copy clones the body first; the original keeps its
    // body and its bytes.
    std::string before = out.ir.toXml();
    copy.gpus.edit()[0].threadBlocks[0].steps[0].hasDep ^= true;
    EXPECT_NE(copy.gpus.bodyId(), out.ir.gpus.bodyId());
    EXPECT_EQ(out.ir.toXml(), before);
    EXPECT_NE(copy, out.ir);

    // An unshared body is edited in place.
    const void *own = copy.gpus.bodyId();
    copy.gpus.edit()[0].rank = 0;
    EXPECT_EQ(copy.gpus.bodyId(), own);
}

TEST(IrXml, DistinctBodiesCompareByContent)
{
    Compiled out = compileProgram(*makeHierarchicalAllReduce(2, 3, 2, {}));
    IrProgram reloaded = IrProgram::fromXml(out.ir.toXml());
    ASSERT_NE(reloaded.gpus.bodyId(), out.ir.gpus.bodyId());
    EXPECT_EQ(reloaded.gpus, out.ir.gpus);

    // One changed dep anywhere makes the bodies unequal.
    IrInstruction *with_dep = nullptr;
    for (IrGpu &gpu : reloaded.gpus.edit()) {
        for (IrThreadBlock &tb : gpu.threadBlocks) {
            for (IrInstruction &instr : tb.steps) {
                if (with_dep == nullptr && !instr.deps.empty())
                    with_dep = &instr;
            }
        }
    }
    ASSERT_NE(with_dep, nullptr);
    with_dep->deps.back().step++;
    EXPECT_FALSE(reloaded.gpus == out.ir.gpus);
    EXPECT_NE(reloaded, out.ir);

    // Empty bodies are equal however they were made.
    IrProgram blank;
    IrProgram edited;
    edited.gpus.edit();
    EXPECT_EQ(blank.gpus, edited.gpus);
    EXPECT_EQ(blank.gpus.size(), 0u);
}

TEST(IrOps, NameTableRoundTrips)
{
    for (IrOp op : { IrOp::Nop, IrOp::Send, IrOp::Recv, IrOp::Copy,
                     IrOp::Reduce, IrOp::RecvReduceCopy,
                     IrOp::RecvReduceSend, IrOp::RecvReduceCopySend,
                     IrOp::RecvCopySend }) {
        EXPECT_EQ(irOpFromName(irOpName(op)), op);
    }
    EXPECT_THROW(irOpFromName("nope"), Error);
}

TEST(IrOps, SemanticPredicatesAreConsistent)
{
    // Every op that sends or receives participates in communication;
    // rrs is the only receiving op that does not write memory.
    EXPECT_TRUE(irOpSends(IrOp::RecvReduceSend));
    EXPECT_FALSE(irOpWritesDst(IrOp::RecvReduceSend));
    EXPECT_TRUE(irOpReceives(IrOp::RecvCopySend));
    EXPECT_FALSE(irOpReadsSrc(IrOp::RecvCopySend));
    EXPECT_TRUE(irOpReduces(IrOp::RecvReduceCopySend));
    EXPECT_FALSE(irOpReduces(IrOp::Copy));
}

} // namespace
} // namespace mscclang
