/**
 * @file
 * Tests for the XML reader/writer and the MSCCL-IR exchange format:
 * parser features and error reporting, escaping, exact IR
 * round-trips for every catalogued algorithm, and the IR builder's
 * layout and structural checks.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "collectives/catalog.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "common/strings.h"
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
    std::ostringstream out;
    XmlWriter writer(out);
    writer.open("a");
    writer.attr("v", nasty);
    writer.close();
    writer.finish();
    XmlNode root = parseXml(out.str());
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
    std::ostringstream out;
    XmlWriter writer(out);
    writer.open("root");
    writer.attr("n", 2);
    writer.open("child");
    writer.attr("s", "a<b");
    writer.close();
    writer.open("child");
    writer.close();
    writer.close();
    writer.finish();
    XmlNode root = parseXml(out.str());
    EXPECT_EQ(root.tag, "root");
    EXPECT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0].attr("s"), "a<b");
}

TEST(Xml, WriterRejectsMisuse)
{
    std::ostringstream out;
    XmlWriter writer(out);
    EXPECT_THROW(writer.attr("x", 1), Error);
    EXPECT_THROW(writer.close(), Error);
    writer.open("a");
    EXPECT_THROW(writer.finish(), Error); // unclosed
}

TEST(IrXml, RoundTripsEveryCollective)
{
    // Every catalogue entry, as mscclang_compile builds it, on every
    // machine its shape check accepts and whose links it can use:
    // exact round trips, and streamed bytes equal to the string's.
    int checked = 0;
    for (const char *machine : { "ndv4:1", "ndv4:2", "dgx1" }) {
        Topology topo = parseTopology(machine);
        for (const AlgoEntry &entry : algoCatalog()) {
            if (!entry.fits(topo))
                continue;
            SCOPED_TRACE(std::string(entry.name) + " on " + machine);
            AlgoConfig config{ 2, Protocol::LL };
            std::unique_ptr<Program> prog =
                entry.build(topo, config, 2, 0, 4);
            CompileOptions copts;
            copts.topology = &topo;
            Compiled out;
            try {
                out = compileProgram(*prog, copts);
            } catch (const CompileError &) {
                continue; // a dgx1 pair without a direct link
            }
            std::string xml = out.ir.toXml();
            EXPECT_EQ(IrProgram::fromXml(xml), out.ir);
            std::ostringstream streamed;
            out.ir.toXml(streamed);
            EXPECT_EQ(streamed.str(), xml);
            checked++;
        }
    }
    EXPECT_GE(checked, 30);
}

TEST(IrXml, StreamedWriterFlushesLargePlansInPieces)
{
    // A plan well over the writer's 64 KiB buffer streams the same
    // bytes as the string form.
    Compiled out = compileProgram(*makeRingAllReduce(64, 2, {}));
    std::string xml = out.ir.toXml();
    ASSERT_GT(xml.size(), 4u << 16);
    std::ostringstream streamed;
    out.ir.toXml(streamed);
    EXPECT_EQ(streamed.str(), xml);
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

/** One-rank XML around @p tbs, for the structural rejections. */
std::string
oneRankXml(const std::string &tbs, int nranks = 1, int id = 0)
{
    return strprintf("<algo nranks=\"%d\"><gpu id=\"%d\" i_chunks=\"1\" "
                     "o_chunks=\"1\" s_chunks=\"0\">", nranks, id) +
        tbs + "</gpu></algo>";
}

/** A copy step in XML, with @p deps ("" for none). */
std::string
copyStep(const char *deps = "")
{
    std::string attr = deps[0] == '\0'
        ? std::string()
        : std::string(" deps=\"") + deps + "\"";
    return "<step s=\"0\" type=\"cpy\" srcbuf=\"i\" srcoff=\"0\" "
           "dstbuf=\"o\" dstoff=\"0\" cnt=\"1\"" + attr +
        " hasdep=\"0\"/>";
}

/** fromXml's error text for @p xml, or "" if it loads. */
std::string
loadError(const std::string &xml)
{
    try {
        IrProgram::fromXml(xml);
    } catch (const Error &error) {
        return error.what();
    }
    return "";
}

TEST(IrXml, RejectsOutOfRangeRank)
{
    // A 1-rank program whose only gpu claims rank 5.
    EXPECT_EQ(loadError(oneRankXml("", 1, 5)),
              "MSCCL-IR: gpu 5 is outside the 1-rank program");
    // A 2-rank program with one gpu.
    EXPECT_EQ(loadError(oneRankXml("", 2, 0)),
              "MSCCL-IR: 1 gpus for a 2-rank program");
    // A peer outside the program.
    EXPECT_EQ(loadError(oneRankXml("<tb id=\"0\" send=\"3\" recv=\"-1\" "
                                   "chan=\"0\"/>")),
              "MSCCL-IR: rank 0 tb 0 names send peer 3, receive peer -1, "
              "channel 0 outside the 1-rank program");
}

TEST(IrXml, RejectsSparseThreadBlockIds)
{
    EXPECT_EQ(loadError(oneRankXml("<tb id=\"7\" send=\"-1\" recv=\"-1\" "
                                   "chan=\"0\">" + copyStep() + "</tb>")),
              "MSCCL-IR: rank 0 has thread block 7 where id 0 belongs");
    EXPECT_EQ(loadError(oneRankXml(
                  "<tb id=\"1\" send=\"-1\" recv=\"-1\" chan=\"0\"/>"
                  "<tb id=\"0\" send=\"-1\" recv=\"-1\" chan=\"0\"/>")),
              "MSCCL-IR: rank 0 has thread block 1 where id 0 belongs");
}

TEST(IrXml, RejectsDependencyOnUnknownStep)
{
    std::string tb = "<tb id=\"0\" send=\"-1\" recv=\"-1\" chan=\"0\">";
    EXPECT_EQ(loadError(oneRankXml(tb + copyStep("0:3") + "</tb>")),
              "MSCCL-IR: rank 0 tb 0 step 0: dependency on unknown step "
              "(tb 0, step 3)");
    EXPECT_EQ(loadError(oneRankXml(tb + copyStep("4:0") + "</tb>")),
              "MSCCL-IR: rank 0 tb 0 step 0: dependency on unknown step "
              "(tb 4, step 0)");
    EXPECT_EQ(loadError(oneRankXml(tb + copyStep("x:0") + "</tb>")),
              "MSCCL-IR: malformed dependency 'x:0'");
    EXPECT_EQ(loadError(oneRankXml(tb + copyStep() + "</tb>")), "");
}

/** A one-rank builder with one input and one output chunk. */
IrBuilder
oneRank()
{
    IrBuilder body;
    body.addGpu(0, 1, 1, 0);
    return body;
}

IrInstruction
opOf(IrOp op)
{
    IrInstruction instr;
    instr.op = op;
    instr.dstBuf = BufferKind::Output;
    return instr;
}

// The verifiers and the interpreter index the body without checks,
// so IrBuilder must reject these before either runs.
TEST(IrBuilder, RejectsSendWithoutPeer)
{
    IrBuilder body = oneRank();
    body.addThreadBlock(0, 0);
    body.addStep(opOf(IrOp::Send));
    try {
        body.build(1, false);
        FAIL() << "send without a peer accepted";
    } catch (const Error &error) {
        EXPECT_EQ(std::string(error.what()),
                  "MSCCL-IR: rank 0 tb 0 step 0: s without a send peer");
    }
    IrBuilder recv = oneRank();
    recv.addThreadBlock(0, 0, /*send_peer=*/0);
    recv.addStep(opOf(IrOp::RecvCopySend));
    EXPECT_THROW(recv.build(1, false), Error);
}

TEST(IrBuilder, RejectsUnknownDependencyTarget)
{
    IrBuilder body = oneRank();
    body.addThreadBlock(0, 0);
    body.addStep(opOf(IrOp::Copy),
                 { IrDep{ 7, 0 } });
    try {
        body.build(1, false);
        FAIL() << "dependency on thread block 7 accepted";
    } catch (const Error &error) {
        EXPECT_EQ(std::string(error.what()),
                  "MSCCL-IR: rank 0 tb 0 step 0: dependency on unknown "
                  "step (tb 7, step 0)");
    }
}

/** build()'s error text for @p body, or "" if it builds. */
std::string
buildError(IrBuilder &body, bool in_place = false)
{
    try {
        body.build(1, in_place);
    } catch (const Error &error) {
        return error.what();
    }
    return "";
}

/** A one-rank builder with a one-thread-block program of @p instr. */
IrBuilder
oneStep(const IrInstruction &instr, int input_chunks = 1,
        int output_chunks = 1)
{
    IrBuilder body;
    body.addGpu(0, input_chunks, output_chunks, 0);
    body.addThreadBlock(0, 0);
    body.addStep(instr);
    return body;
}

TEST(IrBuilder, RejectsOutOfBoundsRead)
{
    // A copy out of chunk 5 of a one-chunk input buffer.
    IrInstruction copy = opOf(IrOp::Copy);
    copy.srcOff = 5;
    IrBuilder body = oneStep(copy);
    EXPECT_EQ(buildError(body),
              "MSCCL-IR: rank 0 tb 0 step 0: cpy reads i[5] out of bounds "
              "(1 chunks)");
}

TEST(IrBuilder, RejectsOutOfBoundsAccess)
{
    // A two-chunk copy out of a one-chunk input buffer.
    IrInstruction copy = opOf(IrOp::Copy);
    copy.count = 2;
    IrBuilder two = oneStep(copy, 1, 2);
    EXPECT_EQ(buildError(two),
              "MSCCL-IR: rank 0 tb 0 step 0: cpy reads i[1] out of bounds "
              "(1 chunks)");

    // A negative declared count holds no chunks at all.
    IrBuilder negative = oneStep(opOf(IrOp::Copy), -1, 1);
    EXPECT_EQ(buildError(negative),
              "MSCCL-IR: gpu 0 declares a negative chunk count (i=-1 o=1 "
              "s=0)");

    // Writes are checked too, and a negative offset names itself.
    IrInstruction below = opOf(IrOp::Copy);
    below.dstOff = -1;
    IrBuilder write = oneStep(below);
    EXPECT_EQ(buildError(write),
              "MSCCL-IR: rank 0 tb 0 step 0: cpy writes o[-1] out of bounds "
              "(1 chunks)");
    IrInstruction scratch = opOf(IrOp::Reduce);
    scratch.srcBuf = BufferKind::Scratch;
    IrBuilder reduce = oneStep(scratch);
    EXPECT_EQ(buildError(reduce),
              "MSCCL-IR: rank 0 tb 0 step 0: re reads s[0] out of bounds "
              "(0 chunks)");
}

TEST(IrBuilder, ChecksOnlyTheBuffersAnOpUses)
{
    // A send reads its source and writes nothing: its destination
    // fields are ignored, as the verifiers and the interpreter do.
    IrInstruction send = opOf(IrOp::Send);
    send.dstOff = 99;
    IrBuilder body;
    body.addGpu(0, 1, 1, 0);
    body.addThreadBlock(0, 0, /*send_peer=*/0, /*recv_peer=*/0);
    body.addStep(send);
    EXPECT_EQ(buildError(body), "");

    IrInstruction recv = opOf(IrOp::Recv);
    recv.srcOff = 99;
    IrBuilder recv_body;
    recv_body.addGpu(0, 1, 1, 0);
    recv_body.addThreadBlock(0, 0, /*send_peer=*/0, /*recv_peer=*/0);
    recv_body.addStep(recv);
    EXPECT_EQ(buildError(recv_body), "");
}

TEST(IrBuilder, InPlaceOutputAliasesInput)
{
    // Output chunk 1 exists only as the alias of a two-chunk input.
    IrInstruction copy = opOf(IrOp::Copy);
    copy.dstOff = 1;
    IrBuilder in_place = oneStep(copy, 2, 0);
    EXPECT_EQ(buildError(in_place, true), "");
    IrBuilder separate = oneStep(copy, 2, 0);
    EXPECT_EQ(buildError(separate, false),
              "MSCCL-IR: rank 0 tb 0 step 0: cpy writes o[1] out of bounds "
              "(0 chunks)");
    IrBuilder beyond = oneStep(copy, 1, 2);
    EXPECT_EQ(buildError(beyond, true),
              "MSCCL-IR: rank 0 tb 0 step 0: cpy writes o[1] out of bounds "
              "(1 chunks)");
}

TEST(IrBuilder, RejectsBadCountAndSplit)
{
    const char *message = "MSCCL-IR: rank 0 tb 0 step 0: count %d, split "
                          "%d/%d (a count must be positive and a split "
                          "index in [0, split count))";
    struct Case
    {
        int count, splitIdx, splitCount;
    };
    for (Case c : { Case{ 0, 0, 1 }, Case{ -1, 0, 1 }, Case{ 1, 2, 2 },
                    Case{ 1, -1, 1 }, Case{ 1, 0, 0 } }) {
        IrInstruction copy = opOf(IrOp::Copy);
        copy.count = c.count;
        copy.splitIdx = c.splitIdx;
        copy.splitCount = c.splitCount;
        IrBuilder body = oneStep(copy);
        EXPECT_EQ(buildError(body),
                  strprintf(message, c.count, c.splitIdx, c.splitCount));
    }
    IrInstruction last = opOf(IrOp::Copy);
    last.splitIdx = 3;
    last.splitCount = 4;
    IrBuilder body = oneStep(last);
    EXPECT_EQ(buildError(body), "");
}

TEST(IrBuilder, DerivesTheIndexAndPacksEditedDeps)
{
    auto two_ranks = [](IrBuilder &body) {
        body.addGpu(0, 1, 1, 0);
        body.addGpu(1, 1, 1, 0);
        body.addThreadBlock(0, 0, 1, -1, 0);
        body.addStep(opOf(IrOp::Copy));
        body.addStep(opOf(IrOp::Send));
        body.addThreadBlock(0, 1);
        body.addStep(opOf(IrOp::Copy), { IrDep{ 0, 1 } });
    };
    IrBuilder body;
    two_ranks(body);
    body.addThreadBlock(1, 0, -1, 0, 0);
    body.addStep(opOf(IrOp::Recv));
    IrGpus built = body.build(2, false);

    // Block and step ranges, and one connection shared by its sender
    // and receiver.
    EXPECT_EQ(built[1].firstBlock, 2);
    EXPECT_EQ(built.block(0, 1).firstStep, 2);
    ASSERT_EQ(built.connections().size(), 1u);
    EXPECT_EQ(built.connections()[0], (IrConnection{ 0, 1, 0 }));
    EXPECT_EQ(built.block(0, 0).sendConn, 0);
    EXPECT_EQ(built.block(1, 0).recvConn, 0);
    EXPECT_EQ(built.block(0, 1).sendConn, -1);
    ASSERT_EQ(built.deps(built.steps()[2]).size(), 1u);
    EXPECT_EQ(built.deps(built.steps()[2])[0], (IrDep{ 0, 1 }));

    // Replacing a step's deps repacks the pool: dropping the only one
    // and putting it back gives the original body.
    IrBuilder edited(built);
    edited.setDeps(2, {});
    IrGpus stripped = edited.build(2, false);
    EXPECT_EQ(stripped.deps(stripped.steps()[2]).size(), 0u);
    IrBuilder again(stripped);
    again.setDeps(2, std::vector<IrDep>{ IrDep{ 0, 1 } });
    EXPECT_EQ(again.build(2, false), built);

    // Thread blocks go in rank order.
    IrBuilder late;
    two_ranks(late);
    late.addThreadBlock(1, 0, -1, 0, 0);
    late.addThreadBlock(0, 2);
    EXPECT_THROW(late.build(2, false), Error);
}

TEST(IrXml, CopiesShareOneImmutableBody)
{
    Compiled out = compileProgram(*makeRingAllReduce(4, 2, {}));
    IrProgram copy = out.ir;
    EXPECT_EQ(copy.gpus.bodyId(), out.ir.gpus.bodyId());
    EXPECT_EQ(copy, out.ir);

    // Editing the copy builds a new body; the original keeps its body
    // and its bytes.
    std::string before = out.ir.toXml();
    IrBuilder edited(copy.gpus);
    edited.step(0).hasDep ^= true;
    copy.gpus = edited.build(copy.numRanks, copy.inPlace);
    EXPECT_NE(copy.gpus.bodyId(), out.ir.gpus.bodyId());
    EXPECT_EQ(out.ir.toXml(), before);
    EXPECT_NE(copy, out.ir);
}

TEST(IrXml, DistinctBodiesCompareByContent)
{
    Compiled out = compileProgram(*makeHierarchicalAllReduce(2, 3, 2, {}));
    IrProgram reloaded = IrProgram::fromXml(out.ir.toXml());
    ASSERT_NE(reloaded.gpus.bodyId(), out.ir.gpus.bodyId());
    EXPECT_EQ(reloaded.gpus, out.ir.gpus);

    // One changed dep anywhere makes the bodies unequal.
    std::span<const IrInstruction> steps = reloaded.gpus.steps();
    int with_dep = -1;
    for (int i = 0; i < static_cast<int>(steps.size()); i++) {
        std::span<const IrDep> deps = reloaded.gpus.deps(steps[i]);
        if (!deps.empty() && deps.back().step > 0) {
            with_dep = i;
            break;
        }
    }
    ASSERT_GE(with_dep, 0);
    std::span<const IrDep> deps = reloaded.gpus.deps(steps[with_dep]);
    std::vector<IrDep> changed(deps.begin(), deps.end());
    changed.back().step--;
    IrBuilder edited(reloaded.gpus);
    edited.setDeps(with_dep, changed);
    reloaded.gpus = edited.build(reloaded.numRanks, reloaded.inPlace);
    EXPECT_FALSE(reloaded.gpus == out.ir.gpus);
    EXPECT_NE(reloaded, out.ir);

    // Empty bodies are equal however they were made.
    IrProgram blank;
    IrBuilder none;
    IrProgram built;
    built.gpus = none.build(0, false);
    EXPECT_EQ(blank.gpus, built.gpus);
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
