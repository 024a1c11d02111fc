#include "ir/ir.h"

#include <algorithm>
#include <atomic>

#include "common/error.h"
#include "common/strings.h"
#include "ir/xml.h"

namespace mscclang {

const char *
irOpName(IrOp op)
{
    switch (op) {
      case IrOp::Nop: return "nop";
      case IrOp::Send: return "s";
      case IrOp::Recv: return "r";
      case IrOp::Copy: return "cpy";
      case IrOp::Reduce: return "re";
      case IrOp::RecvReduceCopy: return "rrc";
      case IrOp::RecvReduceSend: return "rrs";
      case IrOp::RecvReduceCopySend: return "rrcs";
      case IrOp::RecvCopySend: return "rcs";
    }
    return "?";
}

IrOp
irOpFromName(const std::string &name)
{
    static const std::pair<const char *, IrOp> table[] = {
        { "nop", IrOp::Nop },
        { "s", IrOp::Send },
        { "r", IrOp::Recv },
        { "cpy", IrOp::Copy },
        { "re", IrOp::Reduce },
        { "rrc", IrOp::RecvReduceCopy },
        { "rrs", IrOp::RecvReduceSend },
        { "rrcs", IrOp::RecvReduceCopySend },
        { "rcs", IrOp::RecvCopySend },
    };
    for (const auto &entry : table) {
        if (name == entry.first)
            return entry.second;
    }
    throw Error("MSCCL-IR: unknown opcode '" + name + "'");
}

bool
irOpReceives(IrOp op)
{
    switch (op) {
      case IrOp::Recv:
      case IrOp::RecvReduceCopy:
      case IrOp::RecvReduceSend:
      case IrOp::RecvReduceCopySend:
      case IrOp::RecvCopySend:
        return true;
      default:
        return false;
    }
}

bool
irOpSends(IrOp op)
{
    switch (op) {
      case IrOp::Send:
      case IrOp::RecvReduceSend:
      case IrOp::RecvReduceCopySend:
      case IrOp::RecvCopySend:
        return true;
      default:
        return false;
    }
}

bool
irOpReadsSrc(IrOp op)
{
    switch (op) {
      case IrOp::Send:
      case IrOp::Copy:
      case IrOp::Reduce:
      case IrOp::RecvReduceCopy:
      case IrOp::RecvReduceSend:
      case IrOp::RecvReduceCopySend:
        return true;
      default:
        return false;
    }
}

bool
irOpWritesDst(IrOp op)
{
    switch (op) {
      case IrOp::Recv:
      case IrOp::Copy:
      case IrOp::Reduce:
      case IrOp::RecvReduceCopy:
      case IrOp::RecvReduceCopySend:
      case IrOp::RecvCopySend:
        return true;
      default:
        return false;
    }
}

bool
irOpReduces(IrOp op)
{
    switch (op) {
      case IrOp::Reduce:
      case IrOp::RecvReduceCopy:
      case IrOp::RecvReduceSend:
      case IrOp::RecvReduceCopySend:
        return true;
      default:
        return false;
    }
}

std::string
IrInstruction::toString() const
{
    std::string text = strprintf(
        "%s %s[%d] -> %s[%d] cnt=%d", irOpName(op), bufferKindName(srcBuf),
        srcOff, bufferKindName(dstBuf), dstOff, count);
    if (splitCount > 1)
        text += strprintf(" split=%d/%d", splitIdx, splitCount);
    for (const IrDep &dep : deps)
        text += strprintf(" dep=(tb%d,%d)", dep.tb, dep.step);
    if (hasDep)
        text += " sem";
    return text;
}

std::string
formatBlockedThreadBlock(Rank rank, int tb, int step,
                         const IrInstruction &instr,
                         const std::string &reason)
{
    return strprintf(
        "  rank %d tb %d blocked at step %d (%s) waiting for %s\n",
        rank, tb, step, instr.toString().c_str(), reason.c_str());
}

IrGpus::IrGpus(std::vector<IrGpu> gpus)
    : body_(std::make_shared<std::vector<IrGpu>>(std::move(gpus)))
{
}

std::vector<IrGpu> &
IrGpus::edit()
{
    if (body_ == nullptr) {
        body_ = std::make_shared<std::vector<IrGpu>>();
    } else if (body_.use_count() != 1) {
        body_ = std::make_shared<std::vector<IrGpu>>(*body_);
    } else {
        // No other program holds the body. The fence orders these
        // writes after the reads of a copy another thread just
        // dropped (its release decrement is what this count saw).
        std::atomic_thread_fence(std::memory_order_acquire);
    }
    return *body_;
}

bool
IrGpus::operator==(const IrGpus &other) const
{
    if (body_ == other.body_)
        return true;
    return std::equal(begin(), end(), other.begin(), other.end());
}

int
IrProgram::numChannels() const
{
    int max_channel = -1;
    for (const IrGpu &gpu : gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks)
            max_channel = std::max(max_channel, tb.channel);
    }
    return max_channel + 1;
}

int
IrProgram::maxThreadBlocks() const
{
    int most = 0;
    for (const IrGpu &gpu : gpus)
        most = std::max(most, static_cast<int>(gpu.threadBlocks.size()));
    return most;
}

bool
IrProgram::carriesReduction() const
{
    for (const IrGpu &gpu : gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            for (const IrInstruction &instr : tb.steps) {
                if (irOpReduces(instr.op))
                    return true;
            }
        }
    }
    return false;
}

bool
IrProgram::mutatesInput() const
{
    for (const IrGpu &gpu : gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            for (const IrInstruction &instr : tb.steps) {
                if (!irOpWritesDst(instr.op))
                    continue;
                if (instr.dstBuf == BufferKind::Input ||
                    (inPlace && instr.dstBuf == BufferKind::Output)) {
                    return true;
                }
            }
        }
    }
    return false;
}

int
IrProgram::totalInstructions() const
{
    int total = 0;
    for (const IrGpu &gpu : gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks)
            total += static_cast<int>(tb.steps.size());
    }
    return total;
}

namespace {

std::string
bufferAttr(BufferKind kind)
{
    return bufferKindName(kind);
}

BufferKind
bufferFromAttr(const std::string &name)
{
    if (name == "i") return BufferKind::Input;
    if (name == "o") return BufferKind::Output;
    if (name == "s") return BufferKind::Scratch;
    throw Error("MSCCL-IR: unknown buffer '" + name + "'");
}

Protocol
protocolFromAttr(const std::string &name)
{
    if (std::optional<Protocol> proto = protocolFromName(name))
        return *proto;
    throw Error("MSCCL-IR: unknown protocol '" + name + "'");
}

ReduceOp
reduceOpFromAttr(const std::string &name)
{
    if (name == "sum") return ReduceOp::Sum;
    if (name == "prod") return ReduceOp::Prod;
    if (name == "max") return ReduceOp::Max;
    if (name == "min") return ReduceOp::Min;
    throw Error("MSCCL-IR: unknown reduce op '" + name + "'");
}

std::string
depsAttr(const std::vector<IrDep> &deps)
{
    std::string out;
    for (size_t i = 0; i < deps.size(); i++) {
        if (i > 0)
            out += ",";
        out += strprintf("%d:%d", deps[i].tb, deps[i].step);
    }
    return out;
}

std::vector<IrDep>
depsFromAttr(const std::string &text)
{
    std::vector<IrDep> deps;
    if (text.empty())
        return deps;
    for (const std::string &field : splitString(text, ',')) {
        auto parts = splitString(field, ':');
        if (parts.size() != 2)
            throw Error("MSCCL-IR: malformed dependency '" + field + "'");
        IrDep dep;
        dep.tb = std::stoi(parts[0]);
        dep.step = std::stoi(parts[1]);
        deps.push_back(dep);
    }
    return deps;
}

} // namespace

std::string
IrProgram::toXml() const
{
    XmlWriter writer;
    writer.open("algo");
    writer.attr("name", name);
    writer.attr("coll", collective);
    writer.attr("nranks", numRanks);
    writer.attr("inplace", inPlace ? 1 : 0);
    writer.attr("proto", protocolName(protocol));
    writer.attr("redop", reduceOpName(reduceOp));
    writer.attr("outputscale", outputScale);
    for (const IrGpu &gpu : gpus) {
        writer.open("gpu");
        writer.attr("id", gpu.rank);
        writer.attr("i_chunks", gpu.inputChunks);
        writer.attr("o_chunks", gpu.outputChunks);
        writer.attr("s_chunks", gpu.scratchChunks);
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            writer.open("tb");
            writer.attr("id", tb.id);
            writer.attr("send", tb.sendPeer);
            writer.attr("recv", tb.recvPeer);
            writer.attr("chan", tb.channel);
            for (size_t s = 0; s < tb.steps.size(); s++) {
                const IrInstruction &instr = tb.steps[s];
                writer.open("step");
                writer.attr("s", static_cast<int>(s));
                writer.attr("type", irOpName(instr.op));
                writer.attr("srcbuf", bufferAttr(instr.srcBuf));
                writer.attr("srcoff", instr.srcOff);
                writer.attr("dstbuf", bufferAttr(instr.dstBuf));
                writer.attr("dstoff", instr.dstOff);
                writer.attr("cnt", instr.count);
                if (instr.splitCount > 1) {
                    writer.attr("spliti", instr.splitIdx);
                    writer.attr("splitn", instr.splitCount);
                }
                if (!instr.deps.empty())
                    writer.attr("deps", depsAttr(instr.deps));
                writer.attr("hasdep", instr.hasDep ? 1 : 0);
                writer.close();
            }
            writer.close();
        }
        writer.close();
    }
    writer.close();
    return writer.str();
}

IrProgram
IrProgram::fromXml(const std::string &xml)
{
    XmlNode root = parseXml(xml);
    if (root.tag != "algo")
        throw Error("MSCCL-IR: expected <algo> root, got <" + root.tag +
                    ">");
    IrProgram program;
    program.name = root.attrOr("name", "unnamed");
    program.collective = root.attrOr("coll", "custom");
    program.numRanks = root.attrInt("nranks");
    program.inPlace = root.attrIntOr("inplace", 0) != 0;
    program.protocol = protocolFromAttr(root.attrOr("proto", "Simple"));
    program.reduceOp = reduceOpFromAttr(root.attrOr("redop", "sum"));
    program.outputScale = root.hasAttr("outputscale")
        ? root.attrDouble("outputscale") : 1.0;
    std::vector<IrGpu> gpus;
    gpus.reserve(root.children.size());
    for (const XmlNode &gpu_node : root.children) {
        if (gpu_node.tag != "gpu")
            throw Error("MSCCL-IR: unexpected <" + gpu_node.tag + ">");
        IrGpu gpu;
        gpu.rank = gpu_node.attrInt("id");
        gpu.inputChunks = gpu_node.attrInt("i_chunks");
        gpu.outputChunks = gpu_node.attrInt("o_chunks");
        gpu.scratchChunks = gpu_node.attrInt("s_chunks");
        for (const XmlNode &tb_node : gpu_node.children) {
            if (tb_node.tag != "tb")
                throw Error("MSCCL-IR: unexpected <" + tb_node.tag + ">");
            IrThreadBlock tb;
            tb.id = tb_node.attrInt("id");
            tb.sendPeer = tb_node.attrInt("send");
            tb.recvPeer = tb_node.attrInt("recv");
            tb.channel = tb_node.attrInt("chan");
            for (const XmlNode &step_node : tb_node.children) {
                if (step_node.tag != "step")
                    throw Error("MSCCL-IR: unexpected <" + step_node.tag +
                                ">");
                IrInstruction instr;
                instr.op = irOpFromName(step_node.attr("type"));
                instr.srcBuf = bufferFromAttr(step_node.attr("srcbuf"));
                instr.srcOff = step_node.attrInt("srcoff");
                instr.dstBuf = bufferFromAttr(step_node.attr("dstbuf"));
                instr.dstOff = step_node.attrInt("dstoff");
                instr.count = step_node.attrInt("cnt");
                instr.splitIdx = step_node.attrIntOr("spliti", 0);
                instr.splitCount = step_node.attrIntOr("splitn", 1);
                instr.deps = depsFromAttr(step_node.attrOr("deps", ""));
                instr.hasDep = step_node.attrIntOr("hasdep", 0) != 0;
                tb.steps.push_back(std::move(instr));
            }
            gpu.threadBlocks.push_back(std::move(tb));
        }
        gpus.push_back(std::move(gpu));
    }
    program.gpus = IrGpus(std::move(gpus));
    return program;
}

std::string
IrProgram::dump() const
{
    std::string out = strprintf(
        "program '%s' (%s, %d ranks, %s, %s%s)\n", name.c_str(),
        collective.c_str(), numRanks, protocolName(protocol),
        reduceOpName(reduceOp), inPlace ? ", in-place" : "");
    for (const IrGpu &gpu : gpus) {
        out += strprintf("  gpu %d (i=%d o=%d s=%d chunks)\n", gpu.rank,
                         gpu.inputChunks, gpu.outputChunks,
                         gpu.scratchChunks);
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            out += strprintf("    tb %d send=%d recv=%d chan=%d\n", tb.id,
                             tb.sendPeer, tb.recvPeer, tb.channel);
            for (size_t s = 0; s < tb.steps.size(); s++) {
                out += strprintf("      %2zu: %s\n", s,
                                 tb.steps[s].toString().c_str());
            }
        }
    }
    return out;
}

} // namespace mscclang
