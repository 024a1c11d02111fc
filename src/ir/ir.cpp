#include "ir/ir.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <sstream>
#include <tuple>

#include "common/error.h"
#include "common/strings.h"
#include "ir/xml.h"

namespace mscclang {

namespace {

/** An opcode's mnemonic and semantics, indexed by IrOp. */
struct OpInfo
{
    const char *name;
    bool receives, sends, readsSrc, writesDst, reduces;
};

constexpr OpInfo kOps[] = {
    { "nop", false, false, false, false, false },
    { "s", false, true, true, false, false },
    { "r", true, false, false, true, false },
    { "cpy", false, false, true, true, false },
    { "re", false, false, true, true, true },
    { "rrc", true, false, true, true, true },
    { "rrs", true, true, true, false, true },
    { "rrcs", true, true, true, true, true },
    { "rcs", true, true, false, true, false },
};

/** The one of the @p count values of T that @p name_of names @p name. */
template <typename T>
T
fromName(const std::string &name, int count, const char *(*name_of)(T),
         const char *what)
{
    for (int i = 0; i < count; i++) {
        if (name == name_of(static_cast<T>(i)))
            return static_cast<T>(i);
    }
    throw Error(strprintf("MSCCL-IR: unknown %s '%s'", what, name.c_str()));
}

const OpInfo &
opInfo(IrOp op)
{
    return kOps[static_cast<int>(op)];
}

} // namespace

const char *irOpName(IrOp op) { return opInfo(op).name; }
bool irOpReceives(IrOp op) { return opInfo(op).receives; }
bool irOpSends(IrOp op) { return opInfo(op).sends; }
bool irOpReadsSrc(IrOp op) { return opInfo(op).readsSrc; }
bool irOpWritesDst(IrOp op) { return opInfo(op).writesDst; }
bool irOpReduces(IrOp op) { return opInfo(op).reduces; }

IrOp
irOpFromName(const std::string &name)
{
    return fromName<IrOp>(name, std::size(kOps), irOpName, "opcode");
}

std::string
IrInstruction::toString(std::span<const IrDep> deps) const
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
                         const std::string &instr,
                         const std::string &reason)
{
    return strprintf(
        "  rank %d tb %d blocked at step %d (%s) waiting for %s\n",
        rank, tb, step, instr.c_str(), reason.c_str());
}

bool
IrGpus::operator==(const IrGpus &other) const
{
    if (body_ == other.body_)
        return true;
    // build() lays every body out canonically, so equal contents
    // mean equal arrays (the connection table follows the blocks).
    const Body &a = body();
    const Body &b = other.body();
    return a.gpus == b.gpus && a.blocks == b.blocks &&
        a.steps == b.steps && a.deps == b.deps;
}

IrBuilder::IrBuilder(const IrGpus &body)
    : gpus_(body.body().gpus), blocks_(body.body().blocks),
      steps_(body.body().steps), deps_(body.body().deps)
{
}

void
IrBuilder::reserve(int gpus, int blocks, int steps, int deps)
{
    gpus_.reserve(gpus);
    blocks_.reserve(blocks);
    steps_.reserve(steps);
    deps_.reserve(deps);
}

void
IrBuilder::addGpu(int rank, int input_chunks, int output_chunks,
                  int scratch_chunks)
{
    gpus_.push_back(IrGpu{ rank, input_chunks, output_chunks,
                           scratch_chunks, 0, 0 });
}

void
IrBuilder::addThreadBlock(int rank, int id, int send_peer, int recv_peer,
                          int channel)
{
    blocks_.push_back(IrThreadBlock{ id, rank, send_peer, recv_peer,
                                     channel, numSteps(), 0, -1, -1 });
}

void
IrBuilder::addStep(const IrInstruction &instr, std::span<const IrDep> deps)
{
    if (blocks_.empty())
        throw Error("MSCCL-IR: step added before any thread block");
    blocks_.back().numSteps++;
    steps_.push_back(instr);
    setDeps(numSteps() - 1, deps);
}

void
IrBuilder::setDeps(int node, std::span<const IrDep> deps)
{
    // A replaced range stays behind until build() packs the pool.
    steps_[node].depFirst = static_cast<int>(deps_.size());
    steps_[node].depCount = static_cast<int>(deps.size());
    deps_.insert(deps_.end(), deps.begin(), deps.end());
}

namespace {

/** Chunks of @p buf on @p gpu; in place, Output is Input's alias. */
int
declaredChunks(const IrGpu &gpu, BufferKind buf, bool in_place)
{
    switch (buf) {
      case BufferKind::Input: return gpu.inputChunks;
      case BufferKind::Output:
        return in_place ? gpu.inputChunks : gpu.outputChunks;
      case BufferKind::Scratch: return gpu.scratchChunks;
    }
    return 0;
}

/**
 * Throws unless chunks [off, off + count) of @p buf lie inside
 * @p gpu's declared chunks; @p count is already known positive.
 */
void
checkRange(const IrGpu &gpu, const IrThreadBlock &tb, int step,
           const IrInstruction &instr, const char *verb, BufferKind buf,
           int off, bool in_place)
{
    std::int64_t chunks = declaredChunks(gpu, buf, in_place);
    std::int64_t end = std::int64_t{ off } + instr.count;
    if (off >= 0 && end <= chunks)
        return;
    std::int64_t bad = off < 0 ? off : std::max<std::int64_t>(off, chunks);
    throw Error(strprintf(
        "MSCCL-IR: rank %d tb %d step %d: %s %s %s[%lld] out of bounds "
        "(%lld chunks)", tb.rank, tb.id, step, irOpName(instr.op), verb,
        bufferKindName(buf), static_cast<long long>(bad),
        static_cast<long long>(chunks)));
}

} // namespace

/** Sets the rank headers' block ranges and checks the structure. */
void
IrBuilder::check(int num_ranks, bool in_place)
{
    for (size_t i = 0; i < gpus_.size(); i++) {
        const IrGpu &gpu = gpus_[i];
        if (gpu.rank < 0 || gpu.rank >= num_ranks) {
            throw Error(strprintf("MSCCL-IR: gpu %d is outside the %d-rank "
                                  "program", gpu.rank, num_ranks));
        }
        if (gpu.rank != static_cast<int>(i)) {
            throw Error(strprintf("MSCCL-IR: gpu %d listed where rank %zu "
                                  "belongs", gpu.rank, i));
        }
        if (gpu.inputChunks < 0 || gpu.outputChunks < 0 ||
            gpu.scratchChunks < 0) {
            throw Error(strprintf(
                "MSCCL-IR: gpu %d declares a negative chunk count "
                "(i=%d o=%d s=%d)", gpu.rank, gpu.inputChunks,
                gpu.outputChunks, gpu.scratchChunks));
        }
        gpus_[i].firstBlock = gpus_[i].numBlocks = 0;
    }
    if (static_cast<int>(gpus_.size()) != num_ranks) {
        throw Error(strprintf("MSCCL-IR: %zu gpus for a %d-rank program",
                              gpus_.size(), num_ranks));
    }
    for (size_t b = 0; b < blocks_.size(); b++) {
        const IrThreadBlock &tb = blocks_[b];
        if (tb.rank < (b > 0 ? blocks_[b - 1].rank : 0) ||
            tb.rank >= num_ranks) {
            throw Error(strprintf("MSCCL-IR: thread block of rank %d out "
                                  "of rank order", tb.rank));
        }
        IrGpu &gpu = gpus_[tb.rank];
        if (gpu.numBlocks == 0)
            gpu.firstBlock = static_cast<int>(b);
        if (tb.id != gpu.numBlocks++) {
            throw Error(strprintf(
                "MSCCL-IR: rank %d has thread block %d where id %d "
                "belongs", tb.rank, tb.id, gpu.numBlocks - 1));
        }
        auto peer = [&](int p) { return p >= -1 && p < num_ranks; };
        if (!peer(tb.sendPeer) || !peer(tb.recvPeer) || tb.channel < 0) {
            throw Error(strprintf(
                "MSCCL-IR: rank %d tb %d names send peer %d, receive "
                "peer %d, channel %d outside the %d-rank program",
                tb.rank, tb.id, tb.sendPeer, tb.recvPeer, tb.channel,
                num_ranks));
        }
    }
    for (const IrThreadBlock &tb : blocks_) {
        for (int s = 0; s < tb.numSteps; s++) {
            const IrInstruction &instr = steps_[tb.firstStep + s];
            const char *missing =
                irOpSends(instr.op) && tb.sendPeer < 0 ? "send"
                : irOpReceives(instr.op) && tb.recvPeer < 0 ? "receive"
                : nullptr;
            if (missing != nullptr) {
                throw Error(strprintf(
                    "MSCCL-IR: rank %d tb %d step %d: %s without a %s "
                    "peer", tb.rank, tb.id, s, irOpName(instr.op),
                    missing));
            }
            const IrGpu &gpu = gpus_[tb.rank];
            for (int k = 0; k < instr.depCount; k++) {
                const IrDep &dep = deps_[instr.depFirst + k];
                if (dep.tb < 0 || dep.tb >= gpu.numBlocks || dep.step < 0 ||
                    dep.step >= blocks_[gpu.firstBlock + dep.tb].numSteps) {
                    throw Error(strprintf(
                        "MSCCL-IR: rank %d tb %d step %d: dependency on "
                        "unknown step (tb %d, step %d)", tb.rank, tb.id,
                        s, dep.tb, dep.step));
                }
            }
            if (instr.count < 1 || instr.splitIdx < 0 ||
                instr.splitIdx >= instr.splitCount) {
                throw Error(strprintf(
                    "MSCCL-IR: rank %d tb %d step %d: count %d, split "
                    "%d/%d (a count must be positive and a split index "
                    "in [0, split count))", tb.rank, tb.id, s, instr.count,
                    instr.splitIdx, instr.splitCount));
            }
            if (irOpReadsSrc(instr.op)) {
                checkRange(gpu, tb, s, instr, "reads", instr.srcBuf,
                           instr.srcOff, in_place);
            }
            if (irOpWritesDst(instr.op)) {
                checkRange(gpu, tb, s, instr, "writes", instr.dstBuf,
                           instr.dstOff, in_place);
            }
        }
    }
}

/** Lays the dependency pool out in instruction order, dropping the
 *  ranges setDeps replaced, so one content has one layout. */
void
IrBuilder::packDeps()
{
    std::vector<IrDep> pool;
    pool.reserve(deps_.size());
    for (IrInstruction &instr : steps_) {
        if (instr.depFirst < 0 || instr.depCount < 0 ||
            instr.depFirst + instr.depCount > static_cast<int>(deps_.size()))
            throw Error("MSCCL-IR: dependency range outside the pool");
        int first = static_cast<int>(pool.size());
        pool.insert(pool.end(), deps_.begin() + instr.depFirst,
                    deps_.begin() + instr.depFirst + instr.depCount);
        instr.depFirst = first;
    }
    deps_.swap(pool);
}

/** Sorts the distinct connections by (src, dst, channel) and points
 *  every block at its own. */
std::vector<IrConnection>
IrBuilder::deriveConnections()
{
    auto less = [](const IrConnection &a, const IrConnection &b) {
        return std::tie(a.src, a.dst, a.channel) <
            std::tie(b.src, b.dst, b.channel);
    };
    std::vector<IrConnection> table;
    for (const IrThreadBlock &tb : blocks_) {
        if (tb.sendPeer >= 0)
            table.push_back(IrConnection{ tb.rank, tb.sendPeer, tb.channel });
        if (tb.recvPeer >= 0)
            table.push_back(IrConnection{ tb.recvPeer, tb.rank, tb.channel });
    }
    std::sort(table.begin(), table.end(), less);
    table.erase(std::unique(table.begin(), table.end()), table.end());
    auto id_of = [&](int peer, const IrConnection &conn) {
        return peer < 0 ? -1
                        : static_cast<int>(std::lower_bound(table.begin(),
                                                            table.end(), conn,
                                                            less) -
                                           table.begin());
    };
    for (IrThreadBlock &tb : blocks_) {
        tb.sendConn = id_of(tb.sendPeer, { tb.rank, tb.sendPeer, tb.channel });
        tb.recvConn = id_of(tb.recvPeer, { tb.recvPeer, tb.rank, tb.channel });
    }
    return table;
}

IrGpus
IrBuilder::build(int num_ranks, bool in_place)
{
    packDeps();
    check(num_ranks, in_place);
    auto body = std::make_shared<IrGpus::Body>();
    body->connections = deriveConnections();
    body->gpus = std::move(gpus_);
    body->blocks = std::move(blocks_);
    body->steps = std::move(steps_);
    body->deps = std::move(deps_);
    *this = IrBuilder();
    IrGpus out;
    out.body_ = std::move(body);
    return out;
}

int
IrProgram::numChannels() const
{
    int max_channel = -1;
    for (const IrThreadBlock &tb : gpus.blocks())
        max_channel = std::max(max_channel, tb.channel);
    return max_channel + 1;
}

int
IrProgram::maxThreadBlocks() const
{
    int most = 0;
    for (const IrGpu &gpu : gpus)
        most = std::max(most, gpu.numBlocks);
    return most;
}

bool
IrProgram::mutatesInput() const
{
    for (const IrInstruction &instr : gpus.steps()) {
        if (!irOpWritesDst(instr.op))
            continue;
        if (instr.dstBuf == BufferKind::Input ||
            (inPlace && instr.dstBuf == BufferKind::Output)) {
            return true;
        }
    }
    return false;
}

int
IrProgram::totalInstructions() const
{
    return static_cast<int>(gpus.steps().size());
}

namespace {

std::string
depsAttr(std::span<const IrDep> deps)
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
        IrDep dep;
        const char *end = field.data() + field.size();
        auto [colon, tb_error] = std::from_chars(field.data(), end, dep.tb);
        bool ok = tb_error == std::errc() && colon != end && *colon == ':';
        if (ok) {
            auto [last, error] = std::from_chars(colon + 1, end, dep.step);
            ok = error == std::errc() && last == end;
        }
        if (!ok)
            throw Error("MSCCL-IR: malformed dependency '" + field + "'");
        deps.push_back(dep);
    }
    return deps;
}

} // namespace

std::string
IrProgram::toXml() const
{
    std::ostringstream out;
    toXml(out);
    return std::move(out).str();
}

void
IrProgram::toXml(std::ostream &out) const
{
    XmlWriter writer(out);
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
        for (const IrThreadBlock &tb : gpus.blocks(gpu)) {
            writer.open("tb");
            writer.attr("id", tb.id);
            writer.attr("send", tb.sendPeer);
            writer.attr("recv", tb.recvPeer);
            writer.attr("chan", tb.channel);
            std::span<const IrInstruction> steps = gpus.steps(tb);
            for (size_t s = 0; s < steps.size(); s++) {
                const IrInstruction &instr = steps[s];
                writer.open("step");
                writer.attr("s", static_cast<int>(s));
                writer.attr("type", irOpName(instr.op));
                writer.attr("srcbuf", bufferKindName(instr.srcBuf));
                writer.attr("srcoff", instr.srcOff);
                writer.attr("dstbuf", bufferKindName(instr.dstBuf));
                writer.attr("dstoff", instr.dstOff);
                writer.attr("cnt", instr.count);
                if (instr.splitCount > 1) {
                    writer.attr("spliti", instr.splitIdx);
                    writer.attr("splitn", instr.splitCount);
                }
                if (instr.depCount > 0)
                    writer.attr("deps", depsAttr(gpus.deps(instr)));
                writer.attr("hasdep", instr.hasDep ? 1 : 0);
                writer.close();
            }
            writer.close();
        }
        writer.close();
    }
    writer.close();
    writer.finish();
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
    program.protocol = fromName<Protocol>(root.attrOr("proto", "Simple"), 4,
                                          protocolName, "protocol");
    program.reduceOp = fromName<ReduceOp>(root.attrOr("redop", "sum"), 4,
                                          reduceOpName, "reduce op");
    program.outputScale = root.hasAttr("outputscale")
        ? root.attrDouble("outputscale") : 1.0;
    IrBuilder body;
    for (const XmlNode &gpu_node : root.children) {
        if (gpu_node.tag != "gpu")
            throw Error("MSCCL-IR: unexpected <" + gpu_node.tag + ">");
        int rank = gpu_node.attrInt("id");
        body.addGpu(rank, gpu_node.attrInt("i_chunks"),
                    gpu_node.attrInt("o_chunks"),
                    gpu_node.attrInt("s_chunks"));
        for (const XmlNode &tb_node : gpu_node.children) {
            if (tb_node.tag != "tb")
                throw Error("MSCCL-IR: unexpected <" + tb_node.tag + ">");
            body.addThreadBlock(rank, tb_node.attrInt("id"),
                                tb_node.attrInt("send"),
                                tb_node.attrInt("recv"),
                                tb_node.attrInt("chan"));
            for (const XmlNode &step_node : tb_node.children) {
                if (step_node.tag != "step")
                    throw Error("MSCCL-IR: unexpected <" + step_node.tag +
                                ">");
                IrInstruction instr;
                instr.op = irOpFromName(step_node.attr("type"));
                instr.srcBuf = fromName<BufferKind>(
                    step_node.attr("srcbuf"), 3, bufferKindName, "buffer");
                instr.srcOff = step_node.attrInt("srcoff");
                instr.dstBuf = fromName<BufferKind>(
                    step_node.attr("dstbuf"), 3, bufferKindName, "buffer");
                instr.dstOff = step_node.attrInt("dstoff");
                instr.count = step_node.attrInt("cnt");
                instr.splitIdx = step_node.attrIntOr("spliti", 0);
                instr.splitCount = step_node.attrIntOr("splitn", 1);
                instr.hasDep = step_node.attrIntOr("hasdep", 0) != 0;
                body.addStep(instr,
                             depsFromAttr(step_node.attrOr("deps", "")));
            }
        }
    }
    program.gpus = body.build(program.numRanks, program.inPlace);
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
        for (const IrThreadBlock &tb : gpus.blocks(gpu)) {
            out += strprintf("    tb %d send=%d recv=%d chan=%d\n", tb.id,
                             tb.sendPeer, tb.recvPeer, tb.channel);
            std::span<const IrInstruction> steps = gpus.steps(tb);
            for (size_t s = 0; s < steps.size(); s++) {
                out += strprintf(
                    "      %2zu: %s\n", s,
                    steps[s].toString(gpus.deps(steps[s])).c_str());
            }
        }
    }
    return out;
}

} // namespace mscclang
