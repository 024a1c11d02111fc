#include "dsl/program.h"

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

std::string
TraceOp::toString() const
{
    const char *verb = kind == OpKind::Copy ? "copy" : "reduce";
    std::string text = strprintf("#%d %s %s -> %s", id, verb,
                                 src.toString().c_str(),
                                 dst.toString().c_str());
    if (channel >= 0)
        text += strprintf(" ch=%d", channel);
    if (parFactor > 1)
        text += strprintf(" par=%d", parFactor);
    return text;
}

ParallelizeScope::ParallelizeScope(Program *program, int factor)
    : program_(program)
{
    if (factor < 1)
        throw ProgramError(strprintf(
            "parallelize factor must be >= 1 (got %d)", factor));
    program_->parStack_.push_back(factor);
}

ParallelizeScope::ParallelizeScope(ParallelizeScope &&other) noexcept
    : program_(other.program_)
{
    other.program_ = nullptr;
}

ParallelizeScope::~ParallelizeScope()
{
    if (program_ != nullptr)
        program_->parStack_.pop_back();
}

Program::Program(std::shared_ptr<Collective> collective,
                 ProgramOptions options)
    : collective_(std::move(collective)), options_(std::move(options))
{
    if (!collective_)
        throw ProgramError("Program: null collective");
    if (options_.instances < 1)
        throw ProgramError("Program: instances must be >= 1");
    if (collective_->inPlace()) {
        for (Rank r = 0; r < numRanks(); r++) {
            if (collective_->inputChunkCount(r) !=
                collective_->outputChunkCount(r)) {
                throw ProgramError(
                    "Program: in-place collective must have equal input "
                    "and output chunk counts");
            }
        }
    }

    buffers_.resize(numRanks());
    for (Rank r = 0; r < numRanks(); r++) {
        buffers_[r].resize(3);
        BufferState &input = buffers_[r][0];
        int in_chunks = collective_->inputChunkCount(r);
        input.resize(in_chunks);
        for (int i = 0; i < in_chunks; i++)
            input[i].value = ChunkValue::input(r, i);
        if (!collective_->inPlace()) // output starts uninitialized
            buffers_[r][1].resize(collective_->outputChunkCount(r));
        // Scratch grows on demand.
    }
}

BufferKind
Program::canonical(BufferKind buffer) const
{
    if (buffer == BufferKind::Output && collective_->inPlace())
        return BufferKind::Input;
    return buffer;
}

Program::BufferState &
Program::state(Rank rank, BufferKind buffer)
{
    return buffers_[rank][static_cast<int>(canonical(buffer))];
}

const Program::BufferState &
Program::state(Rank rank, BufferKind buffer) const
{
    return buffers_[rank][static_cast<int>(canonical(buffer))];
}

void
Program::ensureLocation(Rank rank, BufferKind buffer, int index, int count)
{
    if (rank < 0 || rank >= numRanks())
        throw ProgramError(strprintf("rank %d out of range [0, %d)",
                                     rank, numRanks()));
    if (index < 0 || count < 1)
        throw ProgramError(strprintf(
            "invalid slice index=%d count=%d", index, count));
    BufferState &buf = state(rank, buffer);
    if (canonical(buffer) == BufferKind::Scratch) {
        size_t needed = static_cast<size_t>(index) + count;
        if (buf.size() < needed) {
            buf.resize(needed);
            fingerprint_.store(0, std::memory_order_relaxed);
        }
        return;
    }
    if (static_cast<size_t>(index) + count > buf.size()) {
        throw ProgramError(strprintf(
            "slice r%d.%s[%d:%d] exceeds buffer of %zu chunks",
            rank, bufferKindName(buffer), index, index + count,
            buf.size()));
    }
}

void
Program::checkFresh(const ChunkRef &ref, const char *use) const
{
    const BufferState &buf = state(ref.slice_.rank, ref.slice_.buffer);
    for (int i = 0; i < ref.slice_.count; i++) {
        if (buf[ref.slice_.index + i].version >= ref.stamp_) {
            throw ProgramError(strprintf(
                "stale chunk reference %s used as %s: location %s was "
                "overwritten after the reference was created",
                ref.slice_.toString().c_str(), use,
                BufferSlice{ ref.slice_.rank, ref.slice_.buffer,
                             ref.slice_.index + i, 1 }.toString().c_str()));
        }
    }
}

ChunkRef
Program::chunk(Rank rank, BufferKind buffer, int index, int count)
{
    ensureLocation(rank, buffer, index, count);
    const BufferState &buf = state(rank, buffer);
    for (int i = 0; i < count; i++) {
        if (!buf[index + i].value.initialized()) {
            throw ProgramError(strprintf(
                "chunk(): access to uninitialized chunk %s",
                BufferSlice{ rank, buffer, index + i, 1 }
                    .toString().c_str()));
        }
    }
    return refTo(BufferSlice{ rank, buffer, index, count });
}

ParallelizeScope
Program::parallelize(int factor)
{
    return ParallelizeScope(this, factor);
}

void
Program::presetChunk(Rank rank, BufferKind buffer, int index,
                     const ChunkValue &value)
{
    if (!ops_.empty())
        throw ProgramError(
            "presetChunk: must be called before any operation");
    ensureLocation(rank, buffer, index, 1);
    state(rank, buffer)[index].value = value;
}

int
Program::currentParFactor() const
{
    int factor = 1;
    for (int f : parStack_)
        factor *= f;
    return factor;
}

ChunkRef
Program::doCopy(const ChunkRef &src, Rank rank, BufferKind buffer,
                int index, const OpOptions &opts)
{
    checkFresh(src, "copy source");
    ensureLocation(rank, buffer, index, src.slice_.count);

    BufferSlice dst{ rank, buffer, index, src.slice_.count };

    // Copying a slice onto itself (possibly via in-place aliasing) is
    // a no-op but is still recorded so schedules stay explicit; the
    // lowering pass drops it.
    const BufferState &sbuf = state(src.slice_.rank, src.slice_.buffer);
    BufferState &dbuf = state(rank, buffer);
    int count = src.slice_.count;
    // Source and destination may overlap in one canonical buffer: as
    // memmove does, copy backward when the destination starts after
    // the source, so each location receives its source's old value.
    bool backward = &sbuf == &dbuf && index > src.slice_.index;
    for (int k = 0; k < count; k++) {
        int i = backward ? count - 1 - k : k;
        dbuf[index + i].value = sbuf[src.slice_.index + i].value;
    }
    for (int i = 0; i < count; i++)
        dbuf[index + i].version = nextVersion_++;

    TraceOp op;
    op.id = static_cast<int>(ops_.size());
    op.kind = OpKind::Copy;
    op.src = src.slice_;
    op.dst = dst;
    op.channel = opts.channel;
    op.parFactor = currentParFactor();
    ops_.push_back(op);
    fingerprint_.store(0, std::memory_order_relaxed);

    return refTo(dst);
}

ChunkRef
Program::doReduce(const ChunkRef &dst, const ChunkRef &src,
                  const OpOptions &opts)
{
    checkFresh(dst, "reduce target");
    checkFresh(src, "reduce operand");
    if (dst.slice_.count != src.slice_.count) {
        throw ProgramError(strprintf(
            "reduce: operand counts differ (%d vs %d)",
            dst.slice_.count, src.slice_.count));
    }
    if (dst.slice_.overlaps(src.slice_) && !(dst.slice_ == src.slice_)) {
        throw ProgramError("reduce: partially overlapping operands");
    }

    const BufferState &sbuf = state(src.slice_.rank, src.slice_.buffer);
    BufferState &dbuf = state(dst.slice_.rank, dst.slice_.buffer);
    for (int i = 0; i < dst.slice_.count; i++) {
        Location &target = dbuf[dst.slice_.index + i];
        const ChunkValue &a = target.value;
        const ChunkValue &b = sbuf[src.slice_.index + i].value;
        if (!a.initialized() || !b.initialized()) {
            throw ProgramError(strprintf(
                "reduce: uninitialized operand at %s / %s",
                BufferSlice{ dst.slice_.rank, dst.slice_.buffer,
                             dst.slice_.index + i, 1 }.toString().c_str(),
                BufferSlice{ src.slice_.rank, src.slice_.buffer,
                             src.slice_.index + i, 1 }
                    .toString().c_str()));
        }
        target.value = ChunkValue::reduce(a, b);
        target.version = nextVersion_++;
    }

    TraceOp op;
    op.id = static_cast<int>(ops_.size());
    op.kind = OpKind::Reduce;
    op.src = src.slice_;
    op.dst = dst.slice_;
    op.channel = opts.channel;
    op.parFactor = currentParFactor();
    ops_.push_back(op);
    fingerprint_.store(0, std::memory_order_relaxed);

    return refTo(dst.slice_);
}

int
Program::scratchChunkCount(Rank rank) const
{
    return static_cast<int>(
        buffers_[rank][static_cast<int>(BufferKind::Scratch)].size());
}

const ChunkValue &
Program::valueAt(Rank rank, BufferKind buffer, int index) const
{
    const BufferState &buf = state(rank, buffer);
    if (index < 0 || static_cast<size_t>(index) >= buf.size())
        throw ProgramError("valueAt: index out of range");
    return buf[index].value;
}

void
Program::checkPostcondition() const
{
    for (Rank r = 0; r < numRanks(); r++) {
        int out_chunks = collective_->outputChunkCount(r);
        const BufferState &out = state(r, BufferKind::Output);
        for (int i = 0; i < out_chunks; i++) {
            auto expected = collective_->expectedOutput(r, i);
            if (!expected.has_value())
                continue;
            const ChunkValue &actual = out[i].value;
            if (!(actual == *expected)) {
                throw VerificationError(strprintf(
                    "postcondition violated at %s: expected %s, traced %s",
                    BufferSlice{ r, BufferKind::Output, i, 1 }
                        .toString().c_str(),
                    expected->toString().c_str(),
                    actual.toString().c_str()));
            }
        }
    }
}

ChunkRef
ChunkRef::copy(Rank rank, BufferKind buffer, int index,
               OpOptions opts) const
{
    return program_->doCopy(*this, rank, buffer, index, opts);
}

ChunkRef
ChunkRef::reduce(const ChunkRef &other, OpOptions opts) const
{
    return program_->doReduce(*this, other, opts);
}

} // namespace mscclang
