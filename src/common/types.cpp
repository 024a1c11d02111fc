#include "common/types.h"

namespace mscclang {

const char *
bufferKindName(BufferKind kind)
{
    switch (kind) {
      case BufferKind::Input: return "i";
      case BufferKind::Output: return "o";
      case BufferKind::Scratch: return "s";
    }
    return "?";
}

const char *
protocolName(Protocol proto)
{
    switch (proto) {
      case Protocol::Simple: return "Simple";
      case Protocol::LL: return "LL";
      case Protocol::LL128: return "LL128";
      case Protocol::Direct: return "Direct";
    }
    return "?";
}

std::optional<Protocol>
protocolFromName(const std::string &name)
{
    for (Protocol proto : { Protocol::Simple, Protocol::LL,
                            Protocol::LL128, Protocol::Direct }) {
        if (name == protocolName(proto))
            return proto;
    }
    return std::nullopt;
}

const char *
reduceOpName(ReduceOp op)
{
    switch (op) {
      case ReduceOp::Sum: return "sum";
      case ReduceOp::Prod: return "prod";
      case ReduceOp::Max: return "max";
      case ReduceOp::Min: return "min";
    }
    return "?";
}

} // namespace mscclang
