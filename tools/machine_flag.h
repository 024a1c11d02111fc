/**
 * @file
 * The --machine flag shared by the command-line tools.
 */

#ifndef MSCCLANG_TOOLS_MACHINE_FLAG_H_
#define MSCCLANG_TOOLS_MACHINE_FLAG_H_

#include <functional>
#include <string>

#include "common/error.h"
#include "common/flags.h"
#include "topology/topology.h"

namespace mscclang {

/**
 * The Flags::custom binding of --machine: parses the spec into
 * @p topology while the flags are parsed, so a malformed spec is a
 * usage error (BadValue) before any work runs, and keeps its text in
 * @p spec when one is given.
 */
inline std::function<void(const std::string &)>
machineFlag(Topology *topology, std::string *spec = nullptr)
{
    return [spec, topology](const std::string &text) {
        try {
            *topology = parseTopology(text);
        } catch (const Error &error) {
            throw BadValue(std::string("--machine: ") + error.what());
        }
        if (spec != nullptr)
            *spec = text;
    };
}

} // namespace mscclang

#endif // MSCCLANG_TOOLS_MACHINE_FLAG_H_
