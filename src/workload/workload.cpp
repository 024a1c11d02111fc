#include "workload/workload.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "workload/json.h"

namespace mscclang {

namespace {

/** Smallest size unit generators emit: keeps every collective's
 *  chunk geometry (<= 64 chunks per rank on the evaluated machines)
 *  float-aligned in data mode. */
constexpr std::uint64_t kSizeQuantum = 16 * 1024;

std::uint64_t
quantize(double bytes)
{
    auto units = static_cast<std::uint64_t>(bytes / kSizeQuantum);
    if (units == 0)
        units = 1;
    return units * kSizeQuantum;
}

} // namespace

int
WorkloadSpec::totalOps() const
{
    int total = 0;
    for (const WorkloadStream &stream : streams)
        total += static_cast<int>(stream.ops.size());
    return total;
}

void
WorkloadSpec::validate() const
{
    for (size_t s = 0; s < streams.size(); s++) {
        const WorkloadStream &stream = streams[s];
        if (stream.name.empty()) {
            throw Error(strprintf("workload '%s': stream %zu has an "
                                  "empty name", name.c_str(), s));
        }
        for (size_t o = 0; o < stream.ops.size(); o++) {
            const WorkloadOp &op = stream.ops[o];
            std::string where = strprintf("workload '%s' stream '%s' "
                                          "op %zu", name.c_str(),
                                          stream.name.c_str(), o);
            if (op.collective.empty())
                throw Error(where + ": empty collective name");
            if (op.bytes == 0)
                throw Error(where + ": zero-byte op");
            if (op.issueUs < 0.0)
                throw Error(where + ": negative issue time");
            for (const OpDep &dep : op.deps) {
                if (dep.stream < 0 ||
                    dep.stream >= static_cast<int>(streams.size())) {
                    throw Error(where + strprintf(
                        ": dependency names stream %d of %zu",
                        dep.stream, streams.size()));
                }
                const WorkloadStream &src = streams[dep.stream];
                if (dep.op < 0 ||
                    dep.op >= static_cast<int>(src.ops.size())) {
                    throw Error(where + strprintf(
                        ": dependency names op %d of stream '%s' "
                        "(%zu ops)", dep.op, src.name.c_str(),
                        src.ops.size()));
                }
            }
        }
    }

    // Kahn's algorithm over the explicit dependency edges plus the
    // implicit in-stream chains: a cycle means the replay would
    // deadlock at dispatch, so reject the spec up front.
    std::vector<int> base(streams.size(), 0);
    int total = 0;
    for (size_t s = 0; s < streams.size(); s++) {
        base[s] = total;
        total += static_cast<int>(streams[s].ops.size());
    }
    std::vector<int> indegree(total, 0);
    std::vector<std::vector<int>> out(total);
    for (size_t s = 0; s < streams.size(); s++) {
        for (size_t o = 0; o < streams[s].ops.size(); o++) {
            int node = base[s] + static_cast<int>(o);
            if (o > 0) {
                out[node - 1].push_back(node);
                indegree[node]++;
            }
            for (const OpDep &dep : streams[s].ops[o].deps) {
                out[base[dep.stream] + dep.op].push_back(node);
                indegree[node]++;
            }
        }
    }
    std::vector<int> ready;
    for (int node = 0; node < total; node++) {
        if (indegree[node] == 0)
            ready.push_back(node);
    }
    int resolved = 0;
    while (!ready.empty()) {
        int node = ready.back();
        ready.pop_back();
        resolved++;
        for (int next : out[node]) {
            if (--indegree[next] == 0)
                ready.push_back(next);
        }
    }
    if (resolved != total) {
        throw Error(strprintf("workload '%s': dependency cycle (%d of "
                              "%d ops unreachable)", name.c_str(),
                              total - resolved, total));
    }
}

std::string
WorkloadSpec::toJson() const
{
    std::string out = "{\n  \"name\": ";
    out += jsonQuote(name);
    out += ",\n  \"streams\": [";
    for (size_t s = 0; s < streams.size(); s++) {
        const WorkloadStream &stream = streams[s];
        out += s == 0 ? "\n" : ",\n";
        out += "    {\"name\": ";
        out += jsonQuote(stream.name);
        out += ", \"ops\": [";
        for (size_t o = 0; o < stream.ops.size(); o++) {
            const WorkloadOp &op = stream.ops[o];
            out += o == 0 ? "\n" : ",\n";
            out += "      {\"collective\": ";
            out += jsonQuote(op.collective);
            out += strprintf(", \"bytes\": %llu, \"issue_us\": %.3f",
                             static_cast<unsigned long long>(op.bytes),
                             op.issueUs);
            if (!op.deps.empty()) {
                out += ", \"deps\": [";
                for (size_t d = 0; d < op.deps.size(); d++) {
                    if (d > 0)
                        out += ", ";
                    out += strprintf("[%d, %d]", op.deps[d].stream,
                                     op.deps[d].op);
                }
                out += "]";
            }
            out += "}";
        }
        out += "\n    ]}";
    }
    out += "\n  ]\n}\n";
    return out;
}

WorkloadSpec
WorkloadSpec::fromJson(const std::string &text)
{
    JsonValue root = parseJson(text);
    WorkloadSpec spec;
    spec.name = root.at("name").asString();
    for (const JsonValue &stream_value : root.at("streams").asArray()) {
        WorkloadStream stream;
        stream.name = stream_value.at("name").asString();
        for (const JsonValue &op_value :
             stream_value.at("ops").asArray()) {
            WorkloadOp op;
            op.collective = op_value.at("collective").asString();
            std::int64_t bytes = op_value.at("bytes").asInt();
            if (bytes <= 0)
                throw Error("workload trace: bytes must be positive");
            op.bytes = static_cast<std::uint64_t>(bytes);
            op.issueUs = op_value.numberOr("issue_us", 0.0);
            if (op_value.has("deps")) {
                for (const JsonValue &dep_value :
                     op_value.at("deps").asArray()) {
                    const auto &pair = dep_value.asArray();
                    if (pair.size() != 2) {
                        throw Error("workload trace: a dep is a "
                                    "[stream, op] pair");
                    }
                    OpDep dep;
                    dep.stream = static_cast<int>(pair[0].asInt());
                    dep.op = static_cast<int>(pair[1].asInt());
                    op.deps.push_back(dep);
                }
            }
            stream.ops.push_back(std::move(op));
        }
        spec.streams.push_back(std::move(stream));
    }
    spec.validate();
    return spec;
}

WorkloadSpec
WorkloadSpec::fromJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw Error("cannot open workload trace '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return fromJson(text.str());
}

WorkloadSpec
makeDecodeWorkload(int ops, std::uint64_t bytes, double period_us,
                   std::uint64_t seed)
{
    Rng rng(seed ^ 0xdec0deULL);
    WorkloadSpec spec;
    spec.name = strprintf("decode-%d", ops);
    WorkloadStream stream;
    stream.name = "decode";
    double clock = 0.0;
    for (int i = 0; i < ops; i++) {
        WorkloadOp op;
        op.collective = "allreduce";
        op.bytes = bytes;
        // Up to 20% jitter models scheduler noise between decode
        // steps without changing the average arrival rate.
        op.issueUs = clock + period_us * 0.2 * rng.nextDouble();
        stream.ops.push_back(std::move(op));
        clock += period_us;
    }
    spec.streams.push_back(std::move(stream));
    return spec;
}

WorkloadSpec
makePipelineWorkload(int stages, int microbatches, std::uint64_t bytes,
                     double stage_gap_us)
{
    WorkloadSpec spec;
    spec.name = strprintf("pipeline-%dx%d", stages, microbatches);
    for (int s = 0; s < stages; s++) {
        WorkloadStream stream;
        stream.name = strprintf("stage%d", s);
        for (int m = 0; m < microbatches; m++) {
            WorkloadOp op;
            op.collective = "allgather";
            op.bytes = bytes;
            op.issueUs = stage_gap_us * s;
            if (s > 0)
                op.deps.push_back(OpDep{ s - 1, m });
            stream.ops.push_back(std::move(op));
        }
        spec.streams.push_back(std::move(stream));
    }
    return spec;
}

WorkloadSpec
makeMoeWorkload(int ops, std::uint64_t mean_bytes, double period_us,
                std::uint64_t seed)
{
    Rng rng(seed ^ 0x30eULL);
    WorkloadSpec spec;
    spec.name = strprintf("moe-%d", ops);
    WorkloadStream stream;
    stream.name = "moe";
    for (int i = 0; i < ops; i++) {
        // Squaring an Irwin-Hall(4) mean gives a right-skewed draw
        // with mean ~1: most routing steps move less than the mean,
        // the unlucky ones several times it.
        double u = 0.0;
        for (int k = 0; k < 4; k++)
            u += rng.nextDouble();
        double skew = (u / 2.0) * (u / 2.0);
        WorkloadOp op;
        op.collective = "alltoall";
        op.bytes = quantize(static_cast<double>(mean_bytes) * skew);
        op.issueUs = period_us * i;
        stream.ops.push_back(std::move(op));
    }
    spec.streams.push_back(std::move(stream));
    return spec;
}

WorkloadSpec
makeBurstyWorkload(int bursts, int ops_per_burst, std::uint64_t bytes,
                   double burst_gap_us, std::uint64_t seed)
{
    Rng rng(seed ^ 0xb0b5ULL);
    WorkloadSpec spec;
    spec.name = strprintf("bursty-%dx%d", bursts, ops_per_burst);
    WorkloadStream stream;
    stream.name = "bursty";
    for (int b = 0; b < bursts; b++) {
        double start = burst_gap_us * b +
                       burst_gap_us * 0.25 * rng.nextDouble();
        for (int i = 0; i < ops_per_burst; i++) {
            WorkloadOp op;
            op.collective = "allreduce";
            op.bytes = bytes;
            op.issueUs = start + 1.0 * i;
            stream.ops.push_back(std::move(op));
        }
    }
    spec.streams.push_back(std::move(stream));
    return spec;
}

WorkloadSpec
mergeSpecs(const std::string &name,
           const std::vector<WorkloadSpec> &specs)
{
    WorkloadSpec merged;
    merged.name = name;
    int offset = 0;
    for (const WorkloadSpec &spec : specs) {
        for (const WorkloadStream &stream : spec.streams) {
            WorkloadStream copy = stream;
            for (WorkloadOp &op : copy.ops) {
                for (OpDep &dep : op.deps)
                    dep.stream += offset;
            }
            merged.streams.push_back(std::move(copy));
        }
        offset += static_cast<int>(spec.streams.size());
    }
    return merged;
}

WorkloadSpec
makeMixedInferenceWorkload(std::uint64_t seed)
{
    WorkloadSpec mixed = mergeSpecs(
        "mixed-inference",
        {
            makeDecodeWorkload(12, 256 * 1024, 400.0, seed),
            makePipelineWorkload(2, 6, 512 * 1024, 150.0),
            makeMoeWorkload(8, 1 << 20, 600.0, seed + 1),
        });
    mixed.validate();
    return mixed;
}

std::vector<ResourceId>
resourcesMatching(const Topology &topology, const std::string &substring)
{
    std::vector<ResourceId> matches;
    for (ResourceId id = 0; id < topology.numResources(); id++) {
        if (topology.resourceName(id).find(substring) !=
            std::string::npos) {
            matches.push_back(id);
        }
    }
    return matches;
}

FaultSchedule
makeLinkFlapStorm(const std::vector<ResourceId> &targets, int flaps,
                  double period_us, double stall_us, double start_us)
{
    FaultSchedule storm;
    for (int flap = 0; flap < flaps; flap++) {
        for (ResourceId target : targets) {
            FaultEvent event;
            event.resource = target;
            event.kind = FaultKind::Stall;
            event.atUs = start_us + period_us * flap;
            event.durationUs = stall_us;
            storm.events.push_back(event);
        }
    }
    return storm;
}

FaultSchedule
makeDegradeWave(const std::vector<ResourceId> &targets, double at_us,
                double duration_us, double factor)
{
    FaultSchedule wave;
    for (ResourceId target : targets) {
        FaultEvent event;
        event.resource = target;
        event.kind = FaultKind::Degrade;
        event.atUs = at_us;
        event.durationUs = duration_us;
        event.factor = factor;
        wave.events.push_back(event);
    }
    return wave;
}

FaultSchedule
makeNicFailure(const Topology &topology, int rank, double at_us)
{
    std::string suffix = strprintf("[%d.%d]", topology.nodeOf(rank),
                                   topology.localOf(rank));
    FaultSchedule failure;
    for (const char *direction : { "ib-send", "ib-recv" }) {
        std::vector<ResourceId> matches =
            resourcesMatching(topology, direction + suffix);
        for (ResourceId id : matches) {
            FaultEvent event;
            event.resource = id;
            event.kind = FaultKind::LinkDown;
            event.atUs = at_us;
            failure.events.push_back(event);
        }
    }
    if (failure.empty()) {
        throw Error(strprintf("makeNicFailure: no IB resources for "
                              "rank %d on '%s'", rank,
                              topology.name().c_str()));
    }
    return failure;
}

FaultSchedule
mergeSchedules(const std::vector<FaultSchedule> &parts)
{
    FaultSchedule merged;
    for (const FaultSchedule &part : parts) {
        merged.events.insert(merged.events.end(), part.events.begin(),
                             part.events.end());
    }
    std::stable_sort(merged.events.begin(), merged.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.atUs < b.atUs;
                     });
    return merged;
}

} // namespace mscclang
