#include "compiler/schedule.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

namespace {

/**
 * Compact view of the fused graph's live nodes, built once per
 * schedule; every pass below runs on it instead of the node slots,
 * half of which fusion left dead. Dense index d names the d-th live
 * node in ascending id order, so comparing dense indices compares
 * node ids and every id-order tie-break carries over unchanged.
 *
 * Lowering only adds edges into the node it is recording, and fusion
 * keeps that, so every live edge runs forward in id order. The view
 * requires it (an edge against id order throws, and every cycle has
 * one), and the passes below rely on it: a sweep in dense order
 * visits each node after all of its predecessors.
 */
struct LiveView
{
    /** Dense index -> node id, ascending. */
    std::vector<int> ids;
    /** Per dense node, copied from the graph so that no pass but
     *  emission reads node slots. io: bit 0 sends, bit 1 receives. */
    std::vector<Rank> rank, sendPeer, recvPeer;
    std::vector<std::uint8_t> io;
    std::vector<int> opId, chanDirective, splitIdx, splitCount;
    /** Channel chosen by assignChannels (-1 for local nodes). */
    std::vector<int> channel;
    /** CSR of live processing successors: succs[succBegin[d]..). */
    std::vector<int> succBegin;
    std::vector<int> succs;
    /** Live communication successor / predecessor (-1 none). */
    std::vector<int> commSucc;
    std::vector<int> commPred;
    /** Live processing predecessors plus the comm predecessor. */
    std::vector<int> indegree;

    int size() const { return static_cast<int>(ids.size()); }
    bool sends(int d) const { return io[d] & 1; }
    bool receives(int d) const { return io[d] & 2; }
};

LiveView
buildLiveView(const InstrGraph &graph)
{
    int n = graph.numLive();
    LiveView view;
    view.ids.resize(n);
    view.rank.resize(n);
    view.sendPeer.resize(n);
    view.recvPeer.resize(n);
    view.io.resize(n);
    view.opId.resize(n);
    view.chanDirective.resize(n);
    view.splitIdx.resize(n);
    view.splitCount.resize(n);
    view.channel.assign(n, -1);
    view.succBegin.resize(n + 1);
    view.commSucc.resize(n);
    view.commPred.resize(n);
    view.indegree.assign(n, 0);
    view.succs.reserve(graph.edges().size());

    // One pass over the node slots hands out dense indices in id order.
    // Successors are recorded by node id for now: a later node's dense
    // index is not known until the pass reaches it.
    std::vector<int> dense(graph.numNodes(), -1);
    int d = 0;
    auto miscounted = [] {
        return CompileError("scheduler: the instruction graph's live count "
                            "disagrees with its nodes");
    };
    for (const InstrNode &node : graph.nodes()) {
        if (!node.live)
            continue;
        if (d == n)
            throw miscounted();
        dense[node.id] = d;
        view.ids[d] = node.id;
        view.rank[d] = node.rank;
        view.sendPeer[d] = node.sendPeer;
        view.recvPeer[d] = node.recvPeer;
        view.io[d] = (node.sends() ? 1 : 0) | (node.receives() ? 2 : 0);
        view.opId[d] = node.opId;
        view.chanDirective[d] = node.chanDirective;
        view.splitIdx[d] = node.splitIdx;
        view.splitCount[d] = node.splitCount;
        view.succBegin[d] = static_cast<int>(view.succs.size());
        graph.forEachSuccEdge(node.id, [&](const InstrEdge &edge) {
            view.succs.push_back(edge.to);
        });
        view.commSucc[d] = node.commSucc;
        view.commPred[d] = node.commPred >= 0 ? dense[node.commPred] : -1;
        d++;
    }
    if (d != n)
        throw miscounted();
    view.succBegin[n] = static_cast<int>(view.succs.size());

    // Node ids to dense indices, in place: dead successors and self
    // edges are dropped, and every kept edge must run forward.
    auto forward = [&](int from, int to) {
        if (to < from) {
            throw CompileError(strprintf(
                "instruction DAG edge #%d -> #%d runs against id order "
                "(a cycle, or a graph not built by lowering)",
                view.ids[from], view.ids[to]));
        }
        view.indegree[to]++;
    };
    int kept = 0;
    for (d = 0; d < n; d++) {
        int begin = view.succBegin[d];
        view.succBegin[d] = kept;
        for (int i = begin; i < view.succBegin[d + 1]; i++) {
            int to = dense[view.succs[i]];
            if (to >= 0 && to != d) {
                forward(d, to);
                view.succs[kept++] = to;
            }
        }
        int comm = view.commSucc[d];
        view.commSucc[d] = comm >= 0 ? dense[comm] : -1;
        if (view.commSucc[d] >= 0)
            forward(d, view.commSucc[d]);
    }
    view.succBegin[n] = kept;
    view.succs.resize(kept);
    return view;
}

/** Visits every successor of @p d: processing ones, then the comm one. */
template <typename Fn>
void
forEachSucc(const LiveView &view, int d, Fn &&fn)
{
    for (int i = view.succBegin[d]; i < view.succBegin[d + 1]; i++)
        fn(view.succs[i]);
    if (view.commSucc[d] >= 0)
        fn(view.commSucc[d]);
}

/**
 * The sweeps' priority order (paper §5.2, steps 1 and 3): lower depth
 * first (instructions enabled earlier), then higher rdepth (more
 * downstream dependencies), then node id. Depth is the longest path
 * from a root and rdepth the longest path to a leaf, over processing
 * and communication edges. The whole order is ranked once, so a heap
 * entry is one int: the node's rank in it.
 */
struct Priority
{
    std::vector<int> byRank; // rank -> dense index
    std::vector<int> rankOf; // dense index -> rank
};

/** The priority order, as dense indices (Priority::byRank). */
std::vector<int>
rankByPriority(const LiveView &view)
{
    // Every edge runs forward in dense order (see LiveView), so depth
    // is final for d once the sweep reaches it, and rdepth once the
    // reverse sweep does.
    int n = view.size();
    std::vector<int> depth(n, 0), rdepth(n, 0);
    int max_depth = 0;
    for (int d = 0; d < n; d++) {
        max_depth = std::max(max_depth, depth[d]);
        forEachSucc(view, d, [&](int succ) {
            depth[succ] = std::max(depth[succ], depth[d] + 1);
        });
    }
    int max_rdepth = 0;
    for (int d = n - 1; d >= 0; d--) {
        forEachSucc(view, d, [&](int succ) {
            rdepth[d] = std::max(rdepth[d], rdepth[succ] + 1);
        });
        max_rdepth = std::max(max_rdepth, rdepth[d]);
    }

    // Two stable counting sorts over ascending dense indices: by
    // rdepth descending, then by depth ascending.
    auto bucket_sort = [](const std::vector<int> &in, int max_key,
                          auto &&key) {
        std::vector<int> start(max_key + 2, 0);
        for (int d : in)
            start[key(d) + 1]++;
        for (int k = 0; k <= max_key; k++)
            start[k + 1] += start[k];
        std::vector<int> out(in.size());
        for (int d : in)
            out[start[key(d)]++] = d;
        return out;
    };
    std::vector<int> ascending(n);
    for (int d = 0; d < n; d++)
        ascending[d] = d;
    return bucket_sort(
        bucket_sort(ascending, max_rdepth,
                    [&](int d) { return max_rdepth - rdepth[d]; }),
        max_depth, [&](int d) { return depth[d]; });
}

/**
 * Fused-instruction pairings per (rank, channel). A fused instruction
 * forces its send connection and recv connection into one thread
 * block, so two fused instructions on the same rank and channel must
 * agree on the pairing. Each (rank, channel) that has a pairing owns
 * one array: partner recv peer by send peer, then partner send peer
 * by recv peer (-1 none).
 */
class PairingRegistry
{
  public:
    explicit PairingRegistry(int num_ranks) : numRanks_(num_ranks) {}

    /** Tests whether pairing (sendPeer, recvPeer) fits at (rank, ch). */
    bool
    compatible(Rank rank, int channel, Rank send_peer,
               Rank recv_peer) const
    {
        size_t slot = slotOf(rank, channel);
        if (slot >= peers_.size() || peers_[slot].empty())
            return true;
        const std::vector<Rank> &peers = peers_[slot];
        Rank paired_recv = peers[send_peer];
        Rank paired_send = peers[numRanks_ + recv_peer];
        return (paired_recv < 0 || paired_recv == recv_peer) &&
            (paired_send < 0 || paired_send == send_peer);
    }

    void
    insert(Rank rank, int channel, Rank send_peer, Rank recv_peer)
    {
        size_t slot = slotOf(rank, channel);
        if (slot >= peers_.size())
            peers_.resize(slot + 1);
        std::vector<Rank> &peers = peers_[slot];
        if (peers.empty())
            peers.assign(2 * size_t(numRanks_), -1);
        peers[send_peer] = recv_peer;
        peers[numRanks_ + recv_peer] = send_peer;
    }

  private:
    size_t
    slotOf(Rank rank, int channel) const
    {
        return size_t(channel) * numRanks_ + rank;
    }

    int numRanks_;
    std::vector<std::vector<Rank>> peers_;
};

/** All per-chain facts needed to pick its channel. */
struct Chain
{
    /** Member edges, by dense receiving node, ascending. */
    int begin = 0, end = 0;
    /** Deduplicated op ids, a range of the flat op list. */
    int opBegin = 0, opEnd = 0;
    int directive = -1;
    int splitIdx = 0;
    int splitCount = 1;
};

/**
 * Channel assignment (paper §5.2, "Channel Assignment"). An edge is
 * identified by its receiving node; edges linked through a fused
 * instruction (which receives on one and sends on the next) form a
 * chain that must live on a single channel. Chains are paths along
 * commSucc, committed in order of their lowest receiving node id.
 * Fills view.channel for every communication node and returns the
 * channel count.
 */
int
assignChannels(const InstrGraph &graph, LiveView &view)
{
    int n = view.size();
    // Number chains by their lowest member. Comm edges run forward in
    // dense order, so members ascend along the path, and the first
    // unnumbered receiver met is a chain's first edge (whose sender
    // receives nothing): collect the path forward from it.
    std::vector<int> chain_of(n, -1);
    std::vector<Chain> chains;
    std::vector<int> members;
    int max_op_id = -1;
    for (int d = 0; d < n; d++) {
        max_op_id = std::max(max_op_id, view.opId[d]);
        if (view.commPred[d] < 0 || chain_of[d] >= 0)
            continue;
        Chain chain;
        chain.begin = static_cast<int>(members.size());
        for (int x = d; x >= 0; x = view.commSucc[x]) {
            chain_of[x] = static_cast<int>(chains.size());
            members.push_back(x);
        }
        chain.end = static_cast<int>(members.size());
        chains.push_back(chain);
    }

    // Chain facts, folded in ascending node order across all chains
    // so the first inconsistency found is the lowest-id one.
    for (int d = 0; d < n; d++) {
        if (chain_of[d] < 0)
            continue;
        Chain &chain = chains[chain_of[d]];
        if (d == members[chain.begin]) {
            chain.splitIdx = view.splitIdx[d];
            chain.splitCount = view.splitCount[d];
        }
        if (view.splitIdx[d] != chain.splitIdx ||
            view.splitCount[d] != chain.splitCount) {
            throw CompileError(
                "channel assignment: fused chain mixes parallelization "
                "instances");
        }
        for (int directive : { view.chanDirective[d],
                               view.chanDirective[view.commPred[d]] }) {
            if (directive < 0)
                continue;
            if (chain.directive >= 0 && chain.directive != directive) {
                throw CompileError(strprintf(
                    "conflicting channel directives %d and %d on one "
                    "fused chain", chain.directive, directive));
            }
            chain.directive = directive;
        }
    }
    // Each chain's distinct op ids; op_chain (indexed by opId + 1,
    // like op_last below) remembers the last chain that listed an op.
    std::vector<int> chain_ops;
    std::vector<int> op_chain(max_op_id + 2, -1);
    for (int c = 0; c < static_cast<int>(chains.size()); c++) {
        Chain &chain = chains[c];
        chain.opBegin = static_cast<int>(chain_ops.size());
        for (int i = chain.begin; i < chain.end; i++) {
            for (int d : { members[i], view.commPred[members[i]] }) {
                int &last = op_chain[view.opId[d] + 1];
                if (last != c) {
                    last = c;
                    chain_ops.push_back(view.opId[d]);
                }
            }
        }
        chain.opEnd = static_cast<int>(chain_ops.size());
    }

    PairingRegistry pairings(graph.numRanks());
    // Channels already used by some instance of an op: sibling
    // instances of a parallelized op must not share a channel. One
    // list per op, linked through the flat `used` array from its
    // newest entry op_last[opId + 1].
    struct UsedChannel
    {
        int channel;
        int prev;
    };
    std::vector<UsedChannel> used;
    std::vector<int> op_last(max_op_id + 2, -1);
    int num_channels = 0;

    auto conflicts = [&](const Chain &chain, int channel) {
        for (int i = chain.opBegin; i < chain.opEnd; i++) {
            for (int u = op_last[chain_ops[i] + 1]; u >= 0;
                 u = used[u].prev) {
                if (used[u].channel == channel)
                    return true;
            }
        }
        for (int i = chain.begin; i < chain.end; i++) {
            int d = members[i];
            // fused: forces pairing (sendPeer, recvPeer) at the node
            if (view.commSucc[d] >= 0 &&
                !pairings.compatible(view.rank[d], channel,
                                     view.sendPeer[d], view.recvPeer[d])) {
                return true;
            }
        }
        return false;
    };

    auto commit = [&](const Chain &chain, int channel) {
        // conflicts() already ruled the channel absent for every op.
        for (int i = chain.opBegin; i < chain.opEnd; i++) {
            int &last = op_last[chain_ops[i] + 1];
            used.push_back({ channel, last });
            last = static_cast<int>(used.size()) - 1;
        }
        for (int i = chain.begin; i < chain.end; i++) {
            int d = members[i];
            view.channel[d] = channel;
            view.channel[view.commPred[d]] = channel;
            if (view.commSucc[d] >= 0) {
                pairings.insert(view.rank[d], channel, view.sendPeer[d],
                                view.recvPeer[d]);
            }
        }
        num_channels = std::max(num_channels, channel + 1);
    };

    for (const Chain &chain : chains) {
        if (chain.directive >= 0) {
            int channel =
                chain.directive * chain.splitCount + chain.splitIdx;
            if (conflicts(chain, channel)) {
                throw CompileError(strprintf(
                    "channel directive %d (instance %d/%d -> channel %d) "
                    "conflicts with another fused chain",
                    chain.directive, chain.splitIdx, chain.splitCount,
                    channel));
            }
            commit(chain, channel);
            continue;
        }
        for (int base = 0;; base++) {
            int channel = base * chain.splitCount + chain.splitIdx;
            if (!conflicts(chain, channel)) {
                commit(chain, channel);
                break;
            }
            if (base > graph.numNodes()) {
                throw CompileError(
                    "channel assignment failed to converge");
            }
        }
    }
    return num_channels;
}

/** Key of a thread block before ids are assigned. */
struct TbKey
{
    int channel = 0;
    Rank sendPeer = -1;
    Rank recvPeer = -1;

    bool
    operator<(const TbKey &other) const
    {
        return std::tie(channel, sendPeer, recvPeer) <
            std::tie(other.channel, other.sendPeer, other.recvPeer);
    }
};

/** No thread block owns the connection. */
constexpr int kUnowned = -2;
/** Connection seen but its thread block not yet created. */
constexpr int kPending = -1;

/** Per-rank thread block construction (paper §5.2, step 2). */
struct RankTbs
{
    /** Thread block keys; a block's id is its index. */
    std::vector<TbKey> tbs;
    /** Connection ownership: (channel * numRanks + peer) -> tb. */
    std::vector<int> sendOwner;
    std::vector<int> recvOwner;
};

std::vector<RankTbs>
createThreadBlocks(const InstrGraph &graph, const LiveView &view,
                   int num_channels, const ScheduleOptions &options,
                   bool merge_ib_pairs)
{
    const Topology *topo = options.topology;
    // Should an unfused send to `peer` share a thread block with an
    // unfused receive? Intra-node pairs always share (one NCCL
    // channel serves both directions); IB pairs get their own blocks
    // unless SM pressure forces sharing.
    auto may_pair = [&](Rank rank, Rank peer) {
        if (merge_ib_pairs || topo == nullptr || peer < 0)
            return true;
        return topo->nodeOf(rank) == topo->nodeOf(peer);
    };
    int num_ranks = graph.numRanks();
    auto conn = [&](int channel, Rank peer) {
        return size_t(channel) * num_ranks + peer;
    };
    std::vector<RankTbs> ranks(num_ranks);
    for (RankTbs &rank : ranks) {
        rank.sendOwner.assign(size_t(num_channels) * num_ranks, kUnowned);
        rank.recvOwner.assign(size_t(num_channels) * num_ranks, kUnowned);
    }

    // Pass 1: fused instructions force (channel, sendPeer, recvPeer)
    // tuples. A tuple's first node claims both of its connections; a
    // later node of the same tuple finds both claimed by one block.
    // Two tuples that claim one connection are an error, reported for
    // the lowest such rank and, within it, the lowest channel. The
    // same scan notes the ranks with local work.
    std::vector<char> has_local(num_ranks, 0);
    std::pair<int, int> claimed_twice(num_ranks, 0);
    for (int d = 0; d < view.size(); d++) {
        Rank r = view.rank[d];
        if (!view.sends(d) && !view.receives(d))
            has_local[r] = 1;
        if (!view.sends(d) || !view.receives(d))
            continue;
        TbKey key{ view.channel[d], view.sendPeer[d], view.recvPeer[d] };
        std::vector<TbKey> &tbs = ranks[r].tbs;
        int &send_owner = ranks[r].sendOwner[conn(key.channel, key.sendPeer)];
        int &recv_owner = ranks[r].recvOwner[conn(key.channel, key.recvPeer)];
        if (send_owner == kUnowned && recv_owner == kUnowned) {
            send_owner = recv_owner = static_cast<int>(tbs.size());
            tbs.push_back(key);
        } else if (send_owner != recv_owner) {
            claimed_twice = std::min(claimed_twice, { r, key.channel });
        }
    }
    if (claimed_twice.first < num_ranks) {
        throw CompileError(strprintf(
            "rank %d channel %d: connection claimed by two thread blocks",
            claimed_twice.first, claimed_twice.second));
    }

    // Pass 2: unowned plain connections, paired send+recv per channel
    // where possible to conserve thread blocks. Collected as flat
    // (channel, peer) lists per rank; sorting them groups by channel
    // with peers ascending.
    std::vector<std::vector<std::pair<int, Rank>>> loose_sends(num_ranks);
    std::vector<std::vector<std::pair<int, Rank>>> loose_recvs(num_ranks);
    for (int d = 0; d < view.size(); d++) {
        Rank r = view.rank[d];
        int channel = view.channel[d];
        if (view.sends(d)) {
            int &owner = ranks[r].sendOwner[conn(channel, view.sendPeer[d])];
            if (owner == kUnowned) {
                loose_sends[r].push_back({ channel, view.sendPeer[d] });
                owner = kPending;
            }
        }
        if (view.receives(d)) {
            int &owner = ranks[r].recvOwner[conn(channel, view.recvPeer[d])];
            if (owner == kUnowned) {
                loose_recvs[r].push_back({ channel, view.recvPeer[d] });
                owner = kPending;
            }
        }
    }
    for (int r = 0; r < num_ranks; r++) {
        std::vector<std::pair<int, Rank>> &sends = loose_sends[r];
        std::vector<std::pair<int, Rank>> &recvs = loose_recvs[r];
        std::sort(sends.begin(), sends.end());
        std::sort(recvs.begin(), recvs.end());
        for (size_t i = 0; i < sends.size();) {
            int channel = sends[i].first;
            // Receive peers still loose on this channel, ascending.
            std::vector<Rank> rpeers;
            auto lo = std::lower_bound(
                recvs.begin(), recvs.end(),
                std::make_pair(channel, std::numeric_limits<Rank>::min()));
            for (auto it = lo; it != recvs.end() && it->first == channel;
                 ++it) {
                rpeers.push_back(it->second);
            }
            // Prefer symmetric pairing: send to p with recv from p.
            for (; i < sends.size() && sends[i].first == channel; i++) {
                Rank send_peer = sends[i].second;
                Rank recv_peer = -1;
                if (may_pair(r, send_peer)) {
                    auto same = std::find(rpeers.begin(), rpeers.end(),
                                          send_peer);
                    if (same != rpeers.end()) {
                        recv_peer = *same;
                        rpeers.erase(same);
                    } else {
                        auto other = std::find_if(
                            rpeers.begin(), rpeers.end(),
                            [&](Rank q) { return may_pair(r, q); });
                        if (other != rpeers.end()) {
                            recv_peer = *other;
                            rpeers.erase(other);
                        }
                    }
                }
                int idx = static_cast<int>(ranks[r].tbs.size());
                ranks[r].sendOwner[conn(channel, send_peer)] = idx;
                if (recv_peer >= 0)
                    ranks[r].recvOwner[conn(channel, recv_peer)] = idx;
                ranks[r].tbs.push_back({ channel, send_peer, recv_peer });
            }
        }
        for (const auto &[channel, recv_peer] : recvs) {
            int &owner = ranks[r].recvOwner[conn(channel, recv_peer)];
            if (owner != kPending)
                continue; // already paired above
            owner = static_cast<int>(ranks[r].tbs.size());
            ranks[r].tbs.push_back({ channel, -1, recv_peer });
        }
        // A rank with only local work still needs one thread block.
        if (ranks[r].tbs.empty() && has_local[r])
            ranks[r].tbs.push_back({ 0, -1, -1 });
        // Deterministic ids: sort by (channel, sendPeer, recvPeer).
        // Keys are distinct (each owns a connection or is the lone
        // local block), so the owners are re-pointed by key.
        std::sort(ranks[r].tbs.begin(), ranks[r].tbs.end());
        for (int id = 0; id < static_cast<int>(ranks[r].tbs.size()); id++) {
            const TbKey &key = ranks[r].tbs[id];
            if (key.sendPeer >= 0)
                ranks[r].sendOwner[conn(key.channel, key.sendPeer)] = id;
            if (key.recvPeer >= 0)
                ranks[r].recvOwner[conn(key.channel, key.recvPeer)] = id;
        }
    }
    return ranks;
}

/**
 * Whether the gated sweep below would pop exactly @p by_rank. Along
 * by_rank every node is ready (it is topological, see planGates) and
 * every send is next in line on its gate, whose turn order is by_rank's
 * own. So the sweep departs from by_rank only where a receive comes
 * before the receive of an earlier send on its connection (a receive
 * gate follows the order of the sends, not of the receives), or where a
 * send finds all FIFO slots of its connection full. One pass looks for
 * either; when neither happens the sweep needs no gates, no heap and no
 * successor walk. @p conn_tb holds each communication node's global
 * thread block.
 */
bool
gatesKeepOrder(const LiveView &view, const std::vector<int> &by_rank,
               const std::vector<int> &conn_tb, int num_conns, int slots)
{
    // Per connection, the sends and receives taken so far; a send's
    // number on its connection is its receive's turn.
    std::vector<int> sent(num_conns, 0), received(num_conns, 0);
    std::vector<int> turn(view.size(), -1);
    for (int d : by_rank) {
        if (view.sends(d)) {
            int conn = conn_tb[d];
            if (sent[conn] - received[conn] >= slots)
                return false;
            turn[d] = sent[conn]++;
        }
        if (view.receives(d)) {
            int send = view.commPred[d];
            if (turn[send] != received[conn_tb[send]]++)
                return false;
        }
    }
    return true;
}

/**
 * FIFO gate and slot-accounting plan for the scheduling sweep,
 * indexed by dense node. Every connection is owned by exactly one
 * sending and one receiving thread block, and a block has at most one
 * send and one recv peer, so global thread block t's send connection
 * is gate 2t and its recv connection gate 2t+1; the connection's
 * outstanding-send count is keyed by its sending block t.
 */
struct GatePlan
{
    /** Per node: connection (sending block) of its send/recv half, -1
     *  none. The send half takes turns on gate 2 * sendConn. */
    std::vector<int> sendConn, recvConn;
    /** Per node: gate its recv half takes turns on (-1 none). */
    std::vector<int> recvGate;
    /** Gate g's required order of dense nodes, as CSR:
     *  gateNodes[gateBegin[g] .. gateBegin[g + 1]). */
    std::vector<int> gateBegin, gateNodes;
    int numConns = 0;
};

/**
 * Builds the gate plan from the unconstrained priority order. It
 * fixes, for every connection, the order in which sends (and
 * therefore their matched FIFO receives, paper §6.1) will happen.
 * Depth strictly increases along every edge and is the primary key,
 * so that order is itself topological: an ungated sweep would pop
 * exactly prio.byRank. @p conn_tb holds each communication node's
 * global thread block.
 */
GatePlan
planGates(const LiveView &view, const Priority &prio,
          const std::vector<int> &conn_tb, int num_conns)
{
    int n = view.size();
    GatePlan plan;
    plan.numConns = num_conns;
    plan.sendConn.assign(n, -1);
    plan.recvConn.assign(n, -1);
    plan.recvGate.assign(n, -1);
    plan.gateBegin.assign(2 * size_t(num_conns) + 1, 0);
    for (int d = 0; d < n; d++) {
        if (!view.sends(d))
            continue;
        int recv = view.commSucc[d];
        plan.sendConn[d] = conn_tb[d];
        plan.recvConn[recv] = conn_tb[d];
        plan.recvGate[recv] = 2 * conn_tb[recv] + 1;
        plan.gateBegin[2 * conn_tb[d] + 1]++;
        plan.gateBegin[plan.recvGate[recv] + 1]++;
    }
    for (size_t g = 0; g + 1 < plan.gateBegin.size(); g++)
        plan.gateBegin[g + 1] += plan.gateBegin[g];
    plan.gateNodes.resize(plan.gateBegin.back());
    std::vector<int> fill(plan.gateBegin.begin(), plan.gateBegin.end() - 1);
    for (int d : prio.byRank) {
        if (!view.sends(d))
            continue;
        int recv = view.commSucc[d];
        plan.gateNodes[fill[2 * plan.sendConn[d]]++] = d;
        plan.gateNodes[fill[plan.recvGate[recv]]++] = recv;
    }
    return plan;
}

/**
 * The FIFO-gated, slot-accounted sweep over the live view in priority
 * order (paper §5.2 with the §6.1 FIFO rules). A node with a gate
 * waits for its turn in that gate's list. Returns the emitted order;
 * it is shorter than the view when the gates wedge.
 */
std::vector<int>
topoSweep(const LiveView &view, const Priority &prio, const GatePlan &plan,
          int slots)
{
    int n = view.size();
    std::vector<int> remaining = view.indegree;
    std::priority_queue<int, std::vector<int>, std::greater<int>> heap;
    for (int d = 0; d < n; d++) {
        if (remaining[d] == 0)
            heap.push(prio.rankOf[d]);
    }

    // Per-gate progress, as a position in gateNodes; a node out of turn
    // parks on the gate that blocked it (it can wait on at most one at
    // a time) and is woken when that gate reaches it.
    std::vector<int> gate_pos(plan.gateBegin.begin(), plan.gateBegin.end() - 1);
    std::vector<int> parked_gate(n, -1);

    // Slot accounting (paper §6.1: the compiler must not emit
    // schedules with more than s outstanding sends). The emitted
    // order acts as a witness execution: a send is gated until fewer
    // than `slots` of its connection's sends are unreceived at this
    // point of the order, so the runtime can always follow the
    // schedule without wedging on FIFO backpressure. Senders waiting
    // for a slot form one intrusive list per connection.
    std::vector<int> outstanding(plan.numConns, 0);
    std::vector<int> slot_head(plan.numConns, -1);
    std::vector<int> slot_next(n, -1);

    std::vector<int> order;
    order.reserve(n);
    while (!heap.empty()) {
        int d = prio.byRank[heap.top()];
        heap.pop();
        int send_conn = plan.sendConn[d];
        int gates[2] = { send_conn >= 0 ? 2 * send_conn : -1,
                         plan.recvGate[d] };

        // FIFO gate: the node must be next in line on each of its
        // connections (send side checked first).
        bool gated = false;
        for (int g : gates) {
            if (g >= 0 && gate_pos[g] < plan.gateBegin[g + 1] &&
                plan.gateNodes[gate_pos[g]] != d) {
                parked_gate[d] = g;
                gated = true;
                break;
            }
        }
        if (gated)
            continue;

        // Slot gate: sending with all FIFO slots full would wedge.
        if (send_conn >= 0 && outstanding[send_conn] >= slots) {
            slot_next[d] = slot_head[send_conn];
            slot_head[send_conn] = d;
            continue;
        }
        if (send_conn >= 0)
            outstanding[send_conn]++;
        int recv_conn = plan.recvConn[d];
        if (recv_conn >= 0) {
            outstanding[recv_conn]--;
            // Wake every blocked sender; the heap re-ranks them.
            for (int w = slot_head[recv_conn]; w >= 0; w = slot_next[w])
                heap.push(prio.rankOf[w]);
            slot_head[recv_conn] = -1;
        }

        for (int g : gates) {
            if (g < 0)
                continue;
            int pos = ++gate_pos[g];
            if (pos < plan.gateBegin[g + 1]) {
                int next = plan.gateNodes[pos];
                if (parked_gate[next] == g) {
                    parked_gate[next] = -1;
                    heap.push(prio.rankOf[next]);
                }
            }
        }

        order.push_back(d);
        forEachSucc(view, d, [&](int succ) {
            if (--remaining[succ] == 0)
                heap.push(prio.rankOf[succ]);
        });
    }
    return order;
}

/**
 * The error for a gated sweep that ordered only @p ordered of the
 * view's nodes at @p slots. Re-runs the sweep at each larger slot
 * count up to the runtime's FIFO depth (kFifoSlotsPerConnection, the
 * default of CompileOptions::verifySlots) and names the smallest that
 * orders every node, so a caller learns what slot count the program
 * needs. Runs only on this error path.
 */
CompileError
sweepFailure(const LiveView &view, const Priority &prio,
             const GatePlan &plan, int slots, size_t ordered)
{
    int n = view.size();
    for (int more = slots + 1; more <= kFifoSlotsPerConnection; more++) {
        if (static_cast<int>(topoSweep(view, prio, plan, more).size()) ==
            n) {
            return CompileError(strprintf(
                "scheduler: only %zu of %d instructions could be "
                "ordered at %d FIFO slot%s; the program needs at least "
                "%d slots", ordered, n, slots, slots == 1 ? "" : "s",
                more));
        }
    }
    return CompileError(strprintf(
        "scheduler: only %zu of %d instructions could be ordered; "
        "the program needs explicit channel directives to avoid a "
        "FIFO ordering conflict", ordered, n));
}

/**
 * Greedy priority topological assignment (paper §5.2, steps 1-4).
 * @p conn_tb holds each communication node's global thread block
 * (tb_base of its rank + local id; -1 for local nodes). Fills each
 * node's thread block id and step, and each global thread block's
 * step count.
 */
void
assignInstructions(const LiveView &view, const std::vector<int> &tb_base,
                   const std::vector<int> &conn_tb, int slots,
                   std::vector<int> &tb_of, std::vector<int> &step_of,
                   std::vector<int> &num_steps)
{
    int n = view.size();
    int num_tbs = tb_base.back();
    // The priority order, swept again honoring FIFO turns on both ends
    // of every connection so the k-th receive always pairs with the
    // k-th send, and slot accounting. Usually that sweep pops the
    // priority order unchanged, which one pass can tell.
    std::vector<int> order = rankByPriority(view);
    if (!gatesKeepOrder(view, order, conn_tb, num_tbs, slots)) {
        Priority prio;
        prio.byRank = std::move(order);
        prio.rankOf.resize(n);
        for (int r = 0; r < n; r++)
            prio.rankOf[prio.byRank[r]] = r;
        GatePlan plan = planGates(view, prio, conn_tb, num_tbs);
        order = topoSweep(view, prio, plan, slots);
        if (static_cast<int>(order.size()) != n)
            throw sweepFailure(view, prio, plan, slots, order.size());
    }

    tb_of.assign(n, -1);
    step_of.assign(n, -1);
    num_steps.assign(num_tbs, 0);
    // Per global thread block: the order position of its latest step.
    std::vector<int> last_assigned(num_tbs, -1);
    for (int i = 0; i < n; i++) {
        int d = order[i];
        Rank r = view.rank[d];
        int tb = conn_tb[d];
        if (tb < 0) {
            // Local instruction: any thread block on the rank; pick
            // the one whose latest assigned instruction is earliest
            // (paper §5.2, step 4).
            for (int t = tb_base[r]; t < tb_base[r + 1]; t++) {
                if (tb < 0 || last_assigned[t] < last_assigned[tb])
                    tb = t;
            }
            if (tb < 0)
                throw CompileError("scheduler: rank has no thread block");
        }
        tb_of[d] = tb - tb_base[r];
        step_of[d] = num_steps[tb]++;
        last_assigned[tb] = i;
    }
}

/**
 * Cross thread block dependency insertion (paper §5.2): every
 * processing edge between two thread blocks of one rank. Returns the
 * candidate deps per dense node as CSR (merged per thread block at
 * emission) and marks each node some other block waits on.
 */
void
insertCrossTbDeps(const LiveView &view, const std::vector<int> &tb_of,
                  const std::vector<int> &step_of,
                  std::vector<int> &dep_begin, std::vector<IrDep> &deps,
                  std::vector<char> &has_dep)
{
    int n = view.size();
    auto crosses = [&](int from, int to) {
        // same-block order is implicit
        return view.rank[from] == view.rank[to] && tb_of[from] != tb_of[to];
    };
    dep_begin.assign(n + 1, 0);
    has_dep.assign(n, 0);
    for (int d = 0; d < n; d++) {
        for (int i = view.succBegin[d]; i < view.succBegin[d + 1]; i++) {
            int to = view.succs[i];
            if (crosses(d, to)) {
                dep_begin[to + 1]++;
                has_dep[d] = 1;
            }
        }
    }
    for (int d = 0; d < n; d++)
        dep_begin[d + 1] += dep_begin[d];
    deps.resize(dep_begin[n]);
    std::vector<int> fill(dep_begin.begin(), dep_begin.end() - 1);
    for (int d = 0; d < n; d++) {
        for (int i = view.succBegin[d]; i < view.succBegin[d + 1]; i++) {
            int to = view.succs[i];
            if (crosses(d, to))
                deps[fill[to]++] = IrDep{ tb_of[d], step_of[d] };
        }
    }
}

} // namespace

IrProgram
scheduleProgram(const Program &program, InstrGraph &graph,
                const ScheduleOptions &options)
{
    LiveView view = buildLiveView(graph);
    int num_channels = assignChannels(graph, view);
    auto over_limit = [&](const std::vector<RankTbs> &ranks) {
        for (const RankTbs &rank : ranks) {
            if (static_cast<int>(rank.tbs.size()) >
                options.maxThreadBlocks) {
                return true;
            }
        }
        return false;
    };
    std::vector<RankTbs> ranks = createThreadBlocks(
        graph, view, num_channels, options, /*merge_ib_pairs=*/false);
    if (over_limit(ranks)) {
        // SM pressure: share thread blocks between IB send and
        // receive connections, like NCCL folding P2P work onto a
        // limited channel count.
        ranks = createThreadBlocks(graph, view, num_channels, options,
                                   /*merge_ib_pairs=*/true);
    }
    int num_ranks = graph.numRanks();
    std::vector<int> tb_base(num_ranks + 1, 0);
    for (int r = 0; r < num_ranks; r++) {
        if (static_cast<int>(ranks[r].tbs.size()) >
            options.maxThreadBlocks) {
            throw CompileError(strprintf(
                "rank %d needs %zu thread blocks, exceeding the "
                "cooperative launch limit of %d", r, ranks[r].tbs.size(),
                options.maxThreadBlocks));
        }
        tb_base[r + 1] = tb_base[r] + static_cast<int>(ranks[r].tbs.size());
    }

    // Each communication node's thread block: the owner of its send
    // connection, else of its recv connection.
    std::vector<int> conn_tb(view.size(), -1);
    for (int d = 0; d < view.size(); d++) {
        if (!view.sends(d) && !view.receives(d))
            continue;
        Rank r = view.rank[d];
        size_t slot = size_t(view.channel[d]) * num_ranks;
        int tb = view.sends(d) ? ranks[r].sendOwner[slot + view.sendPeer[d]]
                               : ranks[r].recvOwner[slot + view.recvPeer[d]];
        if (tb < 0) {
            throw CompileError(strprintf(
                "scheduler: unowned %s connection",
                view.sends(d) ? "send" : "recv"));
        }
        conn_tb[d] = tb_base[r] + tb;
    }
    for (RankTbs &rank : ranks) {
        rank.sendOwner = {};
        rank.recvOwner = {};
    }

    std::vector<int> tb_of, step_of, num_steps;
    assignInstructions(view, tb_base, conn_tb, std::max(1, options.slots),
                       tb_of, step_of, num_steps);

    std::vector<int> dep_begin;
    std::vector<IrDep> deps;
    std::vector<char> has_dep;
    insertCrossTbDeps(view, tb_of, step_of, dep_begin, deps, has_dep);

    // Emission runs in body order — flat block, then step — so the
    // builder appends each instruction and its dependencies once.
    std::vector<int> step_base(tb_base.back() + 1, 0);
    for (int t = 0; t < tb_base.back(); t++)
        step_base[t + 1] = step_base[t] + num_steps[t];
    std::vector<int> node_at(view.size());
    for (int d = 0; d < view.size(); d++)
        node_at[step_base[tb_base[view.rank[d]] + tb_of[d]] + step_of[d]] = d;

    const Collective &coll = program.collective();
    IrProgram ir;
    ir.name = program.options().name;
    ir.collective = coll.name();
    ir.numRanks = program.numRanks();
    ir.inPlace = coll.inPlace();
    ir.protocol = program.options().protocol;
    ir.reduceOp = program.options().reduceOp;
    ir.outputScale = coll.outputScale();
    IrBuilder body;
    body.reserve(num_ranks, tb_base.back(), view.size(),
                 static_cast<int>(deps.size()));
    for (int r = 0; r < num_ranks; r++) {
        body.addGpu(r, coll.inputChunkCount(r), coll.outputChunkCount(r),
                    program.scratchChunkCount(r));
    }
    for (int t = 0, r = 0; t < tb_base.back(); t++) {
        while (t >= tb_base[r + 1])
            r++;
        const TbKey &key = ranks[r].tbs[t - tb_base[r]];
        body.addThreadBlock(r, t - tb_base[r], key.sendPeer, key.recvPeer,
                            key.channel);
        for (int slot = step_base[t]; slot < step_base[t + 1]; slot++) {
            int d = node_at[slot];
            const InstrNode &node = graph.node(view.ids[d]);
            const BufferSlice &src =
                irOpReadsSrc(node.op) ? node.src : node.dst;
            const BufferSlice &dst = irOpWritesDst(node.op) ? node.dst : src;
            IrInstruction instr;
            instr.op = node.op;
            instr.srcBuf = src.buffer;
            instr.srcOff = src.index;
            instr.dstBuf = dst.buffer;
            instr.dstOff = dst.index;
            instr.count = irOpReadsSrc(node.op) ? src.count : dst.count;
            instr.splitIdx = node.splitIdx;
            instr.splitCount = node.splitCount;
            instr.hasDep = has_dep[d];
            // Keep only the latest step per predecessor thread block,
            // ordered by thread block.
            auto first = deps.begin() + dep_begin[d];
            auto last = deps.begin() + dep_begin[d + 1];
            if (last - first > 1) {
                std::sort(first, last, [](const IrDep &a, const IrDep &b) {
                    return a.tb != b.tb ? a.tb < b.tb : a.step > b.step;
                });
                last = std::unique(first, last,
                                   [](const IrDep &a, const IrDep &b) {
                                       return a.tb == b.tb;
                                   });
            }
            body.addStep(instr, std::span<const IrDep>(first, last));
        }
    }
    ir.gpus = body.build(num_ranks, ir.inPlace);
    return ir;
}

} // namespace mscclang
