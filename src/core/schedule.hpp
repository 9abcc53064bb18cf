// One schedule per plan (the paper's unified view, §III).
//
// Every PGEMM algorithm in this repository runs the same sequence:
// redistribute, replicate (all-gather or broadcast), 2-D shifts or panel
// broadcasts with local GEMMs, reduce-scatter, redistribute back. A plan
// emits that sequence for one rank as a list of Ops, built in O(that rank's
// ops). Two consumers walk the same list:
//
//   * run_schedule (below) executes it on a simmpi communicator with real
//     buffers — every algorithm's executor is a thin wrapper around it;
//   * costmodel::predict replays all P lists through a threadless
//     discrete-event loop that applies simmpi's clock rules, so what runs
//     and what is priced are one thing.
//
// Buffers and communicators are named by small rank-local slots. Buffer
// slots kUserA/kUserB/kUserC are the caller's arrays; every other buffer is
// allocated and freed explicitly, at the program points that fix per-rank
// peak memory. Communicator slot kWorld is the communicator the schedule
// runs on; split ops fill the others.
// An executed schedule is compiled (built and packed into one arena) once:
// per one-shot run, or per plan entry of the persistent engine. The arena
// ends in a tail for a redistribution's two staging slots, sized when the
// layouts bind; it comes from one memory block per owner (simmpi/pool.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "layout/block_layout.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/pool.hpp"

namespace ca3dmm {

/// Layouts a redistribute op converts between. Whoever runs or prices a
/// schedule binds them to concrete BlockLayouts.
enum LayoutId : std::uint8_t {
  kUserLayoutA,
  kUserLayoutB,
  kUserLayoutC,
  kNativeA,
  kNativeB,
  kNativeC,
  kCyclicA,  ///< CTF's internal remap layouts
  kCyclicB,
  kLayoutCount
};

/// Buffer slots, named by the role they play in the algorithms.
enum Slot : std::uint8_t {
  kUserA,  ///< caller's A (read only)
  kUserB,  ///< caller's B (read only)
  kUserC,  ///< caller's C (written)
  kATmp,   ///< CTF's remapped operands
  kBTmp,
  kAInit,  ///< operands in the library-native layout
  kBInit,
  kABlk,  ///< replicated operands
  kBBlk,
  kGathered,
  kCPartial,
  kPacked,
  kCResult,
  kACur,  ///< 2-D engine shift and panel buffers
  kBCur,
  kANxt,
  kBNxt,
  kStage,
  kAggA,
  kAggB,
  kRedistSend,  ///< a redistribution's staging, in the arena's tail
  kRedistRecv,
  kSlotCount
};

/// Communicator slots.
enum CommSlot : std::uint8_t {
  kWorld,
  kActive,  ///< the plan's working ranks
  kGrid,    ///< 2-D engine grid (CA3DMM Cannon group, 2.5D layer)
  kRepl,    ///< replication / depth group
  kReplB,   ///< second replication group (COSMA replicates A and B)
  kReduce,  ///< partial-C reduction group
  kRow,     ///< SUMMA panel broadcasts
  kCol,
  kCommCount
};

/// Ops run in the caller's current phase unless they name one.
inline constexpr simmpi::Phase kInheritPhase = simmpi::Phase::kCount;

enum class OpKind : std::uint8_t {
  kAlloc,          ///< buf.elems elements at arena offset buf.off into
                   ///< buf.slot, tracked; zero-filled only if buf.zero
  kFree,           ///< release buf.slot
  kRedistribute,   ///< layout pair over kWorld (staging slots kRedistSend
                   ///< and kRedistRecv + alltoallv, or a local copy when
                   ///< the pair is an identity)
  kSplit,          ///< communicator split (color = group key)
  kAllgatherv,     ///< counts in bytes
  kReduceScatter,  ///< counts in elements
  kBcast,
  kExchange,  ///< sendrecv: Cannon skews and shifts
  kScan,      ///< ABFT encode/decode: one local-work scan of the payload
  kCompute,   ///< local GEMM
  kCopy,      ///< data only: packing and staging memcpys
  kMarker,    ///< data only: a trace marker
};

struct Op {
  struct Buf {
    std::uint8_t slot;
    bool zero;  ///< a GEMM accumulator: must start at zero
    i64 elems;
    i64 off = 0;  ///< bytes into the arena (pack)
  };
  struct Redist {
    LayoutId from, to;
    std::uint8_t src, dst;
    bool transpose;
  };
  struct Split {
    std::uint8_t parent, child;
    /// A per-plan split the persistent engine caches (PlanComms): taken
    /// from the cache when one is bound, performed in place otherwise.
    bool cacheable;
    int color, key;
  };
  struct Coll {
    std::uint8_t comm, src, dst;
    bool use_cfg;      ///< apply Schedule::coll() to the comm first
    bool custom_tree;  ///< reduce-scatter by an application-level tree
    int root;          ///< bcast
    int counts, ncounts;  ///< allgatherv/reduce-scatter: Schedule::counts
    i64 elems;            ///< bcast
  };
  struct Exchange {
    std::uint8_t comm, src, dst;
    int to, from, tag;  ///< group ranks
    i64 send_elems, recv_elems;
    i64 src_off, dst_off;  ///< elements into src and dst
  };
  struct Scan {
    std::uint8_t slot, comm;
    const char* decode;  ///< null = encode; else the message a decode checks
    i64 payload;
  };
  struct Compute {
    std::uint8_t a, b, c;
    /// C (m x n, ld n) += op(A) * B (k x n, ld n), where A is stored
    /// m x k (ld lda), or k x m (ld lda) if trans_a
    bool trans_a;
    i64 m, n, k, lda;
    double flops, bytes;  ///< what the clock is charged
  };
  struct Copy {
    std::uint8_t src, dst;
    bool transpose;  ///< element (r, c) lands at dst[dst_off + c*dst_ld + r]
    i64 rows, cols, src_off, src_ld, dst_off, dst_ld;  ///< elements
  };
  struct Marker {
    const char* name;
    double bytes;
  };

  OpKind kind = OpKind::kAlloc;
  /// Comm ops: add this op's last_op_cost (which includes any wait) to the
  /// rank's overlap budget. Compute: hide behind the budget, then reset it.
  bool budget = false;
  simmpi::Phase phase = kInheritPhase;
  union {
    Buf buf;
    Redist redist;
    Split split;
    Coll coll;
    Exchange exchange;
    Scan scan;
    Compute compute;
    Copy copy;
    Marker marker;
  };

  Op() : buf{} {}
};

/// One rank's op list plus the data its ops reference. Built in program
/// order; the builders are inline because the cost model builds P lists.
class Schedule {
 public:
  /// `esize` is the element size byte-valued fields are computed with;
  /// `with_data` = false drops the data-only copy and marker ops (the cost
  /// model never reads them).
  explicit Schedule(i64 esize, bool with_data = true)
      : esize_(esize), with_data_(with_data) {
    ops_.reserve(64);  // one rank's list, typically
  }

  /// Starts another rank's list behind the current one: the cost model
  /// builds all P lists into one schedule, back to back.
  void next_rank() {
    live_ = 0;
    phase_ = kInheritPhase;
  }
  /// Empties the schedule for reuse, keeping its storage.
  void reset(i64 esize) {
    esize_ = esize;
    arena_bytes_ = 0;
    ops_.clear();
    counts_.clear();
    coll_.reset();
    next_rank();
  }

  i64 esize() const { return esize_; }
  /// Gives each alloc op a 64-byte-aligned arena offset, first fit among
  /// the slots live there. One rank's list; counts a schedule build.
  void pack();
  i64 arena_bytes() const { return arena_bytes_; }  ///< >= tracked peak
  const std::vector<Op>& ops() const { return ops_; }
  /// The counts of an allgatherv/reduce-scatter op.
  std::span<const i64> counts(const Op& op) const {
    return {counts_.data() + op.coll.counts,
            static_cast<size_t>(op.coll.ncounts)};
  }
  const std::optional<simmpi::CollectiveConfig>& coll() const {
    return coll_;
  }
  void set_coll(const std::optional<simmpi::CollectiveConfig>& c) {
    coll_ = c;
  }
  void set_phase(simmpi::Phase p) { phase_ = p; }

  /// Zero-size allocations are skipped (they track nothing).
  /// Only a slot read before it is fully written asks for `zero`: the GEMM
  /// accumulators.
  void alloc(int slot, i64 elems, bool zero = false) {
    CA_ASSERT(slot > kUserC && slot < kSlotCount && !(live_ >> slot & 1u));
    if (elems <= 0) return;
    live_ |= 1u << slot;
    push(OpKind::kAlloc).buf = Op::Buf{u8(slot), zero, elems};
  }
  /// Releases a live slot; a dead slot is a no-op.
  void free(int slot) {
    if (!(live_ >> slot & 1u)) return;
    live_ &= ~(1u << slot);
    push(OpKind::kFree).buf = Op::Buf{u8(slot), false, 0};
  }
  void redistribute(LayoutId from, int src, LayoutId to, int dst,
                    bool transpose) {
    push(OpKind::kRedistribute).redist =
        Op::Redist{from, to, u8(src), u8(dst), transpose};
  }
  void split(int parent, int child, int color, int key, bool cacheable) {
    push(OpKind::kSplit).split =
        Op::Split{u8(parent), u8(child), cacheable, color, key};
  }
  /// The collectives with per-member counts return them for the caller to
  /// fill in; the span is valid until the next collective is added.
  std::span<i64> allgatherv(int comm, int src, int dst, int members,
                            bool use_cfg) {
    return collective(OpKind::kAllgatherv, comm, src, dst, members, false,
                      use_cfg);
  }
  std::span<i64> reduce_scatter(int comm, int src, int dst, int members,
                                bool custom_tree, bool use_cfg) {
    return collective(OpKind::kReduceScatter, comm, src, dst, members,
                      custom_tree, use_cfg);
  }
  void bcast(int comm, int buf, i64 elems, int root, bool budget) {
    Op& op = push(OpKind::kBcast);
    op.budget = budget;
    op.coll = Op::Coll{u8(comm), u8(buf), u8(buf), false, false, root,
                       0,        0,       elems};
  }
  /// Sends send_elems from src + src_off, receives recv_elems into
  /// dst + dst_off.
  void exchange(int comm, int src, i64 send_elems, int to, int dst,
                i64 recv_elems, int from, int tag, bool budget,
                i64 src_off = 0, i64 dst_off = 0) {
    Op& op = push(OpKind::kExchange);
    op.budget = budget;
    op.exchange = Op::Exchange{u8(comm),  u8(src),    u8(dst),
                               to,        from,       tag,
                               send_elems, recv_elems, src_off,
                               dst_off};
  }
  /// ABFT scan of `payload` elements in `slot`: an encode (decode_what
  /// null) writes the checksum trailer, then charges the scan; a decode
  /// charges first, then verifies and corrects, naming `decode_what` and
  /// the rank in `comm` if the message is beyond repair.
  void scan(int slot, int comm, i64 payload, const char* decode_what) {
    push(OpKind::kScan).scan =
        Op::Scan{u8(slot), u8(comm), decode_what, payload};
  }
  void compute(int a, int b, int c, i64 m, i64 n, i64 k, i64 lda,
               double flops, double bytes, bool budget, bool trans_a = false) {
    Op& op = push(OpKind::kCompute);
    op.budget = budget;
    op.compute =
        Op::Compute{u8(a), u8(b), u8(c), trans_a, m, n, k, lda, flops, bytes};
  }
  /// rows x cols elements from src[src_off + r*src_ld] to
  /// dst[dst_off + r*dst_ld], one memcpy per row; with `transpose`, row r
  /// of the source becomes column r of the destination (dst ld dst_ld).
  void copy(int src, i64 src_off, i64 src_ld, int dst, i64 dst_off,
            i64 dst_ld, i64 rows, i64 cols, bool transpose = false) {
    if (!with_data_ || rows <= 0 || cols <= 0) return;
    if (!transpose && src_ld == cols && dst_ld == cols)  // one contiguous run
      cols *= std::exchange(rows, 1);
    push(OpKind::kCopy).copy =
        Op::Copy{u8(src), u8(dst), transpose, rows,   cols,
                 src_off, src_ld,  dst_off,   dst_ld};
  }
  void marker(const char* name, double bytes) {
    if (with_data_) push(OpKind::kMarker).marker = Op::Marker{name, bytes};
  }

 private:
  static std::uint8_t u8(int v) { return static_cast<std::uint8_t>(v); }
  Op& push(OpKind kind) {
    Op& op = ops_.emplace_back();
    op.kind = kind;
    op.phase = phase_;
    return op;
  }
  std::span<i64> collective(OpKind kind, int comm, int src, int dst, int n,
                            bool custom_tree, bool use_cfg) {
    const size_t at = counts_.size();
    push(kind).coll = Op::Coll{u8(comm), u8(src),        u8(dst),
                               use_cfg,  custom_tree,    0,
                               static_cast<int>(at), n,  0};
    counts_.resize(at + static_cast<size_t>(n));
    return {counts_.data() + at, static_cast<size_t>(n)};
  }

  i64 esize_;
  i64 arena_bytes_ = 0;
  bool with_data_;
  simmpi::Phase phase_ = kInheritPhase;
  std::uint32_t live_ = 0;  ///< owned slots currently allocated
  std::vector<Op> ops_;
  std::vector<i64> counts_;
  std::optional<simmpi::CollectiveConfig> coll_;
};

/// What a schedule runs against on the calling rank.
template <typename T>
struct ScheduleIo {
  const BlockLayout* layouts[kLayoutCount] = {};
  const T* a = nullptr;  ///< kUserA
  const T* b = nullptr;  ///< kUserB
  T* c = nullptr;        ///< kUserC
  /// Pre-split communicators by slot (PlanComms): a cacheable split into a
  /// bound slot takes it instead of splitting, and charges nothing.
  const simmpi::Comm* cached[kCommCount] = {};
  std::byte* arena = nullptr;
  i64 arena_bytes = 0;  ///< run_arena_bytes: packed slots + staging tail
};

/// Bytes the arena of a run of packed `s` on rank `me` needs once
/// `layouts` are bound: its packed slots, then a tail that holds the two
/// staging slots of its largest non-identity redistribution, sized from
/// the layouts' local sizes (the walk's totals for layouts that cover
/// their matrix exactly). A schedule of identity conversions has no tail.
i64 run_arena_bytes(const Schedule& s,
                    const BlockLayout* const (&layouts)[kLayoutCount], int me);

/// Executes packed `s` on the calling rank with `world` bound to kWorld.
/// Restores the caller's phase on return.
template <typename T>
void run_schedule(simmpi::Comm& world, const Schedule& s,
                  const ScheduleIo<T>& io);

/// Paper Alg. 1 step 4, every rank: allocates the native operand buffers
/// kAInit/kBInit (`a_elems`, `b_elems` elements) and redistributes A and B
/// into the plan's native layouts under kRedistribute. The operands come
/// from the caller's layouts, or from kCyclicA/B (slots kATmp/kBTmp) once
/// CTF's remap has staged them there (`from_cyclic`).
inline void redistribute_in(Schedule& s, i64 a_elems, i64 b_elems,
                            bool trans_a, bool trans_b,
                            bool from_cyclic = false) {
  s.alloc(kAInit, a_elems);
  s.alloc(kBInit, b_elems);
  s.set_phase(simmpi::Phase::kRedistribute);
  s.redistribute(from_cyclic ? kCyclicA : kUserLayoutA,
                 from_cyclic ? kATmp : kUserA, kNativeA, kAInit, trans_a);
  s.redistribute(from_cyclic ? kCyclicB : kUserLayoutB,
                 from_cyclic ? kBTmp : kUserB, kNativeB, kBInit, trans_b);
  s.set_phase(kInheritPhase);
}

/// Paper Alg. 1 step 8, every rank: redistributes the native C block in
/// `c_slot` to the caller's layout under kRedistribute.
inline void redistribute_out(Schedule& s, int c_slot) {
  s.set_phase(simmpi::Phase::kRedistribute);
  s.redistribute(kNativeC, c_slot, kUserLayoutC, kUserC, false);
  s.set_phase(kInheritPhase);
}

/// The calling rank's schedule under `plan`, built with the plan's
/// `build_schedule(plan, rank, anchor, trans_a, trans_b, Schedule&)` and
/// packed.
template <typename Plan>
Schedule compile(const Plan& plan, const simmpi::Comm& world, bool trans_a,
                 bool trans_b, i64 esize) {
  Schedule s(esize);
  build_schedule(plan, world.rank(), world.machine(), trans_a, trans_b, s);
  s.pack();
  return s;
}

/// The body of every algorithm's executor: validates the call, compiles
/// the calling rank's schedule (unless the caller passes a compiled
/// schedule `s` for (trans_a, trans_b)), binds the caller's operands and
/// `plan`'s native layouts (plus whatever `io` already holds), reserves
/// its arena and staging tail from `block` (by default the rank's own,
/// RankCtx::pool) and runs it.
///
/// Every check depends only on arguments MPI semantics require to be
/// identical on all ranks, or on this rank's own buffers, and runs before
/// any communication: a bad input raises the same ca3dmm::Error on every
/// rank collectively instead of diverging into a hang or a crash.
template <typename T, typename Plan>
void run_plan(simmpi::Comm& world, const Plan& plan, bool trans_a,
              bool trans_b, const BlockLayout& la, const T* a,
              const BlockLayout& lb, const T* b, const BlockLayout& lc, T* c,
              ScheduleIo<T> io = {}, const Schedule* s = nullptr,
              simmpi::BufferPool* block = nullptr) {
  CA_REQUIRE(world.valid(), "multiply needs a valid communicator");
  const int P = world.size();
  CA_REQUIRE(P == plan.nranks(), "plan is for %d ranks, comm has %d",
             plan.nranks(), P);
  const i64 m = plan.m(), n = plan.n(), k = plan.k();
  CA_REQUIRE(m > 0 && n > 0 && k > 0, "plan is empty (default-constructed?)");
  CA_REQUIRE(la.nranks() == P && lb.nranks() == P && lc.nranks() == P,
             "operand layouts must cover exactly the %d ranks of the "
             "communicator (got A:%d B:%d C:%d)",
             P, la.nranks(), lb.nranks(), lc.nranks());
  CA_REQUIRE(lc.rows() == m && lc.cols() == n,
             "C layout is %lld x %lld, plan computes %lld x %lld",
             static_cast<long long>(lc.rows()),
             static_cast<long long>(lc.cols()), static_cast<long long>(m),
             static_cast<long long>(n));
  CA_REQUIRE((trans_a ? la.cols() : la.rows()) == m &&
                 (trans_a ? la.rows() : la.cols()) == k,
             "A layout is %lld x %lld, plan needs op(A) = %lld x %lld",
             static_cast<long long>(la.rows()),
             static_cast<long long>(la.cols()), static_cast<long long>(m),
             static_cast<long long>(k));
  CA_REQUIRE((trans_b ? lb.cols() : lb.rows()) == k &&
                 (trans_b ? lb.rows() : lb.cols()) == n,
             "B layout is %lld x %lld, plan needs op(B) = %lld x %lld",
             static_cast<long long>(lb.rows()),
             static_cast<long long>(lb.cols()), static_cast<long long>(k),
             static_cast<long long>(n));
  const int me = world.rank();
  const BlockLayout* user[] = {&la, &lb, &lc};
  const bool given[] = {a != nullptr, b != nullptr, c != nullptr};
  for (int i = 0; i < 3; ++i)
    CA_REQUIRE(given[i] || user[i]->local_size(me) == 0,
               "rank %d: %c local buffer is null but the layout assigns it "
               "%lld elements",
               me, "ABC"[i], static_cast<long long>(user[i]->local_size(me)));
  std::optional<Schedule> own;
  if (!s) s = &own.emplace(compile(plan, world, trans_a, trans_b, sizeof(T)));
  const BlockLayout* bound[] = {&la, &lb, &lc, &plan.a_native(),
                                &plan.b_native(), &plan.c_native()};
  std::copy(std::begin(bound), std::end(bound), io.layouts);
  if constexpr (requires { plan.a_cyclic(trans_a); }) {  // CTF's remap
    io.layouts[kCyclicA] = &plan.a_cyclic(trans_a);
    io.layouts[kCyclicB] = &plan.b_cyclic(trans_b);
  }
  io.a = a;
  io.b = b;
  io.c = c;
  io.arena_bytes = run_arena_bytes(*s, io.layouts, me);
  io.arena = (block ? block : simmpi::current_ctx()->pool)
                 ->reserve(io.arena_bytes);
  run_schedule(world, *s, io);
}

}  // namespace ca3dmm
