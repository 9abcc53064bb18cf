// The simulated cluster's scheduler: ranks as stackful coroutines.
//
// A rank is a stackful fiber with its own small guard-paged stack,
// multiplexed over a worker pool of about hardware_concurrency OS threads,
// so thousands of ranks fit in one process. Runnable fibers are dispatched
// lowest virtual clock first, so the execution order tracks simulated time;
// the cluster's state transitions are order-independent by construction,
// which is what makes results, vtimes, and traces identical under any
// dispatch order — one worker or many (docs/SIMMPI.md documents the
// determinism contract).
//
// Blocking: a fiber parks on an intrusive WaitList owned by the state it
// waits for — a p2p channel slot in the destination rank's inbox, or a
// communicator's collective rendezvous — and releases that state's lock
// before it switches back to its worker's scheduler context. Parking is the
// only way anything waits in the cluster. A wake-up touches only the one
// list, so completing one rendezvous never touches the thousands of fibers
// parked on unrelated state.
//
// The parking handshake is the eventcount pattern: the fiber announces
// kParking under the list's lock, unlocks, and switches out; its worker
// completes kParking -> kParked after the switch. A waker that catches the
// fiber mid-switch CASes kParking -> kNotified instead, and the worker
// re-enqueues the fiber on seeing it — so a wake-up between "unlock" and
// "switched out" is never lost, and a fiber is never enqueued while a
// worker is still on its stack.
//
// Run queues: every worker owns a binary min-heap of (vclock, rank) under
// its own small lock. A wake-up pushes onto the waking worker's heap (a
// thread that is not a worker, i.e. the deadlock abort, pushes onto heap
// 0). A worker pops its own heap first and, when that is empty, steals the
// top of the others, starting at the next worker; with nothing anywhere it
// sleeps on the scheduler's one condvar. A push notifies only when a
// sleeper is registered: the seq_cst runnable count and the sleeper count
// are a Dekker pair, so either the pusher sees the sleeper or the sleeper
// sees the work. The state machine enqueues a fiber at most once, so with
// one worker the pop order equals the order of a sorted set of the same
// pairs.
//
// Workers never hold a rendezvous lock across a context switch, and a
// fiber's TLS view (current rank context, active buffer pool) is saved and
// restored around every switch, so fibers migrate freely between workers.
// The worker count is fixed for the scheduler's life. A fiber that blocks
// in the OS (a std::mutex, a join) keeps its worker and counts as running
// until it returns.
//
// The scheduler outlives a run: the owning Cluster keeps it, with every
// fiber's guard-paged stack, across Cluster::run calls, and each run
// re-spawns the fibers on the stacks already mapped (pages touched by one
// run stay committed for the next). Only the worker threads are per run.
//
// Deadlock: since only a running fiber can wake a parked one, "no fiber
// runnable or running, some fiber unfinished" is a state nothing can leave.
// One atomic count of runnable plus running fibers tracks it; the worker
// that drops it to 0 signals wait_finished_or_idle, so the scheduler
// reports the state the moment the last running fiber parks, with no timer
// involved.
#pragma once

#include <ucontext.h>

// Context-switch mechanism. On x86-64 Linux the scheduler uses a hand-rolled
// switch (save/restore the SysV callee-saved registers + FP control words,
// swap %rsp): glibc's swapcontext issues an rt_sigprocmask syscall on every
// switch, which on a mitigation-heavy kernel costs as much as the thread
// context switch fibers exist to avoid. Other architectures (and
// -DCA_SIMMPI_FORCE_UCONTEXT builds) fall back to ucontext.
#if defined(__x86_64__) && defined(__linux__) && \
    !defined(CA_SIMMPI_FORCE_UCONTEXT)
#define CA_SIMMPI_FAST_SWITCH 1
#endif

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "simmpi/host_profile.hpp"

namespace ca3dmm::simmpi {

struct RankCtx;
class BufferPool;

namespace detail {

class FiberScheduler;

/// One rank coroutine. All fields except `state` are owned by whichever
/// worker is (or last was) running the fiber; `state` is the cross-thread
/// handshake.
struct Fiber {
  enum State {
    kRunnable,  ///< on a worker's run queue
    kRunning,   ///< a worker is on this fiber's stack
    kParking,   ///< announced a park; not yet switched out
    kParked,    ///< fully switched out, waiting for a wake
    kNotified,  ///< woken while still kParking; worker re-enqueues
    kFinished,  ///< body returned; stack is dead
  };

#if defined(CA_SIMMPI_FAST_SWITCH)
  void* sp = nullptr;            ///< saved stack pointer while switched out
#else
  ucontext_t uctx{};
#endif
  char* stack_lo = nullptr;      ///< usable stack (above the guard page)
  std::size_t stack_bytes = 0;   ///< usable size
  char* map_base = nullptr;      ///< mmap base (guard page + stack)
  std::size_t map_bytes = 0;
  int rank = -1;
  std::atomic<int> state{kRunnable};
  /// Virtual clock at the last park; dispatch priority (lowest first).
  double vclock = 0;
  /// Next fiber on the WaitList this one is parked on; guarded by that
  /// list's lock.
  Fiber* wait_next = nullptr;
  std::function<void()> body;
  FiberScheduler* sched = nullptr;

  // Fiber-virtualized thread-locals, live while the fiber is switched out.
  // PoolScope and the rank body mutate real TLS; saving both around every
  // switch keeps one fiber's pool or rank context from leaking into
  // another fiber sharing the worker.
  RankCtx* tls_ctx = nullptr;
  BufferPool* tls_pool = nullptr;

  void* asan_fake_stack = nullptr;  ///< __sanitizer_*_switch_fiber handle
  void* tsan_fiber = nullptr;       ///< __tsan fiber handle
};

/// The fiber the calling OS thread is currently running, or nullptr when
/// called from a plain thread.
Fiber* current_fiber();

/// Parked fibers waiting for one piece of rendezvous state, linked through
/// Fiber::wait_next. Guarded by the lock of the state that owns it; a waker
/// empties the whole list (predicates are re-checked after every wake).
struct WaitList {
  Fiber* head = nullptr;
  bool empty() const { return head == nullptr; }
  void push(Fiber* f) {
    f->wait_next = head;
    head = f;
  }
};

/// The calling thread's HostProfile counters: its worker's block on a
/// worker thread (fiber code included), else a thread-local block of the
/// thread driving Cluster::run. Out of line so a fiber that migrated to
/// another worker never reuses a cached block.
[[gnu::noinline]] HostProfile& host_counters();

/// Locks `m`, counting the acquisition in the calling thread's counters
/// under `cls`, and as contended when try_lock fails first.
std::unique_lock<std::mutex> lock_counted(std::mutex& m, LockClass cls);

/// The calling thread's resource usage so far (getrusage RUSAGE_THREAD on
/// Linux, zeros elsewhere): minor page faults, voluntary context switches
/// and system CPU seconds.
struct ThreadUsage {
  i64 minor_faults = 0;
  i64 vol_switches = 0;
  double sys_cpu_s = 0;
  static ThreadUsage now();
};

/// Adds the calling thread's usage since `start` to `prof`'s rusage
/// columns.
void add_usage_since(HostProfile& prof, const ThreadUsage& start);

/// Worker pool, per-worker run queues and the fibers' stacks. Wait lists
/// live with the state they wait for (under its lock); the scheduler only
/// owns dispatch. One scheduler serves any number of runs: spawn every
/// rank, start(), wait_finished_or_idle() until it returns true, shutdown().
class FiberScheduler {
 public:
  /// `workers` = 0 picks min(hardware_concurrency, nranks). `stack_bytes`
  /// is the usable per-fiber stack (a guard page is added below it).
  FiberScheduler(int nranks, int workers, std::size_t stack_bytes);
  /// Unmaps every fiber stack. No run may be in flight.
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// True when this scheduler was built for `workers` and `stack_bytes`
  /// (the constructor's arguments).
  bool built_for(int workers, std::size_t stack_bytes) const {
    return workers == workers_req_ && stack_bytes == stack_bytes_;
  }

  /// Makes `rank`'s fiber runnable at virtual time 0 with `body`, on the
  /// stack it ran on last time (mapped on first use). Call before start().
  /// Rank r starts on worker r mod workers, so each worker dispatches its
  /// share in rank order.
  void spawn(int rank, std::function<void()> body);

  /// Launches the worker threads.
  void start();

  /// Blocks until no fiber is runnable or running. Returns true when every
  /// spawned fiber reached kFinished, false on a deadlock: some fiber is
  /// parked and, with nothing running, nothing can wake it. Only a
  /// wake_all() from the caller (the cluster's abort) leaves that state.
  bool wait_finished_or_idle();

  /// Stops and joins the workers. All fibers must be finished; the
  /// scheduler is then ready for the next run's spawns.
  void shutdown();

  /// Parks the current fiber. The caller holds the lock of the state it
  /// waits for via `lk` and has already pushed the fiber onto that state's
  /// WaitList; the lock is released before the switch and stays released
  /// after the resume (possibly on a different worker thread).
  void park_current(std::unique_lock<std::mutex>& lk);

  /// Makes every fiber on `list` runnable again on the calling worker's
  /// heap (or flags it kNotified if it is still switching out) and empties
  /// the list. Caller holds the list's lock; callable from fibers and from
  /// the thread in wait_finished_or_idle.
  void wake_all(WaitList& list);

  /// Moves this run's counters (workers' and spawn's) into `out`. Call
  /// after shutdown().
  void take_counters(HostProfile& out) {
    out += counters_;
    counters_ = {};
  }

 private:
  /// One worker's run queue.
  struct alignas(64) RunQueue {
    std::mutex mu;
    /// Binary min-heap of (vclock, rank) over std::greater: the lowest
    /// virtual clock, ties to the lowest rank, is dispatched first.
    std::vector<std::pair<double, int>> heap;
    /// heap.size(), stored under mu; read without it to skip an empty
    /// heap when stealing.
    std::atomic<std::size_t> size{0};
  };

  // counts_ packs the runnable fibers (on some heap) in its low half and
  // the active ones (runnable + running) in its high half.
  static constexpr std::uint64_t kRunnableOne = 1;
  static constexpr std::uint64_t kActiveOne = std::uint64_t{1} << 32;
  static std::uint32_t runnable_of(std::uint64_t c) {
    return static_cast<std::uint32_t>(c);
  }
  static std::uint32_t active_of(std::uint64_t c) {
    return static_cast<std::uint32_t>(c >> 32);
  }

  void worker_main(int self);
  void switch_into(Fiber* f);
  /// Pushes `f` onto queue `q`; `add` is what it adds to counts_
  /// (kRunnableOne for a fiber already active, kRunnableOne + kActiveOne
  /// for a parked or new one).
  void push_runnable(int q, Fiber* f, std::uint64_t add);
  static void heap_push(RunQueue& rq, Fiber* f);
  /// Ends a batch of `n` heap_push calls on `rq` under `lk` (rq.mu, held):
  /// publishes the size and counts_ (`add` per push), unlocks, and
  /// notifies up to `n` sleeping workers, if any.
  void publish(RunQueue& rq, std::unique_lock<std::mutex>& lk, int n,
               std::uint64_t add);
  /// Pops the top of queue `q`, or null when it is empty (or, for a
  /// `steal`, when its lock is busy). Counts into `prof`.
  Fiber* pop_runnable(int q, bool steal, HostProfile& prof);
  /// The next fiber for worker `self`: its own heap, else stolen, else
  /// after sleeping. Null once shutdown() stops the pool.
  Fiber* next_runnable(int self, HostProfile& prof);
  /// A dispatch of a fiber ended without a requeue (it finished or
  /// parked): drops the active count and signals idleness at 0.
  void leave_active();

  int nranks_;
  int workers_req_;  ///< the constructor's `workers`
  int workers_n_;
  std::size_t stack_bytes_;
  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< indexed by rank
  std::unique_ptr<RunQueue[]> queues_;          ///< one per worker

  std::atomic<std::uint64_t> counts_{0};  ///< runnable | active << 32
  std::atomic<int> sleepers_{0};          ///< workers in the sleep path
  std::atomic<int> finished_{0};

  std::mutex sleep_mu_;  ///< guards stop_ and counters_; pairs with the condvars
  bool stop_ = false;
  std::condition_variable work_cond_;  ///< runnable pushed / stop
  std::condition_variable idle_cond_;  ///< nothing runnable or running
  std::vector<std::thread> workers_;
  HostProfile counters_;  ///< this run's counters, added as each worker exits
};

}  // namespace detail
}  // namespace ca3dmm::simmpi
