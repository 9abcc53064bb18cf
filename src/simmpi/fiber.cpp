#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "simmpi/cluster.hpp"

// ---- sanitizer fiber annotations ----
// ASan tracks a fake stack per context; without start/finish_switch_fiber
// around every swapcontext it reports wild stack-use-after-return on the
// first switch. TSan needs to be told a fiber is a distinct logical thread.
// Both interfaces are declared manually: the prototypes are stable, and not
// every toolchain ships the sanitizer headers.
#if defined(__SANITIZE_ADDRESS__)
#define CA_FIBER_ASAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CA_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CA_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CA_FIBER_TSAN 1
#endif

#if defined(CA_FIBER_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr, size_t size);
}
#endif
#if defined(CA_FIBER_TSAN)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(CA_SIMMPI_FAST_SWITCH)
// ---- hand-rolled x86-64 context switch ----
// Saves the SysV callee-saved state (rbp, rbx, r12-r15, mxcsr, x87 control
// word) on the current stack, stores the resulting %rsp through save_sp,
// installs next_sp, restores the same state from it, and returns there.
// `arg` rides through in %rax: for a suspended context it becomes
// ca_ctx_switch's return value; for a fresh context ca_ctx_entry moves it
// into %rdi and calls ca_fiber_entry with it. No syscalls — this is the
// whole point (swapcontext does rt_sigprocmask every time).
extern "C" void* ca_ctx_switch(void** save_sp, void* next_sp, void* arg);
extern "C" void ca_ctx_entry();

asm(R"(
    .pushsection .text
    .globl ca_ctx_switch
    .type ca_ctx_switch, @function
    .align 16
ca_ctx_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    movq %rdx, %rax
    retq
    .size ca_ctx_switch, .-ca_ctx_switch

    .globl ca_ctx_entry
    .type ca_ctx_entry, @function
    .align 16
ca_ctx_entry:
    movq %rax, %rdi
    pushq $0
    callq ca_fiber_entry
    ud2
    .size ca_ctx_entry, .-ca_ctx_entry
    .popsection
)");
#endif  // CA_SIMMPI_FAST_SWITCH

namespace ca3dmm::simmpi::detail {

namespace {

/// Scheduler-side context of one worker thread (lives on the worker's own
/// stack for its whole life).
struct WorkerFrame {
  FiberScheduler* sched = nullptr;  ///< the scheduler this worker serves
  int index = 0;                    ///< its run queue in that scheduler
#if defined(CA_SIMMPI_FAST_SWITCH)
  void* sched_sp = nullptr;  ///< saved stack pointer of the dispatch loop
#else
  ucontext_t sched_ctx{};
#endif
  const void* stack_lo = nullptr;  ///< worker thread stack, for ASan
  std::size_t stack_bytes = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;  ///< the worker thread's own TSan context
  HostProfile prof;            ///< this worker's counters for the run
};

thread_local WorkerFrame* g_worker = nullptr;
thread_local Fiber* g_fiber = nullptr;
/// Counters of a thread that is not a worker (the one driving
/// Cluster::run, which wakes every fiber on a deadlock abort).
thread_local HostProfile g_thread_prof;

void asan_start_switch(void** save, const void* bottom, std::size_t size) {
#if defined(CA_FIBER_ASAN)
  __sanitizer_start_switch_fiber(save, bottom, size);
#else
  (void)save;
  (void)bottom;
  (void)size;
#endif
}

void asan_finish_switch(void* save) {
#if defined(CA_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(save, nullptr, nullptr);
#else
  (void)save;
#endif
}

void tsan_switch_to(void* fiber) {
#if defined(CA_FIBER_TSAN)
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

/// Bounds of the calling thread's stack (glibc). ASan needs the target
/// stack's extent when switching back from a fiber to the worker.
void query_thread_stack(const void** lo, std::size_t* bytes) {
#if defined(__GLIBC__)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    pthread_attr_getstack(&attr, &addr, &size);
    pthread_attr_destroy(&attr);
    *lo = addr;
    *bytes = size;
    return;
  }
#endif
  *lo = nullptr;
  *bytes = 0;
}

/// Body shared by both switch mechanisms: first entry onto a fresh fiber
/// stack, run the rank, switch out for good.
void fiber_main(Fiber* f) {
  // First entry onto this stack: complete the ASan switch the worker began.
  asan_finish_switch(f->asan_fake_stack);
  f->body();
  f->state.store(Fiber::kFinished, std::memory_order_release);
  // Final departure: a null save tells ASan to drop this stack's fake
  // frames — the stack is dead after this switch.
  WorkerFrame& w = *g_worker;
  asan_start_switch(nullptr, w.stack_lo, w.stack_bytes);
  tsan_switch_to(w.tsan_fiber);
#if defined(CA_SIMMPI_FAST_SWITCH)
  void* dead_sp = nullptr;
  ca_ctx_switch(&dead_sp, w.sched_sp, nullptr);
#else
  swapcontext(&f->uctx, &w.sched_ctx);
#endif
  // Unreachable: a kFinished fiber is never dispatched again.
  std::abort();
}

#if !defined(CA_SIMMPI_FAST_SWITCH)
/// makecontext only passes ints; the fiber pointer rides in two halves.
void fiber_trampoline(unsigned hi, unsigned lo) {
  fiber_main(reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                      static_cast<std::uintptr_t>(lo)));
}
#endif

#if defined(CA_SIMMPI_FAST_SWITCH)
/// Builds the initial saved context on a fresh fiber stack: the register
/// frame ca_ctx_switch restores, returning into ca_ctx_entry, which hands
/// the switch's `arg` (the Fiber*) to ca_fiber_entry. The control-word slot
/// is seeded from the caller so fibers inherit the process FP environment.
void* ctx_make(void* stack_top) {
  auto* sp = reinterpret_cast<std::uint64_t*>(
      reinterpret_cast<std::uintptr_t>(stack_top) & ~std::uintptr_t{15});
  *--sp = 0;  // fake return address below ca_ctx_entry: stops unwinders
  *--sp = reinterpret_cast<std::uint64_t>(&ca_ctx_entry);
  for (int i = 0; i < 6; ++i) *--sp = 0;  // rbp, rbx, r12-r15
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  *--sp = static_cast<std::uint64_t>(mxcsr) |
          (static_cast<std::uint64_t>(fcw) << 32);
  return sp;
}
#endif

}  // namespace

#if defined(CA_SIMMPI_FAST_SWITCH)
/// First-entry target of ca_ctx_entry (C linkage: called from the asm
/// thunk). Never returns.
extern "C" void ca_fiber_entry(void* arg) {
  fiber_main(static_cast<Fiber*>(arg));
}
#endif

Fiber* current_fiber() { return g_fiber; }

HostProfile& host_counters() {
  return g_worker != nullptr ? g_worker->prof : g_thread_prof;
}

std::unique_lock<std::mutex> lock_counted(std::mutex& m, LockClass cls) {
  std::unique_lock<std::mutex> lk(m, std::try_to_lock);
  HostProfile::Lock& c = host_counters().lock(cls);
  ++c.acquired;
  if (!lk.owns_lock()) {
    ++c.contended;
    lk.lock();
  }
  return lk;
}

ThreadUsage ThreadUsage::now() {
  ThreadUsage u;
#if defined(__linux__)
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) == 0) {
    u.minor_faults = ru.ru_minflt;
    u.vol_switches = ru.ru_nvcsw;
    u.sys_cpu_s = static_cast<double>(ru.ru_stime.tv_sec) +
                  1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  }
#endif
  return u;
}

void add_usage_since(HostProfile& prof, const ThreadUsage& start) {
  const ThreadUsage end = ThreadUsage::now();
  prof.minor_faults += end.minor_faults - start.minor_faults;
  prof.vol_switches += end.vol_switches - start.vol_switches;
  prof.sys_cpu_s += end.sys_cpu_s - start.sys_cpu_s;
}

FiberScheduler::FiberScheduler(int nranks, int workers,
                               std::size_t stack_bytes)
    : nranks_(nranks), workers_req_(workers), stack_bytes_(stack_bytes) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  workers_n_ = workers > 0 ? workers : std::min(nranks, std::max(1, hw));
  workers_n_ = std::max(1, std::min(workers_n_, nranks));
  fibers_.resize(static_cast<size_t>(nranks));
  queues_ = std::make_unique<RunQueue[]>(static_cast<size_t>(workers_n_));
}

FiberScheduler::~FiberScheduler() {
  for (auto& f : fibers_) {
    if (!f) continue;
#if defined(CA_FIBER_TSAN)
    if (f->tsan_fiber) __tsan_destroy_fiber(f->tsan_fiber);
#endif
    if (f->map_base) munmap(f->map_base, f->map_bytes);
  }
}

void FiberScheduler::spawn(int rank, std::function<void()> body) {
  std::unique_ptr<Fiber>& slot = fibers_[static_cast<size_t>(rank)];
  if (!slot) {
    slot = std::make_unique<Fiber>();
    Fiber& nf = *slot;
    // Guard page below the stack: an overflow faults instead of silently
    // corrupting the neighbouring fiber. MAP_NORESERVE keeps thousands of
    // ranks cheap — physical pages are only committed where the stack is
    // actually touched, and stay committed for the next run.
    const long page = sysconf(_SC_PAGESIZE);
    const std::size_t ps = page > 0 ? static_cast<std::size_t>(page) : 4096;
    const std::size_t usable = ((stack_bytes_ + ps - 1) / ps) * ps;
    nf.map_bytes = usable + ps;
    void* base = mmap(nullptr, nf.map_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    CA_REQUIRE(base != MAP_FAILED,
               "fiber stack mmap of %zu bytes failed for rank %d",
               nf.map_bytes, rank);
    nf.map_base = static_cast<char*>(base);
    // The stack lives as long as the Cluster: a guard page that silently
    // failed to arm would stay missing for every later run.
    CA_REQUIRE(mprotect(nf.map_base, ps, PROT_NONE) == 0,
               "fiber stack guard page mprotect failed for rank %d", rank);
    nf.stack_lo = nf.map_base + ps;
    nf.stack_bytes = usable;
    nf.rank = rank;
    nf.sched = this;
    ++counters_.stacks_mapped;
  }
  Fiber* f = slot.get();
  f->body = std::move(body);
  f->state.store(Fiber::kRunnable, std::memory_order_relaxed);
  f->last_worker = -1;
  f->wait_next = nullptr;
  f->tls_ctx = nullptr;
  f->asan_fake_stack = nullptr;
#if defined(CA_FIBER_TSAN)
  // A fresh TSan context too: the last run's never left its final frame.
  if (f->tsan_fiber) __tsan_destroy_fiber(f->tsan_fiber);
  f->tsan_fiber = __tsan_create_fiber(0);
#endif
#if defined(CA_FIBER_ASAN)
  // The last run left its frames' redzones poisoned on this stack (the
  // fiber switched out for good instead of returning through them).
  __asan_unpoison_memory_region(f->stack_lo, f->stack_bytes);
#endif

#if defined(CA_SIMMPI_FAST_SWITCH)
  f->sp = ctx_make(f->stack_lo + f->stack_bytes);
#else
  CA_REQUIRE(getcontext(&f->uctx) == 0, "getcontext failed");
  f->uctx.uc_stack.ss_sp = f->stack_lo;
  f->uctx.uc_stack.ss_size = f->stack_bytes;
  f->uctx.uc_link = nullptr;
  const std::uintptr_t p = reinterpret_cast<std::uintptr_t>(f);
  makecontext(&f->uctx, reinterpret_cast<void (*)()>(fiber_trampoline), 2,
              static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffu));
#endif

  push_runnable(rank % workers_n_, f, /*front=*/false,
                kRunnableOne + kActiveOne);
}

void FiberScheduler::start() {
  for (int i = 0; i < workers_n_; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

void FiberScheduler::push_runnable(int q, Fiber* f, bool front,
                                   std::uint64_t add) {
  RunQueue& rq = queues_[static_cast<size_t>(q)];
  std::unique_lock<std::mutex> lk = lock_counted(rq.mu, LockClass::kSched);
  if (front)
    rq.fibers.push_front(f);
  else
    rq.fibers.push_back(f);
  publish(rq, lk, 1, add);
}

void FiberScheduler::publish(RunQueue& rq, std::unique_lock<std::mutex>& lk,
                             int n, std::uint64_t add) {
  rq.size.store(rq.fibers.size(), std::memory_order_relaxed);
  // Counted under the queue lock, so the runnable count never runs ahead
  // of what the queues hold once a popper has taken its fiber.
  counts_.fetch_add(add * static_cast<std::uint64_t>(n),
                    std::memory_order_seq_cst);
  lk.unlock();
  // Dekker pair with next_runnable: this thread raised the runnable count
  // before reading sleepers_, a sleeper raises sleepers_ before reading the
  // count, so one of the two sees the other.
  const int sleeping = sleepers_.load(std::memory_order_seq_cst);
  if (sleeping == 0) return;
  std::unique_lock<std::mutex> slk = lock_counted(sleep_mu_, LockClass::kSched);
  for (int i = std::min(n, sleeping); i > 0; --i) work_cond_.notify_one();
}

Fiber* FiberScheduler::pop_runnable(int q, bool steal, HostProfile& prof) {
  RunQueue& rq = queues_[static_cast<size_t>(q)];
  if (rq.size.load(std::memory_order_relaxed) == 0) return nullptr;
  std::unique_lock<std::mutex> lk;
  if (steal) {
    // A thief never waits on a queue its owner (or another thief) holds:
    // it moves on to the next, and next_runnable rescans while the
    // runnable count says work is left.
    lk = std::unique_lock<std::mutex>(rq.mu, std::try_to_lock);
    if (!lk.owns_lock()) return nullptr;
    ++prof.lock(LockClass::kSched).acquired;
  } else {
    lk = lock_counted(rq.mu, LockClass::kSched);
  }
  if (rq.fibers.empty()) return nullptr;
  Fiber* f;
  if (steal) {
    f = rq.fibers.back();
    rq.fibers.pop_back();
  } else {
    f = rq.fibers.front();
    rq.fibers.pop_front();
  }
  rq.size.store(rq.fibers.size(), std::memory_order_relaxed);
  counts_.fetch_sub(kRunnableOne, std::memory_order_seq_cst);
  if (steal) ++prof.steals;
  return f;
}

Fiber* FiberScheduler::next_runnable(int self, HostProfile& prof) {
  for (;;) {
    if (Fiber* f = pop_runnable(self, false, prof)) return f;
    for (int i = 1; i < workers_n_; ++i)
      if (Fiber* f = pop_runnable((self + i) % workers_n_, true, prof))
        return f;
    // Work left on a queue the scan found busy, or pushed since: rescan.
    if (runnable_of(counts_.load(std::memory_order_seq_cst)) != 0) continue;
    // Nothing anywhere. Sleep until the runnable count says otherwise (a
    // push after the load above is caught by the count or notifies us),
    // then scan again.
    std::unique_lock<std::mutex> lk = lock_counted(sleep_mu_, LockClass::kSched);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    while (!stop_ && runnable_of(counts_.load(std::memory_order_seq_cst)) == 0)
      work_cond_.wait(lk);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    // shutdown() runs only once every fiber has finished, so nothing is
    // left to dispatch.
    if (stop_) return nullptr;
  }
}

void FiberScheduler::leave_active() {
  if (active_of(counts_.fetch_sub(kActiveOne, std::memory_order_acq_rel)) !=
      1)
    return;
  // Only a running fiber can wake a parked one: with nothing running or
  // runnable, the run is over or deadlocked.
  std::lock_guard<std::mutex> lk(sleep_mu_);
  idle_cond_.notify_all();
}

void FiberScheduler::worker_main(int self) {
  const ThreadUsage usage0 = ThreadUsage::now();
  WorkerFrame frame;
  frame.sched = this;
  frame.index = self;
  query_thread_stack(&frame.stack_lo, &frame.stack_bytes);
#if defined(CA_FIBER_TSAN)
  frame.tsan_fiber = __tsan_get_current_fiber();
#endif
  g_worker = &frame;
  while (Fiber* f = next_runnable(self, frame.prof)) {
    f->state.store(Fiber::kRunning, std::memory_order_relaxed);
    ++frame.prof.switches;
    if (f->last_worker != self) {
      if (f->last_worker >= 0) ++frame.prof.migrations;
      f->last_worker = self;
    }
    switch_into(f);
    // The fiber switched back: it either finished or is parking.
    if (f->state.load(std::memory_order_acquire) == Fiber::kFinished) {
      finished_.fetch_add(1, std::memory_order_relaxed);
      leave_active();
      continue;
    }
    int expected = Fiber::kParking;
    if (f->state.compare_exchange_strong(expected, Fiber::kParked,
                                         std::memory_order_acq_rel)) {
      leave_active();
      continue;
    }
    // The CAS failed: a waker caught the fiber mid-switch (kNotified). It
    // is in no wait list and no one else owns it, so this worker
    // re-enqueues it at the front of its own queue, like any wake; it
    // never stopped being active.
    f->state.store(Fiber::kRunnable, std::memory_order_relaxed);
    push_runnable(self, f, /*front=*/true, kRunnableOne);
  }
  add_usage_since(frame.prof, usage0);
  g_worker = nullptr;
  std::lock_guard<std::mutex> lk(sleep_mu_);
  counters_ += frame.prof;
}

void FiberScheduler::switch_into(Fiber* f) {
  WorkerFrame& w = *g_worker;
  g_fiber = f;
  // Install the fiber's TLS view; the worker's own view (always a null
  // rank context) is restored on the way out.
  RankCtx* prev_ctx = swap_rank_tls(f->tls_ctx);
  asan_start_switch(&w.asan_fake_stack, f->stack_lo, f->stack_bytes);
  tsan_switch_to(f->tsan_fiber);
#if defined(CA_SIMMPI_FAST_SWITCH)
  ca_ctx_switch(&w.sched_sp, f->sp, f);
#else
  swapcontext(&w.sched_ctx, &f->uctx);
#endif
  asan_finish_switch(w.asan_fake_stack);
  f->tls_ctx = swap_rank_tls(prev_ctx);
  g_fiber = nullptr;
}

void FiberScheduler::park_current(std::unique_lock<std::mutex>& lk) {
  Fiber* f = g_fiber;
  CA_ASSERT(f != nullptr);
  ++host_counters().parks;
  f->state.store(Fiber::kParking, std::memory_order_release);
  lk.unlock();
  WorkerFrame& w = *g_worker;
  asan_start_switch(&f->asan_fake_stack, w.stack_lo, w.stack_bytes);
  tsan_switch_to(w.tsan_fiber);
#if defined(CA_SIMMPI_FAST_SWITCH)
  ca_ctx_switch(&f->sp, w.sched_sp, nullptr);
#else
  swapcontext(&f->uctx, &w.sched_ctx);
#endif
  // Resumed — possibly on a different worker thread, so the worker frame
  // TLS must not be cached across the switch.
  asan_finish_switch(f->asan_fake_stack);
}

void FiberScheduler::wake_all(WaitList& list) {
  Fiber* f = list.head;
  list.head = nullptr;
  if (f == nullptr) return;
  HostProfile& prof = host_counters();
  // Parked fibers go to the front of the waking worker's queue in one
  // batch; a thread that is not one of this scheduler's workers uses
  // queue 0.
  const int q =
      g_worker != nullptr && g_worker->sched == this ? g_worker->index : 0;
  RunQueue& rq = queues_[static_cast<size_t>(q)];
  std::unique_lock<std::mutex> lk;  // taken once, for the first parked fiber
  int n = 0;
  while (f != nullptr) {
    // Read the link first: once woken, f may run and park elsewhere.
    Fiber* next = f->wait_next;
    ++prof.wakes;
    int expected = Fiber::kParking;
    if (!f->state.compare_exchange_strong(expected, Fiber::kNotified,
                                          std::memory_order_acq_rel)) {
      // Not still switching out (then its worker re-enqueues it): parked.
      CA_ASSERT(expected == Fiber::kParked);
      f->state.store(Fiber::kRunnable, std::memory_order_relaxed);
      if (!lk.owns_lock()) lk = lock_counted(rq.mu, LockClass::kSched);
      rq.fibers.push_front(f);
      ++n;
    }
    f = next;
  }
  if (n > 0) publish(rq, lk, n, kRunnableOne + kActiveOne);
}

bool FiberScheduler::wait_finished_or_idle() {
  std::unique_lock<std::mutex> lk = lock_counted(sleep_mu_, LockClass::kSched);
  idle_cond_.wait(lk, [&] {
    return active_of(counts_.load(std::memory_order_acquire)) == 0;
  });
  return finished_.load(std::memory_order_relaxed) == nranks_;
}

void FiberScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    stop_ = true;
  }
  work_cond_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  stop_ = false;
  finished_.store(0, std::memory_order_relaxed);
}

}  // namespace ca3dmm::simmpi::detail
