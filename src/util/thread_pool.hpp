// Minimal fixed-size worker pool for deterministic fork-join parallelism.
//
// Built for the optimizers' batch fitness evaluation: parallel_blocks()
// splits an index range [0, n) into one contiguous block per worker and
// blocks until every block finished.  Work never migrates between workers,
// so per-worker scratch state (e.g. PSO's repair buffers) is touched by
// exactly one thread per job, and the index -> worker mapping is a pure
// function of (n, size()) — never of timing.  Results written to slots indexed by item
// are therefore bit-identical to a serial run; map() packages exactly that
// for independent scenario runs (NoC, SNN or co-sim sweeps).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace snnmap::util {

class ThreadPool {
 public:
  /// Hard cap on pool size, guarding against nonsense reaching resolve()
  /// from config files or CLI casts (e.g. "-1" wrapping to ~4 billion).
  static constexpr std::uint32_t kMaxThreads = 256;

  /// fn(worker, begin, end): process items [begin, end) on `worker`.
  using BlockFn =
      std::function<void(std::uint32_t, std::size_t, std::size_t)>;

  /// threads = 0 resolves to hardware_concurrency().  A pool of size 1
  /// spawns no threads: every job runs inline on the calling thread (the
  /// serial fallback on single-core hosts or with an explicit threads=1).
  explicit ThreadPool(std::uint32_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::uint32_t size() const noexcept { return worker_count_; }

  /// Splits [0, n) into min(size(), n) contiguous blocks and runs fn once
  /// per block; the calling thread executes block 0.  Returns after every
  /// block finished; the first exception thrown by any block is rethrown.
  void parallel_blocks(std::size_t n, const BlockFn& fn);

  /// Element-wise convenience: fn(worker, index) for every index in [0, n).
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    parallel_blocks(
        n, [&fn](std::uint32_t worker, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) fn(worker, i);
        });
  }

  /// Slot-indexed fan-out: returns `results` with results[i] = fn(i) for
  /// every i in [0, n).  Each call runs on the worker parallel_for assigns
  /// it, so the slots are bit-identical at any thread count as long as
  /// fn(i) depends only on i.  fn must be safe to invoke concurrently for
  /// distinct indices, and its result type default-constructible; the
  /// first exception it throws is rethrown here.
  template <typename F>
  auto map(std::size_t n, F&& fn)
      -> std::vector<std::invoke_result_t<F&, std::size_t>> {
    using R = std::invoke_result_t<F&, std::size_t>;
    // vector<bool> packs slots into shared words: concurrent writes race.
    static_assert(!std::is_same_v<R, bool>,
                  "map a bool-returning fn to a byte-sized type instead");
    std::vector<R> results(n);
    parallel_for(n, [&results, &fn](std::uint32_t, std::size_t i) {
      results[i] = fn(i);
    });
    return results;
  }

  /// 0 -> hardware_concurrency(); the result is clamped to
  /// [1, kMaxThreads].
  static std::uint32_t resolve(std::uint32_t requested) noexcept;

 private:
  void worker_loop(std::uint32_t worker);

  std::uint32_t worker_count_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const BlockFn* job_ = nullptr;   ///< current job (valid while active_ > 0)
  std::size_t job_n_ = 0;          ///< item count of the current job
  std::uint32_t job_blocks_ = 0;   ///< blocks in the current job
  std::uint64_t generation_ = 0;   ///< bumped per job so workers run it once
  std::uint32_t active_ = 0;       ///< spawned workers still inside the job
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace snnmap::util
