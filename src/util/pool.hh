/**
 * @file
 * Small work-stealing thread pool used by the sweep layer.
 *
 * Each worker owns a deque of jobs: it pops from the front of its own
 * deque (FIFO for submission order locality) and steals from the back
 * of a sibling's deque when it runs dry.  submit() distributes jobs
 * round-robin so a burst of submissions spreads across workers even
 * before stealing kicks in.  A single shared FIFO idled workers (ROADMAP.md).
 *
 * A pool constructed with one thread (or on a single-core host via
 * threads == 0) runs every job inline inside submit(), in submission
 * order, on the calling thread.  This makes `--jobs 1` sweeps exactly
 * equivalent to the old serial loops — same execution order, same
 * output bytes — which keeps figure tables reproducible.
 */

#ifndef MCD_UTIL_POOL_HH
#define MCD_UTIL_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcd::util
{

/**
 * Work-stealing thread pool.
 *
 * Jobs must not submit to the pool they run on and then block on the
 * submitted job's completion (classic pool deadlock); blocking on
 * results computed *inline* by sibling jobs (e.g. a memoized
 * dependency) is fine.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = defaultThreads(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Waits for all submitted jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue one job.  With a single worker the job runs inline on the
     * calling thread before submit() returns.
     */
    void submit(std::function<void()> job);

    /**
     * Block until every job submitted so far has finished.  Rethrows
     * the first exception any job raised (at most one is kept).
     */
    void wait();

    /** Number of worker threads (>= 1). */
    unsigned threadCount() const { return nThreads; }

    /** Resolved default worker count: hardware_concurrency(), >= 1. */
    static unsigned defaultThreads();

  private:
    struct Worker
    {
        std::mutex m;
        std::deque<std::function<void()>> q;
    };

    bool popFrom(std::size_t w, std::function<void()> &job);
    bool stealFor(std::size_t w, std::function<void()> &job);
    void workerLoop(std::size_t w);
    void runJob(const std::function<void()> &job);

    unsigned nThreads;
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;

    std::mutex m;
    std::condition_variable cvWork;  ///< workers sleep here
    std::condition_variable cvIdle;  ///< wait() sleeps here
    std::size_t inflight = 0;        ///< submitted, not yet finished
    std::size_t nextWorker = 0;      ///< round-robin submit cursor
    std::exception_ptr firstError;
    bool stopping = false;
};

/**
 * Run @p fn(i) for every i in [0, n), spreading the calls over
 * @p jobs threads (0 = ThreadPool::defaultThreads()), and block until
 * all of them finish.  With jobs <= 1 the calls run inline in index
 * order.  Rethrows the first exception a call raised.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace mcd::util

#endif // MCD_UTIL_POOL_HH
