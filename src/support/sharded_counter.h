/**
 * @file
 * Per-thread sharding for state that many threads write on a hot path.
 * One shared std::atomic bounces its cache line between every writing
 * core; sharded state gives each thread its own line instead. Threads
 * are numbered process-wide at first use, and thread n uses shard
 * n % kThreadShards, so the first kThreadShards threads get distinct
 * shards and later ones share (correctly, just not contention-free).
 *
 * ShardedCounter is the monotonic counter built on it: each thread adds
 * into its own cache-line shard with a relaxed fetch_add, and value()
 * sums the shards. Once the adding threads have been joined (or
 * otherwise synchronised with the reader), value() is the exact total.
 */
#ifndef TENSORIR_SUPPORT_SHARDED_COUNTER_H
#define TENSORIR_SUPPORT_SHARDED_COUNTER_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tir {
namespace support {

/** Number of per-thread shards. */
inline constexpr size_t kThreadShards = 64;

/** The calling thread's shard index, in [0, kThreadShards). */
inline size_t
threadShard()
{
    static std::atomic<size_t> next_thread{0};
    thread_local const size_t shard =
        next_thread.fetch_add(1, std::memory_order_relaxed) % kThreadShards;
    return shard;
}

class ShardedCounter
{
  public:
    void
    add(uint64_t n = 1)
    {
        shards_[threadShard()].value.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        uint64_t total = 0;
        for (const Shard& shard : shards_) {
            total += shard.value.load(std::memory_order_relaxed);
        }
        return total;
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> value{0};
    };

    std::array<Shard, kThreadShards> shards_;
};

} // namespace support
} // namespace tir

#endif // TENSORIR_SUPPORT_SHARDED_COUNTER_H
