#include "serve/shard.h"

#include "support/logging.h"
#include "support/sharded_counter.h"

namespace tir {
namespace serve {

namespace {

/** Lock shards of a target's database (contention granularity of the
 *  authoritative store). */
constexpr int kDatabaseShards = 8;

size_t
roundUpPow2(size_t n)
{
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

} // namespace

HotCache::HotCache(size_t slots)
    : slots_(roundUpPow2(slots < kWays ? kWays : slots)),
      arena_(std::make_shared<Arena>())
{
    for (size_t i = 0; i < support::kThreadShards; ++i) {
        anchors_.push_back(std::make_shared<const Anchor>(Anchor{arena_}));
    }
}

size_t
HotCache::slotIndex(uint64_t hash) const
{
    // Structural hashes are avalanche-mixed; the low bits index well.
    return static_cast<size_t>(hash) & (slots_.size() - 1);
}

std::shared_ptr<const meta::TuneRecord>
HotCache::get(uint64_t hash, bool* final) const
{
    const size_t mask = slots_.size() - 1;
    size_t base = slotIndex(hash);
    for (size_t w = 0; w < kWays; ++w) {
        const Slot& slot = slots_[(base + w) & mask];
        // Wait-free: the pointee is arena-pinned, so a pointer that was
        // ever published stays dereferenceable even if a racing put()
        // displaces it between our load and the hash compare.
        const uintptr_t entry = slot.entry.load(std::memory_order_acquire);
        const auto* record =
            reinterpret_cast<const meta::TuneRecord*>(entry & ~kFinalBit);
        if (record && record->workload_hash == hash) {
            // Touch for LRU without a read-modify-write: copy the clock
            // into the stamp only when it moved since the last touch.
            // Relaxed and racy on purpose: a lost or reordered touch
            // only perturbs eviction order, never correctness.
            const uint64_t now = clock_.load(std::memory_order_relaxed);
            if (slot.stamp.load(std::memory_order_relaxed) < now) {
                slot.stamp.store(now, std::memory_order_relaxed);
            }
            if (final) *final = (entry & kFinalBit) != 0;
            // Alias this thread's arena anchor: the hit keeps the arena
            // (and so the record) alive, without per-record refcount
            // traffic or a count shared with other threads.
            return std::shared_ptr<const meta::TuneRecord>(
                anchors_[support::threadShard()], record);
        }
    }
    return nullptr;
}

void
HotCache::put(std::shared_ptr<const meta::TuneRecord> record, bool final)
{
    TIR_ICHECK(record) << "HotCache::put requires a record";
    const uint64_t hash = record->workload_hash;
    const size_t mask = slots_.size() - 1;
    size_t base = slotIndex(hash);
    std::lock_guard<std::mutex> lock(insert_mutex_);
    // Victim preference: (1) the slot already holding this hash, so
    // one key never occupies two slots; (2) any empty slot; (3) the
    // least-recently-touched occupied slot — that displacement is the
    // only case counted as an eviction.
    Slot* victim = nullptr;
    Slot* empty = nullptr;
    Slot* oldest = nullptr;
    uint64_t oldest_stamp = ~uint64_t{0};
    for (size_t w = 0; w < kWays; ++w) {
        Slot& slot = slots_[(base + w) & mask];
        const auto* existing = reinterpret_cast<const meta::TuneRecord*>(
            slot.entry.load(std::memory_order_relaxed) & ~kFinalBit);
        if (existing && existing->workload_hash == hash) {
            victim = &slot;
            break;
        }
        if (!existing) {
            if (!empty) empty = &slot;
        } else if (slot.stamp.load(std::memory_order_relaxed) <
                   oldest_stamp) {
            oldest = &slot;
            oldest_stamp = slot.stamp.load(std::memory_order_relaxed);
        }
    }
    if (!victim) victim = empty;
    if (!victim) {
        victim = oldest;
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    TIR_ICHECK(victim);
    // Retire into the arena first (ownership), publish second
    // (visibility): a reader that wins the race to the new pointer must
    // find it pinned. Displaced records stay in the arena — see the
    // ownership note in the header.
    const uintptr_t entry =
        reinterpret_cast<uintptr_t>(record.get()) | (final ? kFinalBit : 0);
    arena_->push_back(std::move(record));
    victim->stamp.store(clock_.fetch_add(1, std::memory_order_relaxed),
                        std::memory_order_relaxed);
    victim->entry.store(entry, std::memory_order_release);
}

TargetShard::TargetShard(std::unique_ptr<hwsim::DeviceModel> device)
    : device_(std::move(device)), database_(kDatabaseShards)
{
    TIR_ICHECK(device_) << "TargetShard requires a device model";
}

std::optional<TargetShard::Hit>
TargetShard::lookup(uint64_t workload_hash)
{
    bool final = false;
    if (auto cached = hot_.get(workload_hash, &final)) {
        return Hit{std::move(cached), /*from_hot_cache=*/true, final};
    }
    // Promote: the next lookup takes the fast path.
    std::shared_ptr<const meta::TuneRecord> record =
        refresh(workload_hash, /*final=*/false);
    if (!record) return std::nullopt;
    return Hit{std::move(record), /*from_hot_cache=*/false};
}

void
TargetShard::commit(meta::TuneRecord record)
{
    const uint64_t hash = record.workload_hash;
    database_.commit(std::move(record));
    // Refresh the cache from the database's winner, not from the
    // record we were handed: under racing commits ours may have lost
    // the improve-only comparison, and caching the loser would serve a
    // slower schedule from the fast path until the next eviction.
    std::shared_ptr<const meta::TuneRecord> best =
        refresh(hash, /*final=*/false);
    TIR_ICHECK(best);
}

std::shared_ptr<const meta::TuneRecord>
TargetShard::finalize(uint64_t workload_hash)
{
    return refresh(workload_hash, /*final=*/true);
}

std::shared_ptr<const meta::TuneRecord>
TargetShard::refresh(uint64_t workload_hash, bool final)
{
    std::optional<meta::TuneRecord> best = database_.lookup(workload_hash);
    if (!best) return nullptr;
    auto shared = std::make_shared<const meta::TuneRecord>(std::move(*best));
    hot_.put(shared, final);
    return shared;
}

} // namespace serve
} // namespace tir
