#include "serve/shard.h"

#include "support/logging.h"

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
}

size_t
HotCache::slotIndex(uint64_t hash) const
{
    // Structural hashes are avalanche-mixed; the low bits index well.
    return static_cast<size_t>(hash) & (slots_.size() - 1);
}

std::shared_ptr<const meta::TuneRecord>
HotCache::get(uint64_t hash) const
{
    const size_t mask = slots_.size() - 1;
    size_t base = slotIndex(hash);
    for (size_t w = 0; w < kWays; ++w) {
        const Slot& slot = slots_[(base + w) & mask];
        // Wait-free: the pointee is arena-pinned, so a pointer that was
        // ever published stays dereferenceable even if a racing put()
        // displaces it between our load and the hash compare.
        const meta::TuneRecord* record =
            slot.record.load(std::memory_order_acquire);
        if (record && record->workload_hash == hash) {
            // Touch for LRU. Relaxed and racy on purpose: a lost or
            // reordered touch only perturbs eviction order, never
            // correctness.
            const_cast<Slot&>(slot).stamp.store(
                clock_.fetch_add(1, std::memory_order_relaxed),
                std::memory_order_relaxed);
            // Alias the arena anchor: the hit keeps the arena (and so
            // the record) alive, without per-record refcount traffic
            // on the read path.
            return std::shared_ptr<const meta::TuneRecord>(arena_,
                                                           record);
        }
    }
    return nullptr;
}

void
HotCache::put(std::shared_ptr<const meta::TuneRecord> record)
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
        const meta::TuneRecord* existing =
            slot.record.load(std::memory_order_relaxed);
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
    const meta::TuneRecord* raw = record.get();
    arena_->push_back(std::move(record));
    victim->stamp.store(clock_.fetch_add(1, std::memory_order_relaxed),
                        std::memory_order_relaxed);
    victim->record.store(raw, std::memory_order_release);
}

TargetShard::TargetShard(std::unique_ptr<hwsim::DeviceModel> device)
    : device_(std::move(device)), database_(kDatabaseShards)
{
    TIR_ICHECK(device_) << "TargetShard requires a device model";
}

std::optional<TargetShard::Hit>
TargetShard::lookup(uint64_t workload_hash)
{
    if (auto cached = hot_.get(workload_hash)) {
        return Hit{std::move(cached), /*from_hot_cache=*/true};
    }
    std::optional<meta::TuneRecord> record =
        database_.lookup(workload_hash);
    if (!record) return std::nullopt;
    auto shared =
        std::make_shared<const meta::TuneRecord>(std::move(*record));
    hot_.put(shared); // promote: next lookup takes the fast path
    return Hit{std::move(shared), /*from_hot_cache=*/false};
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
    std::optional<meta::TuneRecord> best = database_.lookup(hash);
    TIR_ICHECK(best.has_value());
    hot_.put(std::make_shared<const meta::TuneRecord>(std::move(*best)));
}

} // namespace serve
} // namespace tir
