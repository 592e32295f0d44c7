#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

namespace geoblocks::util {

/// An RCU-style epoch-swapped snapshot pointer: many lock-free readers, one
/// (externally serialized) writer.
///
/// The obvious implementation — `std::atomic<std::shared_ptr<T>>` — is not
/// used because libstdc++'s `_Sp_atomic` reads and writes its raw pointer
/// as *plain* accesses under an embedded spin bit whose load path unlocks
/// with `memory_order_relaxed`; formally that is a data race (and
/// ThreadSanitizer reports it), even though it is benign on x86. This cell
/// provides the same publish/probe semantics with a fully data-race-free
/// protocol:
///
/// - **Readers** (`ReadGuard`) enter a parity-indexed epoch: load the
///   epoch, bump `readers_[epoch & 1]`, and re-validate the epoch — if a
///   writer flipped in between, back out and retry (bounded by writer
///   frequency; writers are rare rebuilds). A validated guard then reads
///   the snapshot pointer; all these operations are seq_cst, which makes
///   the entry race with a concurrent flip decidable in the single total
///   order: a reader that observed the pre-flip epoch is counted in the
///   old parity *before* the writer samples it, and a reader that observed
///   the post-flip epoch reads the successor's slot. A validated guard
///   reads the snapshot out of its parity's slot, so `get()` and
///   `shared()` always denote the same object. No locks, no allocation,
///   no refcount traffic on the hot path — two relaxed-cost RMWs per
///   guard.
/// - **The writer** (`Publish`) installs the successor in the *incoming*
///   parity slot (which provably has no readers), flips the epoch, then
///   waits out the grace period — `readers_[old]`
///   draining to zero — before releasing the outgoing snapshot. Readers
///   are never blocked; the writer yields while waiting (grace is bounded
///   by one query).
///
/// Ownership is `shared_ptr`-based so `SnapshotShared` can hand out a
/// stable reference that outlives any number of later publishes (the
/// holder just keeps the old snapshot's memory alive; it never delays the
/// writer).
///
/// Writers must be serialized externally (e.g. GeoBlockQC's writer mutex);
/// `Publish` and `WriterPeek` may not race with themselves or each other.
template <typename T>
class SnapshotCell {
 public:
  /// @param initial First snapshot to publish; must be non-null. The cell
  ///     itself must reach reader threads through a happens-before edge
  ///     (e.g. constructed before the serving threads start), like any
  ///     other object.
  explicit SnapshotCell(std::shared_ptr<const T> initial) {
    slots_[0] = std::move(initial);
  }

  SnapshotCell(const SnapshotCell&) = delete;
  SnapshotCell& operator=(const SnapshotCell&) = delete;

  /// A reader's lease on the current snapshot: the pointed-to object is
  /// guaranteed alive until the guard is destroyed. Keep guards short —
  /// one query — as a writer's grace period waits on them (but never the
  /// other way around).
  class ReadGuard {
   public:
    explicit ReadGuard(const SnapshotCell& cell) : cell_(&cell) {
      for (;;) {
        const uint64_t e = cell_->epoch_.load(std::memory_order_seq_cst);
        parity_ = static_cast<unsigned>(e & 1);
        cell_->readers_[parity_].count.fetch_add(1, std::memory_order_seq_cst);
        if (cell_->epoch_.load(std::memory_order_seq_cst) == e) break;
        // A writer flipped between our epoch load and the increment: our
        // count may be in the wrong parity, so back out and re-enter.
        cell_->readers_[parity_].count.fetch_sub(1, std::memory_order_seq_cst);
      }
      // Read the snapshot out of the *validated parity's* slot — not a
      // separate pointer — so get() and shared() always agree even when a
      // writer has pre-staged its successor concurrently with our entry.
      // The slot is stable: a writer cannot reassign or reset it until
      // this parity's grace period passes, which waits on our count; and
      // the publish that installed it released it through the seq_cst
      // epoch store our validation read from.
      ptr_ = cell_->slots_[parity_].get();
    }

    ~ReadGuard() {
      // Release: everything this reader did with the snapshot
      // happens-before the writer's grace-period observation of the drain.
      cell_->readers_[parity_].count.fetch_sub(1, std::memory_order_release);
    }

    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    const T* get() const { return ptr_; }
    const T& operator*() const { return *ptr_; }
    const T* operator->() const { return ptr_; }

    /// A stable owning reference to the guarded snapshot (safe to hold
    /// after the guard dies; later publishes only retire the writer's
    /// reference, not this one).
    std::shared_ptr<const T> shared() const { return cell_->slots_[parity_]; }

   private:
    const SnapshotCell* cell_;
    const T* ptr_;
    unsigned parity_;
  };

  /// @return An owning reference to the currently published snapshot.
  std::shared_ptr<const T> SnapshotShared() const {
    ReadGuard guard(*this);
    return guard.shared();
  }

  /// Writer-only raw peek at the current snapshot (no guard needed: only
  /// the — externally serialized — writer ever retires it).
  const T* WriterPeek() const {
    return slots_[epoch_.load(std::memory_order_relaxed) & 1].get();
  }

  /// Called with each retired snapshot after its grace period has drained —
  /// the one point where "no reader can still be probing this snapshot" is
  /// certain. The hook receives the cell's (writer) reference; other
  /// SnapshotShared holders may still keep the object alive. Used by the
  /// block/trie planes for shared retirement accounting, and by the block
  /// plane to recycle the retired version's pages. Writer-side only:
  /// set it before concurrent publishes, never from a reader.
  using RetireHook = std::function<void(std::shared_ptr<const T>)>;
  void SetRetireHook(RetireHook hook) { retire_hook_ = std::move(hook); }

  /// Publishes `next` (non-null) and retires the previous snapshot after
  /// its grace period: new readers see `next` immediately; readers still
  /// probing the old snapshot finish undisturbed; the old snapshot's
  /// writer reference is dropped once the old parity drains.
  void Publish(std::shared_ptr<const T> next) {
    const uint64_t e = epoch_.load(std::memory_order_relaxed);
    const unsigned old_parity = static_cast<unsigned>(e & 1);
    const unsigned new_parity = old_parity ^ 1u;
    // The incoming parity slot has no readers (they would have had to
    // observe an epoch that has not been published yet), so the plain
    // shared_ptr assignment is race-free; the seq_cst epoch store below
    // releases it to the readers that will validate against the new epoch.
    slots_[new_parity] = std::move(next);
    epoch_.store(e + 1, std::memory_order_seq_cst);
    // Grace period: guards validated in the old parity all entered before
    // the flip in the seq_cst total order, so a drain load — which must
    // itself be seq_cst to sit after the flip in that order; a mere
    // acquire load could legally return a stale zero on weakly ordered
    // hardware — observes every such entry. Reading a decrement also
    // pairs acquire/release with the guard's exit, ordering the reader's
    // last probe before the reset below.
    while (readers_[old_parity].count.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    if (retire_hook_) {
      retire_hook_(std::move(slots_[old_parity]));
    }
    slots_[old_parity].reset();
  }

 private:
  /// One reader counter, alone on its cache line: the two parities, the
  /// epoch, and the slots would otherwise share a line and every guard's
  /// RMWs would ping-pong it between cores — re-creating a convoy the
  /// cell exists to remove.
  struct alignas(64) ReaderCount {
    std::atomic<uint64_t> count{0};
  };

  std::shared_ptr<const T> slots_[2];  ///< parity-indexed snapshot owners
  std::atomic<uint64_t> epoch_{0};
  mutable ReaderCount readers_[2];
  RetireHook retire_hook_;  ///< writer-side; invoked post-grace per retiree
};

}  // namespace geoblocks::util
