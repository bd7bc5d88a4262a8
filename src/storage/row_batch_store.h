// RowBatchStore: the per-partition sequence of row batches, addressed by
// PackedPointer. Appends always go to the newest batch; a new batch is
// allocated when the current one is full.
//
// Concurrency contract (matching Indexed DataFrame usage): exactly one
// appender at a time per partition (Spark executes a partition's tasks
// sequentially; IndexedRelation serializes appends per partition); readers
// run lock-free and concurrently with the appender. Batches live in a
// preallocated slot directory so the appender never relocates memory that
// readers may be traversing; a StoreWatermark, taken by the appender at
// the end of a commit and published in the partition's commit record,
// delimits one consistent version of the data.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/config.h"
#include "storage/row_batch.h"

namespace idf {

/// A consistent prefix of the store: everything up to (and excluding)
/// batch `num_batches-1`, plus the first `last_batch_bytes` bytes of the
/// last batch. Appends are strictly sequential, so any such prefix is a
/// version.
struct StoreWatermark {
  uint32_t num_batches = 0;
  size_t last_batch_bytes = 0;
  size_t num_rows = 0;
};

class RowBatchStore {
 public:
  /// `max_batches` bounds the slot directory (the paper allows 2^31
  /// batches per partition; we preallocate pointers for `max_batches` and
  /// fail with CapacityError beyond — configurable).
  RowBatchStore(size_t batch_bytes, size_t max_row_bytes,
                size_t max_batches = 65536);
  ~RowBatchStore();

  /// Encodes and appends `row`; `back_pointer` is written into the row
  /// header (pointer to the previous row with the same key, or Null).
  /// Returns the packed pointer addressing the new row. `prev_size` is the
  /// encoded size of the previous row in the chain (0 when none) and is
  /// packed into the pointer per the paper's layout. Appender-only.
  Result<PackedPointer> AppendRow(const Schema& schema, const Row& row,
                                  PackedPointer back_pointer, uint32_t prev_size);

  /// Appends a pre-encoded payload (bulk index build). Appender-only.
  Result<PackedPointer> AppendEncoded(const uint8_t* payload, size_t len,
                                      PackedPointer back_pointer,
                                      uint32_t prev_size);

  /// Payload address of the row `ptr` points at. `ptr` must be non-null and
  /// produced by this store. Thread-safe.
  const uint8_t* PayloadAt(PackedPointer ptr) const {
    return BatchAt(ptr.batch())->payload_at(ptr.offset());
  }

  /// Back pointer stored in the header of the row `ptr` points at.
  PackedPointer BackPointerAt(PackedPointer ptr) const {
    return BatchAt(ptr.batch())->back_pointer_at(ptr.offset());
  }

  /// Batch pointer (thread-safe for indexes below the watermark).
  const RowBatch* BatchAt(uint32_t i) const {
    return Slot(i).load(std::memory_order_acquire);
  }

  /// Captures the current consistent prefix. Thread-safe.
  StoreWatermark Watermark() const;

  size_t num_batches() const {
    return num_batches_.load(std::memory_order_acquire);
  }
  size_t num_rows() const { return num_rows_.load(std::memory_order_acquire); }
  size_t max_batches() const { return max_batches_; }

  /// Total bytes allocated in batches (capacity) and actually used.
  size_t allocated_bytes() const { return num_batches() * batch_bytes_; }
  size_t used_bytes() const;

  size_t max_row_bytes() const { return max_row_bytes_; }

 private:
  size_t batch_bytes_;
  size_t max_row_bytes_;
  size_t max_batches_;
  std::atomic<size_t> num_batches_{0};
  std::atomic<size_t> num_rows_{0};
  struct UnmapSlots {
    size_t bytes;
    void operator()(RowBatch** p) const;
  };
  std::atomic_ref<RowBatch*> Slot(size_t i) const {
    return std::atomic_ref<RowBatch*>(slots_[i]);
  }
  // The batch directory is an anonymous mapping: the kernel supplies its
  // zero pages on first touch, so the preallocated slots (512 KiB at the
  // default max_batches) cost no resident memory until batches fill them.
  // Slots are accessed atomically via Slot().
  std::unique_ptr<RowBatch*[], UnmapSlots> slots_;
  std::vector<uint8_t> scratch_;
};

}  // namespace idf
