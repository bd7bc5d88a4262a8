#include "storage/row_batch_store.h"

#include <sys/mman.h>

#include <new>

namespace idf {

namespace {

RowBatch** MapZeroedSlots(size_t bytes) {
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  return static_cast<RowBatch**>(mem);
}

}  // namespace

void RowBatchStore::UnmapSlots::operator()(RowBatch** p) const {
  munmap(p, bytes);
}

RowBatchStore::RowBatchStore(size_t batch_bytes, size_t max_row_bytes,
                             size_t max_batches)
    : batch_bytes_(batch_bytes),
      max_row_bytes_(max_row_bytes),
      max_batches_(max_batches),
      slots_(MapZeroedSlots(max_batches * sizeof(RowBatch*)),
             UnmapSlots{max_batches * sizeof(RowBatch*)}) {}

RowBatchStore::~RowBatchStore() {
  size_t n = num_batches_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    delete slots_[i];
  }
}

Result<PackedPointer> RowBatchStore::AppendRow(const Schema& schema, const Row& row,
                                               PackedPointer back_pointer,
                                               uint32_t prev_size) {
  IDF_RETURN_NOT_OK(EncodeRow(schema, row, &scratch_));
  if (scratch_.size() > max_row_bytes_) {
    return Status::CapacityError("encoded row of " +
                                 std::to_string(scratch_.size()) +
                                 " bytes exceeds max_row_bytes=" +
                                 std::to_string(max_row_bytes_));
  }
  return AppendEncoded(scratch_.data(), scratch_.size(), back_pointer, prev_size);
}

Result<PackedPointer> RowBatchStore::AppendEncoded(const uint8_t* payload, size_t len,
                                                   PackedPointer back_pointer,
                                                   uint32_t prev_size) {
  size_t n = num_batches_.load(std::memory_order_relaxed);
  RowBatch* current = n == 0 ? nullptr : slots_[n - 1];
  if (current == nullptr || current->remaining() < len + 16) {
    if (n >= max_batches_) {
      return Status::CapacityError(
          "row batch directory full (" + std::to_string(max_batches_) +
          " batches); raise max_batches");
    }
    current = new RowBatch(batch_bytes_);
    Slot(n).store(current, std::memory_order_release);
    num_batches_.store(n + 1, std::memory_order_release);
    n = n + 1;
  }
  auto offset_res = current->AppendEncoded(payload, len, back_pointer);
  if (!offset_res.ok()) return offset_res.status();
  num_rows_.fetch_add(1, std::memory_order_release);
  PackedPointer ptr =
      PackedPointer::MakeChecked(n - 1, offset_res.ValueUnsafe(), prev_size);
  if (ptr.is_null()) {
    return Status::Internal("packed pointer overflow");
  }
  return ptr;
}

StoreWatermark RowBatchStore::Watermark() const {
  StoreWatermark wm;
  // Read row count first: the rows it covers are fully published by the
  // time we read the batch sizes below (appends publish size before count).
  wm.num_rows = num_rows_.load(std::memory_order_acquire);
  wm.num_batches = static_cast<uint32_t>(num_batches_.load(std::memory_order_acquire));
  if (wm.num_batches > 0) {
    wm.last_batch_bytes =
        Slot(wm.num_batches - 1).load(std::memory_order_acquire)->committed_size();
  }
  return wm;
}

size_t RowBatchStore::used_bytes() const {
  size_t total = 0;
  size_t n = num_batches();
  for (size_t i = 0; i < n; ++i) total += BatchAt(static_cast<uint32_t>(i))->committed_size();
  return total;
}

}  // namespace idf
