#ifndef GSLS_UTIL_CSR_H_
#define GSLS_UTIL_CSR_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace gsls {

/// Compressed sparse rows: a partition of one contiguous payload array into
/// `rows()` spans, addressed by an offsets array. The cache-flat replacement
/// for `vector<vector<T>>` on every hot index of the solver (rule-head and
/// occurrence lists): a row scan walks linear memory and construction is
/// two passes with zero per-row reallocation.
///
/// Build protocol (counting sort over rows):
///
///   csr.Reset(rows);
///   for (item : items) csr.CountAt(row_of(item));   // pass 1: degrees
///   csr.FinishCounting();                           // prefix sum + alloc
///   for (item : items) csr.Fill(row_of(item), item); // pass 2: place
///   csr.FinishFilling();                            // restore offsets
///
/// `Fill` must place exactly the counted number of items per row (asserted
/// in `FinishFilling`); items of one row land in `Fill` call order.
template <typename T>
class Csr {
 public:
  Csr() = default;

  /// Starts a new build over `rows` empty rows.
  void Reset(size_t rows) {
    offsets_.assign(rows + 1, 0);
    payload_.clear();
  }

  /// Pass 1: one future payload item in `row`.
  void CountAt(uint32_t row) { ++offsets_[row + 1]; }

  /// Pass 1: `n` future payload items in `row`.
  void AddCount(uint32_t row, uint32_t n) { offsets_[row + 1] += n; }

  /// Exclusive prefix sum over the counts; sizes the payload.
  void FinishCounting() {
    for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    payload_.resize(offsets_.back());
  }

  /// Pass 2: appends `value` to `row` (uses the offsets as cursors).
  void Fill(uint32_t row, T value) { payload_[offsets_[row]++] = value; }

  /// Shifts the cursor-advanced offsets back into place. After this the
  /// structure is read-only until the next `Reset`.
  void FinishFilling() {
    assert(offsets_.size() < 2 ||
           offsets_[offsets_.size() - 2] == payload_.size());
    for (size_t i = offsets_.size() - 1; i > 0; --i) {
      offsets_[i] = offsets_[i - 1];
    }
    offsets_[0] = 0;
  }

  size_t rows() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t size() const { return payload_.size(); }

  std::span<const T> Row(uint32_t row) const {
    return std::span<const T>(payload_.data() + offsets_[row],
                              offsets_[row + 1] - offsets_[row]);
  }

 private:
  std::vector<uint32_t> offsets_;  ///< rows()+1 entries; offsets_[0] == 0
  std::vector<T> payload_;
};

}  // namespace gsls

#endif  // GSLS_UTIL_CSR_H_
