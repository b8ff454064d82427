// Binary max-heap over dense integer indices with position tracking,
// so priorities can be updated in O(log n). Used for the "most active
// free variable" order (BerkMin's global decisions, Remark 1's optimized
// implementation) and the Chaff-like literal order.
#pragma once

#include <cassert>
#include <vector>

namespace berkmin {

// Prior orders elements: prior(a, b) is true when a has strictly higher
// priority than b (i.e. a should be popped before b).
template <typename Prior>
class IndexedHeap {
 public:
  explicit IndexedHeap(Prior prior) : prior_(prior) {}

  // Extends the index universe to [0, n). New indices are not inserted.
  void grow(int n) {
    if (static_cast<int>(pos_.size()) < n) pos_.resize(n, -1);
  }

  bool contains(int idx) const {
    return idx < static_cast<int>(pos_.size()) && pos_[idx] >= 0;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void insert(int idx) {
    assert(idx < static_cast<int>(pos_.size()));
    if (pos_[idx] >= 0) return;
    pos_[idx] = static_cast<int>(heap_.size());
    heap_.push_back(idx);
    sift_up(pos_[idx]);
  }

  // Restores heap order after idx's priority increased.
  void increased(int idx) {
    if (contains(idx)) sift_up(pos_[idx]);
  }

  // Restores heap order after idx's priority decreased.
  void decreased(int idx) {
    if (contains(idx)) sift_down(pos_[idx]);
  }

  int top() const {
    assert(!heap_.empty());
    return heap_[0];
  }

  int pop() {
    const int result = heap_[0];
    pos_[result] = -1;
    if (heap_.size() > 1) {
      heap_[0] = heap_.back();
      pos_[heap_[0]] = 0;
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return result;
  }

  void clear() {
    for (const int idx : heap_) pos_[idx] = -1;
    heap_.clear();
  }

  // Takes `spent`'s buffers, emptied, keeping this heap's priority: the
  // heap is as new, with the capacity `spent` had grown to.
  void reuse(IndexedHeap& spent) {
    heap_.swap(spent.heap_);
    pos_.swap(spent.pos_);
    heap_.clear();
    pos_.clear();
  }

 private:
  void sift_up(int position) {
    const int idx = heap_[position];
    while (position > 0) {
      const int parent = (position - 1) / 2;
      if (!prior_(idx, heap_[parent])) break;
      heap_[position] = heap_[parent];
      pos_[heap_[position]] = position;
      position = parent;
    }
    heap_[position] = idx;
    pos_[idx] = position;
  }

  void sift_down(int position) {
    const int idx = heap_[position];
    const int count = static_cast<int>(heap_.size());
    for (;;) {
      int child = 2 * position + 1;
      if (child >= count) break;
      if (child + 1 < count && prior_(heap_[child + 1], heap_[child])) ++child;
      if (!prior_(heap_[child], idx)) break;
      heap_[position] = heap_[child];
      pos_[heap_[position]] = position;
      position = child;
    }
    heap_[position] = idx;
    pos_[idx] = position;
  }

  Prior prior_;
  std::vector<int> heap_;  // position -> index
  std::vector<int> pos_;   // index -> position, -1 if absent
};

}  // namespace berkmin
