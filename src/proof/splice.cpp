#include "proof/splice.h"

#include <algorithm>
#include <cassert>

namespace berkmin::proof {

namespace {

std::vector<std::int32_t> sorted_key(std::span<const Lit> lits) {
  std::vector<std::int32_t> key;
  key.reserve(lits.size());
  for (const Lit l : lits) key.push_back(l.code());
  std::sort(key.begin(), key.end());
  return key;
}

}  // namespace

ProofSplicer::ProofSplicer(int num_workers) {
  assert(num_workers >= 1);
  writers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    writers_.push_back(std::make_unique<TaggedWriter>(this));
  }
  import_cursors_.assign(static_cast<std::size_t>(num_workers), 0);
}

ProofWriter* ProofSplicer::writer(int id) {
  assert(id >= 0 && id < static_cast<int>(writers_.size()));
  return writers_[static_cast<std::size_t>(id)].get();
}

void ProofSplicer::note_published(int id, std::span<const Lit> lits,
                                  std::size_t entry_index) {
  assert(id >= 0 && id < static_cast<int>(writers_.size()));
  TaggedWriter& w = *writers_[static_cast<std::size_t>(id)];
  w.published_[sorted_key(lits)] = entry_index;
}

void ProofSplicer::note_collected(int id, std::size_t cursor) {
  assert(id >= 0 && id < static_cast<int>(writers_.size()));
  std::lock_guard<std::mutex> lock(deferred_mu_);
  std::size_t& noted = import_cursors_[static_cast<std::size_t>(id)];
  if (cursor <= noted) return;
  noted = cursor;
  std::size_t safe = noted;
  for (const std::size_t c : import_cursors_) safe = std::min(safe, c);
  // Sequence every parked deletion whose entry all workers have imported
  // past; a fresh sequence number places it after those copy-adds.
  std::size_t kept = 0;
  for (DeferredDeletion& d : deferred_) {
    if (d.entry_index < safe) {
      const std::uint64_t seq =
          next_seq_.fetch_add(1, std::memory_order_relaxed);
      released_.push_back(SequencedStep{seq, std::move(d.step)});
    } else {
      deferred_[kept++] = std::move(d);
    }
  }
  deferred_.resize(kept);
}

void ProofSplicer::TaggedWriter::add_clause(std::span<const Lit> lits) {
  ++added_;
  const std::uint64_t seq =
      owner_->next_seq_.fetch_add(1, std::memory_order_relaxed);
  buffer_.push_back(SequencedStep{
      seq, ProofStep{StepKind::add, {lits.begin(), lits.end()}}});
}

void ProofSplicer::TaggedWriter::delete_clause(std::span<const Lit> lits) {
  ++deleted_;
  ProofStep step{StepKind::del, {lits.begin(), lits.end()}};
  const auto it = published_.find(sorted_key(lits));
  if (it != published_.end()) {
    // A sibling may still be between collecting this clause and logging
    // its copy; park the deletion until note_collected() covers the entry.
    std::lock_guard<std::mutex> lock(owner_->deferred_mu_);
    owner_->deferred_.push_back(DeferredDeletion{it->second, std::move(step)});
    return;
  }
  const std::uint64_t seq =
      owner_->next_seq_.fetch_add(1, std::memory_order_relaxed);
  buffer_.push_back(SequencedStep{seq, std::move(step)});
}

Proof ProofSplicer::spliced() const {
  std::lock_guard<std::mutex> lock(deferred_mu_);
  std::size_t buffered = released_.size();
  for (const auto& w : writers_) buffered += w->buffer_.size();
  std::vector<const SequencedStep*> all;
  all.reserve(buffered);
  for (const auto& w : writers_) {
    for (const SequencedStep& s : w->buffer_) all.push_back(&s);
  }
  for (const SequencedStep& s : released_) all.push_back(&s);
  std::sort(all.begin(), all.end(),
            [](const SequencedStep* a, const SequencedStep* b) {
              return a->seq < b->seq;
            });
  Proof out;
  out.steps.reserve(all.size() + deferred_.size());
  for (const SequencedStep* s : all) out.steps.push_back(s->step);
  // Still-parked deletions go at the tail: no later step can lean on the
  // deleted copies, so the trace stays checkable and the deletions stay
  // visible to consumers (and to backward trimming).
  for (const DeferredDeletion& d : deferred_) out.steps.push_back(d.step);
  return out;
}

}  // namespace berkmin::proof
