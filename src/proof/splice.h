// Splicing per-worker proof traces into one checkable portfolio proof.
//
// A portfolio worker's trace is not checkable on its own: clauses imported
// from siblings appear in its derivations without a justification. The
// splicer fixes that by giving every worker a ProofWriter that tags each
// step with a global sequence number (one shared atomic counter), and by
// merging all per-worker buffers in sequence order after the race. The
// merged trace is plain DRAT: no step records which worker produced it.
// PortfolioSolver replays it into the writer attached to the portfolio
// (SatEngine::set_proof) once the formula is refuted. The merged trace is a valid DRUP/DRAT proof of the
// shared formula because
//
//  * a clause is published to the exchange only after its addition was
//    logged, and an importer logs its (root-simplified) copy only after
//    collecting it, so every add appears after the adds it depends on —
//    the atomic counter's total order extends the export -> import
//    happens-before edges;
//  * every worker logs a deletion exactly when it drops a clause from its
//    own database, so at any prefix of the spliced trace the checker's
//    live multiset holds at least one copy of every clause some worker
//    still has — each worker's own copy-add precedes its own deletion,
//    and its derivations only lean on clauses still in its database;
//  * the one race that rule leaves open is closed by deferral: worker A
//    deleting a clause it PUBLISHED could otherwise land before a slow
//    sibling's copy-add (the sibling's cursor moves inside collect, its
//    import is logged after), leaving that copy-add without a live
//    justification. Deletions of published clauses are therefore parked
//    (keyed by their exchange entry index) and sequenced only once
//    note_collected() shows every worker's imports have been logged past
//    that entry; whatever is still parked when the race ends is flushed
//    at the tail of spliced(), where no later step can depend on it.
//
// Deletions of clauses that were never accepted by the exchange pass
// through immediately: no sibling ever received a copy, and an identical
// independently-derived lemma elsewhere is backed by that worker's own
// logged addition (the checker deletes by literal multiset, one live copy
// per holder). Keeping deletions in the trace is what bounds a checker's
// live database on long multi-worker races — see
// CheckResult::peak_live_clauses.
//
// Thread safety: writer(i) and note_published(i, ...) must be used by
// worker i's thread only (they touch that worker's buffer and published
// map); note_collected() and the deferred queue are mutex-protected and
// may be called from any worker thread. spliced() may be called once
// every worker thread has joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "proof/proof.h"
#include "proof/proof_writer.h"

namespace berkmin::proof {

class ProofSplicer {
 public:
  explicit ProofSplicer(int num_workers);

  // The proof sink for worker `id`; owned by the splicer, valid for its
  // lifetime. Additions are sequenced as they arrive; deletions of
  // published clauses are deferred as described above, all others are
  // sequenced at once.
  ProofWriter* writer(int id);

  // Worker `id` just had `lits` accepted by the clause exchange as entry
  // `entry_index`. Must be called from worker id's own thread, after the
  // clause's addition was logged (Solver logs at learn time, before the
  // learn callback publishes). A later deletion of the same literals by
  // this worker is deferred until the entry is safe to delete.
  void note_published(int id, std::span<const Lit> lits,
                      std::size_t entry_index);

  // Worker `id` has imported — and therefore logged copies for — every
  // exchange entry below `cursor`. Releases deferred deletions whose
  // entry is below every worker's noted cursor, giving them fresh
  // sequence numbers (i.e. "now", after all copy-adds they must follow).
  void note_collected(int id, std::size_t cursor);

  // Merges every worker's buffer (plus released deletions) into one trace
  // ordered by the global sequence, with any still-deferred deletions
  // appended at the end. Call only while no worker is solving.
  Proof spliced() const;

 private:
  struct SequencedStep {
    std::uint64_t seq = 0;
    ProofStep step;
  };

  class TaggedWriter : public ProofWriter {
   public:
    explicit TaggedWriter(ProofSplicer* owner) : owner_(owner) {}
    void add_clause(std::span<const Lit> lits) override;
    void delete_clause(std::span<const Lit> lits) override;

   private:
    friend class ProofSplicer;
    ProofSplicer* owner_;
    std::vector<SequencedStep> buffer_;
    // Sorted-code key -> exchange entry index for every clause this
    // worker published. Touched only from this worker's thread.
    std::map<std::vector<std::int32_t>, std::size_t> published_;
  };

  struct DeferredDeletion {
    std::size_t entry_index = 0;
    ProofStep step;
  };

  std::atomic<std::uint64_t> next_seq_{0};
  std::vector<std::unique_ptr<TaggedWriter>> writers_;

  mutable std::mutex deferred_mu_;
  std::vector<DeferredDeletion> deferred_;   // parked, unsequenced
  std::vector<SequencedStep> released_;      // sequenced by note_collected
  std::vector<std::size_t> import_cursors_;  // per worker, via note_collected
};

}  // namespace berkmin::proof
