// Proof emission backends.
//
// A ProofWriter receives every clause addition and deletion an engine
// performs (SatEngine::set_proof attaches it: a Solver streams its
// clause-lifecycle sites into it, a PortfolioSolver replays its spliced
// trace into it once the formula is refuted). Three backends cover the
// common shapes:
//
//  * TextDratWriter — the standard textual DRAT format ("d" prefix for
//    deletions, DIMACS literals, 0-terminated lines), readable by external
//    checkers such as drat-trim;
//  * BinaryDratWriter — drat-trim's compressed binary format ('a'/'d'
//    step bytes, variable-length 7-bit literal encoding), typically 3-5x
//    smaller than text on the same trace;
//  * MemoryProofWriter — buffers the trace as a proof::Proof so it can be
//    checked in-process (DratChecker), trimmed, or serialized later.
//
// Writers are not thread-safe; a portfolio gives each worker its own
// internal writer through proof::ProofSplicer (splice.h) and touches the
// attached one only from the thread that called solve.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>

#include "cnf/literal.h"
#include "proof/proof.h"

namespace berkmin::proof {

class ProofWriter {
 public:
  virtual ~ProofWriter() = default;

  // Called with every clause the solver adds to / removes from its
  // database after loading; an empty `lits` addition is the final step of
  // an unsatisfiability proof.
  virtual void add_clause(std::span<const Lit> lits) = 0;
  virtual void delete_clause(std::span<const Lit> lits) = 0;

  std::uint64_t num_added() const { return added_; }
  std::uint64_t num_deleted() const { return deleted_; }

  // Short-write detection: stream-backed writers check the sink after
  // every step (and honor injected io_short_write faults) and latch a
  // failure instead of silently emitting a truncated trace — later steps
  // are dropped, ok() turns false and fail_reason() says what happened.
  // A trace from a failed writer must be treated as incomplete.
  // MemoryProofWriter buffers in-process and never fails.
  bool ok() const { return !failed_; }
  const std::string& fail_reason() const { return fail_reason_; }

 protected:
  void mark_failed(std::string reason) {
    if (!failed_) {
      failed_ = true;
      fail_reason_ = std::move(reason);
    }
  }

  std::uint64_t added_ = 0;
  std::uint64_t deleted_ = 0;
  bool failed_ = false;
  std::string fail_reason_;
};

class TextDratWriter : public ProofWriter {
 public:
  explicit TextDratWriter(std::ostream& out) : out_(out) {}

  void add_clause(std::span<const Lit> lits) override;
  void delete_clause(std::span<const Lit> lits) override;

 private:
  void write_lits(std::span<const Lit> lits);
  void check_stream();

  std::ostream& out_;
};

class BinaryDratWriter : public ProofWriter {
 public:
  explicit BinaryDratWriter(std::ostream& out) : out_(out) {}

  void add_clause(std::span<const Lit> lits) override;
  void delete_clause(std::span<const Lit> lits) override;

 private:
  void write_step(char tag, std::span<const Lit> lits);
  void check_stream();

  std::ostream& out_;
};

class MemoryProofWriter : public ProofWriter {
 public:
  void add_clause(std::span<const Lit> lits) override {
    ++added_;
    proof_.add(lits);
  }
  void delete_clause(std::span<const Lit> lits) override {
    ++deleted_;
    proof_.del(lits);
  }

  const Proof& proof() const { return proof_; }
  Proof take_proof() { return std::move(proof_); }

 private:
  Proof proof_;
};

// Serializes a buffered proof through any writer (used to turn a checked
// or trimmed in-memory trace back into a DRAT file).
void replay(const Proof& proof, ProofWriter& writer);

}  // namespace berkmin::proof
