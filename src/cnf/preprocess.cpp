#include "cnf/preprocess.h"

#include <algorithm>
#include <map>

#include "cnf/simplify.h"
#include "proof/proof_writer.h"

namespace berkmin {
namespace {

// 64-bit signature: bit (var % 64) set for every member variable. C ⊆ D
// requires sig(C) & ~sig(D) == 0 — a cheap necessary condition.
std::uint64_t signature_of(const std::vector<Lit>& clause) {
  std::uint64_t sig = 0;
  for (const Lit l : clause) sig |= std::uint64_t{1} << (l.var() & 63);
  return sig;
}

// Both clauses sorted. True iff small ⊆ large.
bool is_subset(const std::vector<Lit>& small, const std::vector<Lit>& large) {
  std::size_t j = 0;
  for (const Lit l : small) {
    while (j < large.size() && large[j] < l) ++j;
    if (j == large.size() || large[j] != l) return false;
    ++j;
  }
  return true;
}

// True iff flipping `pivot` inside `small` makes it a subset of `large`
// (i.e. small self-subsumes large, strengthening away ~pivot).
bool is_subset_with_flip(const std::vector<Lit>& small,
                         const std::vector<Lit>& large, Lit pivot) {
  for (Lit l : small) {
    if (l == pivot) l = ~pivot;
    if (!std::binary_search(large.begin(), large.end(), l)) return false;
  }
  return true;
}

class Preprocessor {
 public:
  Preprocessor(const Cnf& cnf, const PreprocessOptions& options,
               proof::ProofWriter* proof)
      : options_(options), proof_(proof), num_vars_(cnf.num_vars()) {
    for (const auto& raw : cnf.clauses()) {
      std::vector<Lit> normalized = raw;
      if (!normalize_clause(normalized)) continue;  // tautology
      clauses_.push_back(std::move(normalized));
    }
  }

  PreprocessResult run() {
    PreprocessResult result;
    bool changed = true;
    while (changed && result.rounds < options_.max_rounds) {
      ++result.rounds;
      changed = false;

      // Unit propagation first: it both shrinks clauses and exposes more
      // subsumptions. When logging, the before/after multiset diff turns
      // the round into DRAT steps: discovered units (each RUP by the same
      // propagation that found it) first, then every new stripped form
      // (RUP from its parent plus the units), then the deletions of the
      // forms that disappeared — adds strictly before deletes.
      std::map<std::vector<Lit>, int> diff;
      if (proof_ != nullptr) {
        for (const auto& clause : clauses_) ++diff[clause];
      }
      Cnf current(num_vars_);
      for (auto& clause : clauses_) current.add_clause(std::move(clause));
      SimplifyResult simplified = simplify(current);
      result.propagated_units += simplified.root_units.size();
      for (const Lit u : simplified.root_units) {
        if (proof_ != nullptr) proof_->add_clause(std::span<const Lit>(&u, 1));
        units_.push_back(u);
      }
      if (simplified.unsat) {
        if (proof_ != nullptr) proof_->add_clause({});
        result.unsat = true;
        result.cnf = std::move(simplified.cnf);
        return result;
      }
      clauses_.clear();
      for (const auto& clause : simplified.cnf.clauses()) {
        clauses_.push_back(clause);
      }
      if (proof_ != nullptr) {
        for (const auto& clause : clauses_) {
          auto it = diff.find(clause);
          if (it != diff.end() && it->second > 0) {
            --it->second;  // unchanged: no step
          } else {
            proof_->add_clause(clause);
          }
        }
        for (const auto& [lits, count] : diff) {
          for (int k = 0; k < count; ++k) proof_->delete_clause(lits);
        }
      }
      if (!simplified.root_units.empty()) changed = true;

      if (options_.subsumption && subsumption_round(&result)) changed = true;
      if (options_.self_subsumption && self_subsumption_round(&result)) {
        changed = true;
      }
    }

    // Simplification drops the clauses a unit satisfies, so the units
    // themselves stay in the reduced formula: without them its models
    // need not satisfy the input.
    result.cnf = Cnf(num_vars_);
    for (const Lit u : units_) result.cnf.add_unit(u);
    for (auto& clause : clauses_) result.cnf.add_clause(std::move(clause));
    return result;
  }

 private:
  void build_occurrence_index() {
    occ_.assign(2 * static_cast<std::size_t>(num_vars_), {});
    signatures_.resize(clauses_.size());
    alive_.assign(clauses_.size(), 1);
    for (std::size_t id = 0; id < clauses_.size(); ++id) {
      signatures_[id] = signature_of(clauses_[id]);
      for (const Lit l : clauses_[id]) {
        occ_[l.code()].push_back(static_cast<std::uint32_t>(id));
      }
    }
  }

  // The literal of `clause` with the shortest occurrence list: candidates
  // for supersets must contain it.
  Lit best_watch(const std::vector<Lit>& clause) const {
    Lit best = clause[0];
    std::size_t best_count = occ_[best.code()].size();
    for (const Lit l : clause) {
      if (occ_[l.code()].size() < best_count) {
        best = l;
        best_count = occ_[l.code()].size();
      }
    }
    return best;
  }

  bool subsumption_round(PreprocessResult* result) {
    build_occurrence_index();
    bool changed = false;
    for (std::size_t id = 0; id < clauses_.size(); ++id) {
      if (!alive_[id] || clauses_[id].empty()) continue;
      const Lit watch = best_watch(clauses_[id]);
      for (const std::uint32_t other : occ_[watch.code()]) {
        if (other == id || !alive_[other]) continue;
        if (clauses_[other].size() < clauses_[id].size()) continue;
        if (other < id && clauses_[other].size() == clauses_[id].size()) {
          continue;  // of two duplicates keep the earlier one
        }
        if ((signatures_[id] & ~signatures_[other]) != 0) continue;
        if (is_subset(clauses_[id], clauses_[other])) {
          alive_[other] = 0;
          if (proof_ != nullptr) proof_->delete_clause(clauses_[other]);
          ++result->removed_subsumed;
          changed = true;
        }
      }
    }
    compact();
    return changed;
  }

  bool self_subsumption_round(PreprocessResult* result) {
    build_occurrence_index();
    bool changed = false;
    for (std::size_t id = 0; id < clauses_.size(); ++id) {
      if (!alive_[id]) continue;
      // Try each literal of the clause as the resolution pivot.
      for (const Lit pivot : std::vector<Lit>(clauses_[id])) {
        for (const std::uint32_t other : occ_[(~pivot).code()]) {
          if (!alive_[other] || other == id) continue;
          if (clauses_[other].size() < clauses_[id].size()) continue;
          if (is_subset_with_flip(clauses_[id], clauses_[other], pivot)) {
            // Strengthen `other`: remove ~pivot. The resolvent is RUP
            // against the current database (falsifying it unit-propagates
            // `id` and then conflicts on the old `other`), so log it
            // before deleting the weaker form it replaces.
            auto& target = clauses_[other];
            const auto old_form = target;
            target.erase(std::find(target.begin(), target.end(), ~pivot));
            if (proof_ != nullptr) {
              proof_->add_clause(target);
              proof_->delete_clause(old_form);
            }
            ++result->strengthened_literals;
            changed = true;
          }
        }
      }
    }
    compact();
    return changed;
  }

  void compact() {
    if (alive_.empty()) return;
    std::vector<std::vector<Lit>> kept;
    kept.reserve(clauses_.size());
    for (std::size_t id = 0; id < clauses_.size(); ++id) {
      if (alive_[id]) kept.push_back(std::move(clauses_[id]));
    }
    clauses_ = std::move(kept);
    alive_.clear();
  }

  PreprocessOptions options_;
  proof::ProofWriter* proof_;
  int num_vars_;
  std::vector<std::vector<Lit>> clauses_;
  std::vector<Lit> units_;  // root units found so far, in discovery order
  std::vector<std::vector<std::uint32_t>> occ_;
  std::vector<std::uint64_t> signatures_;
  std::vector<char> alive_;
};

}  // namespace

PreprocessResult preprocess(const Cnf& cnf, const PreprocessOptions& options,
                            proof::ProofWriter* proof) {
  return Preprocessor(cnf, options, proof).run();
}

}  // namespace berkmin
