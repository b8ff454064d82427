// IC3/PDR over a TransitionSystem.
//
// A single copy of the transition relation lives in the backend for the
// whole run: state variables are free, next-state variables are their
// image under T. Frames are delta-encoded — frames_[i] holds the cubes
// whose highest proven frame is i, each blocked clause (¬cube) added
// into frame i's *named* backend clause group — so "solve relative to
// F_k" is just activating the groups of frames k..N and parking the
// rest (set_group_active), with no hand-rolled activation literals in
// the clauses or the assumption vector. Frame 0 is the all-zero initial
// state, encoded as unit clauses in frame 0's group.
//
// The one temporary clause IC3 needs (¬s while searching predecessors
// of s) rides in a scratch clause group, pushed and popped around each
// query; the backend's selector free-list recycles the popped selector
// into the next push, so a full run's hundreds of scratch cycles cause
// zero net group and variable growth (see README "Model checking").
//
// Verdicts are checkable:
//   * unsafe: obligations carry full-state cubes plus the concrete input
//     vector stepping each to its successor, so the counterexample trace
//     replays deterministically through circuit simulation
//     (cex_validated).
//   * safe_invariant: the result carries the extracted inductive
//     invariant, which certify() (engine.h) re-checks on a fresh,
//     DRAT-checked solver — initiation by direct evaluation, the property
//     and consecution clause-by-clause by queries that must all come back
//     certified UNSAT.
#pragma once

#include <vector>

#include "engines/backend.h"
#include "engines/engine.h"
#include "engines/transition_system.h"

namespace berkmin::engines {

struct Ic3Options {
  // Give up (Verdict::unknown) once the frontier passes this frame.
  int max_frames = 64;
  // Per-query budget. A blown budget on a blocking query yields
  // Verdict::unknown; on a propagation query the cube just stays put.
  Budget query_budget = Budget::unlimited();
};

class Ic3Engine {
 public:
  Ic3Engine(const TransitionSystem& ts, EngineBackend& backend,
            Ic3Options options = {});

  // May be called once per engine.
  EngineResult run();

 private:
  // A cube over latch indices: Lit(j, false) means "latch j is 1".
  using Cube = std::vector<Lit>;

  struct Obligation {
    Cube state;                // full-state cube (all latches assigned)
    std::vector<bool> inputs;  // inputs at `state`: step to the parent's
                               // state, or fire bad for the root
    int level = 0;
    int parent = -1;  // index into obligations_, -1 for the root
  };

  Lit state_lit(Lit cube_lit) const;
  Lit next_lit(Lit cube_lit) const;
  // Activates the named groups of frames `from`..frontier and parks the
  // rest (only flipping frames whose state changed). False on a backend
  // refusal.
  bool activate_from(int from);
  Cube model_state() const;
  std::vector<bool> model_inputs() const;
  static bool is_init(const Cube& cube);  // all-zero satisfies the cube

  SolveStatus query(int from, std::span<const Lit> assumptions);
  // SAT? [ F_{level-1} ∧ ¬cube ∧ T ∧ cube' ]  (the temp ¬cube clause in
  // a scratch backend group; callers read the model/core, then
  // pop_scratch()).
  SolveStatus predecessor_query(const Cube& cube, int level);
  bool pop_scratch();
  bool open_frame();
  // Records a refused add (EngineBackend::refused) as the run's failure;
  // returns whether the add went through.
  bool accepted(bool added, const char* what);
  // Adds ¬cube to frame `level` and records the cube there; false on a
  // refusal, which leaves the frame as it was.
  bool add_blocked(const Cube& cube, int level);
  // Shrinks a just-blocked cube: UNSAT-core filter, then bounded literal
  // dropping; keeps the cube init-disjoint (≥1 positive literal).
  Cube generalize(Cube cube, int level);
  // Pushes frame clauses forward; returns the lowest frame whose delta
  // emptied (invariant found), or -1.
  int propagate();
  EngineResult make_counterexample(int obligation_index);

  const TransitionSystem& ts_;
  EngineBackend& backend_;
  Ic3Options opts_;

  FrameVars fv_;  // the one transition-relation copy
  // The first refused add, which ends the run ("" while none).
  std::string failure_;
  // frame_groups_[i] holds frames_[i]'s blocked clauses (and init at 0);
  // frame_active_ mirrors each group's backend activation state so
  // activate_from only flips the frames whose state changed.
  std::vector<GroupId> frame_groups_;
  std::vector<char> frame_active_;
  // predecessor_query's temporary groups. A stack, not a single handle:
  // generalize() issues nested predecessor queries while the outer
  // query's scratch group (and its ¬cube blocker, subsumed by the
  // candidates') is still live.
  std::vector<GroupId> scratch_;
  std::vector<std::vector<Cube>> frames_;  // delta-encoded; [0] stays empty
  std::vector<Obligation> obligations_;
  EngineStats stats_;
};

}  // namespace berkmin::engines
