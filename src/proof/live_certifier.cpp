#include "proof/live_certifier.h"

#include "core/solver.h"

namespace berkmin::proof {

LiveCertifier::LiveCertifier(Solver& solver)
    : LiveCertifier(solver, std::make_unique<MemoryProofWriter>(), true) {
  solver.set_proof(writer_.get());
}

}  // namespace berkmin::proof
