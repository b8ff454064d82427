// DIMACS CNF reader and writer.
//
// The reader accepts the format used by the DIMACS / SATLIB suites the
// paper benchmarks on: "c" comment lines, a "p cnf <vars> <clauses>"
// header, whitespace-separated literals terminated by 0 (clauses may span
// lines and several clauses may share a line), and the SATLIB "%" footer.
//
// Two entry points:
//  * read_checked() never throws on malformed input: it returns the
//    formula parsed so far plus a list of ParseIssues, each carrying the
//    line number and byte offset where it was found. Issues are either
//    fatal (the structure is broken — parsing stops there) or recoverable
//    warnings (today: the header's clause count disagreeing with the
//    clauses actually read — common in hand-edited files and harmless to
//    solving, so the formula is still usable).
//  * read() is the strict legacy wrapper: it raises DimacsError on the
//    first *fatal* issue and silently tolerates warnings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "cnf/cnf_formula.h"

namespace berkmin::dimacs {

class DimacsError : public std::runtime_error {
 public:
  DimacsError(int line, const std::string& message)
      : std::runtime_error("dimacs:" + std::to_string(line) + ": " + message),
        line_(line) {}

  int line() const { return line_; }

 private:
  int line_;
};

// One problem found while parsing, anchored to where it happened.
struct ParseIssue {
  bool fatal = true;  // false: recoverable warning, formula still usable
  int line = 0;
  std::uint64_t byte_offset = 0;  // from the start of the stream
  std::string message;

  std::string to_string() const {
    return std::string(fatal ? "error" : "warning") + " at line " +
           std::to_string(line) + " (byte " + std::to_string(byte_offset) +
           "): " + message;
  }
};

struct ParseResult {
  Cnf cnf;
  std::vector<ParseIssue> issues;

  // True when no fatal issue was found (warnings allowed).
  bool ok() const {
    for (const ParseIssue& issue : issues) {
      if (issue.fatal) return false;
    }
    return true;
  }
  // The first fatal issue's rendered message ("" when ok()).
  std::string first_error() const {
    for (const ParseIssue& issue : issues) {
      if (issue.fatal) return issue.to_string();
    }
    return {};
  }
};

ParseResult read_checked(std::istream& in);
ParseResult read_checked_string(const std::string& text);
ParseResult read_checked_file(const std::string& path);

Cnf read(std::istream& in);
Cnf read_string(const std::string& text);
Cnf read_file(const std::string& path);

void write(std::ostream& out, const Cnf& cnf, const std::string& comment = "");
void write_file(const std::string& path, const Cnf& cnf,
                const std::string& comment = "");

}  // namespace berkmin::dimacs
