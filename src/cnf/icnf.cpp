#include "cnf/icnf.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace berkmin::icnf {

std::size_t Script::num_solves() const {
  std::size_t n = 0;
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::solve) ++n;
  }
  return n;
}

int Script::num_vars() const {
  int vars = declared_vars;
  for (const Op& op : ops) {
    for (const Lit l : op.lits) vars = std::max(vars, l.var() + 1);
  }
  return vars;
}

namespace {

// Internal control flow of parse_checked: failures carry the position and
// are caught at the top, never escaping to callers.
struct IcnfFailure {
  int line;
  std::uint64_t offset;
  std::string what;
};

// Byte offset where the line stream currently stands, from the start of
// the whole input.
std::uint64_t stream_offset(const std::istringstream& in,
                            const std::string& text, std::uint64_t line_start) {
  const auto pos = in.rdbuf()->pubseekoff(0, std::ios::cur, std::ios::in);
  return line_start + (pos == std::istringstream::pos_type(-1)
                           ? text.size()
                           : static_cast<std::uint64_t>(pos));
}

// Reads DIMACS literals up to the terminating 0.
std::vector<Lit> read_lits(std::istringstream& in, int line,
                           const std::string& text, std::uint64_t line_start) {
  const auto fail = [&](const std::string& what) {
    throw IcnfFailure{line, stream_offset(in, text, line_start), what};
  };
  std::vector<Lit> lits;
  int value = 0;
  bool terminated = false;
  while (in >> value) {
    if (value == 0) {
      terminated = true;
      break;
    }
    lits.push_back(from_dimacs(value));
  }
  if (!terminated) {
    if (!in.eof()) fail("non-numeric token in a literal list");
    fail("literal list not terminated by 0");
  }
  std::string rest;
  if (in >> rest) fail("trailing token '" + rest + "' after 0");
  return lits;
}

}  // namespace

ParseResult parse_checked(std::istream& in) {
  ParseResult result;
  Script& script = result.script;
  int depth = 0;
  bool saw_header = false;
  std::string line;
  int line_number = 0;
  std::uint64_t line_start = 0;
  try {
    while (std::getline(in, line)) {
      ++line_number;
      std::istringstream tokens(line);
      const auto fail = [&](const std::string& what) {
        throw IcnfFailure{line_number, stream_offset(tokens, line, line_start),
                          what};
      };
      std::string head;
      if (!(tokens >> head)) {
        line_start += line.size() + 1;
        continue;  // blank
      }
      if (head == "c") {
        line_start += line.size() + 1;
        continue;  // comment
      }

      if (head == "p") {
        if (saw_header) fail("duplicate header");
        saw_header = true;
        std::string format;
        tokens >> format;
        if (format != "inccnf" && format != "icnf" && format != "cnf") {
          fail("unknown format '" + format + "'");
        }
        // Optional "<vars> <clauses>" counts, both advisory.
        int vars = 0;
        if (tokens >> vars) script.declared_vars = vars;
        line_start += line.size() + 1;
        continue;
      }

      if (head == "push" || head == "pop") {
        // Only an optional terminating "0" may follow; anything else —
        // including a non-numeric token — is a malformed line.
        std::string token;
        if (tokens >> token && token != "0") {
          fail(head + " takes no arguments");
        }
        if (tokens >> token) {
          fail("trailing token '" + token + "' after 0");
        }
        if (head == "push") {
          ++depth;
          script.ops.push_back(Op::push());
        } else {
          if (depth == 0) fail("pop without a matching push");
          --depth;
          script.ops.push_back(Op::pop());
        }
        line_start += line.size() + 1;
        continue;
      }

      if (head == "a") {
        script.ops.push_back(
            Op::solve(read_lits(tokens, line_number, line, line_start)));
        line_start += line.size() + 1;
        continue;
      }

      // A clause line: the head token is its first literal.
      int first = 0;
      try {
        std::size_t consumed = 0;
        first = std::stoi(head, &consumed);
        if (consumed != head.size()) throw std::invalid_argument(head);
      } catch (const std::exception&) {
        fail("unrecognized directive '" + head + "'");
      }
      std::vector<Lit> lits;
      if (first != 0) {
        lits.push_back(from_dimacs(first));
        auto rest = read_lits(tokens, line_number, line, line_start);
        lits.insert(lits.end(), rest.begin(), rest.end());
      } else {
        // "0" alone adds the empty clause; anything after the terminator
        // is a malformed line, not literals to discard.
        std::string rest;
        if (tokens >> rest) {
          fail("trailing token '" + rest + "' after 0");
        }
      }
      script.ops.push_back(Op::clause(std::move(lits)));
      line_start += line.size() + 1;
    }
  } catch (const IcnfFailure& failure) {
    result.issues.push_back(
        ParseIssue{failure.line, failure.offset, failure.what});
  }
  return result;
}

ParseResult read_checked_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseResult result;
    result.issues.push_back(
        ParseIssue{0, 0, "cannot open icnf file '" + path + "'"});
    return result;
  }
  return parse_checked(in);
}

Script parse(std::istream& in) {
  ParseResult result = parse_checked(in);
  if (!result.ok()) throw std::runtime_error(result.first_error());
  return std::move(result.script);
}

Script read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open icnf file '" + path + "'");
  return parse(in);
}

void write(std::ostream& out, const Script& script,
           const std::string& comment) {
  if (!comment.empty()) out << "c " << comment << "\n";
  std::size_t clauses = 0;
  for (const Op& op : script.ops) {
    if (op.kind == Op::Kind::add_clause) ++clauses;
  }
  out << "p inccnf " << script.num_vars() << " " << clauses << "\n";
  for (const Op& op : script.ops) {
    switch (op.kind) {
      case Op::Kind::push:
        out << "push 0\n";
        break;
      case Op::Kind::pop:
        out << "pop 0\n";
        break;
      case Op::Kind::solve:
        out << "a";
        for (const Lit l : op.lits) out << " " << to_dimacs(l);
        out << " 0\n";
        break;
      case Op::Kind::add_clause:
        for (const Lit l : op.lits) out << to_dimacs(l) << " ";
        out << "0\n";
        break;
    }
  }
}

void write_file(const std::string& path, const Script& script,
                const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write icnf file '" + path + "'");
  write(out, script, comment);
}

Script synthesize_from_cnf(const Cnf& cnf, std::uint64_t seed) {
  Rng rng(seed ^ 0x1c9f5u);
  Script script;
  script.declared_vars = cnf.num_vars();

  const std::size_t n = cnf.num_clauses();
  // Splits: base gets the bulk, two nested groups share the tail. With
  // very few clauses everything lands in the base and the script still
  // exercises push/pop with empty groups.
  const std::size_t base_end = n - std::min<std::size_t>(n / 4, n);
  const std::size_t mid = base_end + (n - base_end) / 2;

  const auto assumptions = [&](int max_count) {
    std::vector<Lit> lits;
    if (cnf.num_vars() == 0) return lits;
    const int count = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(max_count) + 1));
    for (int i = 0; i < count; ++i) {
      lits.push_back(Lit(static_cast<Var>(
                             rng.below(static_cast<std::uint64_t>(cnf.num_vars()))),
                         rng.coin()));
    }
    return lits;
  };
  const auto add_clauses = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const auto clause = cnf.clause(i);
      script.ops.push_back(Op::clause({clause.begin(), clause.end()}));
    }
  };

  add_clauses(0, base_end);
  script.ops.push_back(Op::solve());

  script.ops.push_back(Op::push());
  add_clauses(base_end, mid);
  script.ops.push_back(Op::solve(assumptions(2)));

  script.ops.push_back(Op::push());
  add_clauses(mid, n);
  script.ops.push_back(Op::solve());

  script.ops.push_back(Op::pop());
  script.ops.push_back(Op::solve(assumptions(2)));
  script.ops.push_back(Op::pop());
  script.ops.push_back(Op::solve());
  return script;
}

}  // namespace berkmin::icnf
