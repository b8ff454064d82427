#include "cnf/icnf.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace berkmin::icnf {

const char* to_string(Op::Kind kind) {
  static constexpr const char* kNames[] = {
      "add_clause", "add_clause_to", "push", "pop", "set_active", "solve"};
  return kNames[static_cast<std::size_t>(kind)];
}

bool Script::append(const Op& op) {
  if (op.kind != Op::Kind::solve && !apply(groups_, op)) return false;
  for (const Lit l : op.lits) {
    referenced_vars_ = std::max(referenced_vars_, l.var() + 1);
  }
  lits_.insert(lits_.end(), op.lits.begin(), op.lits.end());
  records_.push_back(Record{op.kind, op.active, op.group, lits_.size()});
  return true;
}

Op Script::op(std::size_t i) const {
  const Record& record = records_[i];
  const std::size_t begin = i == 0 ? 0 : records_[i - 1].lits_end;
  return Op{record.kind, record.group, record.active,
            std::span<const Lit>(lits_.data() + begin,
                                 record.lits_end - begin)};
}

std::size_t Script::num_solves() const {
  return static_cast<std::size_t>(std::ranges::count(
      records_, Op::Kind::solve, &Record::kind));
}

bool Groups::pop_group(GroupId id) {
  const auto it = find(id);
  if (it == live_.end()) return false;
  live_.erase(it);
  return true;
}

bool Groups::set_group_active(GroupId id, bool active) {
  const auto it = std::ranges::find(live_, id, &Group::id);
  if (it == live_.end()) return false;
  it->active = active;
  return true;
}

bool ActiveFormula::add(GroupId owner, std::span<const Lit> lits) {
  clauses_.add_clause(lits);
  owner_.push_back(owner);
  return true;
}

Cnf ActiveFormula::formula(int num_vars) const {
  Cnf cnf(num_vars);
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    const auto it = find(owner_[i]);
    if (owner_[i] == no_group || (it != live().end() && it->active)) {
      cnf.add_clause(clauses_.clause(i));
    }
  }
  return cnf;
}

bool ActiveFormula::is_model(const std::vector<Value>& model,
                             std::span<const Lit> assumptions) const {
  for (const Lit a : assumptions) {
    if (a.var() >= static_cast<Var>(model.size()) ||
        value_of_literal(model[a.var()], a) != Value::true_value) {
      return false;
    }
  }
  return formula().is_satisfied_by(model);
}

namespace {

// Internal control flow of parse_checked: failures carry the position and
// are caught at the top, never escaping to callers.
struct IcnfFailure {
  int line;
  std::uint64_t offset;
  std::string what;
};

// The whole token as an integer, or nullopt.
std::optional<int> whole_number(const std::string& token) {
  try {
    std::size_t consumed = 0;
    const int value = std::stoi(token, &consumed);
    if (consumed == token.size()) return value;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

// Byte offset where the line stream currently stands, from the start of
// the whole input.
std::uint64_t stream_offset(const std::istringstream& in,
                            const std::string& text, std::uint64_t line_start) {
  const auto pos = in.rdbuf()->pubseekoff(0, std::ios::cur, std::ios::in);
  return line_start + (pos == std::istringstream::pos_type(-1)
                           ? text.size()
                           : static_cast<std::uint64_t>(pos));
}

}  // namespace

ParseResult parse_checked(std::istream& in) {
  ParseResult result;
  Script& script = result.script;
  bool saw_header = false;
  std::string line;
  int line_number = 0;
  std::uint64_t next_line_start = 0;
  std::vector<Lit> lits;
  try {
    while (std::getline(in, line)) {
      ++line_number;
      const std::uint64_t line_start = next_line_start;
      next_line_start += line.size() + 1;
      std::istringstream tokens(line);
      const auto fail = [&](const std::string& what) {
        throw IcnfFailure{line_number, stream_offset(tokens, line, line_start),
                          what};
      };
      std::string head;
      if (!(tokens >> head) || head == "c") continue;  // blank or comment

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
        continue;
      }

      // Nothing may follow a line's terminating 0.
      const auto after_zero = [&] {
        std::string token;
        if (tokens >> token) fail("trailing token '" + token + "' after 0");
      };
      // After the last token of a line: at most the terminating 0
      // (required unless `zero_optional`), then nothing.
      const auto end_of_line = [&](bool zero_optional) {
        std::string token;
        if (!(tokens >> token)) {
          if (!zero_optional) fail("missing terminating 0");
          return;
        }
        if (token != "0") fail("trailing token '" + token + "'");
        after_zero();
      };
      // DIMACS literals up to the terminating 0, into `lits`.
      const auto read_lits = [&] {
        lits.clear();
        int value = 0;
        while (tokens >> value && value != 0) {
          lits.push_back(from_dimacs(value));
        }
        if (!tokens) {
          fail(tokens.eof() ? "literal list not terminated by 0"
                            : "non-numeric token in a literal list");
        }
        after_zero();
        return std::span<const Lit>(lits);
      };
      // The group the next token names by push ordinal (0, or no token:
      // the innermost open group), as its handle in every engine. It must
      // be open at this line.
      const auto read_group = [&] {
        std::string token;
        tokens >> token;
        const std::optional<int> ordinal =
            token.empty() ? 0 : whole_number(token);
        if (!ordinal || *ordinal < 0) {
          fail(head + " needs a group ordinal, not '" + token + "'");
        }
        const Groups& groups = script.groups();
        const GroupId id =
            *ordinal == 0 ? groups.innermost_group() : *ordinal - 1;
        if (id == no_group) fail(head + " names no open group");
        if (id >= groups.pushed()) fail("group " + token + " was never pushed");
        if (!groups.group_is_live(id)) fail("group " + token + " was popped");
        return *ordinal == 0 ? innermost_group : id;
      };

      Op op;
      if (head == "push") {
        end_of_line(true);
        op = Op::push();
      } else if (head == "pop") {
        op = Op::pop(read_group());
        end_of_line(true);
      } else if (head == "activate" || head == "deactivate") {
        op = Op::set_active(read_group(), head == "activate");
        end_of_line(false);
      } else if (head == "g") {
        const GroupId group = read_group();
        op = Op::clause_to(group, read_lits());
      } else if (head == "a") {
        op = Op::solve(read_lits());
      } else {
        // A clause line: the head token is its first literal ("0" alone
        // adds the empty clause).
        if (!whole_number(head)) fail("unrecognized directive '" + head + "'");
        tokens.seekg(0);
        op = Op::clause(read_lits());
      }
      (void)script.append(op);
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

void write(std::ostream& out, const Script& script,
           const std::string& comment) {
  if (!comment.empty()) out << "c " << comment << "\n";
  std::size_t clauses = 0;
  for (const Op op : script.ops()) {
    if (op.kind == Op::Kind::add_clause || op.kind == Op::Kind::add_clause_to) {
      ++clauses;
    }
  }
  out << "p inccnf " << script.num_vars() << " " << clauses << "\n";
  const auto ordinal = [](GroupId group) {
    return group == innermost_group ? 0 : group + 1;
  };
  const auto lits = [&out](std::span<const Lit> list) {
    for (const Lit l : list) out << " " << to_dimacs(l);
    out << " 0\n";
  };
  for (const Op op : script.ops()) {
    switch (op.kind) {
      case Op::Kind::add_clause:
        for (const Lit l : op.lits) out << to_dimacs(l) << " ";
        out << "0\n";
        break;
      case Op::Kind::add_clause_to:
        out << "g " << ordinal(op.group);
        lits(op.lits);
        break;
      case Op::Kind::push:
        out << "push 0\n";
        break;
      case Op::Kind::pop:
        out << "pop ";
        if (op.group != innermost_group) out << ordinal(op.group) << " ";
        out << "0\n";
        break;
      case Op::Kind::set_active:
        out << (op.active ? "activate " : "deactivate ") << ordinal(op.group)
            << " 0\n";
        break;
      case Op::Kind::solve:
        out << "a";
        lits(op.lits);
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
      (void)script.append(Op::clause(cnf.clause(i)));
    }
  };

  add_clauses(0, base_end);
  script.append(Op::solve());

  script.append(Op::push());
  add_clauses(base_end, mid);
  script.append(Op::solve(assumptions(2)));

  script.append(Op::push());
  add_clauses(mid, n);
  script.append(Op::solve());

  script.append(Op::pop());
  script.append(Op::solve(assumptions(2)));
  script.append(Op::pop());
  script.append(Op::solve());
  return script;
}

}  // namespace berkmin::icnf
