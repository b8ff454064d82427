#include "cnf/dimacs.h"

#include <charconv>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace berkmin::dimacs {
namespace {

// Whitespace as the classic locale defines it (what `istream >> string`
// splits on).
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

struct Token {
  std::string_view text;  // valid until the next Tokenizer::next()
  int line = 0;
  std::uint64_t offset = 0;  // byte offset of the token's first character
};

// Streams the whitespace-separated words of the input one line at a time,
// dropping comment lines (any line whose first word starts with 'c') and
// the SATLIB "%" footer (everything after a lone "%" is ignored, as in the
// SATLIB uf* files).
class Tokenizer {
 public:
  explicit Tokenizer(std::istream& in) : in_(in) {}

  // Advances to the next token; false at the end of the input or the footer.
  bool next(Token* token) {
    while (true) {
      while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
      if (pos_ < line_.size()) {
        const std::size_t start = pos_;
        while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
        const std::string_view word(line_.data() + start, pos_ - start);
        const bool first_word = start_of_line_;
        start_of_line_ = false;
        if (first_word && word[0] == 'c') {
          pos_ = line_.size();
          continue;
        }
        if (word == "%") return false;  // SATLIB footer: stop reading.
        *token = Token{word, line_number_, line_start_ + start};
        return true;
      }
      if (!std::getline(in_, line_)) return false;
      ++line_number_;
      line_start_ = next_line_start_;
      next_line_start_ += line_.size() + 1;  // + the newline getline consumed
      pos_ = 0;
      start_of_line_ = true;
    }
  }

 private:
  std::istream& in_;
  std::string line_;
  std::size_t pos_ = 0;
  bool start_of_line_ = true;
  int line_number_ = 0;
  std::uint64_t line_start_ = 0;  // byte offset of the current line
  std::uint64_t next_line_start_ = 0;
};

// Parses a token as a base-10 number with an optional sign, the syntax
// std::stoll accepts; a malformed token appends a fatal issue and returns
// nullopt.
std::optional<long long> parse_number(const Token& token,
                                      std::vector<ParseIssue>* issues) {
  const char* first = token.text.data();
  const char* last = first + token.text.size();
  if (token.text.size() > 1 && *first == '+' && first[1] != '-') ++first;
  long long value = 0;
  const auto [end, error] = std::from_chars(first, last, value);
  if (error != std::errc{}) {
    issues->push_back(ParseIssue{
        true, token.line, token.offset,
        "expected a number, got '" + std::string(token.text) + "'"});
    return std::nullopt;
  }
  if (end != last) {
    issues->push_back(ParseIssue{
        true, token.line, token.offset,
        "trailing characters in '" + std::string(token.text) + "'"});
    return std::nullopt;
  }
  return value;
}

}  // namespace

ParseResult read_checked(std::istream& in) {
  ParseResult result;
  const auto fatal = [&](int line, std::uint64_t offset,
                         const std::string& message) {
    result.issues.push_back(ParseIssue{true, line, offset, message});
  };

  Tokenizer tokens(in);
  Token token;
  if (!tokens.next(&token)) {
    fatal(0, 0, "empty input: missing 'p cnf' header");
    return result;
  }
  if (token.text != "p") {
    fatal(token.line, token.offset, "expected 'p cnf' header before clauses");
    return result;
  }
  const Token p = token;
  if (!tokens.next(&token) || token.text != "cnf") {
    fatal(p.line, p.offset, "expected 'cnf' after 'p'");
    return result;
  }
  // Both counts must be present before either is parsed. A missing count
  // is reported at the last token read ("cnf" or the variable count).
  Token vars = token;
  std::string vars_text;  // outlives the line the next token may read
  if (tokens.next(&vars)) {
    vars_text = vars.text;
    vars.text = vars_text;
  }
  if (vars_text.empty() || !tokens.next(&token)) {
    fatal(vars.line, vars.offset, "header is missing variable/clause counts");
    return result;
  }
  const std::optional<long long> declared_vars =
      parse_number(vars, &result.issues);
  const std::optional<long long> declared_clauses =
      parse_number(token, &result.issues);
  if (!declared_vars.has_value() || !declared_clauses.has_value()) {
    return result;
  }
  if (*declared_vars < 0 || *declared_clauses < 0) {
    fatal(token.line, token.offset, "negative counts in header");
    return result;
  }

  // Literals are staged per clause, so the formula only ever holds
  // complete clauses, also when a fatal issue stops the parse.
  result.cnf = Cnf(static_cast<int>(*declared_vars));
  std::vector<Lit> current;
  int last_line = token.line;
  std::uint64_t last_offset = token.offset;
  while (tokens.next(&token)) {
    const std::optional<long long> value = parse_number(token, &result.issues);
    if (!value.has_value()) return result;
    last_line = token.line;
    last_offset = token.offset;
    if (*value == 0) {
      result.cnf.add_clause(current);
      current.clear();
      continue;
    }
    if (*value > *declared_vars || *value < -*declared_vars) {
      fatal(token.line, token.offset,
            "literal " + std::string(token.text) + " exceeds declared " +
                std::to_string(*declared_vars) + " variables");
      return result;
    }
    current.push_back(from_dimacs(static_cast<int>(*value)));
  }
  if (!current.empty()) {
    fatal(last_line, last_offset, "last clause is not terminated by 0");
    return result;
  }
  if (static_cast<long long>(result.cnf.num_clauses()) != *declared_clauses) {
    // Recoverable: the formula read is well-formed, only the header's
    // bookkeeping is off (frequent in hand-edited and concatenated
    // files). Solving it is sound; the caller decides whether to care.
    result.issues.push_back(ParseIssue{
        false, last_line, last_offset,
        "header declares " + std::to_string(*declared_clauses) +
            " clauses but " + std::to_string(result.cnf.num_clauses()) +
            " were read"});
  }
  return result;
}

ParseResult read_checked_string(const std::string& text) {
  std::istringstream in(text);
  return read_checked(in);
}

ParseResult read_checked_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseResult result;
    result.issues.push_back(
        ParseIssue{true, 0, 0, "cannot open file '" + path + "'"});
    return result;
  }
  return read_checked(in);
}

Cnf read(std::istream& in) {
  ParseResult result = read_checked(in);
  for (const ParseIssue& issue : result.issues) {
    if (issue.fatal) {
      throw DimacsError(issue.line,
                        issue.message + " (byte " +
                            std::to_string(issue.byte_offset) + ")");
    }
  }
  return std::move(result.cnf);
}

Cnf read_string(const std::string& text) {
  std::istringstream in(text);
  return read(in);
}

Cnf read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DimacsError(0, "cannot open file '" + path + "'");
  return read(in);
}

void write(std::ostream& out, const Cnf& cnf, const std::string& comment) {
  if (!comment.empty()) {
    std::istringstream cs(comment);
    std::string line;
    while (std::getline(cs, line)) out << "c " << line << '\n';
  }
  out << "p cnf " << cnf.num_vars() << ' ' << cnf.num_clauses() << '\n';
  for (const auto clause : cnf.clauses()) {
    for (const Lit l : clause) out << to_dimacs(l) << ' ';
    out << "0\n";
  }
}

void write_file(const std::string& path, const Cnf& cnf, const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw DimacsError(0, "cannot open file '" + path + "' for writing");
  write(out, cnf, comment);
}

}  // namespace berkmin::dimacs
