#include <gtest/gtest.h>

#include <sstream>

#include "cnf/dimacs.h"
#include "test_util.h"

namespace berkmin {
namespace {

using dimacs::DimacsError;
using dimacs::read_string;

TEST(DimacsRead, SimpleFormula) {
  const Cnf cnf = read_string("p cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(cnf.num_vars(), 3);
  ASSERT_EQ(cnf.num_clauses(), 2u);
  EXPECT_EQ(cnf.clause(0), testing::lits({1, -2}));
  EXPECT_EQ(cnf.clause(1), testing::lits({2, 3}));
}

TEST(DimacsRead, CommentsAndBlankLines) {
  const Cnf cnf = read_string(
      "c a comment\n\nc another one\np cnf 2 1\nc inline comment line\n1 2 0\n");
  EXPECT_EQ(cnf.num_clauses(), 1u);
}

TEST(DimacsRead, ClauseSpanningLines) {
  const Cnf cnf = read_string("p cnf 4 1\n1 2\n3 4 0\n");
  ASSERT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.clause(0).size(), 4u);
}

TEST(DimacsRead, SeveralClausesOneLine) {
  const Cnf cnf = read_string("p cnf 2 3\n1 0 2 0 -1 -2 0\n");
  EXPECT_EQ(cnf.num_clauses(), 3u);
}

TEST(DimacsRead, SatlibPercentFooter) {
  const Cnf cnf = read_string("p cnf 2 1\n1 2 0\n%\n0\n");
  EXPECT_EQ(cnf.num_clauses(), 1u);
}

TEST(DimacsRead, EmptyClause) {
  const Cnf cnf = read_string("p cnf 1 1\n0\n");
  ASSERT_EQ(cnf.num_clauses(), 1u);
  EXPECT_TRUE(cnf.clause(0).empty());
}

TEST(DimacsRead, ErrorOnMissingHeader) {
  EXPECT_THROW(read_string("1 2 0\n"), DimacsError);
  EXPECT_THROW(read_string(""), DimacsError);
}

TEST(DimacsRead, ErrorOnBadHeader) {
  EXPECT_THROW(read_string("p sat 3 2\n"), DimacsError);
  EXPECT_THROW(read_string("p cnf x 2\n1 0\n"), DimacsError);
  EXPECT_THROW(read_string("p cnf 3\n"), DimacsError);
}

TEST(DimacsRead, ErrorOnUnterminatedClause) {
  EXPECT_THROW(read_string("p cnf 2 1\n1 2\n"), DimacsError);
}

TEST(DimacsRead, ClauseCountMismatchIsRecoverable) {
  // A wrong header count is a warning, not an error: the clauses actually
  // read are well-formed and solving them is sound. read() tolerates it
  // silently; read_checked() reports it with its position.
  EXPECT_EQ(read_string("p cnf 2 2\n1 0\n").num_clauses(), 1u);
  EXPECT_EQ(read_string("p cnf 2 1\n1 0 2 0\n").num_clauses(), 2u);

  const dimacs::ParseResult result =
      dimacs::read_checked_string("p cnf 2 2\n1 0\n");
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.issues.size(), 1u);
  EXPECT_FALSE(result.issues[0].fatal);
  EXPECT_NE(result.issues[0].message.find("declares 2 clauses"),
            std::string::npos);
  EXPECT_EQ(result.cnf.num_clauses(), 1u);
}

TEST(DimacsReadChecked, FatalIssuesCarryPositions) {
  const dimacs::ParseResult result =
      dimacs::read_checked_string("p cnf 2 1\n1 5 0\n");
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.issues.empty());
  EXPECT_TRUE(result.issues[0].fatal);
  EXPECT_EQ(result.issues[0].line, 2);
  // "1 5 0" starts at byte 10; the offending literal "5" is at byte 12.
  EXPECT_EQ(result.issues[0].byte_offset, 12u);
  EXPECT_NE(result.first_error().find("exceeds declared"), std::string::npos);
}

TEST(DimacsReadChecked, NeverThrowsOnGarbage) {
  for (const char* garbage :
       {"", "p", "p cnf", "p cnf x y\n", "p cnf 2 1\n1 2\n",
        "p cnf 2 1\n1 2x 0\n", "\x01\x02\x03", "p cnf -3 1\n1 0\n"}) {
    const dimacs::ParseResult result = dimacs::read_checked_string(garbage);
    EXPECT_FALSE(result.ok()) << garbage;
    EXPECT_FALSE(result.first_error().empty()) << garbage;
  }
}

TEST(DimacsRead, ErrorOnLiteralBeyondDeclaredVars) {
  try {
    read_string("p cnf 2 1\n1 5 0\n");
    FAIL() << "expected DimacsError";
  } catch (const DimacsError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(DimacsRead, ErrorOnGarbageToken) {
  EXPECT_THROW(read_string("p cnf 2 1\n1 2x 0\n"), DimacsError);
}

TEST(DimacsWrite, RoundTrip) {
  const Cnf original = testing::make_cnf({{1, -2, 3}, {-1}, {2, 3}});
  std::ostringstream text;
  dimacs::write(text, original);
  const Cnf reread = read_string(text.str());
  EXPECT_EQ(reread.num_vars(), original.num_vars());
  ASSERT_EQ(reread.num_clauses(), original.num_clauses());
  for (std::size_t i = 0; i < original.num_clauses(); ++i) {
    EXPECT_EQ(reread.clause(i), original.clause(i));
  }
}

TEST(DimacsWrite, CommentLines) {
  const Cnf cnf = testing::make_cnf({{1}});
  std::ostringstream out;
  dimacs::write(out, cnf, "generated by test\nsecond line");
  const std::string text = out.str();
  EXPECT_NE(text.find("c generated by test"), std::string::npos);
  EXPECT_NE(text.find("c second line"), std::string::npos);
  EXPECT_EQ(read_string(text).num_clauses(), 1u);
}

TEST(DimacsFile, ReadMissingFileFails) {
  EXPECT_THROW(dimacs::read_file("/nonexistent/path.cnf"), DimacsError);
}

TEST(DimacsFile, WriteAndReadBack) {
  const Cnf cnf = testing::make_cnf({{1, 2}, {-1, -2}});
  const std::string path = ::testing::TempDir() + "/berkmin_roundtrip.cnf";
  dimacs::write_file(path, cnf, "temp");
  const Cnf reread = dimacs::read_file(path);
  EXPECT_EQ(reread.num_clauses(), 2u);
}

}  // namespace
}  // namespace berkmin
