// Proof emission backends and DRAT (de)serialization: text and binary
// writers must round-trip through the matching parser, the buffered
// writer must preserve producer tags, and malformed traces must be
// rejected with a useful error.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "proof/drat_file.h"
#include "proof/proof_writer.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;

proof::Proof sample_proof() {
  proof::Proof p;
  p.add(lits({1, -2, 3}));
  p.del(lits({-2, 3}));
  p.add(lits({-200}));  // multi-byte varint in the binary encoding
  p.add({});
  return p;
}

TEST(TextDratWriter, EmitsStandardFormat) {
  std::ostringstream out;
  proof::TextDratWriter writer(out);
  proof::replay(sample_proof(), writer);
  EXPECT_EQ(out.str(), "1 -2 3 0\nd -2 3 0\n-200 0\n0\n");
  EXPECT_EQ(writer.num_added(), 3u);
  EXPECT_EQ(writer.num_deleted(), 1u);
}

TEST(TextDratWriter, RoundTripsThroughParser) {
  std::ostringstream out;
  proof::TextDratWriter writer(out);
  proof::replay(sample_proof(), writer);

  std::istringstream in(out.str());
  proof::Proof parsed;
  std::string error;
  ASSERT_TRUE(proof::read_drat(in, proof::DratFormat::text, &parsed, &error))
      << error;
  EXPECT_EQ(parsed.steps, sample_proof().steps);
}

TEST(BinaryDratWriter, RoundTripsThroughParser) {
  std::ostringstream out;
  proof::BinaryDratWriter writer(out);
  proof::replay(sample_proof(), writer);

  std::istringstream in(out.str());
  proof::Proof parsed;
  std::string error;
  ASSERT_TRUE(proof::read_drat(in, proof::DratFormat::binary, &parsed, &error))
      << error;
  EXPECT_EQ(parsed.steps, sample_proof().steps);
}

TEST(BinaryDratWriter, IsSmallerThanTextOnWideLiterals) {
  proof::Proof wide;
  for (int i = 0; i < 100; ++i) wide.add(lits({1000 + i, -(2000 + i)}));
  std::ostringstream text;
  std::ostringstream binary;
  proof::write_drat(text, wide, proof::DratFormat::text);
  proof::write_drat(binary, wide, proof::DratFormat::binary);
  EXPECT_LT(binary.str().size(), text.str().size());
}

TEST(MemoryProofWriter, RecordsStepsInOrder) {
  proof::MemoryProofWriter writer;
  writer.add_clause(lits({1, 2}));
  writer.delete_clause(lits({1, 2}));
  ASSERT_EQ(writer.proof().size(), 2u);
  EXPECT_TRUE(writer.proof().steps[0].is_add());
  EXPECT_TRUE(writer.proof().steps[1].is_delete());
  EXPECT_EQ(writer.num_added(), 1u);
  EXPECT_EQ(writer.num_deleted(), 1u);
}

TEST(Proof, CountsAndEmptyDetection) {
  const proof::Proof p = sample_proof();
  EXPECT_EQ(p.num_adds(), 3u);
  EXPECT_EQ(p.num_deletes(), 1u);
  EXPECT_TRUE(p.ends_with_empty());
  proof::Proof open;
  open.add(lits({1}));
  EXPECT_FALSE(open.ends_with_empty());
}

TEST(DratFile, AutodetectsBothFormatsOnDisk) {
  for (const proof::DratFormat format :
       {proof::DratFormat::text, proof::DratFormat::binary}) {
    const std::string path =
        ::testing::TempDir() + "/roundtrip" +
        (format == proof::DratFormat::text ? ".txt" : ".bin") + ".drat";
    std::string error;
    ASSERT_TRUE(proof::write_drat_file(path, sample_proof(), format, &error))
        << error;
    proof::Proof parsed;
    proof::DratFormat detected = proof::DratFormat::text;
    ASSERT_TRUE(proof::read_drat_file(path, &parsed, &error, &detected))
        << error;
    EXPECT_EQ(detected, format);
    EXPECT_EQ(parsed.steps, sample_proof().steps);
  }
}

TEST(DratFile, DetectsTextWhenTraceStartsWithDeletion) {
  // "d 1 2 0" shares its first byte with a binary 'd' step tag; the
  // whitespace after it disambiguates.
  const std::string path = ::testing::TempDir() + "/delete_first.drat";
  {
    std::ofstream out(path);
    out << "d 1 2 0\n";
  }
  proof::Proof parsed;
  std::string error;
  proof::DratFormat detected = proof::DratFormat::binary;
  ASSERT_TRUE(proof::read_drat_file(path, &parsed, &error, &detected)) << error;
  EXPECT_EQ(detected, proof::DratFormat::text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed.steps[0].is_delete());
}

TEST(DratFile, DetectsBinaryWhenVarintMimicsWhitespace) {
  // 'd' followed by varint 0x20 (DIMACS literal 16) byte-matches "d ";
  // only the 0x00 step terminator settles the format.
  proof::Proof p;
  p.del(lits({16}));
  p.add(lits({16, -4}));
  const std::string path = ::testing::TempDir() + "/mimic.drat";
  std::string error;
  ASSERT_TRUE(
      proof::write_drat_file(path, p, proof::DratFormat::binary, &error));
  proof::Proof parsed;
  proof::DratFormat detected = proof::DratFormat::text;
  ASSERT_TRUE(proof::read_drat_file(path, &parsed, &error, &detected)) << error;
  EXPECT_EQ(detected, proof::DratFormat::binary);
  EXPECT_EQ(parsed.steps, p.steps);
}

TEST(DratFile, RejectsMalformedText) {
  std::istringstream in("1 2 x 0\n");
  proof::Proof parsed;
  std::string error;
  EXPECT_FALSE(proof::read_drat(in, proof::DratFormat::text, &parsed, &error));
  EXPECT_NE(error.find("unexpected character"), std::string::npos);
}

TEST(DratFile, RejectsTextEndingMidClause) {
  std::istringstream in("1 2\n");
  proof::Proof parsed;
  std::string error;
  EXPECT_FALSE(proof::read_drat(in, proof::DratFormat::text, &parsed, &error));
}

TEST(DratFile, RejectsTruncatedBinary) {
  std::ostringstream out;
  proof::BinaryDratWriter writer(out);
  writer.add_clause(lits({1, 2}));
  const std::string bytes = out.str();
  std::istringstream in(bytes.substr(0, bytes.size() - 1));
  proof::Proof parsed;
  std::string error;
  EXPECT_FALSE(
      proof::read_drat(in, proof::DratFormat::binary, &parsed, &error));
}

TEST(DratFile, SkipsCommentLines) {
  std::istringstream in("c produced by a tool\n1 2 0\n");
  proof::Proof parsed;
  std::string error;
  ASSERT_TRUE(proof::read_drat(in, proof::DratFormat::text, &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.steps[0].lits, lits({1, 2}));
}

}  // namespace
}  // namespace berkmin
