// Strict spool-protocol parser: the accept table pins the full key set and
// the reject table pins the failure modes (unknown/duplicate keys, missing
// required keys, bad enums, malformed JSON) with their diagnostics.
#include "serve/job_request.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::serve {
namespace {

TEST(ValidJobId, Table) {
  EXPECT_TRUE(valid_job_id("a"));
  EXPECT_TRUE(valid_job_id("night-sweep_3.retry"));
  EXPECT_TRUE(valid_job_id(std::string(64, 'x')));
  EXPECT_FALSE(valid_job_id(""));
  EXPECT_FALSE(valid_job_id(std::string(65, 'x')));
  EXPECT_FALSE(valid_job_id(".hidden"));
  EXPECT_FALSE(valid_job_id("has space"));
  EXPECT_FALSE(valid_job_id("sl/ash"));
  EXPECT_FALSE(valid_job_id("uni\xc3\xa7ode"));
}

TEST(ParseJobRequest, MinimalRequest) {
  const JobRequest r =
      parse_job_request(R"({"id":"j1","algo":"tpg","spec":"chosen"})");
  EXPECT_EQ(r.id, "j1");
  EXPECT_EQ(r.settings.algo, expt::Algo::TPG);
  // Untouched knobs keep RunSettings defaults.
  const expt::RunSettings defaults;
  EXPECT_EQ(r.settings.population, defaults.population);
  EXPECT_EQ(r.settings.seed, defaults.seed);
  EXPECT_FALSE(r.settings.engine.shared());
  EXPECT_TRUE(r.settings.checkpoint_path.empty());
}

TEST(ParseJobRequest, EveryKnob) {
  const JobRequest r = parse_job_request(
      R"({"id":"full","algo":"mesacga","spec":3,"population":48,)"
      R"("generations":120,"partitions":6,"islands":3,"migration_interval":7,)"
      R"("weight_count":9,"phase1_cap":30,"span":4,"seed":42,)"
      R"("mesacga_schedule":[6,3,1],"record_history":true,"history_stride":10})");
  EXPECT_EQ(r.id, "full");
  EXPECT_EQ(r.settings.algo, expt::Algo::MESACGA);
  EXPECT_EQ(r.settings.population, 48u);
  EXPECT_EQ(r.settings.generations, 120u);
  EXPECT_EQ(r.settings.partitions, 6u);
  EXPECT_EQ(r.settings.islands, 3u);
  EXPECT_EQ(r.settings.migration_interval, 7u);
  EXPECT_EQ(r.settings.weight_count, 9u);
  EXPECT_EQ(r.settings.phase1_cap, 30u);
  EXPECT_EQ(r.settings.span, 4u);
  EXPECT_EQ(r.settings.seed, 42u);
  EXPECT_EQ(r.settings.mesacga_schedule, (std::vector<std::size_t>{6, 3, 1}));
  EXPECT_TRUE(r.settings.record_history);
  EXPECT_EQ(r.settings.history_stride, 10u);
}

TEST(ParseJobRequest, AlgoVocabularyMatchesCli) {
  using expt::Algo;
  const std::vector<std::pair<std::string, Algo>> table = {
      {"tpg", Algo::TPG},           {"nsga2", Algo::TPG},
      {"localonly", Algo::LocalOnly}, {"sacga", Algo::SACGA},
      {"mesacga", Algo::MESACGA},   {"island", Algo::Island},
      {"wsum", Algo::WeightedSum},  {"spea2", Algo::SPEA2},
  };
  for (const auto& [name, algo] : table) {
    const JobRequest r = parse_job_request(
        R"({"id":"a","algo":")" + name + R"(","spec":"chosen"})");
    EXPECT_EQ(r.settings.algo, algo) << name;
  }
}

TEST(ParseJobRequest, CliAndRequestsShareOneNameTable) {
  // `anadex explore --algo/--spec` and a request's "algo"/"spec" both parse
  // through expt::parse_algo and expt::parse_spec.
  EXPECT_EQ(expt::parse_algo("nsga2"), expt::Algo::TPG);
  EXPECT_EQ(expt::parse_algo("wsum"), expt::Algo::WeightedSum);
  EXPECT_EQ(expt::parse_spec("chosen").name, problems::chosen_spec().name);
  EXPECT_EQ(expt::parse_spec("3").name, problems::spec_suite()[2].name);
  EXPECT_EQ(expt::parse_spec("20").name, problems::spec_suite()[19].name);
  // `--spec 3abc` used to run spec 3.
  for (const char* bad : {"3abc", "-3", "+3", " 3", "3 ", "3.0", "", "0", "21", "Chosen"}) {
    EXPECT_THROW(expt::parse_spec(bad), PreconditionError) << '"' << bad << '"';
  }
  for (const char* bad : {"tpg ", "TPG", "sacga2", ""}) {
    EXPECT_THROW(expt::parse_algo(bad), PreconditionError) << '"' << bad << '"';
  }
  const JobRequest r = parse_job_request(R"({"id":"a","algo":"tpg","spec":"3"})");
  EXPECT_EQ(r.settings.spec.name, problems::spec_suite()[2].name);
}

TEST(ParseJobRequest, ToleratesWhitespaceAndKeyOrder) {
  const JobRequest r = parse_job_request(
      " { \"spec\" : 1 ,\t\"id\" : \"ws\" , \"algo\" : \"sacga\" } \r\n");
  EXPECT_EQ(r.id, "ws");
  EXPECT_EQ(r.settings.algo, expt::Algo::SACGA);
}

struct RejectCase {
  const char* label;
  const char* line;
  const char* expected_substring;  ///< must appear in the diagnostic
};

TEST(ParseJobRequest, RejectTable) {
  const std::vector<RejectCase> table = {
      {"missing id", R"({"algo":"tpg","spec":"chosen"})", "missing required key \"id\""},
      {"missing algo", R"({"id":"a","spec":"chosen"})", "missing required key \"algo\""},
      {"missing spec", R"({"id":"a","algo":"tpg"})", "missing required key \"spec\""},
      {"unknown key", R"({"id":"a","algo":"tpg","spec":1,"bogus":1})",
       "unknown key \"bogus\""},
      {"service-owned key", R"({"id":"a","algo":"tpg","spec":1,"threads":8})",
       "unknown key \"threads\""},
      {"duplicate key", R"({"id":"a","id":"b","algo":"tpg","spec":1})",
       "duplicate key \"id\""},
      {"bad algo", R"({"id":"a","algo":"annealing","spec":1})", "unknown algo \"annealing\""},
      {"bad spec string", R"({"id":"a","algo":"tpg","spec":"best"})", "\"spec\""},
      {"spec index with junk", R"({"id":"a","algo":"tpg","spec":"3abc"})", "\"spec\""},
      {"spec zero", R"({"id":"a","algo":"tpg","spec":0})", "\"spec\" index"},
      {"spec out of range", R"({"id":"a","algo":"tpg","spec":21})", "\"spec\" index"},
      {"spec bool", R"({"id":"a","algo":"tpg","spec":true})", "\"spec\""},
      {"bad id characters", R"({"id":"a b","algo":"tpg","spec":1})", "\"id\""},
      {"dot-leading id", R"({"id":".a","algo":"tpg","spec":1})", "\"id\""},
      {"empty id", R"({"id":"","algo":"tpg","spec":1})", "\"id\""},
      {"population as string", R"({"id":"a","algo":"tpg","spec":1,"population":"64"})",
       "\"population\" must be an unsigned integer"},
      {"negative number", R"({"id":"a","algo":"tpg","spec":1,"seed":-1})", "malformed value"},
      {"leading zeros", R"({"id":"a","algo":"tpg","spec":1,"seed":007})", "leading zeros"},
      {"schedule not array", R"({"id":"a","algo":"tpg","spec":1,"mesacga_schedule":3})",
       "\"mesacga_schedule\" must be an array"},
      {"record_history not bool", R"({"id":"a","algo":"tpg","spec":1,"record_history":1})",
       "\"record_history\" must be true or false"},
      {"not an object", R"(["id","a"])", "expected '{'"},
      {"empty line", "", "unexpected end of input"},
      {"trailing junk", R"({"id":"a","algo":"tpg","spec":1} extra)", "trailing characters"},
      {"unterminated string", R"({"id":"a","algo":"tpg","spec":1,"x":"oops)",
       "unterminated string"},
      {"escape in string", R"({"id":"a\nb","algo":"tpg","spec":1})", "escape sequences"},
      {"truncated object", R"({"id":"a","algo":"tpg")", "unexpected end of input"},
  };
  for (const RejectCase& c : table) {
    try {
      parse_job_request(c.line);
      ADD_FAILURE() << c.label << ": expected rejection of: " << c.line;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expected_substring), std::string::npos)
          << c.label << ": diagnostic was: " << e.what();
    }
  }
}

}  // namespace
}  // namespace anadex::serve
