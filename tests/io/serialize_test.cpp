// CSV export of accuracy records: the exact text `fp8q_cli sweep` writes.
#include "io/serialize.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fp8q {
namespace {

constexpr const char* kHeader =
    "workload,domain,config,fp32_accuracy,quant_accuracy,model_size_mb,"
    "relative_loss,passes\n";

TEST(RecordsCsv, HeaderOnlyWhenEmpty) {
  EXPECT_EQ(records_to_csv({}), kHeader);
}

TEST(RecordsCsv, QuotesSeparatorsAndDoublesQuotes) {
  const std::vector<AccuracyRecord> records = {
      {"wl-a", "CV", "E4M3/static", 0.5, 0.5, 12.5},
      {"wl,with,commas", "NLP", "INT8", 1.0, 0.75, 100.0},
      {"quoted \"name\"", "NLP", "E3M4/dynamic", 0.5, 0.5, 3.25},
  };
  EXPECT_EQ(records_to_csv(records),
            std::string(kHeader) +
                "wl-a,CV,E4M3/static,0.5,0.5,12.5,0,1\n"
                "\"wl,with,commas\",NLP,INT8,1,0.75,100,0.25,0\n"
                "\"quoted \"\"name\"\"\",NLP,E3M4/dynamic,0.5,0.5,3.25,0,1\n");
}

}  // namespace
}  // namespace fp8q
