// The shipped machine-model config file must parse and agree with the
// built-in defaults (it documents them; drift would mislead experiments).
#include <gtest/gtest.h>

#include <fstream>

#include "gemini/machine_config.hpp"
#include "util/config.hpp"

namespace ugnirt {
namespace {

std::string find_hopper_cfg() {
  for (const char* candidate :
       {"configs/hopper.cfg", "../configs/hopper.cfg",
        "../../configs/hopper.cfg", "../../../configs/hopper.cfg"}) {
    std::ifstream f(candidate);
    if (f.good()) return candidate;
  }
  return {};
}

TEST(ConfigFile, HopperCfgParsesAndMatchesDefaults) {
  std::string path = find_hopper_cfg();
  if (path.empty()) GTEST_SKIP() << "configs/hopper.cfg not found from cwd";

  Config cfg;
  ASSERT_TRUE(cfg.parse_file(path)) << cfg.last_error();
  EXPECT_GT(cfg.size(), 30u);

  gemini::MachineConfig from_file;
  read_knobs(cfg, from_file);
  gemini::MachineConfig defaults;

  // Spot-check a representative field from each section.
  EXPECT_EQ(from_file.cores_per_node, defaults.cores_per_node);
  EXPECT_EQ(from_file.hop_ns, defaults.hop_ns);
  EXPECT_DOUBLE_EQ(from_file.link_bw, defaults.link_bw);
  EXPECT_EQ(from_file.smsg_max_bytes, defaults.smsg_max_bytes);
  EXPECT_DOUBLE_EQ(from_file.fma_bw, defaults.fma_bw);
  EXPECT_DOUBLE_EQ(from_file.bte_bw, defaults.bte_bw);
  EXPECT_EQ(from_file.mem_reg_per_page_ns, defaults.mem_reg_per_page_ns);
  EXPECT_EQ(from_file.mempool_init_bytes, defaults.mempool_init_bytes);
  EXPECT_EQ(from_file.rdma_threshold, defaults.rdma_threshold);
  EXPECT_EQ(from_file.mpi_eager_threshold, defaults.mpi_eager_threshold);
  EXPECT_EQ(from_file.mpi_rdma_threshold, defaults.mpi_rdma_threshold);
  EXPECT_EQ(from_file.mpi_iprobe_conn_free, defaults.mpi_iprobe_conn_free);
  EXPECT_EQ(from_file.pxshm_notify_ns, defaults.pxshm_notify_ns);

  // Full-field agreement via the canonical dump.
  Config defaults_cfg, file_cfg;
  write_knobs(defaults, defaults_cfg);
  write_knobs(from_file, file_cfg);
  EXPECT_EQ(defaults_cfg.dump(), file_cfg.dump());
}

TEST(ConfigFile, ParseFileReportsMissingFile) {
  Config cfg;
  EXPECT_FALSE(cfg.parse_file("/nonexistent/path.cfg"));
  EXPECT_FALSE(cfg.last_error().empty());
}

}  // namespace
}  // namespace ugnirt
