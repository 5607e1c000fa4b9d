// Example: checkpoint / resume of a semi-external traversal.
//
// Long-running SEM jobs (the paper's biggest rows run for hours) should
// survive storage failures. This example runs an SSSP over on-disk
// storage, runs it again on storage that fails mid-run with
// traversal_options::checkpoint_path set (checkpoint on error), reloads
// the CRC-verified snapshot the aborted job wrote, resumes, and proves the
// resumed result equals the uninterrupted run.
//
//   ./checkpoint_resume [--scale=12] [--threads=32]
#include <cstdio>
#include <filesystem>

#include "asyncgt.hpp"
#include "baselines/serial_sssp.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace asyncgt;
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 12));

  visitor_queue_config cfg;
  cfg.num_threads = static_cast<std::size_t>(opt.get_int("threads", 32));
  cfg.secondary_vertex_sort = true;

  // On-disk weighted graph, traversed semi-externally.
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(scale)), weight_scheme::uniform,
                  3);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string graph_path = (dir / "ckpt_example.agt").string();
  const std::string ckpt_path = (dir / "ckpt_example.ckpt").string();
  write_graph(graph_path, g);
  sem::ssd_model dev(sem::fusionio_params(/*time_scale=*/0.05));
  sem::sem_csr32 sg(graph_path, &dev);

  // 1. The uninterrupted reference run.
  const auto full = async_sssp(sg, vertex32{0}, cfg);
  std::printf("full run: reached %llu vertices in %.3fs\n",
              static_cast<unsigned long long>(full.visited_count()),
              full.stats.elapsed_seconds);

  // 2. The same job on storage that fails mid-run: a fatal read error
  //    aborts it, and because its options name a checkpoint path the job
  //    writes its partial labels there before the error reaches us.
  sem::fault_config faults;
  faults.p_eio = 0.02;
  faults.fatal = true;
  faults.seed = 7;
  sem::fault_injector injector(faults);
  sem::sem_csr32 failing(graph_path, &dev);
  failing.set_fault_injector(&injector);
  traversal_options topt(cfg);
  topt.checkpoint_path = ckpt_path;
  try {
    async_sssp(failing, vertex32{0}, topt);
    std::printf("the injected fault never fired\n");
    return 1;
  } catch (const traversal_aborted& e) {
    std::printf("job aborted: %s\n", e.what());
  }

  // 3. "Restart": load and CRC-verify the snapshot, then resume on healthy
  //    storage. The resume is an engine job like any other.
  const auto loaded =
      load_checkpoint<vertex32>(ckpt_path, checkpoint_kind::sssp);
  std::uint64_t kept = 0;
  for (const dist_t d : loaded.label) kept += d != infinite_distance<dist_t>;
  std::printf("checkpoint: %llu labelled vertices, %llu bytes, CRC "
              "protected\n",
              static_cast<unsigned long long>(kept),
              static_cast<unsigned long long>(
                  std::filesystem::file_size(ckpt_path)));
  sem::ssd_model dev2(sem::fusionio_params(/*time_scale=*/0.05));
  sem::sem_csr32 sg2(graph_path, &dev2);
  const auto resumed = resume_sssp(sg2, loaded, cfg);
  std::printf("resume: %.3fs, %llu corrections\n",
              resumed.stats.elapsed_seconds,
              static_cast<unsigned long long>(resumed.updates));

  const bool same = (resumed.dist == full.dist);
  std::printf("resumed result equals uninterrupted run: %s\n",
              same ? "yes" : "NO");

  std::filesystem::remove(graph_path);
  std::filesystem::remove(ckpt_path);
  return same ? 0 : 1;
}
