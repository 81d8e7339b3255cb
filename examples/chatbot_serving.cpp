// Chatbot serving: the paper's generative workload (§4.3) end to end.
//
// Each conversation is a prefill over the prompt followed by
// incremental sampling with the KV cache — one decode iteration per
// token. The conversations arrive 1 ms apart and run through
// run_experiment's generative path under both batching modes: rounds
// (a round admits only into an empty batch, so early finishers ride
// along as padding) and continuous (admission and retirement between
// iterations, paged KV). Liger and Intra-Op read alike here: the
// scheduler keeps one iteration in flight, so there is no second batch
// to interleave with (Liger's decode-phase gain is bench/fig11_generative,
// one concurrent decode batch per request).
//
//   $ ./chatbot_serving [--tokens 24] [--batch-size 32] [--prompt 16]
//                       [--conversations 2] [--model opt-30b]
//
// Exits non-zero if any run leaves a conversation unfinished.

#include <cstdint>
#include <cstdio>

#include "gpu/node.h"
#include "model/model_spec.h"
#include "serving/experiment.h"
#include "util/flags.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace liger;
  util::Flags flags(argc, argv);
  serving::ExperimentConfig base;
  base.node = gpu::NodeSpec::a100_pcie(4);
  base.model = model::ModelZoo::by_name(flags.get_string("model", "opt-30b"));
  base.rate = 1000.0;  // conversations/s
  auto& w = base.workload;
  w.num_requests = static_cast<int>(flags.get_int("conversations", 2));
  w.seq_min = w.seq_max = static_cast<int>(flags.get_int("prompt", 16));
  w.decode_tokens_min = w.decode_tokens_max = static_cast<int>(flags.get_int("tokens", 24));
  w.batch_size = static_cast<int>(flags.get_int("batch-size", 32));

  std::printf("Chatbot: %d conversations, %d tokens each, batch %d, prompt %d\n",
              w.num_requests, w.decode_tokens_max, w.batch_size, w.seq_max);

  int failures = 0;
  using serving::BatchingMode;
  for (const auto mode : {BatchingMode::kRounds, BatchingMode::kContinuous}) {
    std::printf("%s batching:\n", mode == BatchingMode::kRounds ? "rounds" : "continuous");
    for (const auto method : {serving::Method::kLiger, serving::Method::kIntraOp}) {
      auto cfg = base;
      cfg.method = method;
      cfg.batching = mode;
      const auto r = serving::run_experiment(cfg);
      const auto& g = r.generative;
      std::printf("  %-9s: first token %7.2f ms, %6.2f ms/token (p99 %6.2f), "
                  "%6.1f tok/s, peak KV %s/device\n",
                  serving::method_name(method), g.ttft_ms_avg, g.tpot_ms_avg, g.tpot_ms_p99,
                  g.tokens_per_second,
                  util::format_bytes(static_cast<std::uint64_t>(g.kv_peak_used_blocks) *
                                     g.kv_block_bytes)
                      .c_str());
      if (r.completed != static_cast<std::size_t>(w.num_requests)) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
