// The benchmark's three workloads (see README.md for why each exists).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Protected chat serving: decode-heavy, every request under its own ft2
/// ProtectionHook (serve_workloads.cpp).
RunResult run_chat_ft2(const RunContext& ctx);

/// Retrieval-style serving: long prompts, a shared system prompt and KV-pool
/// pressure, no protection (serve_workloads.cpp).
RunResult run_rag_shared(const RunContext& ctx);

/// The paper's own job: a decode-phase ft2 fault-injection campaign with
/// prefix reuse (campaign_workload.cpp).
RunResult run_campaign_ft2(const RunContext& ctx);

}  // namespace perfbench
