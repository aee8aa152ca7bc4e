/**
 * @file
 * Block sharing between live sequences for the paged-KV tests: a new
 * sequence starts as a copy of a live one through the prefix-cache
 * admission path, so refcounted sharing is exercised without a
 * dedicated fork call.
 */

#ifndef CLLM_TESTS_KV_SHARE_HH
#define CLLM_TESTS_KV_SHARE_HH

#include <vector>

#include "mem/kv_paged.hh"

namespace cllm::testing {

/**
 * Register `child` with `parent`'s token count: it shares every full
 * block of `parent` and gets a fresh block for a partial tail.
 * All-or-nothing like addSequenceWithPrefix.
 */
inline bool
shareFullBlocks(mem::PagedKvCache &kv, mem::KvSeqId parent,
                mem::KvSeqId child)
{
    const unsigned tokens = kv.tokens(parent);
    const unsigned full = tokens / kv.config().blockTokens;
    const std::vector<std::uint32_t> &table = kv.blockTable(parent);
    return kv.addSequenceWithPrefix(
        child, tokens, {table.begin(), table.begin() + full},
        full * kv.config().blockTokens);
}

} // namespace cllm::testing

#endif // CLLM_TESTS_KV_SHARE_HH
