// On-disk cache-shard migration for permanently failed workers.
//
// A fleet driven by parmem_router keeps one result-cache journal directory
// per worker index (`<cache_root>/w<i>`), each file named by its cache key
// (`<16-hex-key>.res`, support/journal.h). That naming makes the shard
// re-routable without reading a byte of payload: when worker `i` fails for
// good and the router retires its ring points, every journal entry's new
// home is `owner_of(key)` on the post-retirement ring. migrate_result_shard
// renames the files across (same filesystem — the per-index dirs share a
// root), so the successor's next warm restart loads the merged journal via
// the existing crash-safe load path: corrupt or torn entries are skipped,
// loaded payloads are checksum-verified byte-identical.
//
// Only `.res` entries move. Atom-cache files (`.atom`) are keyed by atom
// content hash, not by request cache key — they cannot be ring-routed, and
// the successor rebuilds them incrementally.
#pragma once

#include <cstdint>
#include <string>

#include "router/router.h"

namespace parmem::router {

/// Moves every parseable `<16-hex-key>.res` entry under
/// `<cache_root>/w<failed_index>` into `<cache_root>/w<owner_of(key)>`.
/// Entries whose key cannot be parsed, whose owner is unknown (empty
/// ring), or whose rename fails are left behind and counted as skipped.
/// Returns the report the router uses to recycle the warmed successors.
/// Never throws.
RebalanceReport migrate_result_shard(const std::string& cache_root,
                                     std::uint32_t failed_index,
                                     const OwnerFn& owner_of);

/// A ShardMigrator over migrate_result_shard for the `<cache_root>/w<i>`
/// layout parmem_router's worker factory uses. Pass as
/// RouterOptions::shard_migrator when the fleet shares `cache_root`.
ShardMigrator cache_dir_migrator(std::string cache_root);

}  // namespace parmem::router
