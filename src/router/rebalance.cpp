#include "router/rebalance.h"

#include <cstdio>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "service/cache.h"
#include "support/file_io.h"
#include "support/journal.h"

namespace parmem::router {
namespace {

std::string worker_dir(const std::string& root, std::uint32_t index) {
  return root + "/w" + std::to_string(index);
}

}  // namespace

RebalanceReport migrate_result_shard(const std::string& cache_root,
                                     std::uint32_t failed_index,
                                     const OwnerFn& owner_of) {
  RebalanceReport report;
  const std::string src_dir = worker_dir(cache_root, failed_index);
  std::vector<std::uint32_t> warmed;
  for (const std::string& name : support::list_directory(src_dir)) {
    // Only `<16-hex-key>.res` result entries move; `.atom` files, temp
    // siblings and stray droppings stay in place.
    const auto entry = support::Journal::parse_entry_name(
        name, service::ResultCache::kSuffix);
    if (!entry.has_value() || entry->kind != 0) continue;
    const auto owner = owner_of ? owner_of(entry->key) : std::nullopt;
    if (!owner.has_value() || *owner == failed_index) {
      ++report.skipped_entries;
      continue;
    }
    const std::string dst_dir = worker_dir(cache_root, *owner);
    if (!support::ensure_directory(dst_dir)) {
      ++report.skipped_entries;
      continue;
    }
    const std::string src = src_dir + "/" + name;
    const std::string dst = dst_dir + "/" + name;
    // The per-index dirs share cache_root, so rename(2) is a same-fs
    // atomic move: the entry is always either a complete file in the old
    // shard or a complete file in the new one, never torn — exactly the
    // invariant the warm-load path verifies by checksum.
    if (std::rename(src.c_str(), dst.c_str()) != 0) {
      ++report.skipped_entries;
      continue;
    }
    ++report.migrated_entries;
    warmed.push_back(*owner);
  }
  std::sort(warmed.begin(), warmed.end());
  warmed.erase(std::unique(warmed.begin(), warmed.end()), warmed.end());
  report.warmed_workers = std::move(warmed);
  return report;
}

ShardMigrator cache_dir_migrator(std::string cache_root) {
  return [root = std::move(cache_root)](std::uint32_t failed_index,
                                        const OwnerFn& owner_of) {
    return migrate_result_shard(root, failed_index, owner_of);
  };
}

}  // namespace parmem::router
