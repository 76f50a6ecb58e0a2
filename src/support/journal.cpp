#include "support/journal.h"

#include <algorithm>
#include <cstdio>

#include "support/fault_injection.h"
#include "support/file_io.h"
#include "support/fnv.h"
#include "support/text.h"

namespace parmem::support {
namespace {

std::string encode_entry(std::uint8_t kind, std::uint64_t check,
                         std::string_view payload) {
  char head[96];
  std::snprintf(head, sizeof head, "parmem-journal 1 %u %016llx %zu %016llx\n",
                static_cast<unsigned>(kind),
                static_cast<unsigned long long>(check), payload.size(),
                static_cast<unsigned long long>(fnv1a64(payload)));
  std::string out(head);
  out.append(payload);
  return out;
}

struct Decoded {
  std::uint8_t kind;
  std::uint64_t check;
  std::string payload;
};

/// Validates and strips the entry header. nullopt on any mismatch.
std::optional<Decoded> decode_entry(const std::string& bytes) {
  const std::size_t nl = bytes.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  char tag[16] = {};
  unsigned kind = 0;
  unsigned long long check = 0, sum = 0;
  std::size_t len = 0;
  if (std::sscanf(bytes.c_str(), "parmem-journal %15s %u %llx %zu %llx", tag,
                  &kind, &check, &len, &sum) != 5 ||
      std::string_view(tag) != "1" || kind > 0xff) {
    return std::nullopt;
  }
  if (bytes.size() - nl - 1 != len) return std::nullopt;
  std::string payload = bytes.substr(nl + 1);
  if (fnv1a64(payload) != sum) return std::nullopt;
  return Decoded{static_cast<std::uint8_t>(kind), check, std::move(payload)};
}

}  // namespace

std::string Journal::entry_name(Key k, std::string_view suffix) {
  std::string name = k.kind == 0 ? "" : hex16(k.kind).substr(14);
  name += hex16(k.key);
  name += suffix;
  return name;
}

std::optional<Journal::Key> Journal::parse_entry_name(std::string_view name,
                                                      std::string_view suffix) {
  if (name.size() < suffix.size() ||
      name.substr(name.size() - suffix.size()) != suffix) {
    return std::nullopt;
  }
  std::string_view stem = name.substr(0, name.size() - suffix.size());
  Key k;
  if (stem.size() == 18) {
    const auto kind = parse_hex64(stem.substr(0, 2));
    if (!kind.has_value() || *kind == 0) return std::nullopt;
    k.kind = static_cast<std::uint8_t>(*kind);
    stem.remove_prefix(2);
  }
  const auto key = stem.size() == 16 ? parse_hex64(stem) : std::nullopt;
  if (!key.has_value()) return std::nullopt;
  k.key = *key;
  return k;
}

Journal::Journal(std::string dir, std::size_t max_entries,
                 std::string_view suffix, const char* fault_site)
    : dir_(std::move(dir)),
      max_entries_(max_entries),
      suffix_(suffix),
      fault_site_(fault_site) {
  if (dir_.empty()) return;
  if (ensure_directory(dir_)) {
    load();
    writer_ = std::thread([this] { writer_loop(); });
  } else {
    // An unusable dir degrades to memory-only; the owner keeps serving and
    // the failure shows up in stats().
    ++stats_.load_errors;
    dir_.clear();
  }
}

Journal::~Journal() {
  if (!writer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_one();
  writer_.join();
}

void Journal::load() {
  // Load oldest-mtime first so the rebuilt recency order matches on-disk
  // age: a restarted process evicts the same cold tail a surviving one
  // would have.
  struct Candidate {
    std::int64_t mtime;
    std::string name;
    Key key;
  };
  std::vector<Candidate> files;
  for (const std::string& name : list_directory(dir_)) {
    const auto key = parse_entry_name(name, suffix_);
    if (!key.has_value()) {
      // `.tmp-*` orphans from a killed store, or foreign files: skipped and
      // counted, so a soak can tell crash debris from a torn entry.
      ++stats_.load_errors;
      continue;
    }
    const auto mt = file_mtime(dir_ + "/" + name);
    files.push_back(Candidate{mt.value_or(0), name, *key});
  }
  std::stable_sort(files.begin(), files.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.mtime < b.mtime;
                   });
  for (const Candidate& f : files) {
    std::optional<Decoded> entry;
    try {
      if (fault_site_ != nullptr) PARMEM_FAULT_POINT(fault_site_, nullptr);
      const auto bytes = read_file(dir_ + "/" + f.name);
      if (bytes.has_value()) entry = decode_entry(*bytes);
    } catch (...) {
      // A fault while reading one entry costs that entry, not the warm
      // start.
      entry.reset();
    }
    if (!entry.has_value() || entry->kind != f.key.kind) {
      ++stats_.load_errors;
      continue;
    }
    Entry e;
    e.check = entry->check;
    e.payload = std::move(entry->payload);
    e.seq = next_seq_++;
    recency_.emplace(e.seq, f.key);
    entries_.emplace(f.key, std::move(e));
    ++stats_.loaded;
  }
  // Trim an over-capacity journal now (single-threaded here).
  for (const Key& victim : evict_locked()) remove_file(entry_path(victim));
}

std::string Journal::entry_path(Key k) const {
  if (dir_.empty()) return "";
  return dir_ + "/" + entry_name(k, suffix_);
}

void Journal::touch(Map::iterator it) {
  recency_.erase(it->second.seq);
  it->second.seq = next_seq_++;
  recency_.emplace(it->second.seq, it->first);
}

std::vector<Journal::Key> Journal::evict_locked() {
  std::vector<Key> victims;
  while (max_entries_ != 0 && entries_.size() > max_entries_ &&
         !recency_.empty()) {
    const auto oldest = recency_.begin();
    victims.push_back(oldest->second);
    entries_.erase(oldest->second);
    recency_.erase(oldest);
    ++stats_.evicted;
  }
  return victims;
}

std::optional<std::string> Journal::lookup(Key k, std::uint64_t check) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(k);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second.check != check) {
    // The 64-bit key collided but the independent check hash disagrees:
    // a miss, never the wrong payload.
    ++stats_.check_mismatches;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  touch(it);
  return it->second.payload;
}

void Journal::store(Key k, std::uint64_t check, std::string_view payload) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto [it, inserted] = entries_.try_emplace(k);
    if (!inserted) {
      if (it->second.check == check) {
        // First writer wins; re-storing still counts as recent use.
        touch(it);
        return;
      }
      // The resident entry can never serve this check: replace it, or the
      // key would miss under this check forever.
      recency_.erase(it->second.seq);
    }
    it->second.check = check;
    it->second.payload.assign(payload.data(), payload.size());
    it->second.seq = next_seq_++;
    recency_.emplace(it->second.seq, k);
    ++stats_.stores;
    const std::vector<Key> victims = evict_locked();
    if (dir_.empty()) return;
    for (const Key& victim : victims) enqueue_locked(victim);
    enqueue_locked(k);
  }
  work_cv_.notify_one();
}

void Journal::erase(Key k) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(k);
    if (it == entries_.end()) return;
    recency_.erase(it->second.seq);
    entries_.erase(it);
    if (dir_.empty()) return;
    enqueue_locked(k);
  }
  work_cv_.notify_one();
}

void Journal::enqueue_locked(Key k) {
  // A key still waiting in the queue needs no second sync: the writer
  // reads its residency when it dequeues it.
  if (!queued_.insert(k).second) return;
  queue_.push_back(k);
  ++enqueued_;
}

void Journal::flush() {
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t target = enqueued_;
  synced_cv_.wait(lk, [&] { return synced_ >= target; });
}

void Journal::writer_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopped, and every queued key synced
    const Key k = queue_.front();
    queue_.pop_front();
    queued_.erase(k);
    // Residency is read under the hold that dequeues the key, so a later
    // store or eviction queues it again and that sync lands after this
    // one: the last sync leaves the file matching memory. Without that a
    // write could land after its entry's eviction, leaving more files than
    // max_entries and resurrecting the victim on the next warm load.
    const auto it = entries_.find(k);
    const bool resident = it != entries_.end();
    std::string bytes;
    bool ok = true;
    try {
      if (resident) {
        bytes = encode_entry(k.kind, it->second.check, it->second.payload);
      }
    } catch (...) {
      ok = false;
    }
    lk.unlock();
    if (!resident) {
      remove_file(entry_path(k));
    } else if (ok) {
      ok = write_entry(k, bytes);
    }
    lk.lock();
    if (!ok) ++stats_.store_errors;
    ++synced_;
    synced_cv_.notify_all();
  }
}

bool Journal::write_entry(Key k, const std::string& bytes) const {
  try {
    if (fault_site_ != nullptr) PARMEM_FAULT_POINT(fault_site_, nullptr);
    return write_file_atomic(entry_path(k), bytes);
  } catch (...) {
    return false;
  }
}

std::size_t Journal::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

Journal::Stats Journal::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats out = stats_;
  out.pending = enqueued_ - synced_;
  return out;
}

}  // namespace parmem::support
