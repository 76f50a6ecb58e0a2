#include "assign/incremental.h"

#include <cstring>

#include "assign/placement_state.h"
#include "support/diagnostics.h"
#include "telemetry/telemetry.h"

namespace parmem::assign {
namespace {

using graph::Vertex;

// ---- payload codec ---------------------------------------------------------
//
// Little-endian append-only binary. Every decode bound-checks and returns
// false on any shape mismatch: an undecodable payload (a foreign or
// corrupted store) must degrade to a miss, never to UB — the journal layer
// already checksums, this is defense in depth.

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

bool get_u64(std::string_view in, std::size_t& pos, std::uint64_t* v) {
  if (in.size() - pos < 8) return false;
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + i]))
           << (8 * i);
  }
  pos += 8;
  *v = out;
  return true;
}

std::string encode_atoms(const std::vector<graph::Atom>& atoms) {
  std::string out;
  put_u64(out, atoms.size());
  for (const graph::Atom& a : atoms) {
    put_u64(out, a.vertices.size());
    for (const Vertex v : a.vertices) put_u64(out, v);
    put_u64(out, a.separator.size());
    for (const Vertex v : a.separator) put_u64(out, v);
  }
  return out;
}

bool decode_atoms(std::string_view in, std::vector<graph::Atom>* out) {
  std::size_t pos = 0;
  std::uint64_t count = 0;
  if (!get_u64(in, pos, &count)) return false;
  out->clear();
  out->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    graph::Atom a;
    std::uint64_t n = 0;
    if (!get_u64(in, pos, &n) || n > (in.size() - pos) / 8) return false;
    a.vertices.reserve(n);
    for (std::uint64_t j = 0; j < n; ++j) {
      std::uint64_t v = 0;
      if (!get_u64(in, pos, &v)) return false;
      a.vertices.push_back(static_cast<Vertex>(v));
    }
    if (!get_u64(in, pos, &n) || n > (in.size() - pos) / 8) return false;
    a.separator.reserve(n);
    for (std::uint64_t j = 0; j < n; ++j) {
      std::uint64_t v = 0;
      if (!get_u64(in, pos, &v)) return false;
      a.separator.push_back(static_cast<Vertex>(v));
    }
    out->push_back(std::move(a));
  }
  return pos == in.size();
}

std::string encode_color_delta(const ColorAtomDelta& d) {
  std::string out;
  put_u64(out, d.colored.size());
  for (const auto& [v, m] : d.colored) {
    put_u64(out, v);
    put_u64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(m)));
  }
  put_u64(out, d.unassigned.size());
  for (const Vertex v : d.unassigned) put_u64(out, v);
  put_u64(out, d.forced.size());
  for (const Vertex v : d.forced) put_u64(out, v);
  put_u64(out, d.load_delta.size());
  for (const std::size_t l : d.load_delta) put_u64(out, l);
  put_u64(out, d.budget_exhausted ? 1 : 0);
  put_u64(out, d.spec.atoms);
  put_u64(out, d.spec.rounds);
  put_u64(out, d.spec.chunks);
  put_u64(out, d.spec.conflicts);
  put_u64(out, d.spec.repaired);
  put_u64(out, d.spec.reclaimed);
  put_u64(out, d.spec.fallbacks);
  return out;
}

bool decode_color_delta(std::string_view in, ColorAtomDelta* d) {
  std::size_t pos = 0;
  std::uint64_t n = 0;
  if (!get_u64(in, pos, &n) || n > (in.size() - pos) / 16) return false;
  d->colored.clear();
  d->colored.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v = 0, m = 0;
    if (!get_u64(in, pos, &v) || !get_u64(in, pos, &m)) return false;
    d->colored.emplace_back(static_cast<Vertex>(v),
                            static_cast<std::int32_t>(m));
  }
  const auto vec = [&](std::vector<Vertex>* out) {
    std::uint64_t c = 0;
    if (!get_u64(in, pos, &c) || c > (in.size() - pos) / 8) return false;
    out->clear();
    out->reserve(c);
    for (std::uint64_t i = 0; i < c; ++i) {
      std::uint64_t v = 0;
      if (!get_u64(in, pos, &v)) return false;
      out->push_back(static_cast<Vertex>(v));
    }
    return true;
  };
  if (!vec(&d->unassigned) || !vec(&d->forced)) return false;
  if (!get_u64(in, pos, &n) || n > (in.size() - pos) / 8) return false;
  d->load_delta.clear();
  d->load_delta.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t l = 0;
    if (!get_u64(in, pos, &l)) return false;
    d->load_delta.push_back(static_cast<std::size_t>(l));
  }
  std::uint64_t b = 0;
  if (!get_u64(in, pos, &b)) return false;
  d->budget_exhausted = b != 0;
  std::uint64_t* const spec[] = {&d->spec.atoms,     &d->spec.rounds,
                                 &d->spec.chunks,    &d->spec.conflicts,
                                 &d->spec.repaired,  &d->spec.reclaimed,
                                 &d->spec.fallbacks};
  for (std::uint64_t* f : spec) {
    if (!get_u64(in, pos, f)) return false;
  }
  return pos == in.size();
}

std::string encode_dup_delta(const DupAtomDelta& d) {
  std::string out;
  put_u64(out, d.added.size());
  for (const auto& [v, mods] : d.added) {
    put_u64(out, v);
    put_u64(out, mods);
  }
  put_u64(out, d.rounds);
  put_u64(out, d.budget_exhausted ? 1 : 0);
  return out;
}

bool decode_dup_delta(std::string_view in, DupAtomDelta* d) {
  std::size_t pos = 0;
  std::uint64_t n = 0;
  if (!get_u64(in, pos, &n) || n > (in.size() - pos) / 16) return false;
  d->added.clear();
  d->added.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v = 0, mods = 0;
    if (!get_u64(in, pos, &v) || !get_u64(in, pos, &mods)) return false;
    d->added.emplace_back(static_cast<ir::ValueId>(v),
                          static_cast<ModuleSet>(mods));
  }
  std::uint64_t rounds = 0, b = 0;
  if (!get_u64(in, pos, &rounds) || !get_u64(in, pos, &b)) return false;
  d->rounds = static_cast<std::size_t>(rounds);
  d->budget_exhausted = b != 0;
  return pos == in.size();
}

}  // namespace

const char* memo_kind_name(MemoKind k) {
  switch (k) {
    case MemoKind::kDecomposition: return "decomposition";
    case MemoKind::kAtomColor: return "atom-color";
    case MemoKind::kAtomDup: return "atom-dup";
    case MemoKind::kAtomSeen: return "atom-seen";
  }
  PARMEM_UNREACHABLE("bad memo kind");
}

void MemoSession::note_probe(bool hit) {
  ++probes;
  if (hit) ++probe_hits;
  if (probing && probes >= probe_window &&
      probe_hits * 100 < min_hit_percent * probes) {
    probing = false;
    ++fallbacks;
  }
}

std::vector<graph::Atom> memo_decompose(MemoSession& s,
                                        const ConflictGraph& cg) {
  // Structure-only key: vertex count, CSR row extents and neighbor ids.
  // conf weights are deliberately excluded — MCS-M and the separator scan
  // never read them, so a weight-only edit reuses the whole decomposition.
  ClosureHash h;
  h.add_u64(0xD0);  // domain tag
  const graph::Graph& g = cg.graph();
  const std::size_t n = g.vertex_count();
  h.add_u64(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    h.add_u64(nbrs.size());
    for (const Vertex w : nbrs) h.add_u64(w);
  }
  const std::uint64_t key = h.digest();
  const std::uint64_t check = h.check();
  if (auto hit = s.store->lookup(MemoKind::kDecomposition, key, check)) {
    std::vector<graph::Atom> atoms;
    if (decode_atoms(*hit, &atoms)) {
      ++s.decomp_hits;
      return atoms;
    }
  }
  ++s.decomp_misses;
  auto atoms = graph::decompose_by_clique_separators(g);
  s.store->store(MemoKind::kDecomposition, key, check, encode_atoms(atoms));
  return atoms;
}

void color_closure_key(const ConflictGraph& cg,
                       const std::vector<graph::Vertex>& atom,
                       const ColorOptions& opts,
                       const std::vector<std::int32_t>& module,
                       const std::vector<bool>& decided,
                       const std::vector<bool>& never_remove,
                       const std::vector<std::size_t>& load,
                       std::uint64_t* key, std::uint64_t* check,
                       std::uint64_t* content) {
  const graph::Graph& g = cg.graph();

  // Content hash: everything the sweep reads that is intrinsic to the atom
  // — its vertex rows, conf weights, never-remove flags — plus the options.
  // This identifies "the same atom" across compiles for frontier accounting.
  ClosureHash ch;
  ch.add_u64(0xC1);
  ch.add_u64(opts.module_count);
  ch.add_u64(static_cast<std::uint64_t>(opts.pick));
  ch.add_u64(opts.speculate_threshold);
  ch.add_u64(opts.speculate_chunk);
  ch.add_u64(atom.size());
  for (const Vertex v : atom) {
    ch.add_u64(v);
    ch.add_byte(never_remove.empty() ? 2 : (never_remove[v] ? 1 : 0));
    const auto nbrs = g.neighbors(v);
    const auto wts = cg.conf_weights(v);
    ch.add_u64(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      ch.add_u64(nbrs[i]);
      ch.add_u32(wts[i]);
    }
  }
  *content = ch.digest();

  // Closure hash: the content plus the observable frontier — the
  // module/decided snapshot of the atom's vertices and of every neighbor
  // (cross-boundary neighbors contribute their colors to the initial
  // urgencies) and the load snapshot the pick rule consults.
  ClosureHash h;
  h.add_u64(0xC0);
  h.add_u64(*content);
  h.add_u64(load.size());
  for (const std::size_t l : load) h.add_u64(l);
  for (const Vertex v : atom) {
    h.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(module[v])));
    h.add_byte(decided[v] ? 1 : 0);
    for (const Vertex w : g.neighbors(v)) {
      h.add_u64(
          static_cast<std::uint64_t>(static_cast<std::int64_t>(module[w])));
    }
  }
  *key = h.digest();
  *check = h.check();
}

bool memo_color_lookup(MemoSession& s, std::uint64_t key, std::uint64_t check,
                       std::uint64_t content, ColorAtomDelta* out) {
  if (!s.probing) {
    ++s.color_misses;
    return false;
  }
  if (auto hit = s.store->lookup(MemoKind::kAtomColor, key, check)) {
    if (decode_color_delta(*hit, out)) {
      ++s.color_hits;
      s.note_probe(true);
      return true;
    }
  }
  ++s.color_misses;
  // Frontier accounting: the atom itself was journaled before — only its
  // observable frontier changed.
  if (s.store->lookup(MemoKind::kAtomSeen, content, content).has_value()) {
    ++s.frontier;
  }
  s.note_probe(false);
  return false;
}

void memo_color_store(MemoSession& s, std::uint64_t key, std::uint64_t check,
                      std::uint64_t content, const ColorAtomDelta& d) {
  s.store->store(MemoKind::kAtomColor, key, check, encode_color_delta(d));
  s.store->store(MemoKind::kAtomSeen, content, content, std::string_view{});
}

void dup_closure_key(InstSpan insts,
                     const PlacementState& st,
                     const std::vector<bool>& removed,
                     const std::vector<bool>& duplicatable,
                     std::uint64_t seed, std::size_t module_count,
                     DupMethod method, std::uint64_t* key,
                     std::uint64_t* check) {
  ClosureHash h;
  h.add_u64(0xE0);
  h.add_u64(module_count);
  h.add_u64(static_cast<std::uint64_t>(method));
  h.add_u64(seed);
  h.add_u64(insts.size());
  for (const auto& ops : insts) {
    h.add_u64(ops.size());
    for (const ir::ValueId v : ops) {
      // A value's full pre-pass state rides with each mention; duplicate
      // mentions hash twice, which is redundant but cheaper than a dedup
      // pass and just as binding.
      h.add_u64(v);
      h.add_u32(st.placement(v));
      h.add_byte(removed[v] ? 1 : 0);
      h.add_byte(duplicatable[v] ? 1 : 0);
    }
  }
  *key = h.digest();
  *check = h.check();
}

bool memo_dup_lookup(MemoSession& s, std::uint64_t key, std::uint64_t check,
                     DupAtomDelta* out) {
  if (!s.probing) {
    ++s.dup_misses;
    return false;
  }
  if (auto hit = s.store->lookup(MemoKind::kAtomDup, key, check)) {
    if (decode_dup_delta(*hit, out)) {
      ++s.dup_hits;
      s.note_probe(true);
      return true;
    }
  }
  ++s.dup_misses;
  s.note_probe(false);
  return false;
}

void memo_dup_store(MemoSession& s, std::uint64_t key, std::uint64_t check,
                    const DupAtomDelta& d) {
  s.store->store(MemoKind::kAtomDup, key, check, encode_dup_delta(d));
}

AssignResult assign_modules_incremental(const ir::AccessStream& stream,
                                        const AssignOptions& opts,
                                        const IncrementalConfig& cfg) {
  AssignOptions with_memo = opts;
  with_memo.memo_store = cfg.store;
  with_memo.memo_probe_window = cfg.probe_window;
  with_memo.memo_min_hit_percent = cfg.min_hit_percent;
  return assign_modules(stream, with_memo);
}

}  // namespace parmem::assign
