#include "assign/incremental.h"

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

/// Decodes the atom list of an n-vertex graph. False unless the payload
/// is one: every count fits the bytes left, every id is below n, no atom
/// lists a vertex twice and every vertex lies in some atom — the colouring
/// indexes per-vertex arrays by these ids and must decide every vertex.
bool decode_atoms(std::string_view in, std::size_t n,
                  std::vector<graph::Atom>* out) {
  std::size_t pos = 0;
  std::uint64_t count = 0;
  // Each atom holds at least its two 8-byte list lengths.
  if (!get_u64(in, pos, &count) || count > (in.size() - pos) / 16) {
    return false;
  }
  const auto read_list = [&](std::vector<Vertex>* list) {
    std::uint64_t len = 0;
    if (!get_u64(in, pos, &len) || len > (in.size() - pos) / 8) return false;
    list->reserve(len);
    for (std::uint64_t j = 0; j < len; ++j) {
      std::uint64_t v = 0;
      if (!get_u64(in, pos, &v) || v >= n) return false;
      list->push_back(static_cast<Vertex>(v));
    }
    return true;
  };
  out->clear();
  out->reserve(count);
  std::vector<std::uint64_t> last_atom(n, 0);  // 1 + index of v's last atom
  std::size_t covered = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    graph::Atom a;
    if (!read_list(&a.vertices)) return false;
    for (const Vertex v : a.vertices) {
      if (last_atom[v] == i + 1) return false;
      if (last_atom[v] == 0) ++covered;
      last_atom[v] = i + 1;
    }
    if (!read_list(&a.separator)) return false;
    out->push_back(std::move(a));
  }
  return pos == in.size() && covered == n;
}

}  // namespace

std::vector<graph::Atom> memo_decompose(AtomMemoStore& store,
                                        const ConflictGraph& cg,
                                        bool* reused) {
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
  if (auto hit = store.lookup(MemoKind::kDecomposition, key, check)) {
    std::vector<graph::Atom> atoms;
    if (decode_atoms(*hit, n, &atoms)) {
      *reused = true;
      return atoms;
    }
    // Undecodable: drop it, or first-writer-wins keeps it over the store
    // below and every later compile of this structure misses again.
    store.erase(MemoKind::kDecomposition, key);
  }
  *reused = false;
  auto atoms = graph::decompose_by_clique_separators(g);
  store.store(MemoKind::kDecomposition, key, check, encode_atoms(atoms));
  return atoms;
}

}  // namespace parmem::assign
