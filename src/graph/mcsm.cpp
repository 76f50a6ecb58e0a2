#include "graph/mcsm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <span>
#include <utility>

#include "support/diagnostics.h"

namespace parmem::graph {
namespace {

constexpr std::int32_t kNumbered = -1;
constexpr Vertex kNil = 0xFFFFFFFFu;  // end of a vertex-threaded list

// A list of vertices threaded through a per-vertex `next` array.
struct VertexList {
  Vertex head = kNil;
  Vertex tail = kNil;
};

void push(VertexList& list, std::vector<Vertex>& next, Vertex v) {
  next[v] = list.head;
  list.head = v;
  if (list.tail == kNil) list.tail = v;
}

// Moves every element of `from` to the end of `into`, in O(1).
void splice(VertexList& into, VertexList& from, std::vector<Vertex>& next) {
  if (from.head == kNil) return;
  if (into.head == kNil) {
    into = from;
  } else {
    next[into.tail] = from.head;
    into.tail = from.tail;
  }
  from = VertexList{};
}

// MCS-M: n steps, each numbering the unnumbered vertex x of maximum weight
// and then incrementing the weight of every unnumbered y that x reaches
// through unnumbered vertices of weight < w(y).
//
// The per-step search (Dijkstra on minimax path weight): given the chosen
// vertex x, find every unnumbered y such that some path
// x, x1, .., xk, y exists with all xi unnumbered and w(xi) < w(y). Define
// g(y) = min over paths of the maximum intermediate weight (-1 for a direct
// edge); then y qualifies iff g(y) < w(y). g() is computed with a Dijkstra
// scan keyed on g over the live (unnumbered) adjacency; x itself is removed
// from the live rows first and its former row seeds the scan, so the inner
// loop needs no self-exclusion test.
//
// Cutoff: x is the maximum-weight unnumbered vertex, so every candidate
// has w(y) <= w(x) and can only qualify through a path with minimax
// < w(x). Keys come out of the queue in non-decreasing order, so
// relaxations with via >= w(x) are never pushed — they could only ever
// produce non-qualifying minimax values. While weights are flat (early
// steps) the scan is O(deg(x)) instead of a flood of the whole remaining
// graph.
//
// Bucket queue: the cutoff also bounds every key by w(x), a small integer,
// so Dial's algorithm applies — bucket b holds tentative minimax b - 1,
// buckets are drained in ascending order, and a node processed while
// draining its bucket can push into the same or a later bucket only
// (via = max(g, w(v)) >= g). The final minimax values, and therefore the
// reached set, do not depend on the order equal keys are processed; nothing
// downstream depends on the order the set is listed in.
//
// Score word: the inner loop runs once per (step, live edge) pair, so the
// per-visit footprint is the whole game. Epoch and tentative minimax share
// one 64-bit word per node,
//
//   score = (epoch << 32) | (0xFFFFFFFF - (best + 1)),
//
// so newer epochs compare greater than stale ones, within an epoch smaller
// (better) minimax values compare greater, and "take this relaxation?" is
// one load and one unsigned compare. Nothing is cleared between steps.
//
// Contracting the untouched region. Let Z be the live vertices of weight
// 0. A weight-0 vertex qualifies only through a direct edge (g = -1), and
// every live neighbour of a numbered vertex qualified when that vertex was
// numbered, so a live vertex is in Z exactly when no numbered vertex
// touches it. Z therefore only shrinks: each step it loses x and x's
// Z-neighbours (the Z seeds, which all qualify). Within one connected
// component C of G[Z] every non-seed vertex ends the step at the same level
// L = max(g_C, 0), where g_C is the best level at which the search enters
// C, and none of them qualifies. So C is one node of the search: expanding
// it at L relaxes its boundary (the live non-Z vertices adjacent to C) at
// L, and the seeds settle at -1 and qualify as before. The search then
// never walks the untouched region, which on locality graphs is where
// nearly all of the uncontracted search's edge scans went.
//
// Search nodes: node v < n is vertex v and node n + c is component c;
// slot_[v] is v's node (n + c while v is in Z). The score array is indexed
// by node, so the inner loop relaxes slot_[w] without asking whether w is
// in Z, and a popped node >= n expands its component.
//
// The labels are kept exact as Z shrinks (repair()): the lost vertices'
// remaining Z-neighbours are grouped by component (a count pass, then a
// placement pass), and each group starts interleaved searches that find
// the pieces of its component, merged when they touch and stopped when
// one is left running. Each search that ran out is a split-off piece with
// a new id and a freshly computed boundary; the last keeps the old id.
// Boundary lists are repaired lazily: a vertex leaving Z is appended to
// the lists of the components next to it, and an entry is re-checked (and
// dropped if it is numbered or no longer touches the component) when the
// component is next expanded — only if the entry vertex lost a
// Z-neighbour, or saw one move to a split-off piece, since the list was
// last checked.
//
// The labels are built lazily, once the step searches have scanned more
// than n + 2m adjacency entries (a size-only threshold, so the output and
// the counted work stay pure functions of the graph). Before that every
// vertex is its own node; chordal and small graphs typically finish
// without ever labelling.
//
// Mask mode. On locality graphs the touched frontier is small: T, the live
// vertices outside Z, holds a few dozen vertices at a time, and so does the
// set of live components next to T. Once labelled, the run gives each
// vertex of T a slot below 64 (tslot_) and each component next to T a slot
// below 64 (cslot_), and keeps per T slot the mask of its T-neighbours
// (Slots::trow) and of its components (tcomp), and per component slot the
// mask of T vertices next to it (comp_t). A step's search is then a closure
// over masks, level by level. Let A be the T vertices next to x, to a
// reached component, or to a reached T vertex; x's Z seeds reach their
// components at level 0. At level j = 1..w(x), every T vertex of weight j
// in A qualifies (the reached intermediates all weigh less than j), and
// then every T vertex of weight <= j in A is reached, each costing one OR
// of its T-row and one of its component mask, until nothing new is
// reached. The next vertex is picked from T by the same rule (the lowest
// live id when T is empty, which then lies in Z), so the selection tree
// goes stale and is rebuilt only if the run leaves mask mode.
//
// The masks stay exact between steps without rescanning old rows: zcnt
// counts, per T slot and component slot, the T vertex's Z-neighbours in
// that component. Each Z seed takes a slot and scans its row once, which
// also moves its old T neighbours' counts off its old component; split()
// moves the counts of the T neighbours of each split-off piece; and every
// T slot whose counts changed rereads them into its component mask. x's
// slot is freed, and a component slot when no T vertex touches it. When
// T or the components next to it would need a 65th slot, the run rebuilds
// the selection tree and finishes on the search above; repair() and the
// boundary lists are kept in both modes, so nothing else changes.
// Labelling also indexes each arc's reverse (rev_), which makes remove(x)
// O(deg(x)) from then on.
class Mcsm {
 public:
  explicit Mcsm(const Graph& g) : n_(g.vertex_count()) {
    PARMEM_CHECK(n_ < 0x80000000u, "graph too large for MCS-M");
    leaves_ = std::bit_ceil(std::max<std::size_t>(n_, 2));
    weight_.assign(leaves_, kNumbered);  // ids >= n pad the tree
    std::fill(weight_.begin(), weight_.begin() + n_, 0);
    tree_.resize(leaves_);
    rebuild_tree();
    score_.assign(n_, 0);
    live_off_.assign(n_ + 1, 0);
    live_deg_.assign(n_, 0);
    for (Vertex v = 0; v < n_; ++v) {
      slot_.push_back(v);
      live_off_[v + 1] =
          live_off_[v] + static_cast<std::uint32_t>(g.degree(v));
      live_deg_[v] = static_cast<std::uint32_t>(g.degree(v));
    }
    live_nbr_.resize(live_off_[n_]);
    for (Vertex v = 0; v < n_; ++v) {
      const auto nb = g.neighbors(v);
      std::copy(nb.begin(), nb.end(), live_nbr_.begin() + live_off_[v]);
    }
    label_after_ = n_ + live_off_[n_];  // n + 2m
  }

  Triangulation run();

 private:
  static std::uint64_t key(std::uint64_t epoch, std::int32_t best) {
    return (epoch << 32) |
           (0xFFFFFFFFu - static_cast<std::uint32_t>(best + 1));
  }

  std::span<const Vertex> live(Vertex v) const {
    return {live_nbr_.data() + live_off_[v], live_deg_[v]};
  }

  /// Removes `x` from every live neighbor's row (called once x is
  /// numbered). Rows are swap-deleted, so they are unsorted — harmless,
  /// because nothing depends on the order a row is visited in. Once
  /// labelled, rev_ finds x in each row directly.
  void remove(Vertex x) {
    if (labelled_) {
      const std::uint32_t base = live_off_[x];
      for (std::uint32_t p = base; p < base + live_deg_[x]; ++p) {
        const Vertex w = live_nbr_[p];
        const std::uint32_t q = rev_[p];  // x's entry in w's row
        const std::uint32_t last = live_off_[w] + --live_deg_[w];
        if (q == last) continue;
        live_nbr_[q] = live_nbr_[last];
        rev_[q] = rev_[last];
        rev_[rev_[q]] = q;
      }
      live_deg_[x] = 0;
      return;
    }
    for (const Vertex w : live(x)) {
      Vertex* row = live_nbr_.data() + live_off_[w];
      for (std::uint32_t i = 0; i < live_deg_[w]; ++i) {
        if (row[i] == x) {
          row[i] = row[--live_deg_[w]];
          break;
        }
      }
    }
    live_deg_[x] = 0;
  }

  // Selection: the unnumbered vertex of maximum weight, lowest id on ties,
  // from a tournament tree over the ids. A vertex's rank is its weight + 1
  // above its complemented id, so the larger rank wins and a numbered or
  // padding id (weight -1) loses to every unnumbered one. Leaf leaves_ + v
  // stands for vertex v and internal node i (1 <= i < leaves_) holds the
  // winning rank of its subtree, so tree_[1] names the next vertex to
  // number. There are no stale entries: numbering x replays the log n
  // matches on x's path, and an increment re-plays y's matches only while y
  // keeps winning, which is usually one or two.
  std::uint64_t rank(Vertex v) const {
    return (static_cast<std::uint64_t>(weight_[v] + 1) << 32) |
           (0xFFFFFFFFu - v);
  }
  std::uint64_t winner(std::size_t node) const {
    return node >= leaves_ ? rank(static_cast<Vertex>(node - leaves_))
                           : tree_[node];
  }
  Vertex top() const {
    return 0xFFFFFFFFu - static_cast<std::uint32_t>(tree_[1]);
  }
  /// After weight_[y] grew: y can only win more, so it climbs while it
  /// wins, and stops at the first node whose winner still beats it.
  void raise(Vertex y) {
    const std::uint64_t r = rank(y);
    for (std::size_t node = (leaves_ + y) / 2; node >= 1; node /= 2) {
      if (tree_[node] > r) return;
      tree_[node] = r;
    }
  }
  /// After x was numbered: replays every match on x's path to the root.
  void replay(Vertex x) {
    for (std::size_t node = (leaves_ + x) / 2; node >= 1; node /= 2) {
      tree_[node] = std::max(winner(2 * node), winner(2 * node + 1));
    }
  }
  void rebuild_tree() {
    for (std::size_t node = leaves_ - 1; node >= 1; --node) {
      tree_[node] = std::max(winner(2 * node), winner(2 * node + 1));
    }
  }

  bool in_z(Vertex v) const { return slot_[v] != v; }

  void search(std::int32_t cutoff);
  void expand_component(std::uint32_t c, std::int32_t level);

  void label();
  void index_reverse_arcs();
  bool enter_mask();
  Vertex mask_top();
  void mask_search(Vertex x, std::int32_t cutoff,
                   std::vector<std::pair<Vertex, Vertex>>& fill);
  bool mask_update(Vertex x, bool repaired);
  int comp_slot(std::uint32_t c);
  void recount(int s, int from, int& to, std::uint32_t id);
  void repair();
  void split(std::uint32_t c, std::span<const Vertex> starts);
  std::uint32_t new_component();
  void add_boundary(std::uint32_t c, Vertex w);
  std::uint32_t find(std::uint32_t s);

  const std::size_t n_;
  std::size_t leaves_ = 2;  // a power of two >= max(n, 2)
  // Per id below leaves_: kNumbered once numbered and for padding ids >= n.
  std::vector<std::int32_t> weight_;
  std::vector<std::uint64_t> tree_;  // leaves_ ranks, [0] unused
  std::uint64_t search_edges_ = 0;

  // Live adjacency: a mutable copy of the rows with numbered vertices
  // deleted, so each search walks only the unnumbered remainder.
  std::vector<std::uint32_t> live_off_;  // n + 1
  std::vector<Vertex> live_nbr_;         // flat rows, mutable
  std::vector<std::uint32_t> live_deg_;  // live prefix length of each row

  // Search state, reused across steps.
  std::vector<std::uint64_t> score_;  // per node: n vertices, then components
  std::vector<std::uint32_t> slot_;   // per vertex: its node
  std::uint64_t epoch_ = 0;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<Vertex> xrow_;     // live neighbors of the step's vertex
  std::vector<Vertex> reached_;  // the step's qualifying vertices

  // Contracted untouched region; empty until label().
  std::uint64_t label_after_ = 0;
  bool labelled_ = false;
  std::size_t z_size_ = 0;            // live weight-0 vertices, once labelled
  std::uint64_t tick_ = 0;            // repairs since labelling
  std::vector<std::uint64_t> lost_at_;  // last tick a Z-neighbour left/moved
  std::vector<std::uint32_t> mark_;   // per-vertex stamp for deduplication
  std::uint32_t mark_gen_ = 0;
  // Per component:
  std::vector<std::vector<Vertex>> boundary_;
  std::vector<std::uint64_t> checked_at_;  // tick of the last full check
  std::vector<Vertex> appended_;  // last leaving vertex appended + 1
  std::vector<std::uint32_t> group_end_;  // repair scratch, else 0

  // Repair scratch. A split's searches keep their members and frontiers
  // (members not yet scanned) as lists threaded through per-vertex links,
  // so merging two searches is O(1) and the lists take O(n) in all.
  std::vector<Vertex> left_;
  std::vector<Vertex> starts_;  // distinct Z-neighbours of left_
  std::vector<std::uint32_t> touched_;  // their components, first seen first
  std::vector<Vertex> group_;  // starts_ grouped by component
  std::vector<Vertex> members_;
  struct Piece {
    VertexList members;
    VertexList frontier;
  };
  std::vector<Piece> pieces_;
  std::vector<Vertex> member_next_;    // per vertex
  std::vector<Vertex> frontier_next_;  // per vertex
  std::vector<std::uint32_t> piece_parent_;
  std::vector<std::uint32_t> piece_slot_;  // index in active_
  std::vector<std::uint32_t> active_;
  std::vector<std::uint32_t> visit_gen_;   // per vertex
  std::vector<std::uint32_t> visit_by_;    // per vertex: piece index
  std::uint32_t visit_gen_now_ = 0;

  // Reverse arcs, once labelled: live_nbr_[rev_[p]] is the owner of p.
  std::vector<std::uint32_t> rev_;

  // Mask mode (see the class comment). A slot is a bit of a 64-bit mask.
  static constexpr std::uint64_t bit(int s) { return std::uint64_t{1} << s; }
  // The per-slot arrays, allocated on entering mask mode so that a run
  // which never labels does not even clear them.
  struct Slots {
    std::array<Vertex, 64> tvert{};          // per T slot: its vertex
    std::array<std::uint64_t, 64> trow{};    // per T slot: T-neighbours
    std::array<std::uint64_t, 64> tcomp{};   // per T slot: its components
    std::array<std::uint32_t, 64> cid{};     // per component slot: its id
    std::array<std::uint64_t, 64> comp_t{};  // per component slot: T next
    // Per T slot and component slot: the T vertex's Z-neighbours in it.
    std::array<std::array<std::uint32_t, 64>, 64> zcnt{};
  };
  std::unique_ptr<Slots> slots_;
  bool masked_ = false;
  std::vector<std::int8_t> tslot_;  // per vertex: T slot, or -1
  std::vector<std::int8_t> cslot_;  // per component: slot, or -1
  std::uint64_t tlive_ = 0;         // occupied T slots
  std::uint64_t clive_ = 0;         // occupied component slots
  std::uint64_t dirty_ = 0;      // T slots whose counts a split moved
  bool mask_full_ = false;       // a split-off piece found no slot
  std::vector<std::int8_t> seed_cs_;  // per Z seed: its component's slot
  std::vector<std::uint64_t> wmask_;  // per weight: T slots of that weight
  Vertex lowest_ = 0;                 // no live vertex has a lower id
};

void Mcsm::search(std::int32_t cutoff) {
  ++epoch_;
  buckets_.resize(
      std::max(buckets_.size(), static_cast<std::size_t>(cutoff) + 1));
  reached_.clear();

  for (const Vertex y : xrow_) {
    // Direct: no intermediates. Only seeds get this key, so it also tells
    // the fill test that y is x's neighbour, in Z or not.
    score_[y] = key(epoch_, -1);
    // A Z seed qualifies (g = -1 < 0 = w) and enters its component at 0.
    if (const std::uint32_t s = slot_[y]; s != y) {
      reached_.push_back(y);
      const std::uint64_t cand = key(epoch_, 0);
      if (cutoff > 0 && cand > score_[s]) {
        score_[s] = cand;
        buckets_[1].push_back(s);
      }
      continue;
    }
    buckets_[0].push_back(y);
  }

  for (std::int32_t idx = 0; idx <= cutoff; ++idx) {
    auto& bucket = buckets_[idx];
    const std::int32_t g = idx - 1;
    const std::uint64_t valid = key(epoch_, g);
    // Index loop: draining can append to this same bucket.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const std::uint32_t node = bucket[i];
      if (score_[node] != valid) continue;  // stale, improved since pushed
      if (node >= n_) {
        expand_component(node - static_cast<std::uint32_t>(n_), g);
        continue;
      }
      const Vertex v = node;
      if (g < weight_[v]) reached_.push_back(v);
      // Extending any path through v makes v an intermediate.
      const std::int32_t via = std::max(g, weight_[v]);
      if (via >= cutoff) continue;  // extensions cannot qualify
      const std::uint64_t cand = key(epoch_, via);
      auto& next = buckets_[via + 1];
      const auto row = live(v);
      search_edges_ += row.size();
      for (const Vertex w : row) {
        const std::uint32_t s = slot_[w];
        if (cand > score_[s]) {
          score_[s] = cand;
          next.push_back(s);
        }
      }
    }
    bucket.clear();
  }
}

// Expands component c at `level` (>= 0, < cutoff): every vertex of c
// settles at `level`, so its boundary is relaxed at `level`. Boundary
// entries are never in Z, so each is its own node. Stale entries are
// dropped on the way.
void Mcsm::expand_component(std::uint32_t c, std::int32_t level) {
  const std::uint64_t cand = key(epoch_, level);
  auto& next = buckets_[level + 1];
  auto& list = boundary_[c];
  const auto in_c = [&](Vertex w) {
    ++search_edges_;
    return slot_[w] == n_ + c;
  };
  std::size_t keep = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Vertex b = list[i];
    ++search_edges_;
    if (weight_[b] == kNumbered) continue;
    if (lost_at_[b] > checked_at_[c] && std::ranges::none_of(live(b), in_c)) {
      continue;
    }
    list[keep++] = b;
    if (cand > score_[b]) {
      score_[b] = cand;
      next.push_back(b);
    }
  }
  list.resize(keep);
  checked_at_[c] = tick_;
}

std::uint32_t Mcsm::find(std::uint32_t s) {
  while (piece_parent_[s] != s) {
    piece_parent_[s] = piece_parent_[piece_parent_[s]];
    s = piece_parent_[s];
  }
  return s;
}

// Opens a component with an empty boundary; add_boundary() fills it.
std::uint32_t Mcsm::new_component() {
  // Ids stay below 2m + n: each piece split off needs a start, a Z-edge of
  // a vertex leaving Z.
  const auto id = static_cast<std::uint32_t>(boundary_.size());
  PARMEM_CHECK(n_ + id < kNil, "too many MCS-M components");
  boundary_.emplace_back();
  score_.push_back(0);
  checked_at_.push_back(tick_);
  appended_.push_back(0);
  group_end_.push_back(0);
  cslot_.push_back(-1);
  ++mark_gen_;
  return id;
}

// Adds `w`, a live vertex outside Z next to the newest component c, to c's
// boundary once, marked as having seen a Z-neighbour move, so the list it
// may sit in for an old id is re-checked.
void Mcsm::add_boundary(std::uint32_t c, Vertex w) {
  if (mark_[w] == mark_gen_) return;
  mark_[w] = mark_gen_;
  boundary_[c].push_back(w);
  lost_at_[w] = tick_;
}

// Called once, between steps: the unnumbered weight-0 vertices are Z. One
// flood per component labels its members and collects its boundary.
void Mcsm::label() {
  labelled_ = true;
  lost_at_.assign(n_, 0);
  mark_.assign(n_, 0);
  visit_gen_.assign(n_, 0);
  visit_by_.assign(n_, 0);
  member_next_.assign(n_, kNil);
  frontier_next_.assign(n_, kNil);
  for (Vertex s = 0; s < n_; ++s) {
    if (weight_[s] != 0 || in_z(s)) continue;
    const std::uint32_t c = new_component();
    const auto node = static_cast<std::uint32_t>(n_ + c);
    slot_[s] = node;
    members_.assign(1, s);
    for (std::size_t i = 0; i < members_.size(); ++i) {
      for (const Vertex w : live(members_[i])) {
        ++search_edges_;
        if (weight_[w] != 0) {
          add_boundary(c, w);
        } else if (!in_z(w)) {
          slot_[w] = node;
          members_.push_back(w);
        }
      }
    }
    z_size_ += members_.size();
  }
  index_reverse_arcs();
  masked_ = enter_mask();
}

// rev_[p] = the position of p's owner in the row of p's target, for every
// live arc, in O(n + m). Each vertex w is visited in id order: it first
// settles the arcs from its lower neighbours v, which left their positions
// in w's part of rev_ and their own id in rev_[p], then does the same for
// its higher neighbours.
void Mcsm::index_reverse_arcs() {
  rev_.resize(live_off_[n_]);
  std::vector<std::uint32_t> boxed(n_, 0);  // per vertex: arcs left for it
  std::vector<std::uint32_t> at(n_);  // w's neighbour -> its position
  std::vector<std::uint32_t> box;
  for (Vertex w = 0; w < n_; ++w) {
    const std::uint32_t base = live_off_[w];
    const std::uint32_t end = base + live_deg_[w];
    for (std::uint32_t q = base; q < end; ++q) at[live_nbr_[q]] = q;
    box.assign(rev_.begin() + base, rev_.begin() + base + boxed[w]);
    for (const std::uint32_t p : box) {
      const std::uint32_t q = at[rev_[p]];
      rev_[p] = q;
      rev_[q] = p;
    }
    for (std::uint32_t q = base; q < end; ++q) {
      const Vertex u = live_nbr_[q];
      if (u < w) continue;
      rev_[q] = w;
      rev_[live_off_[u] + boxed[u]++] = q;
    }
  }
}

// Gives every vertex of T and every component next to T a slot and fills
// the masks; false (and no mask mode) if either needs more than 64.
bool Mcsm::enter_mask() {
  slots_ = std::make_unique<Slots>();
  tslot_.assign(n_, -1);
  left_.clear();
  std::int32_t top_weight = 0;
  for (Vertex v = 0; v < n_; ++v) {
    if (weight_[v] <= 0) continue;  // numbered, or in Z
    if (left_.size() == 64) return false;
    left_.push_back(v);
    top_weight = std::max(top_weight, weight_[v]);
  }
  wmask_.assign(static_cast<std::size_t>(top_weight) + 2, 0);
  seed_cs_.assign(left_.size(), -1);
  return mask_update(kNil, true);
}

// The unnumbered vertex of maximum weight, lowest id on ties.
Vertex Mcsm::mask_top() {
  Slots& sl = *slots_;
  if (tlive_ == 0) {
    while (weight_[lowest_] == kNumbered) ++lowest_;
    return lowest_;
  }
  std::uint64_t best = 0;
  for (std::uint64_t m = tlive_; m != 0; m &= m - 1) {
    best = std::max(best, rank(sl.tvert[std::countr_zero(m)]));
  }
  return 0xFFFFFFFFu - static_cast<std::uint32_t>(best);
}

// The step's search as a closure over masks: reached_ gets x's Z seeds and
// every qualifying T vertex, and `fill` each qualifier that is not x's
// neighbour. x has already left tlive_ and wmask_. A qualifier of weight j
// moves to wmask_[j + 1] at once; the ~got test keeps it from qualifying
// again at level j + 1, where it is already in `low` and `done`.
void Mcsm::mask_search(Vertex x, std::int32_t cutoff,
                       std::vector<std::pair<Vertex, Vertex>>& fill) {
  Slots& sl = *slots_;
  reached_.clear();
  seed_cs_.clear();
  // x's slot still holds its masks; x is outside T only on the labelling
  // step or when T is empty, and then its row gives them.
  const int sx = tslot_[x];
  std::uint64_t near = sx >= 0 ? sl.trow[sx] : 0;  // T vertices next to x
  std::uint64_t entered = 0;  // components reached, all at level 0
  if (sx < 0 || sl.tcomp[sx] != 0) {  // x has Z seeds
    for (const Vertex y : xrow_) {
      if (in_z(y)) {
        reached_.push_back(y);
        // A component has a slot iff it touches T; on the labelling step x
        // was never in T, so its seeds' components may have none.
        const int c = cslot_[slot_[y] - n_];
        seed_cs_.push_back(static_cast<std::int8_t>(c));
        if (c >= 0) entered |= bit(c);
      } else if (sx < 0) {
        near |= bit(tslot_[y]);
      }
    }
  }
  if (cutoff == 0) return;  // x was in Z, so T is empty
  if (wmask_.size() < static_cast<std::size_t>(cutoff) + 2) {
    wmask_.resize(static_cast<std::size_t>(cutoff) + 2, 0);
  }
  std::uint64_t seen = near;  // the set A
  for (std::uint64_t m = entered; m != 0; m &= m - 1) {
    seen |= sl.comp_t[std::countr_zero(m)];
  }
  std::uint64_t low = 0;   // T slots of weight at most the level
  std::uint64_t done = 0;  // T slots reached
  std::uint64_t got = 0;   // T slots that qualified
  for (std::int32_t j = 1; j <= cutoff; ++j) {
    low |= wmask_[j];
    // Everything lighter in `seen` is reached, so the new ones are exactly
    // the weight-j vertices in it, and they all qualify.
    std::uint64_t frontier = seen & wmask_[j] & ~got;
    if (frontier == 0) continue;
    got |= frontier;
    wmask_[j] ^= frontier;
    wmask_[j + 1] |= frontier;
    if (j == cutoff) break;
    do {
      done |= frontier;
      std::uint64_t comps = 0;
      for (std::uint64_t m = frontier; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        seen |= sl.trow[s];
        comps |= sl.tcomp[s];
      }
      comps &= ~entered;
      entered |= comps;
      for (std::uint64_t m = comps; m != 0; m &= m - 1) {
        seen |= sl.comp_t[std::countr_zero(m)];
      }
      frontier = seen & low & ~done;
    } while (frontier != 0);
    if ((seen & tlive_ & ~low) == 0) break;  // nothing left to qualify
  }
  for (std::uint64_t m = got; m != 0; m &= m - 1) {
    reached_.push_back(sl.tvert[std::countr_zero(m)]);
  }
  for (std::uint64_t m = got & ~near; m != 0; m &= m - 1) {
    const Vertex y = sl.tvert[std::countr_zero(m)];
    fill.emplace_back(std::min(x, y), std::max(x, y));
  }
}

// The slot of component c, opened on first use; -1 if all 64 are taken.
int Mcsm::comp_slot(std::uint32_t c) {
  Slots& sl = *slots_;
  if (cslot_[c] >= 0) return cslot_[c];
  if (clive_ == ~std::uint64_t{0}) return -1;
  const int cs = std::countr_zero(~clive_);
  clive_ |= bit(cs);
  cslot_[c] = static_cast<std::int8_t>(cs);
  sl.cid[cs] = c;
  sl.comp_t[cs] = 0;
  return cs;
}

// split() moved a Z-neighbour of T slot s from component slot `from` to
// the split-off piece `id`, whose slot `to` is opened on first use.
void Mcsm::recount(int s, int from, int& to, std::uint32_t id) {
  Slots& sl = *slots_;
  if (mask_full_) return;
  if (to < 0 && (to = comp_slot(id)) < 0) {
    mask_full_ = true;
    return;
  }
  --sl.zcnt[s][from];
  ++sl.zcnt[s][to];
  dirty_ |= bit(s);
}

// After a step (and repair(), if it ran): frees x's T slot, gives each
// vertex that left Z a slot and scans its row once, moving its old T
// neighbours' counts off its old component, and then recomputes the
// component masks of every T slot whose counts changed. False if T or the
// components next to it need more than 64 slots; the masks are then
// abandoned.
bool Mcsm::mask_update(Vertex x, bool repaired) {
  Slots& sl = *slots_;
  if (mask_full_) return false;
  std::uint64_t redo = std::exchange(dirty_, 0);  // counts changed
  if (x != kNil && tslot_[x] >= 0) {
    const std::uint64_t bx = bit(tslot_[x]);
    for (std::uint64_t m = sl.trow[tslot_[x]]; m != 0; m &= m - 1) {
      sl.trow[std::countr_zero(m)] &= ~bx;
    }
    tslot_[x] = -1;
    redo |= bx;  // leaves every sl.comp_t below
  }
  if (repaired && !left_.empty()) {
    if (static_cast<std::size_t>(std::popcount(tlive_)) + left_.size() > 64) {
      return false;
    }
    std::uint64_t fresh = 0;
    for (const Vertex y : left_) {
      const int s = std::countr_zero(~tlive_);
      tlive_ |= bit(s);
      tslot_[y] = static_cast<std::int8_t>(s);
      sl.tvert[s] = y;
      sl.trow[s] = 0;
      sl.zcnt[s].fill(0);
      wmask_[weight_[y]] |= bit(s);
      fresh |= bit(s);
    }
    for (std::size_t i = 0; i < left_.size(); ++i) {
      const int s = tslot_[left_[i]];
      const int from = seed_cs_[i];  // its component's slot, if any
      for (const Vertex u : live(left_[i])) {
        ++search_edges_;
        if (in_z(u)) {
          const int cs = comp_slot(slot_[u] - static_cast<std::uint32_t>(n_));
          if (cs < 0) return false;
          ++sl.zcnt[s][cs];
          continue;
        }
        const int su = tslot_[u];
        sl.trow[s] |= bit(su);
        sl.trow[su] |= bit(s);
        if ((fresh & bit(su)) == 0 && from >= 0) {
          --sl.zcnt[su][from];
          redo |= bit(su);
        }
      }
    }
    redo |= fresh;
  }
  if (redo == 0) return true;
  for (std::uint64_t m = clive_; m != 0; m &= m - 1) {
    sl.comp_t[std::countr_zero(m)] &= ~redo;
  }
  for (std::uint64_t m = redo & tlive_; m != 0; m &= m - 1) {
    const int s = std::countr_zero(m);
    ++search_edges_;
    std::uint64_t comps = 0;
    for (std::uint64_t c = clive_; c != 0; c &= c - 1) {
      const int cs = std::countr_zero(c);
      if (sl.zcnt[s][cs] != 0) {
        comps |= bit(cs);
        sl.comp_t[cs] |= bit(s);
      }
    }
    sl.tcomp[s] = comps;
  }
  for (std::uint64_t m = clive_; m != 0; m &= m - 1) {
    const int c = std::countr_zero(m);
    if (sl.comp_t[c] != 0) continue;
    clive_ &= ~bit(c);
    cslot_[sl.cid[c]] = -1;
  }
  return true;
}

// After a step: x and the Z seeds have left Z. Appends each seed to the
// boundary of the components next to it and splits every component that
// the removals disconnected.
void Mcsm::repair() {
  ++tick_;
  left_.clear();
  for (const Vertex y : reached_) {
    if (!in_z(y)) continue;
    slot_[y] = y;
    left_.push_back(y);
  }
  z_size_ -= left_.size();
  // The split starts: the seeds' distinct Z-neighbours, counted per
  // component here and placed into contiguous groups below.
  ++mark_gen_;
  starts_.clear();
  touched_.clear();
  for (const Vertex s : left_) {
    for (const Vertex w : live(s)) {
      ++search_edges_;
      if (!in_z(w)) {
        lost_at_[w] = tick_;  // w may have touched s's component only via s
        continue;
      }
      const auto c = static_cast<std::uint32_t>(slot_[w] - n_);
      if (appended_[c] != s + 1) {
        appended_[c] = s + 1;
        boundary_[c].push_back(s);
      }
      if (mark_[w] == mark_gen_) continue;
      mark_[w] = mark_gen_;
      if (group_end_[c]++ == 0) touched_.push_back(c);
      starts_.push_back(w);
    }
  }
  std::uint32_t at = 0;  // each count becomes its group's start
  for (const std::uint32_t c : touched_) {
    at += std::exchange(group_end_[c], at);
  }
  group_.resize(at);
  for (const Vertex w : starts_) group_[group_end_[slot_[w] - n_]++] = w;
  std::uint32_t begin = 0;
  for (const std::uint32_t c : touched_) {
    const std::uint32_t stop = group_end_[c];
    group_end_[c] = 0;
    if (stop - begin > 1) split(c, {&group_[begin], stop - begin});
    begin = stop;
  }
}

// Finds the pieces of component c, which lost vertices next to `starts`:
// one search per start, run in turns (one vertex scan each), merged when
// they meet. A search that runs out has its whole piece and takes a new
// id; when one search is left running, its piece — everything not split
// off — keeps c. Each vertex is scanned by at most one search.
void Mcsm::split(std::uint32_t c, std::span<const Vertex> starts) {
  const auto k = static_cast<std::uint32_t>(starts.size());
  const auto node = static_cast<std::uint32_t>(n_ + c);
  pieces_.assign(k, Piece{});
  piece_parent_.resize(k);
  piece_slot_.resize(k);
  active_.clear();
  ++visit_gen_now_;
  for (std::uint32_t i = 0; i < k; ++i) {
    push(pieces_[i].members, member_next_, starts[i]);
    push(pieces_[i].frontier, frontier_next_, starts[i]);
    piece_parent_[i] = i;
    piece_slot_[i] = i;
    active_.push_back(i);
    visit_gen_[starts[i]] = visit_gen_now_;
    visit_by_[starts[i]] = i;
  }
  const auto retire = [&](std::uint32_t p) {
    const std::uint32_t slot = piece_slot_[p];
    active_[slot] = active_.back();
    piece_slot_[active_[slot]] = slot;
    active_.pop_back();
  };
  std::size_t turn = 0;
  while (active_.size() > 1) {
    if (turn >= active_.size()) turn = 0;
    const std::uint32_t r = active_[turn];
    Piece& piece = pieces_[r];
    if (piece.frontier.head == kNil) {  // ran out: a split-off piece
      const std::uint32_t id = new_component();
      const int from = masked_ ? cslot_[c] : -1;  // < 0: c touches no T
      int to = -1;
      for (Vertex v = piece.members.head; v != kNil; v = member_next_[v]) {
        slot_[v] = static_cast<std::uint32_t>(n_ + id);
        for (const Vertex w : live(v)) {
          ++search_edges_;
          if (in_z(w)) continue;
          add_boundary(id, w);
          // w is in T unless it left Z this step (it then scans its row).
          if (from >= 0 && tslot_[w] >= 0) recount(tslot_[w], from, to, id);
        }
      }
      retire(r);
      continue;
    }
    const Vertex v = piece.frontier.head;
    piece.frontier.head = frontier_next_[v];
    if (piece.frontier.head == kNil) piece.frontier.tail = kNil;
    for (const Vertex w : live(v)) {
      ++search_edges_;
      if (slot_[w] != node) continue;
      if (visit_gen_[w] != visit_gen_now_) {
        visit_gen_[w] = visit_gen_now_;
        visit_by_[w] = r;
        push(piece.members, member_next_, w);
        push(piece.frontier, frontier_next_, w);
        continue;
      }
      const std::uint32_t j = find(visit_by_[w]);
      if (j == r) continue;
      splice(piece.members, pieces_[j].members, member_next_);
      splice(piece.frontier, pieces_[j].frontier, frontier_next_);
      piece_parent_[j] = r;
      retire(j);
    }
    turn = piece_slot_[r] + 1;
  }
}

Triangulation Mcsm::run() {
  Triangulation result;
  result.order.assign(n_, 0);
  result.generator.assign(n_, 0);
  std::int32_t prev_weight = -1;  // the first pick is no generator
  std::uint64_t mask_steps = 0;
  bool mask_exit = false;

  for (std::size_t step = n_; step > 0; --step) {
    const Vertex x = masked_ ? mask_top() : top();
    PARMEM_CHECK(weight_[x] != kNumbered, "no unnumbered vertex left");

    // Number x up front: save its live row for seeding, then delete it
    // from the live adjacency so the search never sees it.
    const std::int32_t cutoff = weight_[x];
    result.generator[step - 1] = cutoff <= prev_weight;
    prev_weight = cutoff;
    xrow_.assign(live(x).begin(), live(x).end());
    remove(x);
    weight_[x] = kNumbered;
    if (!masked_) {
      replay(x);
    } else if (tslot_[x] >= 0) {
      tlive_ &= ~bit(tslot_[x]);
      wmask_[cutoff] &= ~bit(tslot_[x]);
    }
    if (!labelled_ && search_edges_ > label_after_) {
      label();
    } else if (in_z(x)) {
      // x leaves Z. Its Z-neighbours are all seeds, so repair() still
      // finds every piece its component splits into.
      slot_[x] = x;
      --z_size_;
    }

    // Once Z is empty (as it soon is on dense graphs) there is nothing to
    // repair, and every live vertex is its own node.
    const bool contracted = z_size_ > 0;
    if (masked_) {
      ++mask_steps;
      mask_search(x, cutoff, result.fill);
      for (const Vertex y : reached_) weight_[y] += 1;
    } else {
      search(cutoff);
      for (const Vertex y : reached_) {
        weight_[y] += 1;
        raise(y);
        if (score_[y] != key(epoch_, -1)) {  // not a neighbour of x
          result.fill.emplace_back(std::min(x, y), std::max(x, y));
        }
      }
    }
    if (contracted) repair();
    if (masked_ && !mask_update(x, contracted)) {
      masked_ = false;  // leave mask mode for good
      mask_exit = true;
      rebuild_tree();
    }
    result.order[step - 1] = x;  // numbered `step`; eliminated at step-1
  }

  sort_pairs(result.fill, n_);  // no duplicates: x is never reached again
  result.search_edges = search_edges_;
  result.mask_steps = mask_steps;
  result.mask_exit = mask_exit;
  return result;
}

}  // namespace

Triangulation mcs_m(const Graph& g) { return Mcsm(g).run(); }

bool is_perfect_elimination_ordering(const Graph& g,
                                     const std::vector<Vertex>& order) {
  PARMEM_CHECK(order.size() == g.vertex_count(),
               "ordering must cover all vertices");
  std::vector<std::size_t> pos(g.vertex_count());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Vertex v = order[i];
    // Later neighbors of v must form a clique.
    std::vector<Vertex> later;
    for (const Vertex w : g.neighbors(v)) {
      if (pos[w] > i) later.push_back(w);
    }
    if (!g.is_clique(later)) return false;
  }
  return true;
}

}  // namespace parmem::graph
