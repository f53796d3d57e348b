#ifndef TDG_CORE_SOA_H_
#define TDG_CORE_SOA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/interaction.h"
#include "util/statusor.h"

/// The structure-of-arrays data plane (DESIGN.md §11).
///
/// Every hot kernel of the reproduction — skill-deficit computation, the
/// descending-skill sort, Star and Clique learning-gain evaluation (including
/// the Theorem-3 prefix-sum path), and the O(n/k) swap-delta objective —
/// runs here over contiguous buffers with per-round scratch coming from a
/// bump-allocated Arena, instead of per-participant objects and per-group
/// heap allocations. Every kernel is a plain scalar loop: the speedup over
/// the reference comes from the layout, the radix sort and the arena, not
/// from vector intrinsics.
///
/// Contract with the AoS reference (core/reference/reference_kernels.h):
/// every kernel is **bitwise-identical** to the reference implementation.
/// Two rules make that possible and must be preserved by future changes:
///
///   1. No FMA contraction (`-ffp-contract=off`): every elementwise gain
///      runs the same mul/sub/div sequence as the reference, so per-member
///      gains match it to the last bit.
///   2. Reductions are fixed-order: every sum that feeds a reported gain
///      (group gain, round gain, deficit totals) is a sequential
///      left-to-right fold (OrderedSum) and is NEVER vectorized. A
///      tree/lane reduction would change rounding and silently perturb
///      sweep outputs (see the regression tests in
///      summation_order_test.cc).
///
/// The documented ULP tolerance of the differential oracle is therefore
/// **0 ULP** for all five kernels. Any future kernel that genuinely needs a
/// reordered reduction must widen the tolerance here, in DESIGN.md §11, and
/// in soa_differential_test.cc — in the same change.
namespace tdg::soa {

// ---------------------------------------------------------------------------
// Arena: per-round scratch
// ---------------------------------------------------------------------------

/// Bump allocator for kernel scratch. All allocations are 64-byte aligned
/// (one cache line), uninitialized, and trivially destroyed.
/// Lifetime is stack-like: an ArenaScope marks the current top on entry and
/// releases back to it on exit, so nested kernels (e.g. the swap-delta
/// objective calling the group-gain kernel) can share one arena without
/// clobbering each other. Memory is retained across scopes — the steady
/// state of an α-round process is zero allocations per round.
class Arena {
 public:
  static constexpr size_t kAlignment = 64;

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized span of `count` Ts, 64-byte aligned. T must be trivially
  /// copyable + destructible (the arena never runs constructors or
  /// destructors).
  template <typename T>
  std::span<T> Alloc(size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    return {static_cast<T*>(AllocBytes(count * sizeof(T))),
            count};
  }

  /// Position marker for stack-like release (use ArenaScope).
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };
  Mark Top() const;
  /// Releases every allocation made after `mark` (memory is retained for
  /// reuse). Spans handed out after the mark are invalidated.
  void Release(const Mark& mark);

  /// Releases everything and coalesces multiple growth blocks into one
  /// contiguous block so the steady state is a single allocation.
  void Reset();

  size_t bytes_reserved() const;
  size_t bytes_used() const;

 private:
  struct Block {
    std::byte* data = nullptr;
    size_t capacity = 0;
    size_t used = 0;
  };

  void* AllocBytes(size_t bytes);

  std::vector<Block> blocks_;
  size_t active_ = 0;  // index of the block currently bump-allocating
};

/// RAII stack frame over an Arena.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.Top()) {}
  ~ArenaScope() { arena_.Release(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// The calling thread's kernel scratch arena. Core entry points
/// (ApplyRound, EvaluateGroupGain, swap-delta, the sorts) frame their usage
/// with ArenaScope, so nesting them is safe.
Arena& ThreadLocalArena();

// ---------------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------------

/// Sequential left-to-right sum starting from 0.0. This is the ONLY
/// reduction used for reported gains and is deliberately never vectorized
/// (see the file comment).
double OrderedSum(std::span<const double> x);

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// A 12-byte sort record: a participant's 64-bit descending skill key (its
/// ascending uint64 order is descending skill order) stored as two 32-bit
/// halves, so the struct has 4-byte alignment and no padding, plus the
/// participant id. `hi` holds the sign, the exponent and the 20 leading
/// mantissa bits.
struct KeyId {
  uint32_t hi;
  uint32_t lo;
  uint32_t id;

  uint64_t key() const { return (uint64_t{hi} << 32) | lo; }
};
static_assert(sizeof(KeyId) == 12);

/// Fills ids_out (size n) with participant ids ordered by descending skill,
/// ties by ascending id — the exact permutation of the reference
/// std::stable_sort. Inputs of 2048 or more take an LSD radix sort over
/// order-preserving key encodings of the doubles (skipping constant-digit
/// passes); smaller ones stable-sort the ids directly. Precondition:
/// NaN-free input (the reference comparator is undefined on NaN too).
void SortIdsByskillDescending(std::span<const double> skills,
                              std::span<int> ids_out, Arena& arena);

// ---------------------------------------------------------------------------
// Group kernels
// ---------------------------------------------------------------------------

/// Learning-gain round of one group given its pre-round skills in
/// descending-rank order (`sorted`, size t >= 2). Writes the per-member
/// gain into `gains` (gains[0] = 0: the teacher / top rank never learns)
/// and returns the ordered group gain Σ gains[i]. `allow_fast_path` gates
/// the Theorem-3 linear-clique prefix path exactly like the reference.
double GroupGainSorted(InteractionMode mode, const LearningGainFunction& gain,
                       bool allow_fast_path, std::span<const double> sorted,
                       std::span<double> gains);

/// Full per-group kernel over an unordered member list: gathers the
/// members' skills, sorts them (descending skill, ties by ascending id —
/// skipped when the members already arrive in that order), evaluates
/// GroupGainSorted, and — when `update_skills` is non-null — scatter-adds
/// each member's gain into update_skills[id]. Returns the group gain.
/// `members` must index into `skills`; groups of size <= 1 return 0.0.
double GroupRoundMembers(InteractionMode mode,
                         const LearningGainFunction& gain,
                         bool allow_fast_path, std::span<const int> members,
                         std::span<const double> skills, double* update_skills,
                         Arena& arena);

// ---------------------------------------------------------------------------
// Fused DyGroups round
// ---------------------------------------------------------------------------

/// The two closed-form DyGroups layouts over the descending-skill order:
/// kStarBlocks is Algorithm 2 (teachers = top k ranks, contiguous learner
/// blocks), kRoundRobin is Algorithm 3 (rank j*k + i joins group i).
enum class DyGroupsLayout { kStarBlocks, kRoundRobin };

/// Pure-output side channel of a fused round, filled only when requested:
/// never touches the round's arithmetic or accumulation order, so the
/// 0-ULP differential contract (DESIGN.md §11) is untouched. Feeds the
/// flight recorder's semantic events (group churn, per-group gain
/// summaries) in RunProcess.
struct RoundIntrospection {
  /// group_of[id] = index of the group participant `id` joined this round.
  std::vector<int32_t> group_of;
  /// Ordered gain of each group (0.0 for size-1 groups, which never
  /// update).
  std::vector<double> group_gains;
};

/// The rank order one fused round hands to the next (DESIGN.md §11): two
/// buffers of n records that the caller takes from an arena once per
/// process. After a round, `records` holds that round's rank order with
/// every learner's key rewritten from its post-round skill at its update
/// site. The next round counts the strictly ascending (key, id) runs in it:
/// up to kMaxCarriedRuns, it merges them instead of sorting from scratch;
/// past that, it sorts `skills` afresh into the same two buffers and drops
/// the carried order, so later rounds skip the key rewrites no round would
/// read. `spare` is scratch of the same size.
struct CarriedOrder {
  std::span<KeyId> records;
  std::span<KeyId> spare;
  /// Set by DyGroupsRound once `records` holds a round's order; false
  /// means the next round sorts `skills` afresh.
  bool primed = false;
  /// Set by the first round that found more runs than kMaxCarriedRuns.
  bool dropped = false;
};

/// Beyond this many natural runs, merging a carried order costs more passes
/// than sorting afresh.
inline constexpr size_t kMaxCarriedRuns = 8;

/// One fused DyGroups round: sorts `skills`, forms the layout implicitly
/// (no Grouping materialization), applies the `mode` interaction update in
/// place and returns the round gain LG(G_t). Bitwise-identical to
/// reference::DyGroups*Local + reference::ApplyRound, including the order
/// in which group gains accumulate into the round gain. Used by RunProcess
/// when the policy declares a DyGroups kernel kind and history recording is
/// off; also the subject of bench_soa_kernels. `introspect`, when non-null,
/// receives the implicit membership and per-group gains as pure extra
/// outputs. `carried`, when non-null, must be fresh or have been used only
/// by earlier rounds over the same `skills`, which nothing else changed in
/// between (RunProcess's loop): the round reads its rank order from there
/// when it can and leaves its own order in it. The round's results are
/// bitwise identical with or without it.
util::StatusOr<double> DyGroupsRound(DyGroupsLayout layout,
                                     InteractionMode mode,
                                     const LearningGainFunction& gain,
                                     std::span<double> skills, int num_groups,
                                     Arena& arena,
                                     RoundIntrospection* introspect = nullptr,
                                     CarriedOrder* carried = nullptr);

}  // namespace tdg::soa

#endif  // TDG_CORE_SOA_H_
