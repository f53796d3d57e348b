#include "core/soa.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "core/skills.h"
#include "obs/obs.h"
#include "obs/perf_profile.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace tdg::soa {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

namespace {

std::byte* AlignedNew(size_t bytes) {
  return static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t(Arena::kAlignment)));
}

void AlignedDelete(std::byte* p) {
  ::operator delete(p, std::align_val_t(Arena::kAlignment));
}

constexpr size_t kMinBlockBytes = 4096;

constexpr size_t RoundUp(size_t bytes) {
  return (bytes + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

}  // namespace

Arena::~Arena() {
  for (Block& block : blocks_) AlignedDelete(block.data);
}

void* Arena::AllocBytes(size_t bytes) {
  bytes = RoundUp(bytes);
  // Bump inside the active block, then walk forward through retained blocks
  // (all empty past the active one), then grow geometrically.
  while (active_ < blocks_.size()) {
    Block& block = blocks_[active_];
    if (block.capacity - block.used >= bytes) {
      void* p = block.data + block.used;
      block.used += bytes;
      return p;
    }
    if (active_ + 1 == blocks_.size()) break;
    ++active_;
    TDG_CHECK_EQ(blocks_[active_].used, 0u);
  }
  Block block;
  block.capacity = std::max({bytes, bytes_reserved(), kMinBlockBytes});
  block.data = AlignedNew(block.capacity);
  block.used = bytes;
  blocks_.push_back(block);
  active_ = blocks_.size() - 1;
  return block.data;
}

Arena::Mark Arena::Top() const {
  Mark mark;
  mark.block = active_;
  mark.used = blocks_.empty() ? 0 : blocks_[active_].used;
  return mark;
}

void Arena::Release(const Mark& mark) {
  if (blocks_.empty()) return;
  TDG_CHECK_LT(mark.block, blocks_.size());
  for (size_t b = mark.block + 1; b < blocks_.size(); ++b) {
    blocks_[b].used = 0;
  }
  active_ = mark.block;
  blocks_[active_].used = mark.used;
}

void Arena::Reset() {
  if (blocks_.size() > 1) {
    // Coalesce: one block sized for everything seen so far, so the steady
    // state bump-allocates from a single contiguous region.
    size_t total = bytes_reserved();
    for (Block& block : blocks_) AlignedDelete(block.data);
    blocks_.clear();
    Block block;
    block.capacity = total;
    block.data = AlignedNew(block.capacity);
    blocks_.push_back(block);
  }
  for (Block& block : blocks_) block.used = 0;
  active_ = 0;
}

size_t Arena::bytes_reserved() const {
  size_t total = 0;
  for (const Block& block : blocks_) total += block.capacity;
  return total;
}

size_t Arena::bytes_used() const {
  size_t total = 0;
  for (const Block& block : blocks_) total += block.used;
  return total;
}

Arena& ThreadLocalArena() {
  static thread_local Arena arena;
  return arena;
}

// ---------------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------------

double OrderedSum(std::span<const double> x) {
  // Deliberately sequential (see soa.h): this fold defines the reported
  // accumulation order.
  double sum = 0.0;
  for (double v : x) sum += v;
  return sum;
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

namespace {

// Monotonic descending key: ascending uint64 order of the key is exactly
// descending double order. -0.0 collapses onto +0.0 so the pair compares
// equal (as under operator>) and the stable tie-break keeps id order.
inline uint64_t DescendingKey(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits = std::bit_cast<uint64_t>(d);
  uint64_t ascending = (bits & 0x8000000000000000ULL)
                           ? ~bits
                           : (bits | 0x8000000000000000ULL);
  return ~ascending;
}

// Inverse of DescendingKey, up to the -0.0 canonicalization: a -0.0 skill
// comes back as +0.0. That substitution is bitwise-invisible to the round
// kernels: skills are validated non-negative, so the only affected values
// are zeros, every difference / gain they produce collapses to the same
// +0.0 in both variants (IEEE-754 round-to-nearest never yields -0.0 from
// x + y with x = +0.0, y = ±0.0), and member updates add those gains onto
// the untouched original skill bits.
inline double SkillFromKey(uint64_t key) {
  uint64_t ascending = ~key;
  uint64_t bits = (ascending & 0x8000000000000000ULL)
                      ? (ascending ^ 0x8000000000000000ULL)
                      : ~ascending;
  return std::bit_cast<double>(bits);
}

// A 12-byte sort record. The 64-bit DescendingKey is stored as two 32-bit
// halves so the struct has 4-byte alignment and no padding: every scatter
// pass moves 25% fewer bytes than a {uint64_t, uint32_t} pair would. `hi`
// holds the sign, the exponent and the 20 leading mantissa bits.
struct KeyId {
  uint32_t hi;
  uint32_t lo;
  uint32_t id;

  uint64_t key() const { return (uint64_t{hi} << 32) | lo; }
};
static_assert(sizeof(KeyId) == 12);

inline KeyId MakeKeyId(double skill, uint32_t id) {
  const uint64_t key = DescendingKey(skill);
  return {static_cast<uint32_t>(key >> 32), static_cast<uint32_t>(key), id};
}

// (key asc, id asc) is the same strict total order as the reference
// comparator (skill desc, stable ties), so any correct sort of it yields
// the identical permutation.
struct KeyIdLess {
  bool operator()(const KeyId& x, const KeyId& y) const {
    if (x.key() != y.key()) return x.key() < y.key();
    return x.id < y.id;
  }
};

// Below this, one comparison sort beats the fixed radix overhead (8KB of
// histograms).
constexpr size_t kRadixMinN = 2048;

// From here up, a single MSD bucket pass (256KB table from the arena) beats
// LSD: one scatter over a few hundred active streams replaces six-plus
// 256-stream passes, and the buckets it leaves are cache-resident.
constexpr size_t kRadixWideMinN = 48 * 1024;

// Runs of equal top-32 key bits at least this long are finished by a radix
// sort of the low 32 bits instead of std::sort. Converged DyGroups-Star
// rounds at small k leave runs of thousands of records (DESIGN.md §11).
constexpr size_t kRadixRunMinN = 256;

// Stable LSD radix sort of `n` records by the low `KeyBits` bits of their
// key, 8 bits per pass. Constant-digit passes are skipped; for typical skill
// data the high exponent digits collapse. Returns the buffer holding the
// sorted sequence (src or dst).
template <int KeyBits>
KeyId* LsdSortKeyIds(KeyId* src, KeyId* dst, size_t n) {
  constexpr int kPasses = KeyBits / 8;
  uint32_t counts[kPasses][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = src[i].key();
    for (int pass = 0; pass < kPasses; ++pass) {
      ++counts[pass][(key >> (8 * pass)) & 0xFF];
    }
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    uint32_t* offsets = counts[pass];  // prefix-summed in place
    const int shift = 8 * pass;
    if (offsets[(src[0].key() >> shift) & 0xFF] == n) continue;  // constant
    uint32_t running = 0;
    for (size_t bucket = 0; bucket < 256; ++bucket) {
      uint32_t count = offsets[bucket];
      offsets[bucket] = running;
      running += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].key() >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

// Sorts every run of equal keys in `records` (already in key order) by id.
// Needed when the input was not in id order, so a stable radix left ties in
// input order.
void SortTiesById(std::span<KeyId> records) {
  size_t run_start = 0;
  for (size_t i = 1; i <= records.size(); ++i) {
    if (i == records.size() ||
        records[i].key() != records[run_start].key()) {
      if (i - run_start > 1) {
        std::sort(records.begin() + run_start, records.begin() + i,
                  [](const KeyId& x, const KeyId& y) { return x.id < y.id; });
      }
      run_start = i;
    }
  }
}

// Large-n sort: two stable 16-bit LSD passes order the records by `hi`
// (enough that collisions are birthday-rare for continuous skill data), then
// a repair scan finishes each run of equal `hi`: short runs with a
// comparison sort of the full (key, id) order, long runs with a stable LSD
// over `lo` (plus an id sort of the remaining ties when the input was not in
// id order). `counts` must hold 2 * 2^16 entries from the arena; it is
// clobbered. Returns the buffer holding the sorted sequence (a or b).
KeyId* WideSortKeyIds(std::span<KeyId> a, std::span<KeyId> b,
                      std::span<uint32_t> counts, bool ids_ascending) {
  const size_t n = a.size();
  TDG_CHECK_EQ(counts.size(), size_t{2} << 16);
  std::memset(counts.data(), 0, counts.size() * sizeof(uint32_t));
  for (size_t i = 0; i < n; ++i) {
    ++counts[a[i].hi & 0xFFFF];
    ++counts[65536 + (a[i].hi >> 16)];
  }
  KeyId* src = a.data();
  KeyId* dst = b.data();
  for (int pass = 0; pass < 2; ++pass) {
    uint32_t* offsets = &counts[pass * 65536];  // prefix-summed in place
    const int shift = 16 * pass;
    if (offsets[(src[0].hi >> shift) & 0xFFFF] == n) continue;  // constant
    uint32_t running = 0;
    for (size_t bucket = 0; bucket < 65536; ++bucket) {
      uint32_t count = offsets[bucket];
      offsets[bucket] = running;
      running += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].hi >> shift) & 0xFFFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  // The passes were stable, so inside a run of equal `hi` the records still
  // sit in input order; `dst` is free scratch from here on.
  size_t run_start = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i < n && src[i].hi == src[run_start].hi) continue;
    const size_t len = i - run_start;
    if (len >= kRadixRunMinN) {
      KeyId* run = src + run_start;
      KeyId* sorted = LsdSortKeyIds<32>(run, dst + run_start, len);
      if (sorted != run) std::memcpy(run, sorted, len * sizeof(KeyId));
      if (!ids_ascending) SortTiesById({run, len});
    } else if (len > 1) {
      std::sort(src + run_start, src + i, KeyIdLess{});
    }
    run_start = i;
  }
  return src;
}

// The sorted records and the other ping-pong buffer, which the caller may
// reuse as scratch (see SpareAsDoubles).
struct SortedKeyIds {
  std::span<KeyId> sorted;
  std::span<KeyId> spare;
};

// Radix engine for n >= kRadixMinN: sorts the records in `a` into ascending
// (key, id) order using `b` as the second buffer. `ids_ascending` says the
// records arrive in ascending id order, so stable passes already keep ties
// in id order.
SortedKeyIds RadixSortKeyIds(std::span<KeyId> a, std::span<KeyId> b,
                             bool ids_ascending, Arena& arena) {
  KeyId* sorted;
  if (a.size() >= kRadixWideMinN) {
    std::span<uint32_t> counts = arena.Alloc<uint32_t>(size_t{2} << 16);
    sorted = WideSortKeyIds(a, b, counts, ids_ascending);
  } else {
    sorted = LsdSortKeyIds<64>(a.data(), b.data(), a.size());
    if (!ids_ascending) SortTiesById({sorted, a.size()});
  }
  return sorted == a.data() ? SortedKeyIds{a, b} : SortedKeyIds{b, a};
}

// A free record buffer viewed as doubles: a 12-byte record has room for
// one 8-byte value, and arena buffers are 64-byte aligned.
std::span<double> SpareAsDoubles(std::span<KeyId> spare) {
  static_assert(sizeof(double) <= sizeof(KeyId));
  return {static_cast<double*>(static_cast<void*>(spare.data())),
          spare.size()};
}

// The reference algorithm verbatim for n < kRadixMinN: a stable sort of
// bare ids moves 4-byte elements instead of 12-byte records, which wins at
// sizes where the skill reads stay in L1.
void StableSortIds(std::span<const double> skills, std::span<int> ids) {
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::stable_sort(ids.begin(), ids.end(), [&skills](int x, int y) {
    return skills[x] > skills[y];
  });
}

// Shared engine: sorts (DescendingKey(skill), id) records into ascending
// (key, id) order — exactly the reference stable_sort permutation, with the
// skill value recoverable from the key (see SkillFromKey). Allocates from
// `arena`; the caller owns the enclosing ArenaScope.
SortedKeyIds SortKeyIds(std::span<const double> skills, Arena& arena) {
  TDG_PERF_SCOPE("core/skills/sort");
  const size_t n = skills.size();
  std::span<KeyId> a = arena.Alloc<KeyId>(n);
  std::span<KeyId> b = arena.Alloc<KeyId>(n);
  if (n < kRadixMinN) {
    // Keys are materialized after the id sort for callers that reconstruct
    // skill values from them.
    std::span<int> ids = arena.Alloc<int>(n);
    StableSortIds(skills, ids);
    for (size_t i = 0; i < n; ++i) {
      a[i] = MakeKeyId(skills[ids[i]], static_cast<uint32_t>(ids[i]));
    }
    return {a, b};
  }
  for (size_t i = 0; i < n; ++i) {
    a[i] = MakeKeyId(skills[i], static_cast<uint32_t>(i));
  }
  return RadixSortKeyIds(a, b, /*ids_ascending=*/true, arena);
}

}  // namespace

void SortIdsByskillDescending(std::span<const double> skills,
                              std::span<int> ids_out, Arena& arena) {
  const size_t n = skills.size();
  TDG_CHECK_EQ(ids_out.size(), n);
  if (n == 0) return;
  if (n < kRadixMinN) {
    // No caller needs sort keys here, so skip materializing them and run
    // the reference kernel verbatim.
    TDG_PERF_SCOPE("core/skills/sort");
    StableSortIds(skills, ids_out);
    return;
  }
  ArenaScope scope(arena);
  std::span<KeyId> sorted = SortKeyIds(skills, arena).sorted;
  for (size_t i = 0; i < n; ++i) ids_out[i] = static_cast<int>(sorted[i].id);
}

// ---------------------------------------------------------------------------
// Group kernels
// ---------------------------------------------------------------------------

double GroupGainSorted(InteractionMode mode, const LearningGainFunction& gain,
                       bool allow_fast_path, std::span<const double> sorted,
                       std::span<double> gains) {
  const size_t t = sorted.size();
  TDG_CHECK_EQ(gains.size(), t);
  TDG_CHECK_GE(t, 2u);
  gains[0] = 0.0;  // the teacher / top rank never learns
  switch (mode) {
    case InteractionMode::kStar: {
      const double teacher = sorted[0];
      if (gain.is_linear()) {
        const double r = gain.rate();
        for (size_t i = 1; i < t; ++i) gains[i] = r * (teacher - sorted[i]);
      } else {
        for (size_t i = 1; i < t; ++i) {
          gains[i] = gain.Gain(teacher - sorted[i]);
        }
      }
      return OrderedSum(gains.subspan(1));
    }
    case InteractionMode::kClique: {
      if (allow_fast_path && gain.is_linear()) {
        // Theorem-3 prefix path — inherently sequential (each step extends
        // the prefix sum), kept scalar with the reference's exact
        // expression so the result is bitwise-stable.
        const double r = gain.rate();
        double group_gain = 0.0;
        double prefix = sorted[0];
        for (size_t i = 1; i < t; ++i) {
          double count = static_cast<double>(i);
          double g = r * (prefix - count * sorted[i]) / count;
          gains[i] = g;
          group_gain += g;
          prefix += sorted[i];
        }
        return group_gain;
      }
      double group_gain = 0.0;
      for (size_t i = 1; i < t; ++i) {
        double total = 0.0;
        for (size_t j = 0; j < i; ++j) {
          total += gain.Gain(sorted[j] - sorted[i]);
        }
        double g = total / static_cast<double>(i);
        gains[i] = g;
        group_gain += g;
      }
      return group_gain;
    }
  }
  return 0.0;
}

namespace {

struct SkillId {
  double skill;
  int32_t id;
};

// True when `members` is already in (skill desc, id asc) order — the order
// every DyGroups layout and most baselines produce — letting the per-group
// sort be skipped. The check is exact: it never changes results, only work.
bool MembersAlreadySorted(std::span<const int> members,
                          std::span<const double> skills) {
  for (size_t i = 1; i < members.size(); ++i) {
    const double prev = skills[members[i - 1]];
    const double cur = skills[members[i]];
    if (!(prev > cur || (prev == cur && members[i - 1] < members[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

double GroupRoundMembers(InteractionMode mode,
                         const LearningGainFunction& gain,
                         bool allow_fast_path, std::span<const int> members,
                         std::span<const double> skills, double* update_skills,
                         Arena& arena) {
  const size_t t = members.size();
  if (t <= 1) return 0.0;
  ArenaScope scope(arena);
  std::span<double> gains = arena.Alloc<double>(t);
  // Evaluates the group from its rank-order skills and scatters each gain
  // to the member at that rank, `id_at(rank)`.
  auto finish = [&](std::span<const double> sorted, auto id_at) {
    const double group_gain =
        GroupGainSorted(mode, gain, allow_fast_path, sorted, gains);
    if (update_skills != nullptr) {
      for (size_t i = 1; i < t; ++i) update_skills[id_at(i)] += gains[i];
    }
    return group_gain;
  };
  if (MembersAlreadySorted(members, skills)) {
    std::span<double> sorted = arena.Alloc<double>(t);
    for (size_t i = 0; i < t; ++i) sorted[i] = skills[members[i]];
    return finish(sorted, [&](size_t i) { return members[i]; });
  }
  if (t >= kRadixMinN) {
    // Large unordered groups (e.g. Random-Assignment at small k) take the
    // radix engine. Members arrive in arbitrary order, so ties are put back
    // in ascending-id order after the stable passes. Rank-order skills are
    // read from `skills` itself and land in the spare record buffer.
    std::span<KeyId> a = arena.Alloc<KeyId>(t);
    std::span<KeyId> b = arena.Alloc<KeyId>(t);
    for (size_t i = 0; i < t; ++i) {
      a[i] = MakeKeyId(skills[members[i]], static_cast<uint32_t>(members[i]));
    }
    SortedKeyIds records =
        RadixSortKeyIds(a, b, /*ids_ascending=*/false, arena);
    std::span<double> sorted = SpareAsDoubles(records.spare);
    for (size_t i = 0; i < t; ++i) sorted[i] = skills[records.sorted[i].id];
    return finish(sorted, [&](size_t i) { return records.sorted[i].id; });
  }
  std::span<SkillId> pairs = arena.Alloc<SkillId>(t);
  for (size_t i = 0; i < t; ++i) {
    pairs[i].skill = skills[members[i]];
    pairs[i].id = members[i];
  }
  // Same strict total order as the reference SortedGroup comparator.
  std::sort(pairs.begin(), pairs.end(),
            [](const SkillId& a, const SkillId& b) {
              if (a.skill != b.skill) return a.skill > b.skill;
              return a.id < b.id;
            });
  std::span<double> sorted = arena.Alloc<double>(t);
  for (size_t i = 0; i < t; ++i) sorted[i] = pairs[i].skill;
  return finish(sorted, [&](size_t i) { return pairs[i].id; });
}

// ---------------------------------------------------------------------------
// Fused DyGroups round
// ---------------------------------------------------------------------------

util::StatusOr<double> DyGroupsRound(DyGroupsLayout layout,
                                     InteractionMode mode,
                                     const LearningGainFunction& gain,
                                     std::span<double> skills, int num_groups,
                                     Arena& arena,
                                     RoundIntrospection* introspect) {
  TDG_RETURN_IF_ERROR(ValidateSkills(skills));
  const int n = static_cast<int>(skills.size());
  if (num_groups < 1) {
    return util::Status::InvalidArgument(
        util::StrFormat("num_groups must be >= 1, got %d", num_groups));
  }
  if (num_groups > n) {
    return util::Status::InvalidArgument(util::StrFormat(
        "num_groups (%d) exceeds population size (%d)", num_groups, n));
  }
  if (n % num_groups != 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "population size %d is not divisible into %d equi-sized groups", n,
        num_groups));
  }
  const int group_size = n / num_groups;
  ArenaScope scope(arena);
  SortedKeyIds records = SortKeyIds(skills, arena);
  std::span<const KeyId> pairs = records.sorted;
  // Rank-order skill values come from inverting the sort keys — a
  // sequential sweep instead of an n-wide random gather through `skills` —
  // and are written into the sort's spare buffer.
  std::span<double> sorted = SpareAsDoubles(records.spare);
  for (int i = 0; i < n; ++i) sorted[i] = SkillFromKey(pairs[i].key());

  if (introspect != nullptr) {
    // Invert the implicit layout into id -> group. Rank p maps to group
    // p (teachers) / (p - k) / (t - 1) (learner blocks) under kStarBlocks
    // and to p % k under kRoundRobin; pairs[p].id names the participant at
    // rank p. Pure output: the round below never reads these.
    introspect->group_of.assign(static_cast<std::size_t>(n), 0);
    introspect->group_gains.assign(static_cast<std::size_t>(num_groups),
                                   0.0);
    for (int p = 0; p < n; ++p) {
      int g;
      if (layout == DyGroupsLayout::kStarBlocks) {
        g = p < num_groups ? p : (p - num_groups) / (group_size - 1);
      } else {
        g = p % num_groups;
      }
      introspect->group_of[pairs[p].id] = g;
    }
  }

  const int64_t updated_groups = group_size > 1 ? num_groups : 0;
  double round_gain = 0.0;
  if (group_size > 1) {
#if !defined(TDG_OBS_DISABLED)
    // The sort above charges core/skills/sort for itself.
    obs::ScopedPerfDomain perf_scope(
        RoundKernelPerfDomain(mode, gain.is_linear()));
#endif
    const size_t t = static_cast<size_t>(group_size);
    std::span<double> group = arena.Alloc<double>(t);
    std::span<double> gains = arena.Alloc<double>(t);
    for (int g = 0; g < num_groups; ++g) {
      // Materialize the group's pre-round skills contiguously in rank
      // order; both layouts list members in descending-skill order, so the
      // per-group sort of the AoS path is a no-op here by construction.
      if (layout == DyGroupsLayout::kStarBlocks) {
        const size_t block = static_cast<size_t>(num_groups) +
                             static_cast<size_t>(g) * (t - 1);
        group[0] = sorted[g];
        std::memcpy(group.data() + 1, sorted.data() + block,
                    (t - 1) * sizeof(double));
      } else {
        for (size_t j = 0; j < t; ++j) {
          group[j] = sorted[static_cast<size_t>(g) +
                            j * static_cast<size_t>(num_groups)];
        }
      }
      const double group_gain = GroupGainSorted(
          mode, gain, /*allow_fast_path=*/true, group, gains);
      round_gain += group_gain;
      if (introspect != nullptr) {
        introspect->group_gains[static_cast<std::size_t>(g)] = group_gain;
      }
      if (layout == DyGroupsLayout::kStarBlocks) {
        const size_t block = static_cast<size_t>(num_groups) +
                             static_cast<size_t>(g) * (t - 1);
        for (size_t j = 1; j < t; ++j) {
          skills[pairs[block + (j - 1)].id] += gains[j];
        }
      } else {
        for (size_t j = 1; j < t; ++j) {
          skills[pairs[static_cast<size_t>(g) +
                       j * static_cast<size_t>(num_groups)].id] += gains[j];
        }
      }
    }
  }
  if (mode == InteractionMode::kStar) {
    TDG_OBS_COUNTER_ADD("interaction/star_group_updates", updated_groups);
  } else {
    TDG_OBS_COUNTER_ADD("interaction/clique_group_updates", updated_groups);
  }
  TDG_BLACKBOX(obs::BlackboxEventType::kRoundObjective,
               static_cast<double>(n), static_cast<double>(num_groups),
               layout == DyGroupsLayout::kStarBlocks ? 0.0 : 1.0,
               round_gain);
  return round_gain;
}

}  // namespace tdg::soa
