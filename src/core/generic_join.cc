#include "core/generic_join.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <optional>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "relational/intersect_kernels.h"
#include "relational/result_batch.h"
#include "relational/schema.h"

namespace xjoin {

bool LeapfrogAlign(const std::vector<TrieIterator*>& iters, int64_t* seeks) {
  if (iters.empty()) return false;
  for (TrieIterator* it : iters) {
    if (it->AtEnd()) return false;
  }
  for (;;) {
    int64_t max_key = iters[0]->Key();
    for (TrieIterator* it : iters) max_key = std::max(max_key, it->Key());
    bool all_equal = true;
    for (TrieIterator* it : iters) {
      if (it->Key() < max_key) {
        it->Seek(max_key);
        if (seeks != nullptr) ++*seeks;
        if (it->AtEnd()) return false;
        if (it->Key() > max_key) {
          all_equal = false;  // overshoot: new max, restart
          break;
        }
      }
    }
    if (all_equal) return true;
  }
}

bool LeapfrogAdvance(const std::vector<TrieIterator*>& iters, int64_t* seeks) {
  if (iters.empty()) return false;
  iters[0]->Next();
  if (seeks != nullptr) ++*seeks;
  if (iters[0]->AtEnd()) return false;
  return LeapfrogAlign(iters, seeks);
}

namespace {

// Per-depth plan entry: which inputs participate in the attribute bound
// at that depth.
struct LevelPlan {
  std::string attribute;
  std::vector<size_t> participants;  // indices into inputs
};

// Restriction of the leading attributes to a lexicographic half-open
// prefix range; a shard's slice of the expansion space. `depth` is the
// number of constrained levels: 1 shards on level-0 keys alone, 2 on
// (level-0, level-1) composite prefixes — the fallback when the level-0
// key domain is smaller than the requested shard count. Unbounded by
// default (serial run).
struct PrefixRange {
  int depth = 1;
  bool has_lo = false;
  int64_t lo[2] = {0, 0};  // inclusive lexicographic lower bound
  bool has_hi = false;
  int64_t hi[2] = {0, 0};  // exclusive lexicographic upper bound
};

// The devirtualized leapfrog primitives over raw CSR key arrays —
// gallop/align/advance with exact scalar seek accounting — live in the
// runtime-dispatched SIMD kernel tables (relational/intersect_kernels.h);
// the engine resolves ActiveIntersectKernel() once per run and drives
// the same jump sequence through whichever table the CPU supports, so
// "gj.seeks" and result bytes match the scalar engine count for count.

// The iterative (explicit-stack) expansion loop of Algorithm 1 over one
// key range. All mutable state lives in this object, so one Engine per
// shard over Clone()d iterators is data-race-free by construction. The
// engine only accumulates raw counters; the driver merges and publishes
// them, which keeps serial and sharded metric output consistent.
//
// batch_size > 0 switches to block-at-a-time execution (see
// GenericJoinOptions::batch_size): every binding is staged in a
// columnar ResultBatch and flushed in blocks. When every input exposes
// its whole trie as raw CSR arrays (RawTrieSpans), the entire
// expansion — all levels, not just the deepest — runs through the
// full-depth raw executor (RunRaw below): explicit frame stacks
// navigated through the child_begin arrays, leapfrog seeks through the
// runtime-dispatched SIMD kernel, zero virtual dispatch anywhere.
// Otherwise the virtual-protocol loop runs, with the deepest level
// still drained through NextBlock bulk copies or the SIMD kernel when
// its participants allow it. All counters are maintained exactly as in
// the scalar path in every mode.
class Engine {
 public:
  Engine(const std::vector<JoinInput>& inputs,
         const std::vector<LevelPlan>& plan, const PrefixFilter& filter,
         Metrics* filter_metrics, Relation* out, int batch_size = 0,
         BudgetTracker* budget = nullptr, int worker = 0)
      : filter_(filter),
        filter_metrics_(filter_metrics),
        worker_(worker),
        out_(out),
        budget_(budget != nullptr && budget->limited() ? budget : nullptr),
        count_cancel_(budget_ != nullptr && budget_->has_cancel()),
        row_bytes_(static_cast<int64_t>(plan.size()) * 8),
        prefix_(plan.size(), 0),
        level_totals_(plan.size(), 0) {
    level_iters_.resize(plan.size());
    for (size_t d = 0; d < plan.size(); ++d) {
      level_iters_[d].reserve(plan[d].participants.size());
      for (size_t i : plan[d].participants) {
        level_iters_[d].push_back(inputs[i].iterator);
      }
    }
    kernel_ = &ActiveIntersectKernel();
    if (batch_size > 0 && !plan.empty()) {
      batch_.emplace(plan.size(), static_cast<size_t>(batch_size));
      block_.emplace(static_cast<size_t>(batch_size));
      kernel_buf_.resize(static_cast<size_t>(batch_size));
      // Full-depth raw mode engages only when every input is a plain
      // delta-free CSR trie; a lazy path trie or a pending delta
      // side-file anywhere sends the run down the virtual loop.
      raw_mode_ = true;
      raw_inputs_.resize(inputs.size());
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (!inputs[i].iterator->RawTrieSpans(&raw_inputs_[i].view)) {
          raw_mode_ = false;
          break;
        }
        raw_inputs_[i].frames.reserve(raw_inputs_[i].view.levels.size());
      }
      if (raw_mode_) {
        raw_levels_.resize(plan.size());
        raw_strategy_.assign(plan.size(), IntersectStrategy::kGallop);
        std::vector<size_t> next_local(inputs.size(), 0);
        for (size_t d = 0; d < plan.size(); ++d) {
          raw_levels_[d].reserve(plan[d].participants.size());
          for (size_t i : plan[d].participants) {
            raw_levels_[d].push_back(RawRef{i, next_local[i]++});
          }
        }
      } else {
        raw_inputs_.clear();
      }
    }
  }

  void Run(const PrefixRange& range) {
    if (raw_mode_) {
      RunRaw(range);
      batch_->Flush(out_);
      return;
    }
    const size_t num_levels = level_iters_.size();
    size_t depth = 0;
    bool entering = true;
    for (;;) {
      // Admission budget: sample the deadline periodically, poll the
      // shared violation flag — which also observes any attached
      // cancellation tokens — every binding so all shards abort fast.
      // Partial output is discarded by the driver, so an early break
      // needs no iterator cleanup.
      if (budget_ != nullptr) {
        if ((++budget_ticks_ & 4095) == 0) {
          budget_->CheckDeadline();
          // Observer-only fault site: lets tests trigger (e.g.) a
          // cancel deterministically mid-expansion. Never fails.
          (void)XJOIN_FAULT("gj.tick");
        }
        if (count_cancel_) ++cancel_checks_;
        if (budget_->violated()) break;
      }
      std::vector<TrieIterator*>& iters = level_iters_[depth];
      bool have;
      if (entering) {
        OpenLevel(iters, depth, range);
        if (depth == 0) {
          // Pre-size the output columns from the level-0 key estimate —
          // a free O(1) scale signal — capped so selective joins don't
          // over-allocate (growth past the reserve stays geometric).
          constexpr int64_t kMaxReserveRows = int64_t{1} << 16;
          out_->Reserve(static_cast<size_t>(std::clamp<int64_t>(
              iters[0]->EstimateKeys(), 0, kMaxReserveRows)));
        }
        if (batch_.has_value() && depth + 1 == num_levels) {
          // Batched mode: one kernel call drains the whole deepest
          // level for this prefix, then backtracks.
          RunDeepestLevel(iters, depth, range);
          for (TrieIterator* it : iters) it->Up();
          if (depth == 0) break;
          --depth;
          entering = false;
          continue;
        }
        have = LeapfrogAlign(iters, &seeks_);
      } else {
        have = LeapfrogAdvance(iters, &seeks_);
      }
      if (have && range.has_hi) {
        // Past this shard's slice? hi is an exclusive lexicographic
        // bound on the constrained prefix: with depth-2 ranges a level-0
        // key equal to hi[0] must still descend (keys below hi[1] are
        // ours), and the cut happens at level 1.
        if (depth == 0) {
          int64_t key = iters[0]->Key();
          if (range.depth == 1 ? key >= range.hi[0] : key > range.hi[0]) {
            have = false;
          }
        } else if (depth == 1 && range.depth == 2 &&
                   prefix_[0] == range.hi[0] &&
                   iters[0]->Key() >= range.hi[1]) {
          have = false;
        }
      }
      if (have) {
        prefix_[depth] = iters[0]->Key();
        ++level_totals_[depth];
        ++total_intermediate_;
        bool keep =
            !filter_ || filter_(depth, prefix_, worker_, filter_metrics_);
        if (keep) {
          if (depth + 1 == num_levels) {
            out_->AppendRow(prefix_);
            ChargeOutput(1);
            entering = false;  // advance at this level
          } else {
            ++depth;  // descend
            entering = true;
          }
        } else {
          entering = false;  // pruned: advance at this level
        }
        continue;
      }
      // Level exhausted: close it and backtrack.
      for (TrieIterator* it : iters) it->Up();
      if (depth == 0) break;
      --depth;
      entering = false;
    }
    if (batch_.has_value()) batch_->Flush(out_);
  }

  const std::vector<int64_t>& level_totals() const { return level_totals_; }
  int64_t seeks() const { return seeks_; }
  int64_t total_intermediate() const { return total_intermediate_; }
  int64_t cancel_checks() const { return cancel_checks_; }

 private:
  // The entering protocol shared by the scalar and batched paths: open
  // every participant, lead with the iterator reporting the fewest
  // remaining keys (LeapfrogAdvance steps iters[0], so the smallest
  // level drives the intersection; EstimateKeys is O(1) on the CSR
  // trie), and skip straight to the shard's lexicographic lower bound.
  void OpenLevel(std::vector<TrieIterator*>& iters, size_t depth,
                 const PrefixRange& range) {
    for (TrieIterator* it : iters) it->Open();
    if (iters.size() > 1) {
      size_t lead = 0;
      int64_t best = iters[0]->EstimateKeys();
      for (size_t i = 1; i < iters.size(); ++i) {
        int64_t estimate = iters[i]->EstimateKeys();
        if (estimate < best) {
          best = estimate;
          lead = i;
        }
      }
      if (lead != 0) std::swap(iters[0], iters[lead]);
    }
    if (range.has_lo && !iters[0]->AtEnd()) {
      if (depth == 0 && iters[0]->Key() < range.lo[0]) {
        iters[0]->Seek(range.lo[0]);
        ++seeks_;
      } else if (depth == 1 && range.depth == 2 &&
                 prefix_[0] == range.lo[0] && iters[0]->Key() < range.lo[1]) {
        iters[0]->Seek(range.lo[1]);
        ++seeks_;
      }
    }
  }

  // Charges n freshly materialized output rows (n x 8*arity bytes)
  // against the admission budget; no-op when the query has none.
  void ChargeOutput(int64_t n) {
    if (budget_ != nullptr) budget_->ChargeRows(n, n * row_bytes_);
  }

  // True when a budgeted query has tripped a ceiling and every loop
  // should unwind; the driver discards partial output.
  bool BudgetAborted() const {
    return budget_ != nullptr && budget_->violated();
  }

  // Stages one result row (prefix_[0..arity-1]) and flushes on a full
  // batch. Only the batched paths emit through here.
  void EmitRow() {
    batch_->PushRow(prefix_);
    ChargeOutput(1);
    if (batch_->full()) batch_->Flush(out_);
  }

  // Counts one binding at the deepest level and applies the prefix
  // filter; returns whether the binding survives.
  bool BindDeepest(size_t depth, int64_t key) {
    prefix_[depth] = key;
    ++level_totals_[depth];
    ++total_intermediate_;
    return !filter_ || filter_(depth, prefix_, worker_, filter_metrics_);
  }

  // Drains the entire deepest level for the current prefix. Called with
  // freshly opened, lead-swapped, lo-bounded iterators (OpenLevel);
  // afterwards the caller closes the level. Dispatch: bulk NextBlock
  // drain when a single input covers the level, the devirtualized
  // raw-cursor kernel when every participant exposes a CSR span, the
  // scalar leapfrog otherwise — identical bindings, seeks, and output
  // in all three.
  void RunDeepestLevel(std::vector<TrieIterator*>& iters, size_t depth,
                       const PrefixRange& range) {
    // Shard upper bounds can constrain levels 0 and 1 only; fold the
    // applicable one into a single exclusive key bound. A deepest level
    // at depth 0 means a one-attribute plan, and composite (depth-2)
    // ranges only arise on plans with >= 2 levels — so the bound at
    // depth 0 is always a plain exclusive level-0 cut.
    bool has_hi = false;
    int64_t hi = 0;
    if (range.has_hi) {
      if (depth == 0) {
        XJ_DCHECK(range.depth == 1);
        has_hi = true;
        hi = range.hi[0];
      } else if (depth == 1 && range.depth == 2 &&
                 prefix_[0] == range.hi[0]) {
        has_hi = true;
        hi = range.hi[1];
      }
    }

    if (iters.size() == 1) {
      DrainSingle(iters[0], depth, has_hi, hi);
      return;
    }

    raw_cursors_.clear();
    RawKeySpan span;
    for (TrieIterator* it : iters) {
      if (!it->RawLevelSpan(&span)) break;
      raw_cursors_.push_back(KeyCursor{span.keys, span.pos, span.hi});
    }
    if (raw_cursors_.size() == iters.size()) {
      RunDeepestRaw(depth, has_hi, hi);
    } else {
      RunDeepestScalar(iters, depth, has_hi, hi);
    }
  }

  // Single participant: the intersection is the level itself, so the
  // kernel degenerates to bulk block copies — NextBlock drains straight
  // out of the CSR level array (or via the scalar default for lazy
  // tries), and filter-free runs land in the batch column-at-a-time.
  // Each drained key corresponds to exactly one scalar Next, hence
  // seeks_ += n.
  void DrainSingle(TrieIterator* it, size_t depth, bool has_hi, int64_t hi) {
    const int64_t bound = has_hi ? hi : std::numeric_limits<int64_t>::max();
    for (;;) {
      size_t n = it->NextBlock(bound, &*block_);
      seeks_ += static_cast<int64_t>(n);
      if (n > 0) EmitDeepestRun(depth, block_->keys.data(), n);
      if (BudgetAborted()) return;
      if (n < block_->capacity) break;
    }
    if (!has_hi) {
      // NextBlock's exclusive bound cannot express "no bound" for keys
      // equal to INT64_MAX; bind any such stragglers scalar-wise.
      while (!it->AtEnd() && !BudgetAborted()) {
        if (BindDeepest(depth, it->Key())) EmitRow();
        it->Next();
        ++seeks_;
      }
    }
  }

  // Emits `n` deepest-level bindings from a contiguous ascending key
  // run: bulk columnar staging when no prefix filter is installed,
  // per-key bind + filter otherwise. Binding and budget accounting are
  // identical to the scalar per-key path.
  void EmitDeepestRun(size_t depth, const int64_t* keys, size_t n) {
    if (!filter_) {
      level_totals_[depth] += static_cast<int64_t>(n);
      total_intermediate_ += static_cast<int64_t>(n);
      while (n > 0) {
        size_t take = std::min(n, batch_->capacity() - batch_->size());
        batch_->PushRun(prefix_, keys, take);
        ChargeOutput(static_cast<int64_t>(take));
        if (batch_->full()) batch_->Flush(out_);
        keys += take;
        n -= take;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (BindDeepest(depth, keys[i])) EmitRow();
      }
    }
  }

  // Blockwise kernel drain of a multi-way deepest-level intersection:
  // each call fills kernel_buf_ with up to a batch of aligned keys (the
  // SIMD leapfrog runs entirely inside the kernel TU), which are then
  // emitted in bulk. Shared by the virtual RawLevelSpan path and the
  // full-depth raw executor.
  void DrainWithKernel(KeyCursor* cursors, size_t n,
                       IntersectStrategy strategy, size_t depth, bool has_hi,
                       int64_t hi) {
    bool first = true;
    bool done = false;
    while (!done) {
      size_t produced = kernel_->drain(cursors, n, strategy, first, has_hi,
                                       hi, kernel_buf_.data(),
                                       kernel_buf_.size(), &seeks_, &done);
      first = false;
      if (produced > 0) EmitDeepestRun(depth, kernel_buf_.data(), produced);
      if (BudgetAborted()) return;
    }
  }

  // All participants are CSR-backed: leapfrog over the raw key arrays
  // through the dispatched SIMD kernel — vectorized seeks on plain
  // int64_t loads, zero virtual dispatch per key — emitting into the
  // columnar batch. The seek strategy comes from the cardinality skew
  // of this prefix's remaining ranges (the dynamic EstimateKeys ratio).
  void RunDeepestRaw(size_t depth, bool has_hi, int64_t hi) {
    int64_t min_remaining = std::numeric_limits<int64_t>::max();
    int64_t max_remaining = 0;
    for (const KeyCursor& c : raw_cursors_) {
      int64_t remaining = static_cast<int64_t>(c.hi - c.pos);
      min_remaining = std::min(min_remaining, remaining);
      max_remaining = std::max(max_remaining, remaining);
    }
    IntersectStrategy strategy = ChooseIntersectStrategy(
        raw_cursors_.size(), min_remaining, max_remaining);
    DrainWithKernel(raw_cursors_.data(), raw_cursors_.size(), strategy, depth,
                    has_hi, hi);
  }

  // Mixed participants (a lazy path trie in the intersection): the
  // existing scalar leapfrog drives the level, but results still flow
  // through the columnar batch.
  void RunDeepestScalar(std::vector<TrieIterator*>& iters, size_t depth,
                        bool has_hi, int64_t hi) {
    bool have = LeapfrogAlign(iters, &seeks_);
    while (have) {
      if (BudgetAborted()) return;
      int64_t key = iters[0]->Key();
      if (has_hi && key >= hi) return;
      if (BindDeepest(depth, key)) EmitRow();
      have = LeapfrogAdvance(iters, &seeks_);
    }
  }

  // ---------------------------------------------------------------
  // Full-depth raw executor: the whole expansion over explicit frame
  // stacks and CSR child_begin arrays. Control flow, lead selection,
  // shard-range handling, budget cadence, and every counter mirror
  // Run() op for op — tests/batch_test.cc holds the paths byte- and
  // counter-identical at every batch size, thread count, and dispatch
  // level.
  // ---------------------------------------------------------------

  // One open trie level of one input: the remaining half-open range
  // [pos, hi) within that level's key array.
  struct RawFrame {
    size_t hi;
    size_t pos;
  };

  struct RawInputState {
    RawTrieView view;
    std::vector<RawFrame> frames;  // one per open level, top = deepest
  };

  // A level participant: which input, and the input-local trie level
  // that the engine level maps to.
  struct RawRef {
    size_t input;
    size_t local;
  };

  RawFrame& FrameOf(const RawRef& ref) {
    return raw_inputs_[ref.input].frames.back();
  }

  const RawTrieView::Level& LevelOf(const RawRef& ref) const {
    return raw_inputs_[ref.input].view.levels[ref.local];
  }

  int64_t RawKeyOf(const RawRef& ref) {
    return LevelOf(ref).keys[FrameOf(ref).pos];
  }

  void RunRaw(const PrefixRange& range) {
    const size_t num_levels = raw_levels_.size();
    size_t depth = 0;
    bool entering = true;
    for (;;) {
      if (budget_ != nullptr) {
        if ((++budget_ticks_ & 4095) == 0) {
          budget_->CheckDeadline();
          (void)XJOIN_FAULT("gj.tick");
        }
        if (count_cancel_) ++cancel_checks_;
        if (budget_->violated()) break;
      }
      std::vector<RawRef>& parts = raw_levels_[depth];
      bool have;
      if (entering) {
        OpenRawLevel(depth, range);
        if (depth == 0) {
          constexpr int64_t kMaxReserveRows = int64_t{1} << 16;
          const RawFrame& lead = FrameOf(parts[0]);
          out_->Reserve(static_cast<size_t>(std::clamp<int64_t>(
              static_cast<int64_t>(lead.hi - lead.pos), 0, kMaxReserveRows)));
        }
        if (depth + 1 == num_levels) {
          RunDeepestRawLevel(depth, range);
          CloseRawLevel(depth);
          if (depth == 0) break;
          --depth;
          entering = false;
          continue;
        }
        have = RawAlignLevel(depth);
      } else {
        have = RawAdvanceLevel(depth);
      }
      if (have && range.has_hi) {
        if (depth == 0) {
          int64_t key = RawKeyOf(parts[0]);
          if (range.depth == 1 ? key >= range.hi[0] : key > range.hi[0]) {
            have = false;
          }
        } else if (depth == 1 && range.depth == 2 &&
                   prefix_[0] == range.hi[0] &&
                   RawKeyOf(parts[0]) >= range.hi[1]) {
          have = false;
        }
      }
      if (have) {
        prefix_[depth] = RawKeyOf(parts[0]);
        ++level_totals_[depth];
        ++total_intermediate_;
        bool keep =
            !filter_ || filter_(depth, prefix_, worker_, filter_metrics_);
        if (keep) {
          ++depth;  // descend (the deepest level never reaches here)
          entering = true;
        } else {
          entering = false;  // pruned: advance at this level
        }
        continue;
      }
      CloseRawLevel(depth);
      if (depth == 0) break;
      --depth;
      entering = false;
    }
  }

  // Mirror of OpenLevel: push a frame per participant (child range from
  // the parent's position, whole level at local 0), lead with the
  // smallest remaining range, pick this open's seek strategy from the
  // cardinality skew, and skip to the shard's lexicographic lower
  // bound.
  void OpenRawLevel(size_t depth, const PrefixRange& range) {
    std::vector<RawRef>& parts = raw_levels_[depth];
    for (const RawRef& ref : parts) {
      RawInputState& st = raw_inputs_[ref.input];
      size_t lo, hi;
      if (ref.local == 0) {
        lo = 0;
        hi = st.view.levels[0].num_keys;
      } else {
        const RawFrame& parent = st.frames.back();
        const size_t* child_begin = st.view.levels[ref.local - 1].child_begin;
        lo = child_begin[parent.pos];
        hi = child_begin[parent.pos + 1];
      }
      st.frames.push_back(RawFrame{hi, lo});
    }
    int64_t min_remaining = std::numeric_limits<int64_t>::max();
    int64_t max_remaining = 0;
    if (parts.size() > 1) {
      size_t lead = 0;
      int64_t best = std::numeric_limits<int64_t>::max();
      for (size_t i = 0; i < parts.size(); ++i) {
        const RawFrame& f = FrameOf(parts[i]);
        int64_t remaining = static_cast<int64_t>(f.hi - f.pos);
        if (remaining < best) {
          best = remaining;
          lead = i;
        }
        min_remaining = std::min(min_remaining, remaining);
        max_remaining = std::max(max_remaining, remaining);
      }
      if (lead != 0) std::swap(parts[0], parts[lead]);
    }
    raw_strategy_[depth] = ChooseIntersectStrategy(parts.size(),
                                                   min_remaining,
                                                   max_remaining);
    if (range.has_lo) {
      RawFrame& lead = FrameOf(parts[0]);
      const RawTrieView::Level& level = LevelOf(parts[0]);
      if (lead.pos < lead.hi) {
        if (depth == 0 && level.keys[lead.pos] < range.lo[0]) {
          lead.pos = kernel_->seek(level.keys, lead.pos, lead.hi,
                                   range.lo[0], raw_strategy_[depth]);
          ++seeks_;
        } else if (depth == 1 && range.depth == 2 &&
                   prefix_[0] == range.lo[0] &&
                   level.keys[lead.pos] < range.lo[1]) {
          lead.pos = kernel_->seek(level.keys, lead.pos, lead.hi,
                                   range.lo[1], raw_strategy_[depth]);
          ++seeks_;
        }
      }
    }
  }

  void CloseRawLevel(size_t depth) {
    for (const RawRef& ref : raw_levels_[depth]) {
      raw_inputs_[ref.input].frames.pop_back();
    }
  }

  // Mirrors of LeapfrogAlign / LeapfrogAdvance over the frame stacks,
  // with each jump's interior search running through the dispatched
  // kernel. Identical seek accounting.
  bool RawAlignLevel(size_t depth) {
    std::vector<RawRef>& parts = raw_levels_[depth];
    for (const RawRef& ref : parts) {
      const RawFrame& f = FrameOf(ref);
      if (f.pos >= f.hi) return false;
    }
    if (parts.size() == 1) return true;
    const IntersectStrategy strategy = raw_strategy_[depth];
    for (;;) {
      int64_t max_key = RawKeyOf(parts[0]);
      for (size_t i = 1; i < parts.size(); ++i) {
        max_key = std::max(max_key, RawKeyOf(parts[i]));
      }
      bool all_equal = true;
      for (const RawRef& ref : parts) {
        RawFrame& f = FrameOf(ref);
        const RawTrieView::Level& level = LevelOf(ref);
        if (level.keys[f.pos] < max_key) {
          f.pos = kernel_->seek(level.keys, f.pos, f.hi, max_key, strategy);
          ++seeks_;
          if (f.pos >= f.hi) return false;
          if (level.keys[f.pos] > max_key) {
            all_equal = false;  // overshoot: new max, restart
            break;
          }
        }
      }
      if (all_equal) return true;
    }
  }

  bool RawAdvanceLevel(size_t depth) {
    RawFrame& lead = FrameOf(raw_levels_[depth][0]);
    ++lead.pos;
    ++seeks_;
    if (lead.pos >= lead.hi) return false;
    return RawAlignLevel(depth);
  }

  // Mirror of RunDeepestLevel: fold the shard bound, then drain the
  // level — bulk array copies for a single participant, the SIMD
  // kernel for a true intersection.
  void RunDeepestRawLevel(size_t depth, const PrefixRange& range) {
    bool has_hi = false;
    int64_t hi = 0;
    if (range.has_hi) {
      if (depth == 0) {
        XJ_DCHECK(range.depth == 1);
        has_hi = true;
        hi = range.hi[0];
      } else if (depth == 1 && range.depth == 2 &&
                 prefix_[0] == range.hi[0]) {
        has_hi = true;
        hi = range.hi[1];
      }
    }
    std::vector<RawRef>& parts = raw_levels_[depth];
    if (parts.size() == 1) {
      DrainSingleRaw(depth, has_hi, hi);
      return;
    }
    raw_cursors_.clear();
    for (const RawRef& ref : parts) {
      const RawFrame& f = FrameOf(ref);
      raw_cursors_.push_back(KeyCursor{LevelOf(ref).keys, f.pos, f.hi});
    }
    DrainWithKernel(raw_cursors_.data(), raw_cursors_.size(),
                    raw_strategy_[depth], depth, has_hi, hi);
  }

  // Mirror of DrainSingle over the raw level array: the same blockwise
  // protocol (n counted seeks per block of at most one batch, budget
  // poll between blocks, scalar INT64_MAX stragglers), but the keys
  // stage straight out of the CSR array with zero copies in between.
  void DrainSingleRaw(size_t depth, bool has_hi, int64_t hi) {
    RawFrame& f = FrameOf(raw_levels_[depth][0]);
    const RawTrieView::Level& level = LevelOf(raw_levels_[depth][0]);
    const int64_t bound = has_hi ? hi : std::numeric_limits<int64_t>::max();
    const size_t cap = kernel_buf_.size();
    for (;;) {
      size_t end = std::min(f.pos + cap, f.hi);
      if (end > f.pos && level.keys[end - 1] >= bound) {
        end = kernel_->lower_bound(level.keys, f.pos, end, bound);
      }
      size_t n = end - f.pos;
      seeks_ += static_cast<int64_t>(n);
      if (n > 0) {
        EmitDeepestRun(depth, level.keys + f.pos, n);
        f.pos = end;
      }
      if (BudgetAborted()) return;
      if (n < cap) break;
    }
    if (!has_hi) {
      while (f.pos < f.hi && !BudgetAborted()) {
        if (BindDeepest(depth, level.keys[f.pos])) EmitRow();
        ++f.pos;
        ++seeks_;
      }
    }
  }

  const PrefixFilter& filter_;
  Metrics* filter_metrics_;
  int worker_;              // executor slot, handed to the filter
  Relation* out_;
  BudgetTracker* budget_;   // null when the query has no finite budget
  bool count_cancel_;       // count cancellation polls (a token is attached)
  int64_t row_bytes_;       // bytes charged per materialized output row
  int64_t budget_ticks_ = 0;
  int64_t cancel_checks_ = 0;
  Tuple prefix_;
  std::vector<int64_t> level_totals_;
  std::vector<std::vector<TrieIterator*>> level_iters_;
  std::optional<ResultBatch> batch_;  // engaged iff batch_size > 0
  std::optional<KeyBlock> block_;     // NextBlock scratch, same capacity
  const IntersectKernel* kernel_ = nullptr;  // resolved once per engine
  std::vector<int64_t> kernel_buf_;   // drain destination, batch capacity
  std::vector<KeyCursor> raw_cursors_;
  // Full-depth raw mode, engaged iff batch is on and every input
  // exposes RawTrieSpans (plain delta-free CSR storage).
  std::vector<RawInputState> raw_inputs_;
  std::vector<std::vector<RawRef>> raw_levels_;  // participants per level
  std::vector<IntersectStrategy> raw_strategy_;  // chosen at each open
  bool raw_mode_ = false;
  int64_t seeks_ = 0;
  int64_t total_intermediate_ = 0;
};

// Publishes the merged engine counters in the same shape the serial
// engine always has.
void PublishMetrics(Metrics* metrics, const std::vector<int64_t>& level_totals,
                    int64_t seeks, int64_t total_intermediate,
                    int64_t output_rows, int64_t cancel_checks = 0) {
  if (metrics == nullptr) return;
  int64_t max_level = 0;
  for (size_t d = 0; d < level_totals.size(); ++d) {
    metrics->Add("gj.level" + std::to_string(d) + ".bindings",
                 level_totals[d]);
    max_level = std::max(max_level, level_totals[d]);
  }
  metrics->RecordMax("gj.max_intermediate", max_level);
  metrics->Add("gj.total_intermediate", total_intermediate);
  metrics->Add("gj.seeks", seeks);
  metrics->Add("gj.output", output_rows);
  // Only cancellable queries count their polls, so runs without a token
  // keep an identical counter set.
  if (cancel_checks > 0) metrics->Add("gj.cancel_checks", cancel_checks);
}

// Enumerates the distinct keys of the level-0 intersection (the shard
// partitioning domain) with a leapfrog over the level-0 participants
// only; leaves every iterator back at the virtual root.
std::vector<int64_t> Level0IntersectionKeys(
    const std::vector<TrieIterator*>& iters, int64_t* seeks) {
  std::vector<int64_t> keys;
  for (TrieIterator* it : iters) it->Open();
  if (LeapfrogAlign(iters, seeks)) {
    do {
      keys.push_back(iters[0]->Key());
    } while (LeapfrogAdvance(iters, seeks));
  }
  for (TrieIterator* it : iters) it->Up();
  return keys;
}

// Enumerates the (level-0, level-1) composite prefixes of the join —
// the deeper shard partitioning domain used when level 0 alone has
// fewer distinct keys than the requested shard count. Runs the engine
// over a two-level truncation of the plan; leaves every iterator back
// at the virtual root. Results are distinct and lexicographically
// ascending.
std::vector<std::array<int64_t, 2>> Level01PrefixPairs(
    const std::vector<JoinInput>& inputs, const std::vector<LevelPlan>& plan,
    int64_t* seeks) {
  std::vector<LevelPlan> plan2(plan.begin(), plan.begin() + 2);
  auto schema = Schema::Make({plan[0].attribute, plan[1].attribute});
  Relation pairs_rel(*schema);
  PrefixFilter no_filter;
  Engine engine(inputs, plan2, no_filter, nullptr, &pairs_rel);
  engine.Run(PrefixRange{});
  *seeks += engine.seeks();
  std::vector<std::array<int64_t, 2>> pairs;
  pairs.reserve(pairs_rel.num_rows());
  for (size_t r = 0; r < pairs_rel.num_rows(); ++r) {
    pairs.push_back({pairs_rel.at(r, 0), pairs_rel.at(r, 1)});
  }
  return pairs;
}

}  // namespace

Result<Relation> GenericJoin(const std::vector<JoinInput>& inputs,
                             const GenericJoinOptions& options) {
  const auto& order = options.attribute_order;
  if (order.empty()) return Status::InvalidArgument("empty attribute order");

  // A cancellation token rides the budget tracker as an extra "cancel
  // source": the per-binding violation poll then observes it for free.
  // A token without a caller budget gets a private unlimited tracker.
  BudgetTracker local_budget;
  BudgetTracker* budget = options.budget;
  if (options.cancel != nullptr) {
    if (budget == nullptr) budget = &local_budget;
    budget->AddCancelSource(options.cancel);
  }

  // Admission: refuse to start a query whose deadline already passed,
  // whose budget a prior stage already exhausted (a multi-step caller —
  // e.g. XJoin's expansion + validation — shares one tracker), or that
  // was cancelled before it began.
  if (budget != nullptr) {
    budget->CheckDeadline();
    if (budget->violated()) return budget->status();
  }

  // Build the per-level plan and validate input orders.
  std::vector<LevelPlan> plan(order.size());
  for (size_t d = 0; d < order.size(); ++d) plan[d].attribute = order[d];

  for (size_t i = 0; i < inputs.size(); ++i) {
    const JoinInput& in = inputs[i];
    if (in.iterator == nullptr) {
      return Status::InvalidArgument("input " + in.name + " has no iterator");
    }
    if (static_cast<size_t>(in.iterator->arity()) != in.attributes.size()) {
      return Status::InvalidArgument("input " + in.name + " arity mismatch");
    }
    // The input's attribute sequence must be a subsequence-in-order of
    // the global order, and the engine opens one trie level per global
    // level it participates in — so the input's k-th attribute must be
    // the k-th of its attributes encountered globally.
    size_t next = 0;
    for (const auto& attr : order) {
      if (next < in.attributes.size() && in.attributes[next] == attr) {
        ++next;
      }
    }
    if (next != in.attributes.size()) {
      return Status::InvalidArgument(
          "input " + in.name +
          " attribute order is inconsistent with the global order");
    }
    size_t seen = 0;
    for (size_t d = 0; d < order.size(); ++d) {
      if (seen < in.attributes.size() && in.attributes[seen] == order[d]) {
        plan[d].participants.push_back(i);
        ++seen;
      }
    }
  }

  for (size_t d = 0; d < plan.size(); ++d) {
    if (plan[d].participants.empty()) {
      return Status::InvalidArgument("attribute " + plan[d].attribute +
                                     " is covered by no input");
    }
  }

  XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(order));
  Relation out(schema);

  const int num_threads = std::max(1, options.num_threads);
  const int requested_shards =
      options.num_shards > 0 ? options.num_shards : num_threads;

  if (requested_shards <= 1) {
    Engine engine(inputs, plan, options.prefix_filter, options.metrics, &out,
                  options.batch_size, budget);
    engine.Run(PrefixRange{});
    if (budget != nullptr && budget->violated()) {
      return budget->status();
    }
    PublishMetrics(options.metrics, engine.level_totals(), engine.seeks(),
                   engine.total_intermediate(),
                   static_cast<int64_t>(out.num_rows()),
                   engine.cancel_checks());
    return out;
  }

  // Sharded driver: partition the first attribute's matching keys into
  // contiguous ascending ranges, one per shard. When level 0 alone has
  // fewer distinct keys than the requested shard count (and the order
  // has a second attribute), fall back to sharding on the
  // level-0 x level-1 composite prefix instead of silently degenerating
  // to ~1 shard.
  int64_t plan_seeks = 0;
  std::vector<TrieIterator*> level0;
  level0.reserve(plan[0].participants.size());
  for (size_t i : plan[0].participants) level0.push_back(inputs[i].iterator);
  std::vector<int64_t> keys = Level0IntersectionKeys(level0, &plan_seeks);

  // Composite planning runs a serial two-level leapfrog, so by default
  // (shard_depth == 0) only pay for it when level-0 sharding would fall
  // well short of the request (under half the shards) — a near-miss
  // level-0 split is cheaper than enumerating the pair domain up front.
  // A prepared plan that already knows the domain sizes overrides the
  // decision through shard_depth.
  std::vector<std::array<int64_t, 2>> pairs;
  bool composite;
  if (options.shard_depth == 2) {
    composite = plan.size() >= 2 && !keys.empty();
  } else if (options.shard_depth == 1) {
    composite = false;
  } else {
    composite = keys.size() * 2 <= static_cast<size_t>(requested_shards) &&
                plan.size() >= 2 && !keys.empty();
  }
  if (composite) {
    pairs = Level01PrefixPairs(inputs, plan, &plan_seeks);
    composite = pairs.size() > 1;
  }

  const size_t domain = composite ? pairs.size() : keys.size();
  const size_t num_shards = std::min<size_t>(
      static_cast<size_t>(requested_shards), std::max<size_t>(domain, 1));

  if (num_shards <= 1) {
    // The prefix domain is too small to shard (0 or 1 distinct
    // prefixes): fall back to the serial engine instead of paying
    // clone + merge overhead.
    Engine engine(inputs, plan, options.prefix_filter, options.metrics, &out,
                  options.batch_size, budget);
    engine.Run(PrefixRange{});
    if (budget != nullptr && budget->violated()) {
      return budget->status();
    }
    PublishMetrics(options.metrics, engine.level_totals(), engine.seeks(),
                   engine.total_intermediate(),
                   static_cast<int64_t>(out.num_rows()),
                   engine.cancel_checks());
    if (options.metrics != nullptr) {
      options.metrics->Add("gj.shards", 1);
      options.metrics->Add("gj.shard_depth", 1);
      options.metrics->Add("gj.plan_seeks", plan_seeks);
    }
    return out;
  }

  struct Shard {
    std::vector<std::unique_ptr<TrieIterator>> owned;
    std::vector<JoinInput> inputs;
    PrefixRange range;
    Relation out;
    std::vector<int64_t> level_totals;
    int64_t seeks = 0;
    int64_t total_intermediate = 0;
    int64_t cancel_checks = 0;
    // Shard-local bag handed to the prefix filter; merged into
    // options.metrics at the barrier so filter counters stay exact.
    Metrics metrics;

    explicit Shard(Schema s) : out(std::move(s)) {}
  };

  std::vector<Shard> shards;
  shards.reserve(num_shards);
  const size_t per_shard = domain / num_shards;
  const size_t remainder = domain % num_shards;
  size_t cursor = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard(schema);
    size_t take = per_shard + (s < remainder ? 1 : 0);
    shard.range.depth = composite ? 2 : 1;
    shard.range.has_lo = true;
    if (composite) {
      shard.range.lo[0] = pairs[cursor][0];
      shard.range.lo[1] = pairs[cursor][1];
    } else {
      shard.range.lo[0] = keys[cursor];
    }
    cursor += take;
    if (cursor < domain) {
      shard.range.has_hi = true;
      if (composite) {
        shard.range.hi[0] = pairs[cursor][0];
        shard.range.hi[1] = pairs[cursor][1];
      } else {
        shard.range.hi[0] = keys[cursor];
      }
    }
    shard.owned.reserve(inputs.size());
    shard.inputs.reserve(inputs.size());
    for (const JoinInput& in : inputs) {
      shard.owned.push_back(in.iterator->Clone());
      shard.inputs.push_back(
          JoinInput{in.name, in.attributes, shard.owned.back().get()});
    }
    shards.push_back(std::move(shard));
  }

  // Fault site: the executor hand-off. An armed hit fails the query
  // before any shard work is dispatched.
  if (XJOIN_FAULT("gj.shard_dispatch")) {
    return Status::Internal(
        "fault injection: shard dispatch to the executor failed "
        "(site gj.shard_dispatch)");
  }

  // Shards run as one morsel-driven job on the shared executor pool
  // (grain 1: each morsel is one shard), so N in-flight queries share
  // cores instead of each spawning num_threads threads. A shared budget
  // tracker aborts every shard once any of them trips a ceiling or sees
  // a cancellation.
  Executor* executor =
      options.executor != nullptr ? options.executor : Executor::Default();
#ifdef XJOIN_FAULTS_ENABLED
  // Fault site: the per-shard morsel hand-off. A hit makes the worker
  // drop that shard's work on the floor (the morsel "ran" but produced
  // nothing), which the barrier below converts into a typed failure —
  // exercising the executor path where a shard silently vanishes.
  std::atomic<bool> morsel_dropped{false};
#endif
  executor->ParallelForWorker(num_threads, shards.size(), /*grain=*/1,
                              [&](int worker, size_t s) {
#ifdef XJOIN_FAULTS_ENABLED
    if (XJOIN_FAULT("gj.morsel")) {
      morsel_dropped.store(true, std::memory_order_relaxed);
      return;
    }
#endif
    Shard& shard = shards[s];
    Metrics* filter_metrics =
        options.metrics != nullptr ? &shard.metrics : nullptr;
    Engine engine(shard.inputs, plan, options.prefix_filter, filter_metrics,
                  &shard.out, options.batch_size, budget, worker);
    engine.Run(shard.range);
    shard.level_totals = engine.level_totals();
    shard.seeks = engine.seeks();
    shard.total_intermediate = engine.total_intermediate();
    shard.cancel_checks = engine.cancel_checks();
  });
  if (budget != nullptr && budget->violated()) {
    return budget->status();
  }
#ifdef XJOIN_FAULTS_ENABLED
  if (morsel_dropped.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "fault injection: morsel hand-off dropped shard work "
        "(site gj.morsel)");
  }
#endif

  // Fault site: the result merge. A hit fails the query after all shard
  // work completed but before any rows reach the caller.
  if (XJOIN_FAULT("gj.result_merge")) {
    return Status::Internal(
        "fault injection: shard result merge failed (site gj.result_merge)");
  }

  // Deterministic merge: shards cover ascending key ranges, so appending
  // in shard order reproduces the serial row order exactly.
  std::vector<int64_t> level_totals(plan.size(), 0);
  int64_t seeks = 0;
  int64_t total_intermediate = 0;
  int64_t cancel_checks = 0;
  for (Shard& shard : shards) {
    out.AppendRows(shard.out);
    for (size_t d = 0; d < shard.level_totals.size(); ++d) {
      level_totals[d] += shard.level_totals[d];
    }
    seeks += shard.seeks;
    total_intermediate += shard.total_intermediate;
    cancel_checks += shard.cancel_checks;
    if (options.metrics != nullptr) options.metrics->MergeFrom(shard.metrics);
  }
  PublishMetrics(options.metrics, level_totals, seeks, total_intermediate,
                 static_cast<int64_t>(out.num_rows()), cancel_checks);
  if (options.metrics != nullptr) {
    options.metrics->Add("gj.shards", static_cast<int64_t>(num_shards));
    options.metrics->Add("gj.shard_depth", composite ? 2 : 1);
    options.metrics->Add("gj.plan_seeks", plan_seeks);
  }
  return out;
}

}  // namespace xjoin
