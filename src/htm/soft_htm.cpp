#include "htm/soft_htm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace seer::htm {

SoftHtm::SoftHtm(Config cfg) : cfg_(cfg) {
  assert(std::has_single_bit(cfg_.stripes) && "stripe count must be a power of two");
  assert(cfg_.stripes <= (1ULL << 31) && "stripe indices must fit in 32 bits");
  stripe_mask_ = cfg_.stripes - 1;
  stripes_ = std::make_unique<util::Padded<std::atomic<std::uint64_t>>[]>(cfg_.stripes);
  for (std::size_t i = 0; i < cfg_.stripes; ++i) {
    stripes_[i].value.store(0, std::memory_order_relaxed);
  }
}

void SoftHtm::Tx::abort(std::uint8_t code) {
  ctx_.abort_with(AbortStatus::explicit_abort(code));
}
void SoftHtm::Tx::subscribe(const std::atomic<std::uint64_t>& word,
                            std::uint64_t expected) {
  ctx_.do_subscribe(word, expected);
}

void SoftHtm::ThreadContext::begin() {
  assert(!active_ && "SoftHtm transactions do not nest");
  active_ = true;
  reads_.clear();
  writes_.clear();
  subs_.clear();
  read_log_.clear();
  write_sig_.clear();
  // Reads start signature-only (Tier 0) unless the config demands exact
  // accounting from the first access. 16 word stores clear the filter.
  read_tier_exact_ = tm_.cfg_.read_tracking == ReadTracking::kExact;
  t0_next_ = t0_buf_.get();
  t0_check_ = std::min(t0_end_, t0_next_ + kT0SatCheckStride);
  read_sig_.clear();
  // One integer bump retires every stamp and index slot of the previous
  // attempt. On the (once per 2^32 attempts) wraparound the tagged
  // structures must forget their stale epochs, or a recycled epoch value
  // would resurrect entries from 4 billion attempts ago.
  if (++epoch_ == 0) {
    std::fill_n(stamps_.get(), tm_.cfg_.stripes, 0);
    write_index_.hard_reset();
    read_words_.hard_reset();
    epoch_ = 1;
  }
  write_index_.begin_epoch(epoch_);
  read_words_.begin_epoch(epoch_);
  ++attempt_count_;
  op_index_ = 0;
  read_version_ = tm_.clock_.load(std::memory_order_acquire);
  if (obs_ != nullptr) {
    obs_->emit(obs_lane_, obs::TraceKind::kTxBegin, obs::now_ticks(),
               attempt_count_ - 1);
  }
  maybe_fault(TxOp::kBegin);
}

void SoftHtm::ThreadContext::rollback() noexcept {
  active_ = false;
  reads_.clear();
  writes_.clear();
  subs_.clear();
  t0_next_ = t0_buf_.get();
}

void SoftHtm::ThreadContext::abort_with(AbortStatus status) {
  if (obs_ != nullptr) {
    obs_->emit(obs_lane_, obs::TraceKind::kTxAbort, obs::now_ticks(),
               static_cast<std::uint64_t>(status.cause()));
  }
  throw TxAbortException{status};
}

void SoftHtm::ThreadContext::maybe_fault_slow(TxOp op) {
  // Injection models *hardware* abort noise, so the capacity-exempt path
  // (the pessimistic SGL fallback, which is not speculative) is exempt too —
  // otherwise a high-rate plan could starve the fallback's retry loop (the
  // inline maybe_fault wrapper filters both conditions before landing here).
  const std::uint64_t i = op_index_++;
  if (const auto forced = fault_->before_op(op, attempt_count_ - 1, i)) {
    abort_with(*forced);
  }
}

// Tier-0 → Tier-1 promotion: replay the logged addresses through the exact
// distinct-word index once, then continue with exact accounting for the
// rest of the attempt. The replay dedups — reads_ ends at the true distinct
// count ≤ log length — so a capacity-pressure promotion (log == budget)
// can never itself overflow the cap; the belt-and-braces check at the end
// guards the invariant, not a reachable state. reserve_for/reserve make
// the rebuild at most one allocation each the first time a context
// promotes at a given size, and none once warm.
void SoftHtm::ThreadContext::promote_reads(bool saturated) {
  const auto logged = static_cast<std::size_t>(t0_next_ - t0_buf_.get());
  read_words_.reserve_for(logged + 1);
  if (reads_.capacity() < logged) reads_.reserve(logged);
  for (const TmWord* const* p = t0_buf_.get(); p != t0_next_; ++p) {
    const TmWord* a = *p;
    const std::uint64_t h = mix_addr(a);
    const auto si = static_cast<std::uint32_t>(h & stripe_mask_);
    if (read_words_.find_or_insert(a, si, h) == AddrIndex::kNpos) {
      reads_.push_back(si);
    }
  }
  t0_next_ = t0_buf_.get();
  read_tier_exact_ = true;
  if (saturated) {
    ++promote_saturation_;
  } else {
    ++promote_capacity_;
  }
  if (metrics_.registry != nullptr) {
    metrics_.registry->add(
        saturated ? metrics_.promote_saturation : metrics_.promote_capacity,
        metrics_.lane);
  }
  if (enforce_capacity_ && reads_.size() > tm_.cfg_.max_read_set) {
    abort_capacity();
  }
}

// Capacity aborts funnel through here so abort attribution can split them
// by read tier: "capacity while signature-only" means the write set (or a
// promotion replay) overflowed while reads were still approximate;
// "capacity after exact accounting" means the exact distinct-word count
// did. Read-capacity aborts always land in the exact bucket by
// construction — Tier 0 promotes at the budget instead of aborting.
void SoftHtm::ThreadContext::abort_capacity() {
  if (metrics_.registry != nullptr) {
    metrics_.registry->add(read_tier_exact_ ? metrics_.capacity_abort_exact
                                            : metrics_.capacity_abort_sig,
                           metrics_.lane);
  }
  abort_with(AbortStatus::capacity());
}

// Tier-0 slow path: the log cursor reached t0_check_. Either this is just
// a saturation checkpoint — scan the filter population (16 popcounts, paid
// once per kT0SatCheckStride logged reads), push the checkpoint forward and
// keep logging — or the log hit the capacity budget / the filter saturated,
// in which case the attempt promotes to exact accounting and the current
// read is the first one tracked exactly.
void SoftHtm::ThreadContext::t0_checkpoint(const TmWord* w, std::uint64_t h) {
  if (t0_next_ != t0_end_ && !read_sig_.saturated()) {
    t0_check_ = std::min(t0_end_, t0_next_ + kT0SatCheckStride);
    read_sig_.add(h);
    *t0_next_++ = w;
    return;
  }
  promote_reads(/*saturated=*/t0_next_ != t0_end_);
  track_read_exact(w, static_cast<std::uint32_t>(h & stripe_mask_), h);
}

void SoftHtm::ThreadContext::do_subscribe(const std::atomic<std::uint64_t>& word,
                                          std::uint64_t expected) {
  assert(active_);
  maybe_fault(TxOp::kSubscribe);
  if (word.load(std::memory_order_acquire) != expected) {
    abort_with(AbortStatus::conflict());
  }
  if (subs_.empty()) {
    sub0_word_ = &word;
    sub0_expected_ = expected;
  }
  subs_.push_back(Subscription{&word, expected});
}

AbortStatus SoftHtm::ThreadContext::commit() {
  assert(active_);
  maybe_fault(TxOp::kCommit);
  if (writes_.empty()) {
    // Read-only transactions were validated on every read; nothing to publish.
    check_subscriptions();
    if (log_ != nullptr) {
      // A read-only commit serializes at its snapshot: it saw every write
      // with version <= read_version_ and none after.
      log_->push_back(TxRecord{.begin_version = read_version_,
                               .commit_version = read_version_,
                               .writer = false,
                               .reads = read_log_,
                               .writes = {}});
    }
    if (obs_ != nullptr) {
      obs_->emit(obs_lane_, obs::TraceKind::kTxCommit, obs::now_ticks(), 0);
    }
    rollback();
    return AbortStatus(kXBeginStarted);
  }

  // The stripes to lock, deduplicated through the stamp table while the
  // owned mark is planted — commit read-set validation below recognizes
  // own-locked stripes with one stamp lookup instead of scanning the write
  // set. lock_stripes_ is a reusable member: the commit path performs no
  // heap allocation once warm.
  lock_stripes_.clear();
  for (const WriteEntry& e : writes_) {
    if (!stamp_has(e.stripe, kStampOwned)) {
      stamp_set(e.stripe, kStampOwned);
      lock_stripes_.push_back(e.stripe);
    }
  }
  // Canonical (stripe-index) order, deadlock-free across committers. Small
  // write sets touch stripes in hash order, which is rarely sorted, but
  // the is_sorted probe is cheap and spares the common already-sorted
  // single-stripe and sequential-buffer cases the full sort.
  if (!std::is_sorted(lock_stripes_.begin(), lock_stripes_.end())) {
    std::sort(lock_stripes_.begin(), lock_stripes_.end());
  }

  // NOTE: every abort below this point must release the stripes acquired so
  // far — a leaked stripe lock poisons that stripe forever (all later
  // transactions touching it abort with CONFLICT unconditionally).
  std::size_t locked = 0;
  auto release_locked = [&]() noexcept {
    for (std::size_t i = 0; i < locked; ++i) {
      tm_.stripe_at(lock_stripes_[i]).fetch_and(~kLockedBit, std::memory_order_release);
    }
  };

  std::uint64_t wv = 0;
  try {
    // Acquire in canonical order; never block — a busy stripe means a
    // concurrent committer, which an HTM would report as a conflict abort.
    for (const std::uint32_t si : lock_stripes_) {
      std::atomic<std::uint64_t>& s = tm_.stripe_at(si);
      std::uint64_t cur = s.load(std::memory_order_acquire);
      if ((cur & kLockedBit) != 0 || cur > (read_version_ << 1) ||
          !s.compare_exchange_strong(cur, cur | kLockedBit,
                                     std::memory_order_acq_rel)) {
        release_locked();
        abort_with(AbortStatus::conflict());
      }
      ++locked;
    }

    // Take the write version BEFORE validating (TL2 order). A writer that
    // locks one of our read stripes after our validation passed then takes
    // its version after ours, so the log orders it after us. Validating
    // first would let such a writer take a smaller version than ours while
    // we commit on the value it overwrote: a stale read. An abort below
    // just spends a version.
    wv = tm_.clock_.fetch_add(1, std::memory_order_acq_rel) + 1;

    // Validate the read set against the read version. A locked stripe is
    // fine iff the lock is ours, which the owned stamp answers in O(1)
    // (stripes we own passed the version check just before locking).
    if (tm_.cfg_.defect != Defect::kSkipCommitValidation) {
      auto validate_stripe = [&](std::uint32_t si) {
        const std::uint64_t v = tm_.stripe_at(si).load(std::memory_order_acquire);
        if ((v & kLockedBit) != 0) {
          if (!stamp_has(si, kStampOwned)) {
            release_locked();
            abort_with(AbortStatus::conflict());
          }
        } else if (v > (read_version_ << 1)) {
          release_locked();
          abort_with(AbortStatus::conflict());
        }
      };
      // Tier-0 reads never built reads_: walk the replay log instead,
      // recomputing each entry's stripe. Undeduplicated, so a re-read
      // stripe validates more than once — the price a writer pays for
      // having skipped per-read exact accounting, and exactly why a
      // read-only commit (the Tier-0 sweet spot) skips this entirely.
      for (const TmWord* const* p = t0_buf_.get(); p != t0_next_; ++p) {
        validate_stripe(static_cast<std::uint32_t>(mix_addr(*p) & stripe_mask_));
      }
      // Tier-1 reads: each distinct stripe entry once. Empty in Tier 0.
      for (const std::uint32_t si : reads_) validate_stripe(si);
    }
    for (const Subscription& sub : subs_) {
      if (sub.word->load(std::memory_order_acquire) != sub.expected) {
        release_locked();
        abort_with(AbortStatus::conflict());
      }
    }
  } catch (const TxAbortException&) {
    rollback();
    throw;
  }

  // Publish: write back, release stripes at the write version.
  for (const WriteEntry& e : writes_) {
    e.addr->store(e.value, std::memory_order_release);
  }
  for (const std::uint32_t si : lock_stripes_) {
    tm_.stripe_at(si).store(wv << 1, std::memory_order_release);
  }
  if (log_ != nullptr) {
    TxRecord rec{.begin_version = read_version_,
                 .commit_version = wv,
                 .writer = true,
                 .reads = read_log_,
                 .writes = {}};
    rec.writes.reserve(writes_.size());
    for (const WriteEntry& e : writes_) rec.writes.push_back(TxWrite{e.addr, e.value});
    log_->push_back(std::move(rec));
  }
  if (obs_ != nullptr) {
    obs_->emit(obs_lane_, obs::TraceKind::kTxCommit, obs::now_ticks(), writes_.size());
  }
  rollback();
  return AbortStatus(kXBeginStarted);
}

}  // namespace seer::htm
