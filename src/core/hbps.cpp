#include "core/hbps.hpp"

#include <cstring>

#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/checksum.hpp"

namespace wafl {

Hbps::Hbps(Config cfg) : cfg_(cfg) {
  WAFL_ASSERT(cfg_.max_score > 0);
  WAFL_ASSERT(cfg_.bin_width > 0 && cfg_.bin_width <= cfg_.max_score);
  WAFL_ASSERT(cfg_.list_capacity > 0);
  // The persisted list page holds 4-byte ids with a trailing CRC.
  WAFL_ASSERT(cfg_.list_capacity <= (kPageBytes - 4) / sizeof(AaId));
  const std::uint32_t bins =
      (cfg_.max_score + cfg_.bin_width - 1) / cfg_.bin_width;
  hist_.assign(bins, 0);
  list_first_.assign(bins, kNoSegment);
  list_count_.assign(bins, 0);
  list_.reserve(cfg_.list_capacity);
}

std::uint32_t Hbps::bin_of(AaScore score) const noexcept {
  WAFL_ASSERT(score <= cfg_.max_score);
  const std::uint32_t b = (cfg_.max_score - score) / cfg_.bin_width;
  return b < bin_count() ? b : bin_count() - 1;
}

AaScore Hbps::bin_upper_bound(std::uint32_t b) const noexcept {
  WAFL_ASSERT(b < bin_count());
  return cfg_.max_score - b * cfg_.bin_width;
}

void Hbps::build(const AaScoreBoard& board) {
  std::vector<AaScore> scores(board.aa_count());
  for (AaId aa = 0; aa < board.aa_count(); ++aa) {
    scores[aa] = board.score(aa);
  }
  build(scores);
}

void Hbps::build(std::span<const AaScore> scores) {
  std::fill(hist_.begin(), hist_.end(), 0);
  std::fill(list_first_.begin(), list_first_.end(), kNoSegment);
  std::fill(list_count_.begin(), list_count_.end(), 0);
  list_.clear();
  slot_of_.clear();
  tracked_ = 0;

  // Pass 1: histogram over all resident AAs.
  for (AaId aa = 0; aa < scores.size(); ++aa) {
    if (checked_out_.contains(aa)) continue;
    ++hist_[bin_of(scores[aa])];
    ++tracked_;
  }

  // Pass 2: list the AAs of the best bins, best bin first, until the list
  // page is full.  A bin may be listed partially when it straddles the
  // capacity limit; its histogram count stays exact regardless.
  std::uint32_t budget = cfg_.list_capacity;
  for (std::uint32_t b = 0; b < bin_count() && budget > 0; ++b) {
    if (hist_[b] == 0) continue;
    for (AaId aa = 0; aa < scores.size() && budget > 0; ++aa) {
      if (checked_out_.contains(aa)) continue;
      if (bin_of(scores[aa]) != b) continue;
      if (list_count_[b] == 0) {
        list_first_[b] = static_cast<std::int32_t>(list_.size());
      }
      slot_of_[aa] = static_cast<std::uint32_t>(list_.size());
      list_.push_back(aa);
      ++list_count_[b];
      --budget;
    }
  }
}

std::int32_t Hbps::worst_listed_bin() const noexcept {
  for (std::uint32_t b = bin_count(); b-- > 0;) {
    if (list_count_[b] > 0) return static_cast<std::int32_t>(b);
  }
  return kNoSegment;
}

std::int32_t Hbps::best_listed_bin() const noexcept {
  for (std::uint32_t b = 0; b < bin_count(); ++b) {
    if (list_count_[b] > 0) return static_cast<std::int32_t>(b);
  }
  return kNoSegment;
}

std::int32_t Hbps::best_histogram_bin() const noexcept {
  for (std::uint32_t b = 0; b < bin_count(); ++b) {
    if (hist_[b] > 0) return static_cast<std::int32_t>(b);
  }
  return kNoSegment;
}

std::optional<AaPick> Hbps::take_best() {
  const std::int32_t bs = best_listed_bin();
  if (bs == kNoSegment) return std::nullopt;
  const auto b = static_cast<std::uint32_t>(bs);
  // "The write allocator always picks the first AA in the second page."
  const auto slot = static_cast<std::uint32_t>(list_first_[b]);
  const AaId aa = list_[slot];
  unlist_at(slot, b);
  WAFL_ASSERT(hist_[b] > 0);
  --hist_[b];
  --tracked_;
  checked_out_.insert(aa);
  return AaPick{aa, bin_upper_bound(b)};
}

std::optional<AaScore> Hbps::peek_best_score() const {
  const std::int32_t b = best_listed_bin();
  if (b == kNoSegment) return std::nullopt;
  return bin_upper_bound(static_cast<std::uint32_t>(b));
}

void Hbps::insert(AaId aa, AaScore score) {
  WAFL_ASSERT_MSG(!slot_of_.contains(aa), "AA already listed");
  checked_out_.erase(aa);
  const std::uint32_t b = bin_of(score);
  ++hist_[b];
  ++tracked_;
  maybe_list(aa, b);
}

void Hbps::update_score(AaId aa, AaScore old_score, AaScore new_score) {
  if (checked_out_.contains(aa)) return;  // re-keys on insert()
  const std::uint32_t b0 = bin_of(old_score);
  const std::uint32_t b1 = bin_of(new_score);
  if (b0 == b1) return;  // same bin: nothing moves (partial sort)
  WAFL_OBS({
    if (rebin_counter_ != nullptr) rebin_counter_->inc();
  });
  WAFL_ASSERT(hist_[b0] > 0);
  --hist_[b0];
  ++hist_[b1];
  const auto it = slot_of_.find(aa);
  if (it != slot_of_.end()) {
    unlist_at(it->second, b0);
    maybe_list(aa, b1);
  } else {
    // Unlisted AA may now qualify for the list (frees pushed it into a top
    // bin, §3.3.2).
    maybe_list(aa, b1);
  }
}

void Hbps::apply_changes(std::span<const ScoreChange> changes) {
  // Tiny batches: per-change list maintenance is cheaper than a rebuild.
  if (changes.size() < 2) {
    AaCache::apply_changes(changes);
    return;
  }

  // Pass 1: histogram moves — O(1) per change, exactly as update_score()
  // would do them, including the rebin observability.  Checked-out AAs
  // re-key on insert() and same-bin moves change nothing (partial sort),
  // so neither contributes a rebin.  CP batches carry one change per AA
  // (AaScoreBoard::apply_cp_deltas coalesces), so first-wins is exact.
  std::unordered_map<AaId, std::uint32_t> dest;
  dest.reserve(changes.size());
  std::vector<AaId> order;  // effective rebins, batch order
  order.reserve(changes.size());
  for (const ScoreChange& c : changes) {
    if (checked_out_.contains(c.aa)) continue;
    const std::uint32_t b0 = bin_of(c.old_score);
    const std::uint32_t b1 = bin_of(c.new_score);
    if (b0 == b1) continue;
    WAFL_OBS({
      if (rebin_counter_ != nullptr) rebin_counter_->inc();
    });
    WAFL_ASSERT(hist_[b0] > 0);
    --hist_[b0];
    ++hist_[b1];
    dest.emplace(c.aa, b1);
    order.push_back(c.aa);
  }
  if (order.empty()) return;

  // Pass 2: one segmented-array shuffle for the whole batch.  Bucket the
  // old list's entries by destination bin — survivors stay put, listed
  // movers follow their new bin — and append unlisted movers (now resident
  // in a possibly-listable bin) in batch order, exactly the candidates the
  // per-change path would have offered maybe_list().
  const std::uint32_t nb = bin_count();
  std::vector<std::vector<AaId>> surv(nb), moved(nb), fresh(nb);
  for (std::uint32_t b = 0; b < nb; ++b) {
    if (list_count_[b] == 0) continue;
    const auto first = static_cast<std::uint32_t>(list_first_[b]);
    for (std::uint32_t i = 0; i < list_count_[b]; ++i) {
      const AaId aa = list_[first + i];
      const auto it = dest.find(aa);
      if (it == dest.end()) {
        surv[b].push_back(aa);
      } else {
        moved[it->second].push_back(aa);
      }
    }
  }
  for (const AaId aa : order) {
    if (!slot_of_.contains(aa)) fresh[dest[aa]].push_back(aa);
  }

  // Rebuild the segments best bin first until the list page is full:
  // within a bin, survivors (old relative order), then listed movers, then
  // fresh candidates.
  std::vector<AaId> nlist;
  nlist.reserve(cfg_.list_capacity);
  slot_of_.clear();
  std::fill(list_first_.begin(), list_first_.end(), kNoSegment);
  std::fill(list_count_.begin(), list_count_.end(), 0);
  for (std::uint32_t b = 0; b < nb; ++b) {
    if (nlist.size() >= cfg_.list_capacity) break;
    auto take = [&](const std::vector<AaId>& v) {
      for (const AaId aa : v) {
        if (nlist.size() >= cfg_.list_capacity) return;
        if (list_count_[b] == 0) {
          list_first_[b] = static_cast<std::int32_t>(nlist.size());
        }
        slot_of_[aa] = static_cast<std::uint32_t>(nlist.size());
        nlist.push_back(aa);
        ++list_count_[b];
      }
    };
    take(surv[b]);
    take(moved[b]);
    take(fresh[b]);
  }
  list_ = std::move(nlist);
}

void Hbps::maybe_list(AaId aa, std::uint32_t b) {
  if (list_.size() >= cfg_.list_capacity) {
    const std::int32_t w = worst_listed_bin();
    WAFL_ASSERT(w != kNoSegment);
    // Only displace when strictly better than the worst listed bin.
    if (static_cast<std::int32_t>(b) >= w) return;
    drop_worst();
  }

  // Make a hole at the end of bin b's segment by moving ONE entry from the
  // front of each worse listed bin to that bin's own end (§3.3.2: "only
  // one AA needs to be moved down from each bin present in the list").
  std::uint32_t hole = static_cast<std::uint32_t>(list_.size());
  list_.push_back(kInvalidAaId);  // grow; filled below
  for (std::uint32_t k = bin_count(); k-- > b + 1;) {
    if (list_count_[k] == 0) continue;
    const auto first = static_cast<std::uint32_t>(list_first_[k]);
    move_entry(first, hole);
    hole = first;
    list_first_[k] = static_cast<std::int32_t>(first + 1);
  }
  list_[hole] = aa;
  slot_of_[aa] = hole;
  if (list_count_[b] == 0) {
    list_first_[b] = static_cast<std::int32_t>(hole);
  }
  ++list_count_[b];
  WAFL_ASSERT(static_cast<std::uint32_t>(list_first_[b]) + list_count_[b] ==
              hole + 1);
}

void Hbps::unlist_at(std::uint32_t i, std::uint32_t b) {
  WAFL_ASSERT(list_count_[b] > 0);
  const auto first = static_cast<std::uint32_t>(list_first_[b]);
  const std::uint32_t last = first + list_count_[b] - 1;
  WAFL_ASSERT(i >= first && i <= last);
  slot_of_.erase(list_[i]);

  // Fill the hole with bin b's own last entry, leaving the hole at the
  // segment's end.
  if (i != last) {
    move_entry(last, i);
  }
  --list_count_[b];
  if (list_count_[b] == 0) {
    list_first_[b] = kNoSegment;
  }

  // Compact every worse listed bin leftward by one: move each bin's LAST
  // entry into the hole that precedes its first slot.
  std::uint32_t hole = last;
  for (std::uint32_t k = b + 1; k < bin_count(); ++k) {
    if (list_count_[k] == 0) continue;
    const auto kfirst = static_cast<std::uint32_t>(list_first_[k]);
    const std::uint32_t klast = kfirst + list_count_[k] - 1;
    WAFL_ASSERT(kfirst == hole + 1);
    move_entry(klast, hole);
    list_first_[k] = static_cast<std::int32_t>(kfirst - 1);
    hole = klast;
  }
  WAFL_ASSERT(hole == list_.size() - 1);
  list_.pop_back();
}

void Hbps::drop_worst() {
  const std::int32_t ws = worst_listed_bin();
  WAFL_ASSERT(ws != kNoSegment);
  const auto w = static_cast<std::uint32_t>(ws);
  const std::uint32_t last =
      static_cast<std::uint32_t>(list_first_[w]) + list_count_[w] - 1;
  WAFL_ASSERT(last == list_.size() - 1);
  slot_of_.erase(list_[last]);
  list_.pop_back();
  --list_count_[w];
  if (list_count_[w] == 0) {
    list_first_[w] = kNoSegment;
  }
}

void Hbps::move_entry(std::uint32_t from, std::uint32_t to) {
  const AaId aa = list_[from];
  list_[to] = aa;
  slot_of_[aa] = to;
}

bool Hbps::validate() const {
  // Histogram total matches tracked count.
  std::size_t hist_total = 0;
  for (const std::uint32_t c : hist_) hist_total += c;
  if (hist_total != tracked_) return false;

  // Segments: ascending bins, contiguous, covering the whole list.
  std::uint32_t cursor = 0;
  for (std::uint32_t b = 0; b < bin_count(); ++b) {
    if (list_count_[b] == 0) {
      if (list_first_[b] != kNoSegment) return false;
      continue;
    }
    if (list_first_[b] != static_cast<std::int32_t>(cursor)) return false;
    if (list_count_[b] > hist_[b]) return false;
    cursor += list_count_[b];
  }
  if (cursor != list_.size()) return false;
  if (list_.size() > cfg_.list_capacity) return false;

  // Slot index agrees with the list.
  if (slot_of_.size() != list_.size()) return false;
  for (std::uint32_t i = 0; i < list_.size(); ++i) {
    const auto it = slot_of_.find(list_[i]);
    if (it == slot_of_.end() || it->second != i) return false;
  }
  return true;
}

// --- Persistence -----------------------------------------------------------

namespace {

struct HistPageHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t max_score;
  std::uint32_t bin_width;
  std::uint32_t bin_count;
  std::uint32_t list_capacity;
  std::uint32_t list_size;
  std::uint32_t reserved;
};

constexpr std::uint32_t kHbpsMagic = 0x48425053;  // "HBPS"
constexpr std::uint32_t kHbpsVersion = 1;
constexpr std::size_t kCrcOffset = Hbps::kPageBytes - 4;

void put_crc(std::span<std::byte> page) {
  const std::uint32_t crc = crc32c(page.data(), kCrcOffset);
  std::memcpy(page.data() + kCrcOffset, &crc, 4);
}

bool check_crc(std::span<const std::byte> page) {
  std::uint32_t stored = 0;
  std::memcpy(&stored, page.data() + kCrcOffset, 4);
  return stored == crc32c(page.data(), kCrcOffset);
}

}  // namespace

void Hbps::save(std::span<std::byte> histogram_page,
                std::span<std::byte> list_page) const {
  WAFL_ASSERT(histogram_page.size() == kPageBytes);
  WAFL_ASSERT(list_page.size() == kPageBytes);
  std::memset(histogram_page.data(), 0, kPageBytes);
  std::memset(list_page.data(), 0, kPageBytes);

  const HistPageHeader hdr{kHbpsMagic,
                           kHbpsVersion,
                           cfg_.max_score,
                           cfg_.bin_width,
                           bin_count(),
                           cfg_.list_capacity,
                           static_cast<std::uint32_t>(list_.size()),
                           0};
  std::memcpy(histogram_page.data(), &hdr, sizeof(hdr));

  // Per-bin: count, first-slot index (as stored in memory; -1 == unlisted).
  std::byte* p = histogram_page.data() + sizeof(hdr);
  WAFL_ASSERT(sizeof(hdr) + bin_count() * 8 + 4 <= kPageBytes);
  for (std::uint32_t b = 0; b < bin_count(); ++b) {
    std::memcpy(p, &hist_[b], 4);
    std::memcpy(p + 4, &list_first_[b], 4);
    p += 8;
  }
  put_crc(histogram_page);

  std::memcpy(list_page.data(), list_.data(), list_.size() * sizeof(AaId));
  put_crc(list_page);
}

std::optional<Hbps> Hbps::load(std::span<const std::byte> histogram_page,
                               std::span<const std::byte> list_page) {
  if (histogram_page.size() != kPageBytes ||
      list_page.size() != kPageBytes) {
    return std::nullopt;
  }
  if (!check_crc(histogram_page) || !check_crc(list_page)) {
    return std::nullopt;
  }

  HistPageHeader hdr{};
  std::memcpy(&hdr, histogram_page.data(), sizeof(hdr));
  if (hdr.magic != kHbpsMagic || hdr.version != kHbpsVersion) {
    return std::nullopt;
  }
  if (hdr.max_score == 0 || hdr.bin_width == 0 ||
      hdr.bin_width > hdr.max_score || hdr.list_capacity == 0 ||
      hdr.list_capacity > (kPageBytes - 4) / sizeof(AaId) ||
      hdr.list_size > hdr.list_capacity) {
    return std::nullopt;
  }

  Hbps out(Config{hdr.max_score, hdr.bin_width, hdr.list_capacity});
  if (out.bin_count() != hdr.bin_count) return std::nullopt;
  if (sizeof(hdr) + hdr.bin_count * 8 + 4 > kPageBytes) return std::nullopt;

  const std::byte* p = histogram_page.data() + sizeof(hdr);
  for (std::uint32_t b = 0; b < hdr.bin_count; ++b) {
    std::memcpy(&out.hist_[b], p, 4);
    std::memcpy(&out.list_first_[b], p + 4, 4);
    p += 8;
  }

  out.list_.resize(hdr.list_size);
  std::memcpy(out.list_.data(), list_page.data(),
              hdr.list_size * sizeof(AaId));

  // Reconstruct derived state (segment counts, slot index, tracked total).
  out.tracked_ = 0;
  for (const std::uint32_t c : out.hist_) out.tracked_ += c;
  // Derive per-bin listed counts from the first-slot indices: segments are
  // contiguous in ascending bin order, so each segment runs to the next
  // segment's first slot (or the end of the list).
  std::uint32_t cursor = 0;
  for (std::uint32_t b = 0; b < hdr.bin_count; ++b) {
    if (out.list_first_[b] == kNoSegment) {
      out.list_count_[b] = 0;
      continue;
    }
    if (out.list_first_[b] != static_cast<std::int32_t>(cursor)) {
      return std::nullopt;  // structurally inconsistent
    }
    std::uint32_t next_first = hdr.list_size;
    for (std::uint32_t nb = b + 1; nb < hdr.bin_count; ++nb) {
      if (out.list_first_[nb] != kNoSegment) {
        next_first = static_cast<std::uint32_t>(out.list_first_[nb]);
        break;
      }
    }
    if (next_first <= cursor) return std::nullopt;
    out.list_count_[b] = next_first - cursor;
    cursor = next_first;
  }
  if (cursor != hdr.list_size) return std::nullopt;

  for (std::uint32_t i = 0; i < hdr.list_size; ++i) {
    if (out.slot_of_.contains(out.list_[i])) return std::nullopt;
    out.slot_of_[out.list_[i]] = i;
  }
  if (!out.validate()) return std::nullopt;
  return out;
}

}  // namespace wafl
