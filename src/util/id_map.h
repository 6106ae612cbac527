// A map from 32-bit ids to values, iterated in id order.
//
// Values live in fixed pages of kPageSlots slots: a page holds the ids
// [base, base + kPageSlots), and a one-byte mask says which slots are set.
// The page records (base, mask, page pointer) sit in one vector sorted by
// base. Ids that are dense, like topology device ids, find their page at
// its offset from the first page; any other id falls back to a binary
// search. A page exists only while it holds a value, so memory is
// O(size()) for any spread of ids, sparse ones off the wire included.
//
// Pages are heap blocks that never move, so a pointer or reference to a
// value stays valid until that id is erased: inserting other ids, or
// erasing them, leaves it alone.
//
// T must be default-constructible: a page holds kPageSlots values, and a
// free slot holds T{}.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace tamp::util {

template <typename T>
class IdMap {
 public:
  // Small on purpose: a page is allocated whole when its first id arrives,
  // so large pages raise peak memory while a directory is still filling.
  static constexpr uint32_t kPageSlots = 8;

 private:
  struct Page {
    uint32_t base = 0;    // first id of the page, a multiple of kPageSlots
    uint8_t present = 0;  // bit i: slot i (id base + i) holds a value
    std::unique_ptr<std::array<T, kPageSlots>> slots;
  };
  static_assert(kPageSlots <= 8, "the present mask is one byte");

 public:
  // Visits (id, value) pairs in increasing id order. Dereferencing yields
  // the pair by value; its second member refers into the map.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::pair<uint32_t, const T&>;
    using reference = value_type;
    using pointer = void;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;

    value_type operator*() const {
      const auto bit = static_cast<uint32_t>(std::countr_zero(left_));
      return {page_->base + bit, (*page_->slots)[bit]};
    }
    Iterator& operator++() {
      left_ &= static_cast<uint8_t>(left_ - 1);
      if (left_ == 0) settle(page_ + 1);
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const {
      return page_ == other.page_ && left_ == other.left_;
    }

   private:
    friend class IdMap;
    Iterator(const Page* page, const Page* end) : end_(end) { settle(page); }
    // Moves to the first set slot at or after `page`. Every stored page
    // holds a value, so only the end has an empty mask.
    void settle(const Page* page) {
      page_ = page;
      left_ = page_ == end_ ? 0 : page_->present;
    }

    const Page* page_ = nullptr;
    const Page* end_ = nullptr;
    uint8_t left_ = 0;  // the current page's set slots not yet visited
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Iterator begin() const {
    return Iterator(pages_.data(), pages_.data() + pages_.size());
  }
  Iterator end() const {
    return Iterator(pages_.data() + pages_.size(),
                    pages_.data() + pages_.size());
  }

  const T* find(uint32_t id) const {
    const size_t at = page_at(base_of(id));
    if (at == pages_.size() || pages_[at].base != base_of(id)) return nullptr;
    const Page& page = pages_[at];
    const uint32_t bit = id % kPageSlots;
    return (page.present >> bit & 1) != 0 ? &(*page.slots)[bit] : nullptr;
  }
  T* find(uint32_t id) {
    return const_cast<T*>(std::as_const(*this).find(id));
  }
  bool contains(uint32_t id) const { return find(id) != nullptr; }

  // Stores `value` at `id` unless the id is already set. Returns the
  // value now held and whether it was inserted.
  std::pair<T*, bool> insert(uint32_t id, T value) {
    const uint32_t base = base_of(id);
    size_t at = page_at(base);
    if (at == pages_.size() || pages_[at].base != base) {
      Page page;
      page.base = base;
      page.slots = std::make_unique<std::array<T, kPageSlots>>();
      pages_.insert(pages_.begin() + static_cast<ptrdiff_t>(at),
                    std::move(page));
    }
    Page& page = pages_[at];
    const uint32_t bit = id % kPageSlots;
    T& slot = (*page.slots)[bit];
    if ((page.present >> bit & 1) != 0) return {&slot, false};
    page.present |= static_cast<uint8_t>(1u << bit);
    slot = std::move(value);
    ++size_;
    return {&slot, true};
  }

  // Removes `id`; frees its page when that was the page's last value.
  bool erase(uint32_t id) {
    const size_t at = page_at(base_of(id));
    if (at == pages_.size() || pages_[at].base != base_of(id)) return false;
    Page& page = pages_[at];
    const uint32_t bit = id % kPageSlots;
    if ((page.present >> bit & 1) == 0) return false;
    clear_slot(page, bit);
    if (page.present == 0) {
      pages_.erase(pages_.begin() + static_cast<ptrdiff_t>(at));
    }
    return true;
  }

  // Calls pred(id, value) on every value in id order and removes those it
  // returns true for, freeing pages left empty. Values kept do not move.
  template <typename Pred>
  void erase_if(Pred pred) {
    for (Page& page : pages_) {
      for (uint8_t left = page.present; left != 0;
           left &= static_cast<uint8_t>(left - 1)) {
        const auto bit = static_cast<uint32_t>(std::countr_zero(left));
        if (pred(page.base + bit, (*page.slots)[bit])) clear_slot(page, bit);
      }
    }
    std::erase_if(pages_, [](const Page& page) { return page.present == 0; });
  }

 private:
  static uint32_t base_of(uint32_t id) { return id - id % kPageSlots; }

  // The index of the page whose base is the first not below `base`.
  // Bases are distinct multiples of kPageSlots in increasing order, so
  // page i starts at least i pages past the first one: the page for
  // `base`, if any, is at its dense offset or before it.
  size_t page_at(uint32_t base) const {
    if (pages_.empty() || base <= pages_.front().base) return 0;
    if (base > pages_.back().base) return pages_.size();
    const size_t guess = (base - pages_.front().base) / kPageSlots;
    if (guess < pages_.size() && pages_[guess].base == base) return guess;
    const auto last = pages_.begin() + static_cast<ptrdiff_t>(
                                           std::min(guess, pages_.size()));
    return static_cast<size_t>(
        std::lower_bound(pages_.begin(), last, base,
                         [](const Page& page, uint32_t b) {
                           return page.base < b;
                         }) -
        pages_.begin());
  }

  void clear_slot(Page& page, uint32_t bit) {
    page.present &= static_cast<uint8_t>(~(1u << bit));
    (*page.slots)[bit] = T{};
    --size_;
  }

  std::vector<Page> pages_;  // sorted by base; each holds at least one value
  size_t size_ = 0;
};

}  // namespace tamp::util
