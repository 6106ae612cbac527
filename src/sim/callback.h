// A move-only `void()` callable for scheduled events.
//
// Closures up to kInlineSize bytes with a nothrow move live inside the
// Callback itself, so scheduling them allocates nothing; anything larger
// (or throwing on move, or over-aligned) is boxed on the heap. Being
// move-only, it holds move-only captures such as a unique_ptr and never
// copies a capture.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tamp::sim {

class Callback {
 public:
  // Fits `[this, net::Packet]`, the per-delivery closure of the transport.
  static constexpr size_t kInlineSize = 64;

  template <class F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  Callback() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                     std::is_invocable_r_v<void, D&>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): takes lambdas
    build<D>(std::forward<F>(fn));
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Must not be called on an empty Callback.
  void operator()() { ops_->invoke(storage_); }

  // Replaces the held callable with one built from `fn` right here, so the
  // closure is constructed once and never relocated.
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                     std::is_invocable_r_v<void, D&>>>
  void emplace(F&& fn) {
    reset();
    build<D>(std::forward<F>(fn));
  }

  // Destroys the held callable, if any; its captures' destructors run here.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs *dst from *src, then destroys *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  // The object of type T that placement new created at `p`.
  template <class T>
  static T& at(void* p) {
    return *std::launder(static_cast<T*>(p));
  }

  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* self) { at<D>(self)(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(at<D>(src)));
        at<D>(src).~D();
      },
      [](void* self) noexcept { at<D>(self).~D(); },
  };

  template <class D>
  static constexpr Ops kHeapOps = {
      [](void* self) { (*at<D*>(self))(); },
      [](void* dst, void* src) noexcept { ::new (dst) D*(at<D*>(src)); },
      [](void* self) noexcept { delete at<D*>(self); },
  };

  // Constructs the closure in storage_, or boxes it; storage_ is empty.
  template <class D, class F>
  void build(F&& fn) {
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  void take(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }

  alignas(void*) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace tamp::sim
