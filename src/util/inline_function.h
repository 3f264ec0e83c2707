// Move-only callable wrapper with a caller-chosen inline buffer.
//
// std::function heap-allocates any callable bigger than ~2 pointers, which
// makes every scheduled event and every in-flight packet a malloc/free pair
// in the simulator's inner loop. InlineFunction stores callables up to
// kInlineBytes in place (a 64-byte RtpPacket capture plus its routing
// context fits the event loop's 144-byte slots) and only falls back to the
// heap for oversized captures, so the steady-state event path runs
// allocation-free. Move-only: captures are moved, never copied, end to end.
//
// A heap fallback still works but degrades silently, so every one is
// counted process-wide: InlineFunctionHeapFallbacks() is the number of
// constructions that took the heap branch, across all instantiations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace converge {

namespace internal {
inline std::atomic<int64_t> inline_function_heap_fallbacks{0};
}  // namespace internal

// InlineFunction constructions (any signature, any buffer size) whose
// callable did not fit inline and was heap-allocated, since process start.
// Relaxed: a monotone counter read to compare before/after a run.
inline int64_t InlineFunctionHeapFallbacks() {
  return internal::inline_function_heap_fallbacks.load(
      std::memory_order_relaxed);
}

template <typename Signature, size_t kInlineBytes = 48>
class InlineFunction;

template <typename R, typename... Args, size_t kInlineBytes>
class InlineFunction<R(Args...), kInlineBytes> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "callable does not match signature");
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &InvokeInline<Fn>;
      manage_ = &ManageInline<Fn>;
    } else {
      internal::inline_function_heap_fallbacks.fetch_add(
          1, std::memory_order_relaxed);
      heap_ = new Fn(std::forward<F>(f));
      invoke_ = &InvokeHeap<Fn>;
      manage_ = &ManageHeap<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(this, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kMoveTo, kDestroy };

  using InvokeFn = R (*)(InlineFunction*, Args&&...);
  using ManageFn = void (*)(InlineFunction* self, InlineFunction* dst, Op op);

  template <typename Fn>
  static R InvokeInline(InlineFunction* self, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(self->storage_)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static R InvokeHeap(InlineFunction* self, Args&&... args) {
    return (*static_cast<Fn*>(self->heap_))(std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void ManageInline(InlineFunction* self, InlineFunction* dst, Op op) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(self->storage_));
    if (op == Op::kMoveTo) {
      ::new (static_cast<void*>(dst->storage_)) Fn(std::move(*fn));
    }
    fn->~Fn();
  }

  template <typename Fn>
  static void ManageHeap(InlineFunction* self, InlineFunction* dst, Op op) {
    if (op == Op::kMoveTo) {
      dst->heap_ = self->heap_;
      self->heap_ = nullptr;
    } else {
      delete static_cast<Fn*>(self->heap_);
    }
  }

  void MoveFrom(InlineFunction& other) noexcept {
    if (!other.invoke_) return;
    other.manage_(&other, this, Op::kMoveTo);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void Reset() {
    if (invoke_) {
      manage_(this, nullptr, Op::kDestroy);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  union {
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    void* heap_;
  };
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace converge
