/**
 * @file
 * InlineFunction: the kernel's non-allocating callable.
 *
 * std::function heap-allocates any capture larger than its small
 * buffer (16 B on the mainstream ABIs), which put a malloc/free pair
 * on the hot path of every scheduled event that captured more than
 * two pointers. InlineFunction stores the callable inline in a
 * fixed-size buffer — always, with no heap fallback — and rejects
 * oversized captures at compile time, so the cost of an event is
 * visible in its type.
 *
 * The scheduling API (EventQueue, PeriodicTask, memctrl::Request)
 * accepts only InlineFunction instantiations; wrapping a
 * std::function is a compile error by design — see the static_asserts
 * in the converting constructor. Cold-path hooks (config hooks,
 * completion hooks installed once per run) stay std::function.
 */

#ifndef RRM_SIM_CALLBACK_HH
#define RRM_SIM_CALLBACK_HH

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace rrm
{

namespace detail
{

template <typename T>
struct IsStdFunction : std::false_type
{};

template <typename S>
struct IsStdFunction<std::function<S>> : std::true_type
{};

} // namespace detail

template <typename Signature, std::size_t Capacity>
class InlineFunction;

/**
 * A copyable, fixed-capacity, never-allocating std::function stand-in.
 *
 * @tparam Capacity Inline storage in bytes; captures larger than this
 *                  fail to compile (raise the callback type's capacity
 *                  at the API that owns it, or capture less).
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <
        typename F, typename D = std::decay_t<F>,
        typename = std::enable_if_t<
            !std::is_same_v<D, InlineFunction> &&
            std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&f)
        : invoke_(&invokeImpl<D>), manage_(&manageImpl<D>)
    {
        static_assert(
            !detail::IsStdFunction<D>::value,
            "std::function is banned on the scheduling hot path: it "
            "heap-allocates large captures. Pass the lambda directly "
            "so its capture is stored inline.");
        static_assert(sizeof(D) <= Capacity,
                      "capture too large for this callback's inline "
                      "storage; capture less or raise the Capacity of "
                      "the owning callback type");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "over-aligned captures are not supported");
        static_assert(std::is_copy_constructible_v<D>,
                      "callbacks must be copy-constructible");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "callbacks must be nothrow-movable (they move "
                      "through the event arena)");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
    }

    InlineFunction(const InlineFunction &o)
        : invoke_(o.invoke_), manage_(o.manage_)
    {
        if (manage_)
            manage_(Op::Copy, buf_, const_cast<unsigned char *>(o.buf_));
    }

    InlineFunction(InlineFunction &&o) noexcept
        : invoke_(o.invoke_), manage_(o.manage_)
    {
        if (manage_)
            manage_(Op::Move, buf_, o.buf_);
        o.invoke_ = nullptr;
        o.manage_ = nullptr;
    }

    InlineFunction &
    operator=(const InlineFunction &o)
    {
        if (this != &o) {
            reset();
            invoke_ = o.invoke_;
            manage_ = o.manage_;
            if (manage_) {
                manage_(Op::Copy, buf_,
                        const_cast<unsigned char *>(o.buf_));
            }
        }
        return *this;
    }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            invoke_ = o.invoke_;
            manage_ = o.manage_;
            if (manage_)
                manage_(Op::Move, buf_, o.buf_);
            o.invoke_ = nullptr;
            o.manage_ = nullptr;
        }
        return *this;
    }

    ~InlineFunction() { reset(); }

    R
    operator()(Args... args) const
    {
        return invoke_(const_cast<unsigned char *>(buf_),
                       std::forward<Args>(args)...);
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    /** Drop the stored callable (becomes empty). */
    void
    reset()
    {
        if (manage_)
            manage_(Op::Destroy, buf_, nullptr);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    static constexpr std::size_t capacity() { return Capacity; }

  private:
    enum class Op
    {
        Copy,    ///< copy-construct dst from src
        Move,    ///< move-construct dst from src, destroy src
        Destroy, ///< destroy dst
    };

    template <typename D>
    static R
    invokeImpl(void *obj, Args... args)
    {
        return (*static_cast<D *>(obj))(std::forward<Args>(args)...);
    }

    template <typename D>
    static void
    manageImpl(Op op, void *dst, void *src)
    {
        switch (op) {
          case Op::Copy:
            ::new (dst) D(*static_cast<const D *>(src));
            break;
          case Op::Move:
            ::new (dst) D(std::move(*static_cast<D *>(src)));
            static_cast<D *>(src)->~D();
            break;
          case Op::Destroy:
            static_cast<D *>(dst)->~D();
            break;
        }
    }

    using Invoke = R (*)(void *, Args...);
    using Manage = void (*)(Op, void *, void *);

    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[Capacity];
};

} // namespace rrm

#endif // RRM_SIM_CALLBACK_HH
