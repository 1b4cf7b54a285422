// Arena: slab-backed ownership for per-station simulation state.
//
// The ROADMAP north star is "heavy traffic from millions of users", but a
// million individually heap-allocated stations is a million malloc round
// trips at build time and a pointer-chasing teardown that dwarfs the
// simulation itself. An Arena owns every object created through it in a
// few large contiguous slabs: creation is a bump-pointer increment,
// locality follows creation order (hosts built LAN by LAN sit LAN by LAN
// in memory), and teardown is the reverse-order destructor walk plus a
// handful of frees -- no per-object bookkeeping survives the build.
//
// Pointer stability is guaranteed: slabs are never moved or reallocated,
// so a T* returned by create<T>() stays valid until the Arena is reset or
// destroyed. That is the contract the simulator needs -- NICs hand their
// addresses to LAN attach lists and scheduled closures, HostStacks to
// workloads -- and the reason the Arena is movable but never copyable
// (moving transfers the slabs; the objects do not move).
//
// Destructors run in reverse creation order, mirroring what a vector of
// unique_ptrs destroyed back to front would have done; trivially
// destructible types are not tracked at all (their rows cost bytes, not
// finalizer entries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ab::netsim {

class Arena {
 public:
  /// Default slab granularity. Large enough that a thousand-station LAN's
  /// hosts land in a handful of slabs; small enough that a toy test arena
  /// doesn't reserve megabytes it never touches.
  static constexpr std::size_t kDefaultSlabBytes = std::size_t{1} << 20;

  explicit Arena(std::size_t slab_bytes = kDefaultSlabBytes);
  ~Arena();

  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw aligned storage from the current slab (a fresh slab when it
  /// doesn't fit; an oversized request gets a dedicated slab). The pointer
  /// is stable for the Arena's lifetime.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);

  /// Constructs a T in arena storage. The Arena owns the object: its
  /// destructor (when non-trivial) runs at reset()/destruction, in reverse
  /// creation order.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      finalizers_.push_back(
          Finalizer{obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    objects_ += 1;
    return obj;
  }

  /// Footprint counters for the memory-budget benches.
  struct Stats {
    std::size_t slabs = 0;
    std::size_t bytes_reserved = 0;  ///< slab capacity held
    std::size_t bytes_used = 0;      ///< bump-pointer high-water, padding included
    std::size_t objects = 0;         ///< create<T>() calls
  };
  [[nodiscard]] Stats stats() const;

  /// Destroys every owned object (reverse creation order) and releases
  /// every slab. The Arena is reusable afterwards.
  void reset();

 private:
  struct Slab {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  struct Finalizer {
    void* object;
    void (*destroy)(void*);
  };

  std::size_t slab_bytes_;
  std::vector<Slab> slabs_;
  std::vector<Finalizer> finalizers_;
  std::size_t objects_ = 0;
};

}  // namespace ab::netsim
