#include "obs/flight.h"

#include <algorithm>
#include <cctype>

#include "obs/clock.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace mmw::obs {

/// Per-thread fixed ring. The mutex is only contended when a snapshot or
/// clear races ongoing recording; recorder-vs-recorder is impossible.
/// `ordinal` and `sequence` change only when the ring is recycled, under
/// both the recorder's mutex and the ring's.
struct FlightRecorder::Ring {
  mutable std::mutex mutex;
  std::uint64_t ordinal = 0;   ///< ordinal of the thread that registered it
  std::uint64_t sequence = 0;  ///< registration order (merge tiebreak)
  std::vector<FlightEvent> slots;
  index_t head = 0;   ///< next slot to overwrite
  index_t count = 0;  ///< live entries (≤ slots.size())
  /// Set when the owning thread exits; a retired ring keeps its spans
  /// (dumpable) until a newly registering thread recycles it.
  std::atomic<bool> retired{false};
};

namespace {

struct TlsEntry {
  const FlightRecorder* recorder;  ///< lookup key only, never dereferenced
  // shared_ptr<void>: Ring is private to FlightRecorder; ownership is what
  // matters here, the type is recovered at the lookup site.
  std::shared_ptr<void> ring;
  std::atomic<bool>* retired;  ///< the ring's own flag
};

/// The calling thread's rings. On thread exit each is marked retired
/// through its own flag: the recorder may already be gone, the ring (kept
/// alive by the entry) is not.
struct TlsRings {
  std::vector<TlsEntry> entries;
  ~TlsRings() {
    for (const TlsEntry& e : entries)
      e.retired->store(true, std::memory_order_release);
  }
};
TlsRings& tls_rings() {
  thread_local TlsRings tls;
  return tls;
}

std::string sanitize_reason(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (char c : reason)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  if (out.empty()) out = "unspecified";
  return out;
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = new FlightRecorder();  // outlives TLS
  return *instance;
}

FlightRecorder::FlightRecorder(index_t capacity)
    : capacity_(std::max<index_t>(capacity, 1)) {}

FlightRecorder::~FlightRecorder() {
  auto& entries = tls_rings().entries;
  std::erase_if(entries, [this](const auto& e) { return e.recorder == this; });
}

FlightRecorder::Ring& FlightRecorder::local_ring() {
  auto& entries = tls_rings().entries;
  for (const TlsEntry& e : entries)
    if (e.recorder == this) return *static_cast<Ring*>(e.ring.get());

  // Recycle a retired ring if there is one, so memory stays bounded by the
  // threads alive at once however many have come and gone.
  std::shared_ptr<Ring> ring;
  {
    std::lock_guard lock(mutex_);
    for (const auto& r : rings_)
      if (r->retired.load(std::memory_order_acquire)) {
        ring = r;
        break;
      }
    if (!ring) {
      ring = std::make_shared<Ring>();
      ring->slots.resize(capacity_);
      rings_.push_back(ring);
    }
    std::lock_guard ring_lock(ring->mutex);
    ring->retired.store(false, std::memory_order_relaxed);
    ring->ordinal = thread_ordinal();
    ring->sequence = next_sequence_++;
    ring->head = 0;
    ring->count = 0;
  }
  entries.push_back({this, ring, &ring->retired});
  return *ring;
}

void FlightRecorder::record(const char* name, const char* category,
                            std::uint64_t ts_us, std::uint64_t dur_us) {
  if (!armed()) return;
  Ring& ring = local_ring();
  std::lock_guard lock(ring.mutex);
  ring.slots[ring.head] = FlightEvent{name, category, ts_us, dur_us};
  ring.head = (ring.head + 1) % ring.slots.size();
  if (ring.count < ring.slots.size()) ++ring.count;
}

std::string FlightRecorder::chrome_json(std::string_view reason) const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    // Sorted under the lock: recycling rewrites ordinal and sequence.
    std::lock_guard lock(mutex_);
    rings = rings_;
    std::sort(rings.begin(), rings.end(), [](const auto& a, const auto& b) {
      if (a->ordinal != b->ordinal) return a->ordinal < b->ordinal;
      return a->sequence < b->sequence;
    });
  }

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const auto& ring : rings) {
    std::lock_guard lock(ring->mutex);
    const std::uint64_t tid = ring->ordinal;
    // Oldest-first: the ring's logical start is `head` when full, 0 before.
    const index_t n = ring->count;
    const index_t start =
        n == ring->slots.size() ? ring->head : index_t{0};
    for (index_t i = 0; i < n; ++i) {
      const FlightEvent& e = ring->slots[(start + i) % ring->slots.size()];
      w.begin_object();
      w.key("name");
      w.string(e.name != nullptr ? e.name : "?");
      w.key("cat");
      w.string(e.category != nullptr ? e.category : "mmw");
      w.key("ph");
      w.string("X");
      w.key("pid");
      w.number(std::uint64_t{1});
      w.key("tid");
      w.number(tid);
      w.key("ts");
      w.number(e.ts_us);
      w.key("dur");
      w.number(e.dur_us);
      w.end_object();
    }
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.string("ms");
  w.key("otherData");
  w.begin_object();
  w.key("source");
  w.string("mmw.flight_recorder/1");
  w.key("reason");
  w.string(reason);
  w.key("snapshot_us");
  w.number(now_us());
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

std::string FlightRecorder::dump(std::string_view reason) {
  if (!armed()) return "";
  const std::uint64_t seq =
      dumps_taken_.fetch_add(1, std::memory_order_relaxed);
  if (seq >= kMaxDumps) {
    // Keep the counter saturated at the cap instead of growing forever.
    dumps_taken_.store(kMaxDumps, std::memory_order_relaxed);
    return "";
  }
  std::string dir;
  {
    std::lock_guard lock(mutex_);
    dir = dump_dir_;
  }
  const std::string path = dir + "/flight_" + std::to_string(seq) + "_" +
                           sanitize_reason(reason) + ".json";
  if (!write_text_file(path, chrome_json(reason))) return "";
  Registry::global().counter("obs.flight.dumps").add();
  return path;
}

void FlightRecorder::set_dump_directory(std::string dir) {
  std::lock_guard lock(mutex_);
  dump_dir_ = std::move(dir);
}

std::uint64_t FlightRecorder::ring_count() const {
  std::lock_guard lock(mutex_);
  return rings_.size();
}

std::uint64_t FlightRecorder::event_count() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lock(mutex_);
    rings = rings_;
  }
  std::uint64_t n = 0;
  for (const auto& ring : rings) {
    std::lock_guard lock(ring->mutex);
    n += ring->count;
  }
  return n;
}

void FlightRecorder::clear() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lock(mutex_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    std::lock_guard lock(ring->mutex);
    ring->head = 0;
    ring->count = 0;
  }
}

}  // namespace mmw::obs
