#include "query/system_catalog.h"

#include <cctype>

namespace prometheus::pool {

bool SystemCatalog::IsCatalogName(const std::string& name) {
  return name.size() > 4 && name.compare(0, 4, "sys.") == 0;
}

void SystemCatalog::Register(std::string name, std::string help,
                             std::vector<std::string> attributes,
                             Provider provider) {
  Entry e;
  e.info.name = std::move(name);
  e.info.help = std::move(help);
  e.info.attributes = std::move(attributes);
  e.provider = std::move(provider);
  infos_.push_back(e.info);
  entries_.push_back(std::move(e));
}

bool SystemCatalog::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.info.name == name) return true;
  }
  return false;
}

std::vector<Value> SystemCatalog::Materialize(const std::string& name,
                                              const DbSnapshot& view) const {
  for (const Entry& e : entries_) {
    if (e.info.name == name) return e.provider(view);
  }
  return {};
}

bool QueryTouchesCatalog(const std::string& text) {
  bool in_string = false;
  char quote = '\0';
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == quote) {
        in_string = false;
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      in_string = true;
      quote = c;
      continue;
    }
    if ((c == 's' || c == 'S') && i + 3 < n) {
      // Word-boundary check on the left so `census.metrics` doesn't match.
      if (i > 0) {
        char prev = text[i - 1];
        if (std::isalnum(static_cast<unsigned char>(prev)) || prev == '_' ||
            prev == '.') {
          continue;
        }
      }
      char c1 = text[i + 1];
      char c2 = text[i + 2];
      if ((c1 == 'y' || c1 == 'Y') && (c2 == 's' || c2 == 'S') &&
          text[i + 3] == '.') {
        return true;
      }
    }
  }
  return false;
}

ExtentHeat& ExtentHeat::Instance() {
  static ExtentHeat* heat = new ExtentHeat();  // leaked: process lifetime
  return *heat;
}

ExtentHeat::Slot* ExtentHeat::FindOrInsert(const std::string& class_name) {
  std::size_t h = std::hash<std::string>{}(class_name);
  for (std::size_t probe = 0; probe < kSlots; ++probe) {
    std::size_t idx = (h + probe) & (kSlots - 1);
    Slot* slot = slots_[idx].load(std::memory_order_acquire);
    if (slot == nullptr) {
      auto* fresh = new Slot();
      fresh->name = class_name;
      if (slots_[idx].compare_exchange_strong(slot, fresh,
                                              std::memory_order_acq_rel)) {
        return fresh;
      }
      delete fresh;  // lost the race; `slot` now holds the winner
    }
    if (slot->name == class_name) return slot;
  }
  return nullptr;  // table full: drop the sample rather than block
}

void ExtentHeat::RecordScan(const std::string& class_name,
                            std::uint64_t rows) {
  if (Slot* slot = FindOrInsert(class_name)) {
    slot->scans.fetch_add(1, std::memory_order_relaxed);
    slot->rows_scanned.fetch_add(rows, std::memory_order_relaxed);
  }
}

void ExtentHeat::RecordIndexHit(const std::string& class_name,
                               std::uint64_t rows) {
  if (Slot* slot = FindOrInsert(class_name)) {
    slot->index_hits.fetch_add(1, std::memory_order_relaxed);
    slot->rows_scanned.fetch_add(rows, std::memory_order_relaxed);
  }
}

std::vector<ExtentHeat::Counters> ExtentHeat::Snapshot() const {
  std::vector<Counters> out;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const Slot* slot = slots_[i].load(std::memory_order_acquire);
    if (slot == nullptr) continue;
    Counters c;
    c.class_name = slot->name;
    c.scans = slot->scans.load(std::memory_order_relaxed);
    c.index_hits = slot->index_hits.load(std::memory_order_relaxed);
    c.rows_scanned = slot->rows_scanned.load(std::memory_order_relaxed);
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace prometheus::pool
