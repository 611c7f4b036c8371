#include "vgpu/fault.hpp"

#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace acsr::vgpu {

namespace {

// splitmix64: a deterministic, well-mixed hash for flip-target and flip-bit
// choice. Same generator family the fuzz harness seeds std::mt19937_64 from.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct KindSite {
  FaultKind kind;
  FaultSite site;
};

KindSite parse_kind(const std::string& kind, const std::string& site,
                    const std::string& clause) {
  struct Entry {
    const char* kind;
    const char* site;
    KindSite value;
  };
  static constexpr Entry kTable[] = {
      {"oom", "alloc", {FaultKind::kAllocOom, FaultSite::kAlloc}},
      {"transient", "launch",
       {FaultKind::kLaunchTransient, FaultSite::kLaunch}},
      {"ecc", "launch", {FaultKind::kEccFlip, FaultSite::kLaunch}},
      {"corrupt", "transfer",
       {FaultKind::kTransferCorrupt, FaultSite::kTransfer}},
      {"stall", "transfer",
       {FaultKind::kTransferStall, FaultSite::kTransfer}},
      {"lost", "launch", {FaultKind::kDeviceLost, FaultSite::kLaunch}},
      {"lost", "transfer", {FaultKind::kDeviceLost, FaultSite::kTransfer}},
      {"lost", "alloc", {FaultKind::kDeviceLost, FaultSite::kAlloc}},
      {"io_transient", "read", {FaultKind::kIoTransient, FaultSite::kRead}},
      {"io_timeout", "read", {FaultKind::kIoTimeout, FaultSite::kRead}},
      {"io_checksum", "read", {FaultKind::kIoChecksum, FaultSite::kRead}},
      {"io_degrade", "read", {FaultKind::kIoDegrade, FaultSite::kRead}},
  };
  for (const Entry& e : kTable)
    if (kind == e.kind && site == e.site) return e.value;
  ACSR_REQUIRE(false, "ACSR_FAULTS: unknown fault '" << kind << "@" << site
                                                     << "' in clause '"
                                                     << clause << "'");
}

long long parse_ll(const std::string& text, const std::string& clause,
                   const char* what) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  ACSR_REQUIRE(used == text.size() && !text.empty() && v > 0,
               "ACSR_FAULTS: bad " << what << " '" << text << "' in clause '"
                                   << clause << "' (want a positive integer)");
  return v;
}

double parse_f(const std::string& text, const std::string& clause,
               const char* what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  ACSR_REQUIRE(used == text.size() && !text.empty() && v > 0.0,
               "ACSR_FAULTS: bad " << what << " '" << text << "' in clause '"
                                   << clause << "' (want a positive number)");
  return v;
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kAllocOom: return "oom";
    case FaultKind::kLaunchTransient: return "transient";
    case FaultKind::kEccFlip: return "ecc";
    case FaultKind::kTransferCorrupt: return "corrupt";
    case FaultKind::kTransferStall: return "stall";
    case FaultKind::kDeviceLost: return "lost";
    case FaultKind::kIoTransient: return "io_transient";
    case FaultKind::kIoTimeout: return "io_timeout";
    case FaultKind::kIoChecksum: return "io_checksum";
    case FaultKind::kIoDegrade: return "io_degrade";
  }
  return "unknown";
}

FaultInjector::FaultInjector() {
  const char* plan = std::getenv("ACSR_FAULTS");
  if (plan != nullptr && plan[0] != '\0') configure(plan);
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector f;
  return f;
}

// clause := kind '@' site '#' N ['*' K] (':' key '=' value)*
void FaultInjector::configure(const std::string& plan) {
  std::vector<FaultClause> parsed;
  std::istringstream ps(plan);
  std::string clause;
  while (std::getline(ps, clause, ';')) {
    if (clause.empty()) continue;
    const std::size_t at_pos = clause.find('@');
    const std::size_t hash_pos = clause.find('#', at_pos + 1);
    ACSR_REQUIRE(at_pos != std::string::npos && hash_pos != std::string::npos,
                 "ACSR_FAULTS: clause '"
                     << clause << "' is not of the form kind@site#N[*K][:k=v]");
    const std::string kind = clause.substr(0, at_pos);
    const std::string site = clause.substr(at_pos + 1, hash_pos - at_pos - 1);

    FaultClause c;
    const KindSite ks = parse_kind(kind, site, clause);
    c.kind = ks.kind;
    c.site = ks.site;

    std::string rest = clause.substr(hash_pos + 1);
    std::size_t opt_pos = rest.find(':');
    std::string index = rest.substr(0, opt_pos);
    if (const std::size_t star = index.find('*'); star != std::string::npos) {
      c.count = parse_ll(index.substr(star + 1), clause, "repeat count");
      index = index.substr(0, star);
    }
    c.at = parse_ll(index, clause, "op index");

    while (opt_pos != std::string::npos) {
      const std::size_t next = rest.find(':', opt_pos + 1);
      const std::string opt =
          rest.substr(opt_pos + 1, next == std::string::npos
                                       ? std::string::npos
                                       : next - opt_pos - 1);
      const std::size_t eq = opt.find('=');
      ACSR_REQUIRE(eq != std::string::npos,
                   "ACSR_FAULTS: option '" << opt << "' in clause '" << clause
                                           << "' is not key=value");
      const std::string key = opt.substr(0, eq);
      const std::string val = opt.substr(eq + 1);
      if (key == "seed") {
        c.seed =
            static_cast<std::uint64_t>(parse_ll(val, clause, "seed"));
      } else if (key == "ms") {
        c.stall_s = static_cast<double>(parse_ll(val, clause, "ms")) * 1e-3;
      } else if (key == "x") {
        c.factor = parse_f(val, clause, "x");
      } else if (key == "silent") {
        c.silent = val != "0";
      } else {
        ACSR_REQUIRE(false, "ACSR_FAULTS: unknown option '"
                                << key << "' in clause '" << clause << "'");
      }
      opt_pos = next;
    }
    parsed.push_back(c);
  }

  plan_ = std::move(parsed);
  events_.clear();
  alloc_ops_ = launch_ops_ = transfer_ops_ = read_ops_ = 0;
  flips_bytes_ = false;
  for (const FaultClause& c : plan_)
    flips_bytes_ |= c.kind == FaultKind::kEccFlip ||
                    c.kind == FaultKind::kTransferCorrupt;
  enabled_ = !plan_.empty();
  detail::g_fault_injection_enabled = enabled_;
}

void FaultInjector::disable() {
  plan_.clear();
  events_.clear();
  alloc_ops_ = launch_ops_ = transfer_ops_ = read_ops_ = 0;
  flips_bytes_ = false;
  enabled_ = false;
  detail::g_fault_injection_enabled = false;
}

std::size_t FaultInjector::count(FaultKind k) const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_)
    if (e.kind == k) ++n;
  return n;
}

const FaultClause* FaultInjector::match(long long& op_counter, FaultSite site,
                                        FaultKind* matched) {
  const long long op = ++op_counter;
  for (const FaultClause& c : plan_) {
    if (c.site != site) continue;
    if (op >= c.at && op < c.at + c.count) {
      *matched = c.kind;
      return &c;
    }
  }
  return nullptr;
}

void FaultInjector::record(FaultKind kind, long long op_index,
                           const std::string& device, const char* site,
                           const std::string& where, const std::string& buffer,
                           const std::string& detail) {
  FaultEvent e;
  e.kind = kind;
  e.op_index = op_index;
  e.device = device;
  e.site = site;
  e.where = where;
  e.buffer = buffer;
  e.detail = detail;
  events_.push_back(std::move(e));
}

bool FaultInjector::on_alloc(const std::string& device,
                             const std::string& what, std::size_t bytes) {
  FaultKind kind{};
  const FaultClause* c = match(alloc_ops_, FaultSite::kAlloc, &kind);
  if (c == nullptr) return false;
  std::ostringstream os;
  os << "injected " << to_string(kind) << " on alloc #" << alloc_ops_ << " ('"
     << what << "', " << bytes << " B) on device '" << device << "'";
  record(kind, alloc_ops_, device, "alloc", what, "", os.str());
  // Device loss at the alloc site also surfaces as an allocation failure;
  // the device itself is marked lost by the caller when kind == lost, but
  // MemoryArena has no Device back-pointer, so alloc-site loss degrades to
  // a plain injected OOM. The launch/transfer sites model true loss.
  return true;
}

std::string FaultInjector::flip_bit(const FaultClause& c, long long op_index,
                                    const void* arena_tag,
                                    std::string* detail) {
  // Collect the live allocations belonging to this device (matching arena
  // tag). Registration order is address order (std::map), so the pick is
  // deterministic for a given build sequence.
  std::vector<const Target*> mine;
  for (const auto& [addr, t] : targets_)
    if (t.arena_tag == arena_tag && t.bytes > 0) mine.push_back(&t);
  if (mine.empty()) {
    *detail = "no live allocations to corrupt";
    return "";
  }
  const std::uint64_t h =
      mix64(c.seed ^ mix64(static_cast<std::uint64_t>(op_index)));
  const Target& t = *mine[h % mine.size()];
  const std::size_t byte = static_cast<std::size_t>(mix64(h) % t.bytes);
  const unsigned bit = static_cast<unsigned>(mix64(h ^ 0xecc) % 8);
  static_cast<unsigned char*>(t.data)[byte] ^= (1u << bit);
  std::ostringstream os;
  os << "bit " << bit << " of byte " << byte << " in '" << t.name << "' ("
     << t.bytes << " B)";
  *detail = os.str();
  return t.name;
}

LaunchFault FaultInjector::on_launch(const std::string& device,
                                     const std::string& kernel,
                                     const void* arena_tag) {
  LaunchFault out;
  FaultKind kind{};
  const FaultClause* c = match(launch_ops_, FaultSite::kLaunch, &kind);
  if (c == nullptr) return out;

  std::ostringstream os;
  os << "injected " << to_string(kind) << " on launch #" << launch_ops_
     << " of kernel '" << kernel << "' on device '" << device << "'";
  std::string buffer;
  switch (kind) {
    case FaultKind::kLaunchTransient:
      out.action = LaunchFault::Action::kTransient;
      break;
    case FaultKind::kDeviceLost:
      out.action = LaunchFault::Action::kLost;
      break;
    case FaultKind::kEccFlip: {
      std::string flip_detail;
      buffer = flip_bit(*c, launch_ops_, arena_tag, &flip_detail);
      os << ": " << flip_detail;
      // A flip with no live target, or a silent flip, raises no signal.
      out.action = (buffer.empty() || c->silent)
                       ? LaunchFault::Action::kNone
                       : LaunchFault::Action::kCorruption;
      break;
    }
    default:
      break;
  }
  out.buffer = buffer;
  out.detail = os.str();
  record(kind, launch_ops_, device, "launch", kernel, buffer, out.detail);
  return out;
}

TransferFault FaultInjector::on_transfer(const std::string& device,
                                         std::size_t bytes,
                                         const void* arena_tag) {
  TransferFault out;
  FaultKind kind{};
  const FaultClause* c = match(transfer_ops_, FaultSite::kTransfer, &kind);
  if (c == nullptr) return out;

  std::ostringstream os;
  os << "injected " << to_string(kind) << " on transfer #" << transfer_ops_
     << " (" << bytes << " B) on device '" << device << "'";
  std::string buffer;
  switch (kind) {
    case FaultKind::kTransferStall:
      out.stall_s = c->stall_s;
      os << ": +" << c->stall_s * 1e3 << " ms";
      break;
    case FaultKind::kDeviceLost:
      out.lost = true;
      break;
    case FaultKind::kTransferCorrupt: {
      std::string flip_detail;
      buffer = flip_bit(*c, transfer_ops_, arena_tag, &flip_detail);
      os << ": " << flip_detail;
      out.corrupt = !buffer.empty() && !c->silent;
      break;
    }
    default:
      break;
  }
  out.buffer = buffer;
  out.detail = os.str();
  std::ostringstream where;
  where << bytes << " B transfer";
  record(kind, transfer_ops_, device, "transfer", where.str(), buffer,
         out.detail);
  return out;
}

ReadFault FaultInjector::on_read(const std::string& drive,
                                 const std::string& what, std::size_t bytes) {
  ReadFault out;
  FaultKind kind{};
  const FaultClause* c = match(read_ops_, FaultSite::kRead, &kind);
  if (c == nullptr) return out;

  std::ostringstream os;
  os << "injected " << to_string(kind) << " on read #" << read_ops_ << " ('"
     << what << "', " << bytes << " B) from drive '" << drive << "'";
  switch (kind) {
    case FaultKind::kIoTransient:
      out.action = ReadFault::Action::kTransient;
      break;
    case FaultKind::kIoTimeout:
      out.action = ReadFault::Action::kTimeout;
      out.timeout_s = c->stall_s;
      os << ": hang " << c->stall_s * 1e3 << " ms";
      break;
    case FaultKind::kIoChecksum:
      // The flip itself happens in the delivered chunk bytes at the tier
      // (the injector has no view of them); hand back the seed material.
      out.corrupt = true;
      out.seed = c->seed ^ mix64(static_cast<std::uint64_t>(read_ops_));
      break;
    case FaultKind::kIoDegrade:
      out.slow = c->factor;
      os << ": service time x" << c->factor;
      break;
    default:
      break;
  }
  out.detail = os.str();
  record(kind, read_ops_, drive, "read", what, "", out.detail);
  return out;
}

void FaultInjector::register_buffer(std::uint64_t addr, void* data,
                                    std::size_t bytes, const std::string& name,
                                    const void* arena_tag) {
  Target t;
  t.data = data;
  t.bytes = bytes;
  t.name = name;
  t.arena_tag = arena_tag;
  targets_[addr] = std::move(t);
}

void FaultInjector::unregister_buffer(std::uint64_t addr) {
  targets_.erase(addr);
}

}  // namespace acsr::vgpu
