#include "robust/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/textio.hpp"
#include "moga/serialize.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define ANADEX_HAVE_FSYNC 1
#else
#define ANADEX_HAVE_FSYNC 0
#endif

namespace anadex::robust {

namespace {

using textio::exact;
using textio::LineReader;
using textio::parse_double;
using textio::parse_u64;

constexpr const char* kHeader = "anadex-checkpoint v2";

std::string one_line(const std::string& text) {
  std::string clean = text;
  for (char& c : clean) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return clean;
}

/// Reads a raw line that must start with `keyword`; returns the remainder
/// (possibly empty, possibly containing spaces).
std::string keyword_rest(LineReader& reader, const char* keyword) {
  const std::string raw = reader.line(keyword);
  const std::string kw(keyword);
  ANADEX_REQUIRE(raw.rfind(kw, 0) == 0 &&
                     (raw.size() == kw.size() || raw[kw.size()] == ' '),
                 std::string("checkpoint: expected '") + keyword + "' record");
  if (raw.size() <= kw.size() + 1) return "";
  return raw.substr(kw.size() + 1);
}

void write_rng(std::ostream& os, const RngState& rng) {
  os << "rng " << rng.words[0] << ' ' << rng.words[1] << ' ' << rng.words[2] << ' '
     << rng.words[3] << ' ' << exact(rng.spare_normal) << ' ' << (rng.has_spare_normal ? 1 : 0)
     << '\n';
}

RngState read_rng(LineReader& reader) {
  const auto toks = reader.record("rng", 6);
  RngState rng;
  for (std::size_t i = 0; i < 4; ++i) rng.words[i] = parse_u64(toks[1 + i]);
  rng.spare_normal = parse_double(toks[5]);
  rng.has_spare_normal = parse_u64(toks[6]) != 0;
  return rng;
}

void write_evolver(std::ostream& os, const sacga::EvolverSnapshot& ev) {
  os << "evolver " << ev.partitions << ' ' << ev.evaluations << ' ' << ev.generation << '\n';
  write_rng(os, ev.rng);
  os << "discarded " << ev.discarded.size();
  for (bool d : ev.discarded) os << ' ' << (d ? 1 : 0);
  os << '\n';
  moga::save_population_exact(os, ev.population);
}

sacga::EvolverSnapshot read_evolver(LineReader& reader, std::istream& is) {
  const auto toks = reader.record("evolver", 3);
  sacga::EvolverSnapshot ev;
  ev.partitions = parse_u64(toks[1]);
  ev.evaluations = parse_u64(toks[2]);
  ev.generation = parse_u64(toks[3]);
  ev.rng = read_rng(reader);
  const auto disc = reader.record("discarded", 1);
  const std::size_t n = parse_u64(disc[1]);
  ANADEX_REQUIRE(disc.size() >= 2 + n, "checkpoint: truncated discarded record");
  ev.discarded.resize(n);
  for (std::size_t i = 0; i < n; ++i) ev.discarded[i] = parse_u64(disc[2 + i]) != 0;
  ev.population = moga::load_population_exact(is);
  return ev;
}

std::string checksum_hex(std::uint64_t hash) {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << hash;
  return os.str();
}

/// Serializes everything through the "end" line (the checksummed bytes).
void save_checkpoint_body(std::ostream& os, const Checkpoint& cp) {
  const std::string kind = cp.state_kind();  // validates exactly-one-state

  os << kHeader << '\n';
  os << "meta " << one_line(cp.meta.algo) << ' ' << cp.meta.seed << ' ' << cp.meta.population
     << ' ' << cp.meta.generations << '\n';
  os << "config " << one_line(cp.meta.config) << '\n';

  const FaultReport& f = cp.faults;
  os << "faults " << f.exceptions << ' ' << f.non_finite << ' ' << f.wrong_arity << ' '
     << f.timeouts << ' ' << f.retries << ' ' << f.recovered << ' ' << f.penalized << '\n';
  os << "fault-genes " << f.failure_genes.size();
  for (double g : f.failure_genes) os << ' ' << exact(g);
  os << '\n';
  os << "fault-message " << one_line(f.failure_message) << '\n';

  os << "history " << cp.history.size() << '\n';
  for (const HistorySample& s : cp.history) {
    os << "sample " << s.generation << ' ' << exact(s.front_area) << ' ' << s.front_size
       << '\n';
  }

  os << "state " << kind << '\n';
  if (cp.nsga2) {
    const auto& st = *cp.nsga2;
    os << "nsga2 " << st.next_generation << ' ' << st.evaluations << '\n';
    write_rng(os, st.rng);
    moga::save_population_exact(os, st.parents);
  } else if (cp.spea2) {
    const auto& st = *cp.spea2;
    os << "spea2 " << st.next_generation << ' ' << st.evaluations << '\n';
    write_rng(os, st.rng);
    moga::save_population_exact(os, st.population);
    moga::save_population_exact(os, st.archive);
  } else if (cp.local_only) {
    write_evolver(os, cp.local_only->evolver);
  } else if (cp.sacga) {
    const auto& st = *cp.sacga;
    os << "sacga " << (st.phase1_done ? 1 : 0) << ' ' << st.phase1_generations << '\n';
    write_evolver(os, st.evolver);
  } else if (cp.mesacga) {
    const auto& st = *cp.mesacga;
    os << "mesacga " << (st.phase1_done ? 1 : 0) << ' ' << st.phase1_generations << ' '
       << st.phases.size() << '\n';
    write_evolver(os, st.evolver);
    for (const sacga::PhaseSnapshot& phase : st.phases) {
      os << "phase " << phase.phase << ' ' << phase.partitions << ' ' << phase.generation
         << '\n';
      moga::save_population_exact(os, phase.front);
    }
  } else {
    const auto& st = *cp.island;
    ANADEX_REQUIRE(st.islands.size() == st.rngs.size(),
                   "island state: islands/rngs size mismatch");
    os << "island " << st.islands.size() << ' ' << st.next_generation << ' ' << st.evaluations
       << ' ' << st.migrations << '\n';
    for (std::size_t i = 0; i < st.islands.size(); ++i) {
      write_rng(os, st.rngs[i]);
      moga::save_population_exact(os, st.islands[i]);
    }
  }
  os << "end\n";
}

/// Parses the checksummed body (header through "end"). Assumes the caller
/// already verified the trailer; still re-checks structure defensively.
Checkpoint parse_checkpoint_body(std::istream& is) {
  LineReader reader(is);
  ANADEX_REQUIRE(reader.line("checkpoint header") == kHeader,
                 std::string("checkpoint: unsupported header (expected '") + kHeader + "')");

  Checkpoint cp;
  const auto meta = reader.record("meta", 4);
  cp.meta.algo = meta[1];
  cp.meta.seed = parse_u64(meta[2]);
  cp.meta.population = parse_u64(meta[3]);
  cp.meta.generations = parse_u64(meta[4]);
  cp.meta.config = keyword_rest(reader, "config");

  const auto faults = reader.record("faults", 7);
  cp.faults.exceptions = parse_u64(faults[1]);
  cp.faults.non_finite = parse_u64(faults[2]);
  cp.faults.wrong_arity = parse_u64(faults[3]);
  cp.faults.timeouts = parse_u64(faults[4]);
  cp.faults.retries = parse_u64(faults[5]);
  cp.faults.recovered = parse_u64(faults[6]);
  cp.faults.penalized = parse_u64(faults[7]);
  const auto genes = reader.record("fault-genes", 1);
  const std::size_t n_genes = parse_u64(genes[1]);
  ANADEX_REQUIRE(genes.size() >= 2 + n_genes, "checkpoint: truncated fault-genes record");
  cp.faults.failure_genes.resize(n_genes);
  for (std::size_t i = 0; i < n_genes; ++i) {
    cp.faults.failure_genes[i] = parse_double(genes[2 + i]);
  }
  cp.faults.failure_message = keyword_rest(reader, "fault-message");

  const auto history = reader.record("history", 1);
  const std::size_t n_samples = parse_u64(history[1]);
  cp.history.reserve(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) {
    const auto sample = reader.record("sample", 3);
    HistorySample s;
    s.generation = parse_u64(sample[1]);
    s.front_area = parse_double(sample[2]);
    s.front_size = parse_u64(sample[3]);
    cp.history.push_back(s);
  }

  const auto state = reader.record("state", 1);
  const std::string& kind = state[1];
  if (kind == "nsga2") {
    moga::Nsga2State st;
    const auto toks = reader.record("nsga2", 2);
    st.next_generation = parse_u64(toks[1]);
    st.evaluations = parse_u64(toks[2]);
    st.rng = read_rng(reader);
    st.parents = moga::load_population_exact(is);
    cp.nsga2 = std::move(st);
  } else if (kind == "spea2") {
    moga::Spea2State st;
    const auto toks = reader.record("spea2", 2);
    st.next_generation = parse_u64(toks[1]);
    st.evaluations = parse_u64(toks[2]);
    st.rng = read_rng(reader);
    st.population = moga::load_population_exact(is);
    st.archive = moga::load_population_exact(is);
    cp.spea2 = std::move(st);
  } else if (kind == "local-only") {
    sacga::LocalOnlyState st;
    st.evolver = read_evolver(reader, is);
    cp.local_only = std::move(st);
  } else if (kind == "sacga") {
    sacga::SacgaState st;
    const auto toks = reader.record("sacga", 2);
    st.phase1_done = parse_u64(toks[1]) != 0;
    st.phase1_generations = parse_u64(toks[2]);
    st.evolver = read_evolver(reader, is);
    cp.sacga = std::move(st);
  } else if (kind == "mesacga") {
    sacga::MesacgaState st;
    const auto toks = reader.record("mesacga", 3);
    st.phase1_done = parse_u64(toks[1]) != 0;
    st.phase1_generations = parse_u64(toks[2]);
    const std::size_t n_phases = parse_u64(toks[3]);
    st.evolver = read_evolver(reader, is);
    st.phases.reserve(n_phases);
    for (std::size_t i = 0; i < n_phases; ++i) {
      const auto ph = reader.record("phase", 3);
      sacga::PhaseSnapshot phase;
      phase.phase = parse_u64(ph[1]);
      phase.partitions = parse_u64(ph[2]);
      phase.generation = parse_u64(ph[3]);
      phase.front = moga::load_population_exact(is);
      st.phases.push_back(std::move(phase));
    }
    cp.mesacga = std::move(st);
  } else if (kind == "island") {
    sacga::IslandState st;
    const auto toks = reader.record("island", 4);
    const std::size_t n_islands = parse_u64(toks[1]);
    st.next_generation = parse_u64(toks[2]);
    st.evaluations = parse_u64(toks[3]);
    st.migrations = parse_u64(toks[4]);
    st.rngs.reserve(n_islands);
    st.islands.reserve(n_islands);
    for (std::size_t i = 0; i < n_islands; ++i) {
      st.rngs.push_back(read_rng(reader));
      st.islands.push_back(moga::load_population_exact(is));
    }
    cp.island = std::move(st);
  } else {
    ANADEX_REQUIRE(false, "checkpoint: unknown state kind '" + kind + "'");
  }

  ANADEX_REQUIRE(reader.line("checkpoint trailer") == "end",
                 "checkpoint: missing 'end' trailer");
  return cp;
}

std::string slot_path(const std::string& base, std::size_t slot) {
  return slot == 0 ? base : base + "." + std::to_string(slot);
}

/// fsync `path` so its bytes survive a power loss once the rename commits.
void sync_file(const std::string& path) {
#if ANADEX_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  ANADEX_REQUIRE(fd >= 0, "cannot reopen '" + path + "' for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  ANADEX_REQUIRE(rc == 0, "fsync failed for '" + path + "'");
#else
  (void)path;
#endif
}

/// Best-effort fsync of the directory holding `path`, making the rename
/// itself durable. Failure is tolerated: some filesystems refuse directory
/// fds, and the data-file fsync above already bounds the damage.
void sync_parent_dir(const std::string& path) {
#if ANADEX_HAVE_FSYNC
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

std::string Checkpoint::state_kind() const {
  const int present = (nsga2 ? 1 : 0) + (spea2 ? 1 : 0) + (local_only ? 1 : 0) +
                      (sacga ? 1 : 0) + (mesacga ? 1 : 0) + (island ? 1 : 0);
  ANADEX_REQUIRE(present == 1, "checkpoint must hold exactly one algorithm state");
  if (nsga2) return "nsga2";
  if (spea2) return "spea2";
  if (local_only) return "local-only";
  if (sacga) return "sacga";
  if (mesacga) return "mesacga";
  return "island";
}

void save_checkpoint(std::ostream& os, const Checkpoint& cp) {
  std::ostringstream body;
  save_checkpoint_body(body, cp);
  const std::string bytes = body.str();
  os << bytes << "checksum " << checksum_hex(hash_bytes(bytes, 0)) << '\n';
}

Checkpoint load_checkpoint(std::istream& is, const std::string& source) {
  std::ostringstream slurp;
  slurp << is.rdbuf();
  const std::string content = slurp.str();
  const auto fail = [&](const std::string& what, std::size_t offset) {
    throw PreconditionError("checkpoint '" + source + "': " + what + " (at byte " +
                            std::to_string(offset) + " of " + std::to_string(content.size()) +
                            ")");
  };

  // Version gate first, so a v1 (or foreign) file gets a precise
  // expected-vs-found diagnostic instead of a checksum complaint.
  const std::size_t header_end = content.find('\n');
  const std::string header =
      content.substr(0, header_end == std::string::npos ? content.size() : header_end);
  if (header != kHeader) {
    fail(std::string("version mismatch: expected '") + kHeader + "', found '" +
             one_line(header) + "'",
         0);
  }

  // The checksummed body runs through the final "end" line; everything
  // after it must be the checksum trailer.
  const std::size_t end_mark = content.rfind("\nend\n");
  if (end_mark == std::string::npos) {
    fail("truncated: expected an 'end' record, found none", content.size());
  }
  const std::size_t body_size = end_mark + 1 + 4;  // include "end\n"
  std::string trailer = content.substr(body_size);
  while (!trailer.empty() && (trailer.back() == '\n' || trailer.back() == '\r')) {
    trailer.pop_back();
  }
  if (trailer.rfind("checksum ", 0) != 0) {
    fail("truncated: expected 'checksum <16 hex digits>' trailer, found '" +
             one_line(trailer) + "'",
         body_size);
  }
  const std::string found = trailer.substr(9);
  const std::string expected = checksum_hex(hash_bytes({content.data(), body_size}, 0));
  if (found != expected) {
    fail("checksum mismatch: expected " + expected + ", found " + found, body_size);
  }

  std::istringstream body(content.substr(0, body_size));
  try {
    return parse_checkpoint_body(body);
  } catch (const std::exception& e) {
    const auto pos = body.tellg();
    const std::size_t offset = pos < 0 ? body_size : static_cast<std::size_t>(pos);
    fail(std::string("parse error: ") + e.what(), offset);
  }
  ANADEX_ASSERT(false, "unreachable: fail() always throws");
  return {};
}

void write_checkpoint_file(const std::string& path, const Checkpoint& checkpoint,
                           const CheckpointWriteOptions& options) {
  ANADEX_REQUIRE(!path.empty(), "checkpoint path must be non-empty");
  ANADEX_REQUIRE(options.keep >= 1, "checkpoint rotation must keep at least one slot");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    ANADEX_REQUIRE(os.good(), "cannot open checkpoint temp file '" + tmp + "'");
    save_checkpoint(os, checkpoint);
    os.flush();
    ANADEX_REQUIRE(os.good(), "failed writing checkpoint temp file '" + tmp + "'");
  }
  if (options.fsync) sync_file(tmp);
  // Crash seam: a hook throwing here models dying after the temp write but
  // before the rename — the previously-completed chain must stay intact
  // (the stray .tmp is ignored by recover_checkpoint and overwritten by the
  // next write).
  if (options.hook) options.hook(CheckpointWritePhase::AfterTempWrite, tmp);

  if (options.keep > 1) {
    // Shift the chain up one slot, oldest first, dropping the last. Renames
    // of missing slots fail silently — after a crash the chain may have
    // holes, and rotation must still make room for the new base.
    std::remove(slot_path(path, options.keep - 1).c_str());
    for (std::size_t k = options.keep - 1; k >= 2; --k) {
      (void)std::rename(slot_path(path, k - 1).c_str(), slot_path(path, k).c_str());
    }
    (void)std::rename(path.c_str(), slot_path(path, 1).c_str());
  }
  ANADEX_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "failed to move checkpoint into place at '" + path + "'");
  if (options.fsync) sync_parent_dir(path);
  if (options.hook) options.hook(CheckpointWritePhase::AfterRename, path);
}

Checkpoint read_checkpoint_file(const std::string& path) {
  std::ifstream is(path);
  ANADEX_REQUIRE(is.good(), "cannot open checkpoint file '" + path + "'");
  return load_checkpoint(is, path);
}

std::optional<RecoveredCheckpoint> recover_checkpoint(const std::string& base_path,
                                                      std::size_t max_slots) {
  ANADEX_REQUIRE(!base_path.empty(), "checkpoint path must be non-empty");
  ANADEX_REQUIRE(max_slots >= 1, "recovery must scan at least one slot");
  RecoveredCheckpoint out;
  for (std::size_t slot = 0; slot < max_slots; ++slot) {
    const std::string path = slot_path(base_path, slot);
    std::ifstream is(path);
    if (!is.good()) continue;  // missing slots (mid-rotation crashes) are fine
    try {
      out.checkpoint = load_checkpoint(is, path);
      out.path = path;
      return out;
    } catch (const std::exception& e) {
      out.rejected.push_back(std::string(e.what()));
    }
  }
  return std::nullopt;
}

}  // namespace anadex::robust
