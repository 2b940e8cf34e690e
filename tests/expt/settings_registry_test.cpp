// The digest-perturbation property test over the settings registry
// (src/expt/settings_registry.hpp) — the runtime half of the
// digest-coverage contract (`anadex-lint --digest-audit` is the static
// half):
//
//   * every DIGEST-registered field, when perturbed, must CHANGE
//     run_config_digest (a field the digest misses would let a resume
//     silently continue under different result-bearing configuration);
//   * every META field must change its CheckpointMeta slot while leaving
//     the digest alone (meta is compared field-by-field on resume);
//   * every KNOB and SEAM field must leave BOTH the digest and the meta
//     unchanged (checkpoint under one knob value, resume under another).
//
// The perturbation table below must cover every registry row: a field
// added to the registry without a perturbation here fails the test, so
// "add one registry line" forcibly includes deciding how to prove the
// field's class.
#include "expt/settings_registry.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "common/cancel.hpp"
#include "expt/runner.hpp"
#include "robust/checkpoint.hpp"

namespace anadex::expt {
namespace {

/// The resume-compared CheckpointMeta slots for `s` (without the config
/// digest, which is tracked separately).
struct MetaFields {
  std::string algo;
  std::uint64_t seed;
  std::size_t population;
  std::size_t generations;
  bool operator==(const MetaFields&) const = default;
};

MetaFields meta_of(const RunSettings& s) {
  return {algo_name(s.algo), s.seed, s.population, s.generations};
}

using Perturb = std::function<void(RunSettings&)>;

/// One perturbation per registry row. Every mutation must produce a value
/// VALID under validate_run_settings yet different from the baseline.
std::map<std::string, Perturb> perturbations() {
  static CancelToken stop_token;
  std::map<std::string, Perturb> p;
  // META
  p["algo"] = [](RunSettings& s) { s.algo = Algo::SACGA; };
  p["seed"] = [](RunSettings& s) { s.seed = 9001; };
  p["population"] = [](RunSettings& s) { s.population += 4; };
  p["generations"] = [](RunSettings& s) { s.generations += 7; };
  // DIGEST
  p["spec"] = [](RunSettings& s) { s.spec.dr_min_db += 1.0; };
  p["partitions"] = [](RunSettings& s) { s.partitions += 1; };
  p["islands"] = [](RunSettings& s) { s.islands += 1; };
  p["migration_interval"] = [](RunSettings& s) { s.migration_interval += 5; };
  p["weight_count"] = [](RunSettings& s) { s.weight_count += 1; };
  p["mesacga_schedule"] = [](RunSettings& s) { s.mesacga_schedule = {7, 3, 1}; };
  p["phase1_cap"] = [](RunSettings& s) { s.phase1_cap += 10; };
  p["span"] = [](RunSettings& s) { s.span = 12; };
  p["history_stride"] = [](RunSettings& s) { s.history_stride += 1; };
  p["record_history"] = [](RunSettings& s) { s.record_history = true; };
  p["guard"] = [](RunSettings& s) { s.guard.max_retries += 1; };
  p["fault_injection"] = [](RunSettings& s) {
    robust::FaultInjectionConfig cfg;
    cfg.exception_rate = 0.01;
    s.fault_injection = cfg;
  };
  // KNOB — results byte-identical for every value, so never digested.
  p["threads"] = [](RunSettings& s) { s.threads = 3; };
  p["eval_cache"] = [](RunSettings& s) { s.eval_cache = 64; };
  p["engine"] = [](RunSettings& s) { s.engine.context = 42; };
  p["batch_eval"] = [](RunSettings& s) {
    s.batch_eval = engine::BatchEval::Simd;
  };
  p["shards"] = [](RunSettings& s) { s.shards = 2; };
  p["shard_dir"] = [](RunSettings& s) { s.shard_dir = "spool.d"; };
  p["checkpoint_path"] = [](RunSettings& s) { s.checkpoint_path = "c.ckpt"; };
  p["checkpoint_every"] = [](RunSettings& s) { s.checkpoint_every += 1; };
  p["resume"] = [](RunSettings& s) { s.resume = ResumeMode::Auto; };
  p["checkpoint_keep"] = [](RunSettings& s) { s.checkpoint_keep = 3; };
  p["eval_deadline_s"] = [](RunSettings& s) { s.eval_deadline_s = 30.0; };
  p["trace_path"] = [](RunSettings& s) { s.trace_path = "t.jsonl"; };
  p["trace_level"] = [](RunSettings& s) {
    s.trace_level = obs::TraceLevel::Eval;
  };
  // SEAM — runtime wiring, never serialized anywhere.
  p["checkpoint_write_hook"] = [](RunSettings& s) {
    s.checkpoint_write_hook = [](robust::CheckpointWritePhase,
                                 const std::string&) {};
  };
  p["stop"] = [](RunSettings& s) { s.stop = &stop_token; };
  p["on_generation"] = [](RunSettings& s) {
    s.on_generation = [](std::size_t, const moga::Population&) {};
  };
  return p;
}

TEST(SettingsRegistry, EveryRegisteredFieldBehavesPerItsClass) {
  const RunSettings baseline;
  const std::string base_digest = run_config_digest(baseline);
  const MetaFields base_meta = meta_of(baseline);
  const auto table = perturbations();

  for (const auto& row : kSettingsRegistry) {
    const std::string field(row.field);
    const auto it = table.find(field);
    ASSERT_NE(it, table.end())
        << "registry row '" << field << "' has no perturbation — every "
        << "registered field needs one so its class stays proven";

    RunSettings s;
    it->second(s);
    const std::string digest = run_config_digest(s);
    const MetaFields meta = meta_of(s);

    switch (row.kind) {
      case SettingKind::Digest:
        EXPECT_NE(digest, base_digest)
            << "DIGEST field '" << field << "' perturbed but the config "
            << "digest did not change — a resume would silently continue "
            << "under different result-bearing configuration";
        break;
      case SettingKind::Meta:
        EXPECT_EQ(digest, base_digest)
            << "META field '" << field << "' leaked into the digest";
        EXPECT_NE(meta, base_meta)
            << "META field '" << field << "' perturbed but no "
            << "CheckpointMeta slot changed";
        break;
      case SettingKind::Knob:
      case SettingKind::Seam:
        EXPECT_EQ(digest, base_digest)
            << setting_kind_name(row.kind) << " field '" << field
            << "' changed the digest — knobs/seams must be resumable "
            << "across values; if this field now affects results, "
            << "reclassify it DIGEST in the registry";
        EXPECT_EQ(meta, base_meta)
            << setting_kind_name(row.kind) << " field '" << field
            << "' changed checkpoint meta";
        break;
    }
  }
}

TEST(SettingsRegistry, PerturbationTableHasNoStaleEntries) {
  auto table = perturbations();
  for (const auto& row : kSettingsRegistry) table.erase(std::string(row.field));
  EXPECT_TRUE(table.empty())
      << "perturbation for '" << table.begin()->first
      << "' matches no registry row (field removed or renamed?)";
}

TEST(SettingsRegistry, RegistryNamesAndDigestTagsAreUnique) {
  std::map<std::string, int> fields;
  std::map<std::string, int> tags;
  for (const auto& row : kSettingsRegistry) {
    fields[std::string(row.field)]++;
    if (!row.digest_tag.empty()) tags[std::string(row.digest_tag)]++;
  }
  for (const auto& [name, n] : fields)
    EXPECT_EQ(n, 1) << "field '" << name << "' registered " << n << " times";
  for (const auto& [tag, n] : tags)
    EXPECT_EQ(n, 1) << "digest tag '" << tag << "' used " << n << " times";
}

// Pins the digest WIRE FORMAT of default settings. This string is stored
// in checkpoint meta: changing it (reordering registry rows, renaming a
// tag, adding a DIGEST row) invalidates every existing checkpoint chain —
// which may be the right call, but must be a deliberate one. Update the
// golden only together with a note in docs/robustness.md.
TEST(SettingsRegistry, GoldenDefaultDigest) {
  const RunSettings defaults;
  const std::string digest = run_config_digest(defaults);
  EXPECT_EQ(digest,
            "spec=default,0x1.8p+6,0x1.6666666666666p+0,0x1.01b2b29a4692bp-22,"
            "0x1.6f0068db8bac7p-11,0x1.b333333333333p-1,0x1.5798ee2308c3ap-24,"
            "0x1.3333333333333p-2,0x1.999999999999ap-4"
            " partitions=8 islands=4 migration=25 weights=16"
            " schedule=20,13,8,5,3,2,1 phase1_cap=200 span=0 stride=25"
            " history=0 guard=2,0x1.0c6f7a0b5ed8dp-20,0x1.dcd65p+29,"
            "0x1.dcd65p+29,11400714819323198485");
}

}  // namespace
}  // namespace anadex::expt
