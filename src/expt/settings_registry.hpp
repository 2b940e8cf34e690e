// The RunSettings field registry — ONE declarative table classifying every
// field of expt::RunSettings by its role in the resume contract:
//
//   META   — stored as an explicit robust::CheckpointMeta field (algo,
//            seed, population, generations) and compared field-by-field on
//            resume.
//   DIGEST — result-bearing: folded into run_config_digest in registry
//            order, so a resume under a different value is refused. Each
//            entry carries the digest tag (the `tag=` key on the wire).
//   KNOB   — pure execution knob: changes HOW the run executes, never the
//            bytes of fronts / checkpoints / gen-level traces. Excluded
//            from the digest BY DECLARATION here, not by omission.
//   SEAM   — runtime wiring (callbacks, cancel tokens): not configuration
//            at all, never serialized.
//
// Consumers:
//   - run_config_digest (src/expt/runner.cpp) expands DIGEST entries into
//     the serializer, so the wire format and this table cannot drift;
//   - settings_registry_static_check (runner.cpp) expands every entry into
//     a member access, so renaming/removing a RunSettings field without
//     updating the registry fails to compile;
//   - kSettingsRegistry below is the runtime table the digest-perturbation
//     property test (tests/expt/settings_registry_test.cpp) iterates: a
//     registered field the test cannot perturb is a test failure;
//   - `anadex-lint --digest-audit` (scripts/anadex_lint.py) parses this
//     macro plus the struct body and fails if any RunSettings field is
//     missing here, if a registered name has no matching field,
//     if run_config_digest stops expanding the registry, or if a declared
//     CLI flag is not wired in apps/anadex_cli.cpp.
//
// Adding a RunSettings field therefore means adding EXACTLY ONE line here
// and deciding its class — everything else is generated or machine-checked.
//
// Entry shapes:
//   META(field, cli_flag)          DIGEST(field, digest_tag, cli_flag)
//   KNOB(field, cli_flag)          SEAM(field)
// cli_flag is the `anadex explore --<flag>` spelling, "" when the field has
// no CLI surface (library-only seams like the chaos config).
#pragma once

#include <array>
#include <string_view>

// clang-format off
#define ANADEX_RUN_SETTINGS_REGISTRY(META, DIGEST, KNOB, SEAM)        \
  /* CheckpointMeta fields (robust/checkpoint.hpp), resume-compared. */ \
  META(algo,        "algo")                                           \
  META(seed,        "seed")                                           \
  META(population,  "population")                                     \
  META(generations, "generations")                                    \
  /* Result-bearing: digest order below IS the wire order. */         \
  DIGEST(spec,               "spec",       "spec")                    \
  DIGEST(partitions,         "partitions", "partitions")              \
  DIGEST(islands,            "islands",    "islands")                 \
  DIGEST(migration_interval, "migration",  "migration-interval")      \
  DIGEST(weight_count,       "weights",    "")                        \
  DIGEST(mesacga_schedule,   "schedule",   "")                        \
  DIGEST(phase1_cap,         "phase1_cap", "")                        \
  DIGEST(span,               "span",       "")                        \
  DIGEST(history_stride,     "stride",     "")                        \
  DIGEST(record_history,     "history",    "history")                 \
  DIGEST(guard,              "guard",      "")                        \
  DIGEST(fault_injection,    "chaos",      "")                        \
  /* Pure execution knobs (results byte-identical for every value). */ \
  KNOB(threads,          "threads")                                   \
  KNOB(eval_cache,       "")                                          \
  KNOB(engine,           "")                                          \
  KNOB(batch_eval,       "")                                          \
  KNOB(shards,           "shards")                                    \
  KNOB(shard_dir,        "shard-dir")                                 \
  KNOB(checkpoint_path,  "checkpoint")                                \
  KNOB(checkpoint_every, "checkpoint-every")                          \
  KNOB(resume,           "resume")                                    \
  KNOB(checkpoint_keep,  "checkpoint-keep")                           \
  KNOB(eval_deadline_s,  "eval-deadline")                             \
  KNOB(trace_path,       "trace")                                     \
  KNOB(trace_level,      "trace-level")                               \
  /* Runtime wiring, never configuration. */                          \
  SEAM(checkpoint_write_hook)                                         \
  SEAM(stop)                                                          \
  SEAM(on_generation)
// clang-format on

namespace anadex::expt {

enum class SettingKind { Meta, Digest, Knob, Seam };

/// One registry row, materialized for runtime consumers (the perturbation
/// property test, `anadex knobs`).
struct SettingInfo {
  std::string_view field;       ///< RunSettings member name
  SettingKind kind;
  std::string_view digest_tag;  ///< Digest rows only, "" otherwise
  std::string_view cli_flag;    ///< `anadex explore --<flag>`, "" = none
};

#define ANADEX_SETTING_ROW_META(field, flag) \
  SettingInfo{#field, SettingKind::Meta, "", flag},
#define ANADEX_SETTING_ROW_DIGEST(field, tag, flag) \
  SettingInfo{#field, SettingKind::Digest, tag, flag},
#define ANADEX_SETTING_ROW_KNOB(field, flag) \
  SettingInfo{#field, SettingKind::Knob, "", flag},
#define ANADEX_SETTING_ROW_SEAM(field) \
  SettingInfo{#field, SettingKind::Seam, "", ""},

inline constexpr auto kSettingsRegistry = std::array{
    ANADEX_RUN_SETTINGS_REGISTRY(ANADEX_SETTING_ROW_META,
                                 ANADEX_SETTING_ROW_DIGEST,
                                 ANADEX_SETTING_ROW_KNOB,
                                 ANADEX_SETTING_ROW_SEAM)};

#undef ANADEX_SETTING_ROW_META
#undef ANADEX_SETTING_ROW_DIGEST
#undef ANADEX_SETTING_ROW_KNOB
#undef ANADEX_SETTING_ROW_SEAM

constexpr const char* setting_kind_name(SettingKind kind) {
  switch (kind) {
    case SettingKind::Meta: return "meta";
    case SettingKind::Digest: return "digest";
    case SettingKind::Knob: return "knob";
    case SettingKind::Seam: return "seam";
  }
  return "?";
}

}  // namespace anadex::expt
