(** Fingerprint-keyed analysis result cache.

    Stage 2+3 output is a pure function of (trace bytes, analysis
    feature flags), so sweeps that revisit a trace — fingerprint-twin
    schedules in exploration, identical crash prefixes in a crash sweep,
    repeated batch declarations — can skip the analysis entirely. The
    cache maps [(Trace.Trace_io.fingerprint, config_fingerprint)] to the
    canonical outputs of one complete run: the verbatim
    {!Report.to_json} bytes (what batch merging embeds, so a hit keeps
    merged reports byte-identical), the {!Report.canonical} pair set
    (what the stability oracle and ground-truth attribution compare) and
    the deterministic pipeline counter delta.

    Only {e complete} results may be added: a truncated report reflects
    the run's budgets, not the trace. Correspondingly the stage deadlines
    are excluded from {!config_fingerprint} — they only shape truncated
    runs. One
    caveat follows: a hit always substitutes the complete result, so a
    run whose deadlines {e would} have truncated reports clean on a warm
    cache (documented in README "Performance").

    All operations are mutex-protected — sweeps consult the cache from
    worker domains. Hits/misses/stored bytes are mirrored into
    {!Obs.Registry.global} ([cache.hits]/[cache.misses]/[cache.bytes])
    with [cache.hit]/[cache.miss]/[cache.store] timeline instants;
    beware that under job-level concurrency the global counts are
    schedule-dependent (two workers can race to analyse the same new
    fingerprint), which is why they live in manifests and gauges, never
    in byte-compared counter lists. *)

type entry = {
  e_races_json : string;  (** Verbatim {!Report.to_json} bytes. *)
  e_canonical : (string * string) list;  (** {!Report.canonical}. *)
  e_counters : (string * int) list;
      (** The run's deterministic pipeline counter delta. *)
}

type t

val create : unit -> t

val config_fingerprint : Pipeline.config -> string
(** FNV of the semantic analysis knobs (irh, effective lockset,
    timestamps, vector clocks, eADR, event budget) — deadlines
    excluded, see above. 16 hex digits. *)

val find : t -> trace_fp:string -> config_fp:string -> entry option
(** One locked probe; bumps hit/miss accounting (instance and global). *)

val add : t -> trace_fp:string -> config_fp:string -> entry -> unit
(** Insert unless present (entries for one key are deterministic, so
    first wins). Callers must only add complete (untruncated) results. *)

val length : t -> int

val clear : t -> unit
(** Drop every entry, keeping capacity (per-sweep reuse) and the
    hit/miss totals. *)

val stats : t -> (string * int) list
(** [cache.bytes]/[cache.entries]/[cache.hits]/[cache.misses], sorted. *)

val save : t -> string -> unit
(** Persist every entry as a {!Trace.Journal} ([hawkset.result_cache/1]:
    one checksummed record per entry, races JSON as the payload). *)

val load : string -> t
(** Load a journal written by {!save}. Tolerant: a missing file is an
    empty cache; a damaged tail or malformed entry costs those entries
    only. *)

val load_into : t -> string -> int
(** Merge a saved journal into an existing cache; returns the number of
    entries read. *)
