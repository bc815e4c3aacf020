(** Observability plumbing shared by the CLI and the tests: the one
    measured-run bracket (global metric registry and {!Obs.Timeline} reset
    at the start, peak-heap sampling, {!Obs.Manifest.t} assembly).

    Living in the harness (not [bin/]) means tests assert the exact
    artifact the CLI's [--stats-json] emits. *)

val measured :
  labels:(string * string) list -> (unit -> 'a) -> 'a * Obs.Manifest.t
(** [measured ~labels f] resets {!Obs.Registry.global} and the timeline
    (rings and span table), runs [f] under {!Metrics.with_live_mb}, and
    snapshots the registry into a manifest: [stages] from the span table,
    gauges [peak_live_mb] and [final_live_mb]. *)

val measured_offline :
  labels:(Trace.Tracebuf.t -> (string * string) list) ->
  load:(unit -> Trace.Tracebuf.t) ->
  analyse:(Trace.Tracebuf.t -> 'a) ->
  (Trace.Tracebuf.t * 'a) * Obs.Manifest.t
(** {!measured} over one offline analysis: a [load] span around [load],
    then [analyse] of the trace (which records its own spans, e.g.
    [pipeline/collect]). The manifest's labels are [labels] of the
    loaded trace. *)

val measured_run :
  labels:(string * string) list ->
  execute:(unit -> Machine.Sched.report) ->
  analyse:(Machine.Sched.report -> 'a) ->
  (Machine.Sched.report * 'a) * Obs.Manifest.t
(** {!measured} over one detector run: a [run] span holding an [execute]
    span around [execute], then [analyse] of its report (which records
    its own spans, e.g. [pipeline/collect]). *)

val hawkset_pipeline :
  ?config:Hawkset.Pipeline.config -> Trace.Tracebuf.t -> Hawkset.Pipeline.result
(** The HawkSet detector's analysis step: {!Hawkset.Pipeline.run}, then
    its distinct races added to the [report.distinct_races] counter. *)

type run = {
  sched_report : Machine.Sched.report;
  pipeline : Hawkset.Pipeline.result;
  manifest : Obs.Manifest.t;
}

val instrumented_run :
  ?config:Hawkset.Pipeline.config ->
  entry:Pmapps.Registry.entry ->
  seed:int ->
  ops:int ->
  unit ->
  run
(** {!measured_run} of the application's workload under the HawkSet
    pipeline, labelled with the app, seed and ops. Spans: [run],
    [run/execute], [run/pipeline], [run/pipeline/collect],
    [run/pipeline/analyse]. Counters in the manifest are byte-identical
    across calls with equal [(entry, seed, ops, config)]. *)

val base_labels :
  app:string -> detector:string -> seed:int -> ops:int ->
  (string * string) list

val render : Obs.Manifest.t -> string
(** The human [--stats] block: labels, the span {e tree} (spans indented
    under their slash-path ancestors, each with its percentage of the
    nearest recorded ancestor's seconds), deterministic counter table
    (histogram cells flattened), measured gauge table. *)
