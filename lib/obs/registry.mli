(** Central metric registry: named counters, gauges and histograms.
    Span timings live in {!Timeline}'s span table.

    Instrumented libraries create handles once at module initialization
    (find-or-create: one cell per name process-wide) against {!global} and
    bump them on their hot paths. Front ends {!reset} the global registry
    at the start of a run and snapshot it at the end; the snapshot is the
    deterministic half of a {!Manifest.t}. *)

type t

val create : unit -> t

val global : t
(** The registry every built-in subsystem (collector, analysis, scheduler,
    PM cache, baselines) registers into. *)

val counter : ?registry:t -> string -> Metric.counter
val gauge : ?registry:t -> string -> Metric.gauge
val histogram : ?registry:t -> ?bounds:int array -> string -> Metric.histogram

val reset : t -> unit
(** Zero every value; handles stay valid. *)

(** {1 Snapshots} — sorted by name, so equal runs produce equal lists. *)

val counters : t -> (string * int) list
val gauges : t -> (string * float) list
val histograms : t -> (string * (string * int) list) list

val delta :
  before:(string * int) list ->
  after:(string * int) list ->
  (string * int) list
(** Per-phase view of an accumulating registry: every [after] key with the
    matching [before] value subtracted. Inputs must be sorted by name. *)
