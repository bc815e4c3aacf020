(** Trace serialization.

    A simple line-oriented text format, one event per line, so traces can
    be collected once and analysed offline (or by other tools) — the
    workflow of the paper's pipeline, where instrumentation and analysis
    are separate stages. The format is stable and human-greppable:

    {v
    # hawkset-trace 1
    S <tid> <addr> <size> <nt:0|1> <file>:<line> [frame;frame...]
    L <tid> <addr> <size> <file>:<line> [frames]
    F <tid> <line-addr> <clwb|clflushopt|clflush> <file>:<line> [frames]
    M <tid> <file>:<line> [frames]            (sfence)
    A <tid> <lock> <file>:<line> [frames]     (acquire)
    R <tid> <lock> <file>:<line> [frames]     (release)
    C <parent> <child>                        (thread create)
    J <waiter> <joined>                       (thread join)
    # trailer events=<n> fnv1a=<16-hex>       (integrity trailer)
    v}

    Fields are separated by runs of spaces; integers may be spelled in
    any form [int_of_string] accepts, and lines are trimmed as
    [String.trim] trims. Thread and lock ids must be non-negative.

    [write] appends an integrity trailer: the event count plus an FNV-1a
    64-bit hash ({!Fnv}) of the canonical serialization of every event
    (the bytes [write] produces, which {!event_to_line} returns per
    event). Strict
    readers verify it when present; {!load_tolerant} downgrades any
    corruption to a report and salvages the valid prefix. Traces written
    before the trailer existed (no trailer line) still load. *)

exception Parse_error of int * string
(** Line number and message. *)

val write : out_channel -> Tracebuf.t -> unit

val read : in_channel -> Tracebuf.t
(** Strict read: raises {!Parse_error} on the first malformed line, and
    at the trailer's line number when the trailer is present but its
    event count or checksum does not match the events read. Events with
    the same site text share one {!Site.t}; the table that shares them
    lives for this one call. *)

val save : string -> Tracebuf.t -> unit
(** [save path trace] writes the trace to [path]. *)

val load : string -> Tracebuf.t
(** Raises {!Parse_error} on malformed input and [Sys_error] on IO
    failure. *)

(** Result of a tolerant load: the longest valid prefix plus an account
    of everything that had to be dropped. Never raises {!Parse_error}. *)
type tolerant = {
  salvaged : Tracebuf.t;  (** Events up to (not including) the first bad line. *)
  salvaged_events : int;  (** [Tracebuf.length salvaged]. *)
  dropped_lines : int;
      (** Non-blank, non-comment lines not salvaged — the malformed line
          itself plus everything after it. [0] on a clean trace. *)
  first_error : (int * string) option;
      (** Line number and message of the first malformed line, if any. *)
  checksum : [ `Verified | `Mismatch | `Absent ];
      (** Trailer status: [`Verified] when present and matching the
          salvaged events, [`Mismatch] when present but disagreeing
          (corruption, or events were dropped), [`Absent] when the file
          has no trailer (pre-trailer trace, or truncated before it). *)
}

val read_tolerant : in_channel -> tolerant

val load_tolerant : string -> tolerant
(** Salvage what can be salvaged. Only [Sys_error] (file unreadable)
    escapes. *)

val event_to_line : Event.t -> string
val event_of_line : string -> Event.t
(** Raises {!Parse_error} (with line number 0). *)

val fingerprint : Tracebuf.t -> string
(** The trailer's FNV-1a hash as 16 hex digits, computed without
    serializing to disk. Equal iff the canonical serializations are
    byte-identical — a compact schedule signature for interleaving
    exploration. *)
