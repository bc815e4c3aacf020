(* Central metric registry. Modules create named handles once (find-or-
   create, so a name is one cell process-wide) and bump them on their hot
   paths; consumers snapshot sorted association lists. [reset] zeroes the
   values but keeps the handles, so a front end can reset at the start of
   a run and read a per-run snapshot at the end while instrumented
   libraries hold their handles across runs.

   Domain safety: handle *bumps* are plain unsynchronised writes (racy
   but memory-safe, and the supervisor only reads deterministic counters
   derived from results, never the live registry, for gated outputs).
   Handle creation and snapshots touch the Hashtbls themselves, which
   OCaml 5 does not make safe across domains — those paths take [lock].
   Spans live in {!Timeline}'s span table, not here. *)

type t = {
  counters : (string, Metric.counter) Hashtbl.t;
  gauges : (string, Metric.gauge) Hashtbl.t;
  histograms : (string, Metric.histogram) Hashtbl.t;
  lock : Mutex.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let global = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_or_create t tbl name make =
  locked t (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
          let m = make name in
          Hashtbl.add tbl name m;
          m)

let counter ?(registry = global) name =
  find_or_create registry registry.counters name Metric.counter

let gauge ?(registry = global) name =
  find_or_create registry registry.gauges name Metric.gauge

let histogram ?(registry = global) ?bounds name =
  find_or_create registry registry.histograms name (Metric.histogram ?bounds)

let reset t =
  locked t (fun () ->
      Hashtbl.iter (fun _ c -> Metric.reset_counter c) t.counters;
      Hashtbl.iter (fun _ g -> Metric.reset_gauge g) t.gauges;
      Hashtbl.iter (fun _ h -> Metric.reset_histogram h) t.histograms)

let sorted_bindings t tbl value =
  locked t (fun () ->
      Hashtbl.fold (fun name m acc -> (name, value m) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t t.counters Metric.value
let gauges t = sorted_bindings t t.gauges Metric.gauge_value

let histogram_cells (h : Metric.histogram) = Metric.cells h

let histograms t = sorted_bindings t t.histograms histogram_cells

(* --- snapshot arithmetic --------------------------------------------- *)

(* [delta ~before ~after] keeps every [after] key, subtracting the matching
   [before] value — the per-phase view of an accumulating registry. Both
   lists must be sorted by name (as all snapshots here are). *)
let delta ~before ~after =
  let rec go before after acc =
    match (before, after) with
    | _, [] -> List.rev acc
    | [], (k, v) :: a -> go [] a ((k, v) :: acc)
    | (kb, vb) :: b, (ka, va) :: a ->
        let c = String.compare kb ka in
        if c = 0 then go b a ((ka, va - vb) :: acc)
        else if c < 0 then go b after acc
        else go before a ((ka, va) :: acc)
  in
  go before after []
