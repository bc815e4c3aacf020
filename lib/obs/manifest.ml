(* A run manifest: one machine-readable record per run, splitting what is
   reproducible from what is measured. [counters] and [histograms] are
   deterministic for a fixed scheduler seed — byte-identical across runs —
   while [stages] (span timings) and [gauges] (heap sizes, wall clock)
   carry real measurements and live in separate fields so consumers can
   diff the former and plot the latter. *)

let schema = "hawkset.run_manifest/1"

type t = {
  labels : (string * string) list; (* app, detector, seed, ... *)
  counters : (string * int) list;
  histograms : (string * (string * int) list) list;
  stages : (string * (int * float)) list;  (* path, (count, seconds) *)
  gauges : (string * float) list;
}

let make ?(labels = []) ?(counters = []) ?(histograms = []) ?(stages = [])
    ?(gauges = []) () =
  { labels; counters; histograms; stages; gauges }

let of_registry ?(labels = []) ?(extra_gauges = []) reg =
  {
    labels;
    counters = Registry.counters reg;
    histograms = Registry.histograms reg;
    stages = Timeline.spans ();
    gauges =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Registry.gauges reg @ extra_gauges);
  }

let label t key = List.assoc_opt key t.labels
let counter t key = List.assoc_opt key t.counters
let gauge t key = List.assoc_opt key t.gauges

(* The deterministic half alone, for byte-comparison in tests and CI. *)
let counters_json t =
  Json.obj
    (List.map (fun (k, v) -> (k, Json.int v)) t.counters
    @ List.map
        (fun (name, cells) ->
          (name, Json.obj (List.map (fun (k, v) -> (k, Json.int v)) cells)))
        t.histograms)

let to_json t =
  Json.obj
    [
      ("schema", Json.str schema);
      ( "labels",
        Json.obj (List.map (fun (k, v) -> (k, Json.str v)) t.labels) );
      ( "counters",
        Json.obj (List.map (fun (k, v) -> (k, Json.int v)) t.counters) );
      ( "histograms",
        Json.obj
          (List.map
             (fun (name, cells) ->
               ( name,
                 Json.obj (List.map (fun (k, v) -> (k, Json.int v)) cells) ))
             t.histograms) );
      ( "stages",
        Json.arr
          (List.map
             (fun (name, (count, seconds)) ->
               Json.obj
                 [
                   ("name", Json.str name);
                   ("count", Json.int count);
                   ("seconds", Json.float seconds);
                 ])
             t.stages) );
      ( "gauges",
        Json.obj (List.map (fun (k, v) -> (k, Json.float v)) t.gauges) );
    ]

let save file t =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')
