(* Fingerprint-keyed analysis result cache.

   The paper's headline is efficiency: one execution per workload
   suffices, so the expensive thing — stage 2+3 over a collected trace —
   is a pure function of (trace bytes, analysis feature flags). Sweeps
   exploit that purity: schedule exploration re-runs the pipeline on
   fingerprint-identical traces, and crash sweeps re-analyse identical
   crash prefixes. This cache memoises the canonical outputs under
   [(Trace_io.fingerprint, config_fingerprint)] so a duplicate trace
   costs one hash probe instead of a full analysis.

   Layout: rows live in a {!Trace.Vec} (stable indices, [clear] keeps
   capacity for per-sweep reuse); the index is a {!Trace.Int_tbl.Map}
   from a 60-bit FNV of the combined key to the row index, with the full
   key string stored in the row to confirm the probe (a packed-key
   collision reads as a miss and the later [add] simply repoints the
   slot). All operations take [lock]: sweeps consult the cache from
   worker domains.

   Only *complete* results belong here — a truncated report is a
   property of the run (its budgets), not of the trace, so callers must
   not [add] one. Deadlines are likewise excluded from
   {!config_fingerprint}: they only affect truncated (uncacheable)
   runs. *)

module J = Trace.Journal

type entry = {
  e_races_json : string;
  e_canonical : (string * string) list;
  e_counters : (string * int) list;
}

type t = {
  lock : Mutex.t;
  index : Trace.Int_tbl.Map.t;
  rows : (string * entry) Trace.Vec.t; (* full key, confirmed on probe *)
  mutable hits : int;
  mutable misses : int;
  mutable bytes : int; (* stored races_json bytes *)
}

let obs_hits = Obs.Registry.counter "cache.hits"
let obs_misses = Obs.Registry.counter "cache.misses"
let obs_bytes = Obs.Registry.counter "cache.bytes"
let tl_hit = Obs.Timeline.name "cache.hit"
let tl_miss = Obs.Timeline.name "cache.miss"
let tl_store = Obs.Timeline.name "cache.store"

let create () =
  {
    lock = Mutex.create ();
    index = Trace.Int_tbl.Map.create ~size:64 ();
    rows = Trace.Vec.create ();
    hits = 0;
    misses = 0;
    bytes = 0;
  }

let key_of ~trace_fp ~config_fp = trace_fp ^ ":" ^ config_fp

(* The top 60 bits of the key's FNV (its first 15 hex digits): a
   non-negative sub-62-bit int, the shape {!Trace.Int_tbl} wants. *)
let packed_of key = Int64.to_int (Int64.shift_right_logical (Trace.Fnv.string key) 4)

let config_fingerprint (c : Pipeline.config) =
  Trace.Fnv.hex
    (Printf.sprintf "irh=%b;el=%b;ts=%b;vc=%b;eadr=%b;budget=%s" c.irh
       c.effective_lockset c.timestamps c.vector_clocks c.eadr
       (match c.event_budget with None -> "-" | Some n -> string_of_int n))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Probe without touching the hit/miss accounting ([add] reuses it). *)
let probe t key =
  let i = Trace.Int_tbl.Map.find t.index (packed_of key) in
  if i < 0 then None
  else
    let k, e = Trace.Vec.get t.rows i in
    if String.equal k key then Some e else None

let find t ~trace_fp ~config_fp =
  let key = key_of ~trace_fp ~config_fp in
  let r = locked t (fun () ->
      let r = probe t key in
      (match r with
      | Some _ -> t.hits <- t.hits + 1
      | None -> t.misses <- t.misses + 1);
      r)
  in
  (match r with
  | Some _ ->
      Obs.Metric.incr obs_hits;
      Obs.Timeline.instant tl_hit
  | None ->
      Obs.Metric.incr obs_misses;
      Obs.Timeline.instant tl_miss);
  r

let add t ~trace_fp ~config_fp entry =
  let key = key_of ~trace_fp ~config_fp in
  let stored = locked t (fun () ->
      match probe t key with
      | Some _ -> false (* entries are deterministic: first wins *)
      | None ->
          Trace.Vec.push t.rows (key, entry);
          Trace.Int_tbl.Map.set t.index (packed_of key)
            (Trace.Vec.length t.rows - 1);
          t.bytes <- t.bytes + String.length entry.e_races_json;
          true)
  in
  if stored then begin
    Obs.Metric.add obs_bytes (String.length entry.e_races_json);
    Obs.Timeline.instant tl_store
  end

let length t = locked t (fun () -> Trace.Vec.length t.rows)

let clear t =
  locked t (fun () ->
      Trace.Int_tbl.Map.clear t.index;
      Trace.Vec.clear t.rows;
      t.bytes <- 0)

let stats t =
  locked t (fun () ->
      [
        ("cache.bytes", t.bytes);
        ("cache.entries", Trace.Vec.length t.rows);
        ("cache.hits", t.hits);
        ("cache.misses", t.misses);
      ])

(* --- persistence (Trace.Journal format) ------------------------------- *)

let schema = "hawkset.result_cache/1"

(* Payload framing: the races JSON is length-prefixed (it contains
   newlines and arbitrary bytes); canonical pairs and counters follow as
   one token-separated line each — locations are "file:line" and counter
   names are dotted identifiers, neither contains whitespace. *)
let frame e =
  let b = Buffer.create (String.length e.e_races_json + 64) in
  Buffer.add_string b (string_of_int (String.length e.e_races_json));
  Buffer.add_char b '\n';
  Buffer.add_string b e.e_races_json;
  Buffer.add_char b '\n';
  List.iter
    (fun (s, l) ->
      Buffer.add_string b (Printf.sprintf "C %s %s\n" s l))
    e.e_canonical;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "K %s %d\n" k v))
    e.e_counters;
  Buffer.contents b

let unframe payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some nl -> (
      match int_of_string_opt (String.sub payload 0 nl) with
      | None -> None
      | Some len
        when len < 0 || nl + 1 + len >= String.length payload
             || payload.[nl + 1 + len] <> '\n' ->
          None
      | Some len ->
          let races = String.sub payload (nl + 1) len in
          let rest =
            String.sub payload (nl + 2 + len)
              (String.length payload - nl - 2 - len)
          in
          let canonical = ref [] and counters = ref [] in
          let ok = ref true in
          List.iter
            (fun line ->
              if line <> "" then
                match String.split_on_char ' ' line with
                | [ "C"; s; l ] -> canonical := (s, l) :: !canonical
                | [ "K"; k; v ] -> (
                    match int_of_string_opt v with
                    | Some v -> counters := (k, v) :: !counters
                    | None -> ok := false)
                | _ -> ok := false)
            (String.split_on_char '\n' rest);
          if not !ok then None
          else
            Some
              {
                e_races_json = races;
                e_canonical = List.rev !canonical;
                e_counters = List.rev !counters;
              })

let save t path =
  let w = J.create path in
  Fun.protect
    ~finally:(fun () -> J.close w)
    (fun () ->
      J.add w { J.tag = "cache"; fields = [ schema ]; payload = None };
      locked t (fun () ->
          Trace.Vec.iter
            (fun (key, e) ->
              match String.split_on_char ':' key with
              | [ trace_fp; config_fp ] ->
                  J.add w
                    {
                      J.tag = "entry";
                      fields = [ trace_fp; config_fp ];
                      payload = Some (frame e);
                    }
              | _ -> ())
            t.rows))

(* Tolerant, like every loader here: a damaged tail (or a record whose
   payload does not unframe) costs those entries, never the load. *)
let load_into t path =
  if not (Sys.file_exists path) then 0
  else begin
    let loaded = J.load path in
    match loaded.J.l_records with
    | { J.tag = "cache"; fields = s :: _; _ } :: records when s = schema ->
        List.fold_left
          (fun n (r : J.record) ->
            match (r.J.tag, r.J.fields, r.J.payload) with
            | "entry", [ trace_fp; config_fp ], Some payload -> (
                match unframe payload with
                | Some e ->
                    add t ~trace_fp ~config_fp e;
                    n + 1
                | None -> n)
            | _ -> n)
          0 records
    | _ -> 0
  end

let load path =
  let t = create () in
  ignore (load_into t path);
  t
