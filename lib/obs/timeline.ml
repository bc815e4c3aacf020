(* Timeline profiler: bounded per-lane event rings with a Chrome-trace
   exporter.

   One lane per domain slot (the caller is lane 0, pool worker [i - 1] is
   lane [i], mirroring the domain pool's slot numbering). A lane is
   written only by the domain that owns it, so the hot path is
   lock-free: a bool check when disabled, an array store when enabled.
   Overflow drops the NEW event and bumps the lane's drop counter —
   earlier events are never overwritten, so a truncated ring is a prefix
   of the untruncated one and the determinism contract below survives
   truncation.

   Determinism contract (mirrors the manifest's counter/gauge split): the
   per-lane *sequence* of (kind, name, arg) triples is a pure function of
   the seed and configuration — instrumentation sites only emit on
   deterministic control paths with deterministic args. Timestamps are
   wall-clock measurements and are quarantined exactly like gauges:
   {!signature} zeroes them, and tests byte-compare signatures only.
   Timestamps are clamped monotone per lane ([max] against the lane's
   last), so a stepped clock can skew a duration but never produce an
   out-of-order trace. *)

type handle = int

type kind = Begin | End | Instant

type event = { ev_kind : kind; ev_name : string; ev_arg : int; ev_ts : float }

let max_lanes = 64
let default_capacity = 8192

(* Lanes allocate their arrays on first use, so a process that never
   enables the timeline pays max_lanes records, not max_lanes rings. *)
type lane = {
  mutable l_len : int;
  mutable l_dropped : int;
  mutable l_last_ts : float;
  mutable l_kinds : Bytes.t;
  mutable l_names : int array;
  mutable l_args : int array;
  mutable l_ts : float array;
}

let make_lane () =
  {
    l_len = 0;
    l_dropped = 0;
    l_last_ts = 0.0;
    l_kinds = Bytes.empty;
    l_names = [||];
    l_args = [||];
    l_ts = [||];
  }

let lanes = Array.init max_lanes (fun _ -> make_lane ())

let capacity_ref = ref default_capacity
let capacity () = !capacity_ref

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let clear_lane ln =
  ln.l_len <- 0;
  ln.l_dropped <- 0;
  ln.l_last_ts <- 0.0;
  (* Drop the arrays so the next write allocates at the current capacity;
     keeping them would pin the old capacity forever. *)
  ln.l_kinds <- Bytes.empty;
  ln.l_names <- [||];
  ln.l_args <- [||];
  ln.l_ts <- [||]

(* [reset]/[set_capacity] are quiescent-state operations: the caller must
   ensure no other domain is recording (e.g. between
   [Domain_pool.run_queue] calls, whose join synchronizes). *)
let reset () = Array.iter clear_lane lanes

let set_capacity n =
  capacity_ref := max 1 n;
  reset ()

(* --- lane identity ---------------------------------------------------- *)

let lane_key = Domain.DLS.new_key (fun () -> 0)

let current_lane () = Domain.DLS.get lane_key

let set_lane i =
  if i < 0 || i >= max_lanes then
    invalid_arg (Printf.sprintf "Timeline.set_lane: lane %d (max %d)" i max_lanes);
  Domain.DLS.set lane_key i

let with_lane i f =
  let old = Domain.DLS.get lane_key in
  set_lane i;
  Fun.protect ~finally:(fun () -> Domain.DLS.set lane_key old) f

(* --- name interning --------------------------------------------------- *)

(* Names are interned once, typically at module initialization of the
   instrumentation site; the mutex never sits on a recording hot path. *)
let name_lock = Mutex.create ()
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let name_strs : string array ref = ref (Array.make 32 "")
let name_count = ref 0

let name s =
  Mutex.lock name_lock;
  let id =
    match Hashtbl.find_opt name_ids s with
    | Some id -> id
    | None ->
        let id = !name_count in
        if id >= Array.length !name_strs then begin
          let bigger = Array.make (2 * Array.length !name_strs) "" in
          Array.blit !name_strs 0 bigger 0 id;
          name_strs := bigger
        end;
        !name_strs.(id) <- s;
        incr name_count;
        Hashtbl.add name_ids s id;
        id
  in
  Mutex.unlock name_lock;
  id

let name_of_id id =
  if id >= 0 && id < !name_count then !name_strs.(id) else "?"

(* --- recording -------------------------------------------------------- *)

let kind_byte = function Begin -> 'B' | End -> 'E' | Instant -> 'I'
let kind_of_byte = function 'B' -> Begin | 'E' -> End | _ -> Instant

let ensure_arrays ln =
  if Bytes.length ln.l_kinds = 0 then begin
    let cap = !capacity_ref in
    ln.l_kinds <- Bytes.make cap 'I';
    ln.l_names <- Array.make cap 0;
    ln.l_args <- Array.make cap 0;
    ln.l_ts <- Array.make cap 0.0
  end

let record k h arg =
  if Atomic.get enabled_flag then begin
    let ln = lanes.(Domain.DLS.get lane_key) in
    ensure_arrays ln;
    if ln.l_len >= Bytes.length ln.l_kinds then
      ln.l_dropped <- ln.l_dropped + 1
    else begin
      let ts = Clock.now () in
      let ts = if ts < ln.l_last_ts then ln.l_last_ts else ts in
      ln.l_last_ts <- ts;
      let p = ln.l_len in
      Bytes.set ln.l_kinds p (kind_byte k);
      ln.l_names.(p) <- h;
      ln.l_args.(p) <- arg;
      ln.l_ts.(p) <- ts;
      ln.l_len <- p + 1
    end
  end

let begin_ ?(arg = 0) h = record Begin h arg
let end_ ?(arg = 0) h = record End h arg
let instant ?(arg = 0) h = record Instant h arg

(* --- read side -------------------------------------------------------- *)

let dropped i = lanes.(i).l_dropped

let events i =
  let ln = lanes.(i) in
  List.init ln.l_len (fun p ->
      {
        ev_kind = kind_of_byte (Bytes.get ln.l_kinds p);
        ev_name = name_of_id ln.l_names.(p);
        ev_arg = ln.l_args.(p);
        ev_ts = ln.l_ts.(p);
      })

let used_lanes () =
  let acc = ref [] in
  for i = max_lanes - 1 downto 0 do
    if lanes.(i).l_len > 0 || lanes.(i).l_dropped > 0 then acc := i :: !acc
  done;
  !acc

(* The deterministic half of a lane, one "<kind> <name> <arg>" line per
   event plus a drop-counter trailer — exactly what fixed-seed tests
   byte-compare. Timestamps are excluded by construction. *)
let signature i =
  let ln = lanes.(i) in
  let b = Stdlib.Buffer.create (ln.l_len * 24) in
  for p = 0 to ln.l_len - 1 do
    Stdlib.Buffer.add_char b (Bytes.get ln.l_kinds p);
    Stdlib.Buffer.add_char b ' ';
    Stdlib.Buffer.add_string b (name_of_id ln.l_names.(p));
    Stdlib.Buffer.add_char b ' ';
    Stdlib.Buffer.add_string b (string_of_int ln.l_args.(p));
    Stdlib.Buffer.add_char b '\n'
  done;
  Stdlib.Buffer.add_string b (Printf.sprintf "dropped %d\n" ln.l_dropped);
  Stdlib.Buffer.contents b

(* --- Chrome-trace / Perfetto export ----------------------------------- *)

let lane_label i =
  if i = 0 then "lane 0 (caller)"
  else Printf.sprintf "lane %d (pool worker %d)" i (i - 1)

(* Chrome trace-event JSON: [ts] in microseconds, one [tid] per lane,
   [B]/[E] duration pairs nest, [i] instants are thread-scoped. The time
   origin is the earliest recorded event, keeping timestamps small. *)
let to_chrome_json () =
  let used = used_lanes () in
  let t0 =
    List.fold_left
      (fun acc i ->
        let ln = lanes.(i) in
        if ln.l_len > 0 then Float.min acc ln.l_ts.(0) else acc)
      infinity used
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let us ts = Json.float ((ts -. t0) *. 1e6) in
  let evs = ref [] in
  let push e = evs := e :: !evs in
  List.iter
    (fun i ->
      push
        (Json.obj
           [
             ("name", Json.str "thread_name");
             ("ph", Json.str "M");
             ("pid", Json.int 1);
             ("tid", Json.int i);
             ("args", Json.obj [ ("name", Json.str (lane_label i)) ]);
           ]))
    used;
  List.iter
    (fun i ->
      let ln = lanes.(i) in
      for p = 0 to ln.l_len - 1 do
        let base =
          [
            ("name", Json.str (name_of_id ln.l_names.(p)));
            ("ts", us ln.l_ts.(p));
            ("pid", Json.int 1);
            ("tid", Json.int i);
            ("args", Json.obj [ ("arg", Json.int ln.l_args.(p)) ]);
          ]
        in
        match kind_of_byte (Bytes.get ln.l_kinds p) with
        | Begin -> push (Json.obj (("ph", Json.str "B") :: base))
        | End -> push (Json.obj (("ph", Json.str "E") :: base))
        | Instant ->
            push
              (Json.obj (("ph", Json.str "i") :: ("s", Json.str "t") :: base))
      done;
      (* Make ring truncation visible in the trace itself. *)
      if ln.l_dropped > 0 then
        push
          (Json.obj
             [
               ("name", Json.str "timeline.dropped");
               ("ph", Json.str "i");
               ("s", Json.str "t");
               ("ts", us ln.l_last_ts);
               ("pid", Json.int 1);
               ("tid", Json.int i);
               ("args", Json.obj [ ("arg", Json.int ln.l_dropped) ]);
             ]))
    used;
  Json.obj
    [
      ("traceEvents", Json.arr (List.rev !evs));
      ("displayTimeUnit", Json.str "ms");
    ]

(* --- duration derivation ---------------------------------------------- *)

(* Per-name duration stats from matched B/E pairs across all lanes.
   Wall-clock, hence gauge-quarantined in the manifest: only the event
   sequence is deterministic, never these seconds. *)
let duration_gauges () =
  let stats : (string, float ref * float ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun i ->
      let ln = lanes.(i) in
      let stack = ref [] in
      for p = 0 to ln.l_len - 1 do
        match kind_of_byte (Bytes.get ln.l_kinds p) with
        | Begin -> stack := (ln.l_names.(p), ln.l_ts.(p)) :: !stack
        | End -> (
            match !stack with
            | (h, t0) :: rest when h = ln.l_names.(p) ->
                stack := rest;
                let dt = Float.max 0.0 (ln.l_ts.(p) -. t0) in
                let total, mx, count =
                  match Hashtbl.find_opt stats (name_of_id h) with
                  | Some cells -> cells
                  | None ->
                      let cells = (ref 0.0, ref 0.0, ref 0) in
                      Hashtbl.add stats (name_of_id h) cells;
                      cells
                in
                total := !total +. dt;
                mx := Float.max !mx dt;
                incr count
            | _ -> () (* unbalanced: a dropped Begin; skip *))
        | Instant -> ()
      done)
    (used_lanes ());
  Hashtbl.fold
    (fun name (total, mx, count) acc ->
      ("timeline." ^ name ^ ".total_s", !total)
      :: ("timeline." ^ name ^ ".max_s", !mx)
      :: ("timeline." ^ name ^ ".count", float_of_int !count)
      :: acc)
    stats []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
