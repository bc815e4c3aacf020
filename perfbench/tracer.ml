(* In-memory span recorder for the traced benchmark run.

   The benchmark wraps each call it makes into a layer's public function
   in [span]; nothing inside the library is instrumented. A span records
   its name, parent, start and end, the Gc counter deltas over its
   interval and a few layer-specific counts ([attrs]). Spans stay in
   memory until [write] dumps them as JSON lines when the run ends.

   With tracing off [span] is a plain call: the untraced reps that give
   the end-to-end numbers pay nothing for it. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;
  phase : string;  (** ["setup"] or ["timed"]. *)
  t0 : float;
  t1 : float;
  minor_gcs : int;
  major_gcs : int;
  alloc_words : float;  (** Words allocated (minor + direct major). *)
  major_words : float;  (** Words that reached the major heap. *)
  attrs : (string * float) list;
}

let enabled = ref false
let proc = ref ""  (* Labels this process's spans: ids are per process. *)
let phase = ref "setup"
let finished : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let on () = !enabled

let span ?(attrs = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let r = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
    let t1 = Unix.gettimeofday () in
    let g1 = Gc.quick_stat () in
    let alloc (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
    finished :=
      {
        id; parent; name; phase = !phase; t0; t1;
        minor_gcs = g1.minor_collections - g0.minor_collections;
        major_gcs = g1.major_collections - g0.major_collections;
        alloc_words = alloc g1 -. alloc g0;
        major_words = g1.major_words -. g0.major_words;
        attrs = attrs r;
      }
      :: !finished;
    r
  end

let to_json s =
  let num x = Printf.sprintf "%.17g" x in
  Printf.sprintf
    "{\"proc\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"phase\":%S,\"t0\":%s,\"t1\":%s,\
     \"minor_gcs\":%d,\"major_gcs\":%d,\"alloc_words\":%s,\"major_words\":%s,\
     \"attrs\":{%s}}"
    !proc s.id s.parent s.name s.phase (num s.t0) (num s.t1) s.minor_gcs s.major_gcs
    (num s.alloc_words) (num s.major_words)
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (num v)) s.attrs))

(* Appends, so the set-up pass and the reps of one run share a file. *)
let write path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter (fun s -> output_string oc (to_json s ^ "\n")) (List.rev !finished);
  close_out oc
