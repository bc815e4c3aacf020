exception Parse_error of int * string

let header = "# hawkset-trace 1"

(* Reads and writes move through buffers of this many bytes. *)
let chunk = 65536

let fail lineno msg = raise (Parse_error (lineno, msg))

(* ---- canonical writer ----

   One growable byte buffer that event lines are appended to without
   format strings or intermediate strings. [write], [fingerprint], [event_to_line]
   and the readers' checksum all produce an event's bytes here, so there
   is exactly one canonical form:

     <file>:<line> [frame;frame...]          (a site)
     S <tid> <addr> <size> <0|1> <site>      ... as in the .mli *)

type out = { mutable b : Bytes.t; mutable len : int }

let out_create n = { b = Bytes.create n; len = 0 }

let grow o n =
  let b = Bytes.create (max (o.len + n) (2 * Bytes.length o.b)) in
  Bytes.blit o.b 0 b 0 o.len;
  o.b <- b

let[@inline] reserve o n = if o.len + n > Bytes.length o.b then grow o n

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.b o.len c;
  o.len <- o.len + 1

let add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.unsafe_blit_string s 0 o.b o.len n;
  o.len <- o.len + n

(* Decimal, as [string_of_int]. Digits come off the non-positive
   magnitude, so [min_int] needs no special case. *)
let add_int o n =
  if n < 0 then add_char o '-';
  let m = if n > 0 then -n else n in
  let rec digits m k = if m > -10 then k else digits (m / 10) (k + 1) in
  let d = digits m 1 in
  reserve o d;
  let m = ref m in
  for i = o.len + d - 1 downto o.len do
    Bytes.unsafe_set o.b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  o.len <- o.len + d

let add_sp_int o n =
  add_char o ' ';
  add_int o n

(* Sites: "<file>:<line>" plus an optional ";"-joined frame list. File
   names may not contain spaces, ':' is split from the right. *)
let rec add_frames o = function
  | [] -> ()
  | f :: fs ->
      add_char o ';';
      add_string o f;
      add_frames o fs

let add_site o (s : Site.t) =
  add_char o ' ';
  add_string o s.Site.file;
  add_char o ':';
  add_int o s.Site.line;
  match s.Site.frames with
  | [] -> ()
  | f :: fs ->
      add_char o ' ';
      add_string o f;
      add_frames o fs

let flush_kind_to_string = function
  | Event.Clwb -> "clwb"
  | Event.Clflushopt -> "clflushopt"
  | Event.Clflush -> "clflush"

(* Helpers here and below are top-level functions, not local closures,
   which would be allocated afresh for every event. *)
let add_tag o tag t =
  add_char o tag;
  add_sp_int o (Tid.to_int t)

let add_event o ev =
  match ev with
  | Event.Store { tid = t; addr; size; site; non_temporal } ->
      add_tag o 'S' t;
      add_sp_int o addr;
      add_sp_int o size;
      add_string o (if non_temporal then " 1" else " 0");
      add_site o site
  | Event.Load { tid = t; addr; size; site } ->
      add_tag o 'L' t;
      add_sp_int o addr;
      add_sp_int o size;
      add_site o site
  | Event.Flush { tid = t; line; kind; site } ->
      add_tag o 'F' t;
      add_sp_int o line;
      add_char o ' ';
      add_string o (flush_kind_to_string kind);
      add_site o site
  | Event.Fence { tid = t; site } ->
      add_tag o 'M' t;
      add_site o site
  | Event.Lock_acquire { tid = t; lock; site } ->
      add_tag o 'A' t;
      add_sp_int o (Lock_id.to_int lock);
      add_site o site
  | Event.Lock_release { tid = t; lock; site } ->
      add_tag o 'R' t;
      add_sp_int o (Lock_id.to_int lock);
      add_site o site
  | Event.Thread_create { parent; child } ->
      add_tag o 'C' parent;
      add_sp_int o (Tid.to_int child)
  | Event.Thread_join { waiter; joined } ->
      add_tag o 'J' waiter;
      add_sp_int o (Tid.to_int joined)

let event_to_line ev =
  let o = out_create 64 in
  add_event o ev;
  Bytes.sub_string o.b 0 o.len

(* ---- checksum trailer ----

   [write] appends "# trailer events=<n> fnv1a=<16-hex>" after the last
   event: an FNV-1a 64-bit hash of the canonical serialization of every
   event (each event's line followed by '\n'). Readers re-hash the
   canonical form of each *parsed* event, so verification is independent
   of insignificant whitespace but catches content corruption. Being a
   comment line, the trailer is invisible to pre-trailer readers.

   Canonical lines collect in an [out] and are folded into the running
   hash a chunk at a time: folding consecutive ranges is hashing their
   concatenation. *)

type hasher = { o : out; mutable hash : int64 }

let hasher () = { o = out_create (chunk + 256); hash = Fnv.offset }

(* Fold the buffered lines into the hash, hand them to [emit], empty
   the buffer. *)
let drain ?(emit = fun _ _ -> ()) h =
  emit h.o.b h.o.len;
  h.hash <- Fnv.fold h.hash h.o.b 0 h.o.len;
  h.o.len <- 0

let hash_event ?emit h ev =
  add_event h.o ev;
  add_char h.o '\n';
  if h.o.len >= chunk then drain ?emit h

(* The hash of every event's canonical line, each line's bytes passed
   to [emit] on the way. *)
let hash_trace ?emit trace =
  let h = hasher () in
  Tracebuf.iter (hash_event ?emit h) trace;
  drain ?emit h;
  h.hash

(* The same hash the trailer records, computed in memory: a 16-hex-digit
   schedule signature. Two traces fingerprint equal iff their canonical
   serializations are byte-identical. *)
let fingerprint trace = Fnv.to_hex (hash_trace trace)

let trailer_tag = "# trailer "

let trailer_line ~events ~hash =
  Printf.sprintf "# trailer events=%d fnv1a=%016Lx" events hash

(* [Ok (events, hash)] when [trimmed] is a well-formed trailer. *)
let parse_trailer trimmed =
  match
    Scanf.sscanf_opt trimmed "# trailer events=%d fnv1a=%Lx%!" (fun n h ->
        (n, h))
  with
  | Some (n, h) -> Ok (n, h)
  | None -> Error "malformed trailer"

let write oc trace =
  output_string oc header;
  output_char oc '\n';
  let hash = hash_trace ~emit:(fun b n -> output oc b 0 n) trace in
  output_string oc (trailer_line ~events:(Tracebuf.length trace) ~hash);
  output_char oc '\n'

(* ---- cursor parser ----

   Parses the bytes [lo, hi) of a buffer in place. Fields are separated
   by runs of ' ' (nothing else), exactly the fields
   [String.split_on_char ' '] leaves non-empty. Plain decimal numbers are
   read without allocating; any other spelling goes to [int_of_string],
   so the forms it accepts ("0x80", "+1", "1_000") still are. *)

let rec skip_spaces b i hi =
  if i < hi && Bytes.unsafe_get b i = ' ' then skip_spaces b (i + 1) hi else i

let rec field_end b i hi =
  if i < hi && Bytes.unsafe_get b i <> ' ' then field_end b (i + 1) hi else i

let field b s e = Bytes.sub_string b s (e - s)

exception Not_int

let rec decimal b i e acc =
  if i = e then acc
  else
    match Bytes.unsafe_get b i with
    | '0' .. '9' as c -> decimal b (i + 1) e ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* [Not_int] when [s, e) is no integer [int_of_string] accepts. Up to 18
   digits cannot overflow. *)
let to_int b s e =
  let v = if e > s && e - s <= 18 then decimal b s e 0 else -1 in
  if v >= 0 then v
  else
    match int_of_string_opt (field b s e) with
    | Some v -> v
    | None -> raise Not_int

let int_field lineno b s e =
  try to_int b s e
  with Not_int ->
    fail lineno (Printf.sprintf "expected integer, got %S" (field b s e))

(* Thread and lock ids are non-negative ([Tid.of_int], [Lock_id.of_int]). *)
let id_field what lineno b s e =
  let v = int_field lineno b s e in
  if v < 0 then fail lineno (Printf.sprintf "negative %s id %d" what v);
  v

let rec eq_from b s k i =
  i = String.length k
  || (Bytes.unsafe_get b (s + i) = String.unsafe_get k i && eq_from b s k (i + 1))

(* Whether the bytes [s, e) spell [k]. *)
let field_is b s e k = e - s = String.length k && eq_from b s k 0

let flush_kind lineno b s e =
  if field_is b s e "clwb" then Event.Clwb
  else if field_is b s e "clflushopt" then Event.Clflushopt
  else if field_is b s e "clflush" then Event.Clflush
  else fail lineno (Printf.sprintf "unknown flush kind %S" (field b s e))

(* A site's text [s, e): "<file>:<line>", then at most one frames field. *)
let site_of_text lineno b s e =
  let le = field_end b s e in
  let rec colon i = if i < s then -1 else if Bytes.get b i = ':' then i else colon (i - 1) in
  let c = colon (le - 1) in
  if c < 0 then fail lineno "site has no ':'";
  let line = try to_int b (c + 1) le with Not_int -> fail lineno "bad line number" in
  let fs = skip_spaces b le e in
  let frames =
    if fs = e then []
    else
      let fe = field_end b fs e in
      if skip_spaces b fe e < e then fail lineno "trailing fields";
      String.split_on_char ';' (field b fs fe)
  in
  Site.v ~frames (field b s c) line

(* Sites interned by their text, in a table local to one parser (one
   read): a site seen before costs a lookup, not a parse or a Site.t. *)
module Texts = Hashtbl.Make (String)

let site t lineno b s e =
  let text = field b s e in
  match Texts.find t text with
  | v -> v
  | exception Not_found ->
      let v = site_of_text lineno b s e in
      Texts.add t text v;
      v

(* Per-parser scratch: the sites seen so far, the bounds of the current
   line's fixed fields (the tag is field 0) and of the text after them. *)
type parser = {
  sites : Site.t Texts.t;
  fs : int array;
  fe : int array;
  mutable rs : int;
  mutable re : int;
}

let parser () =
  { sites = Texts.create 256; fs = Array.make 6 0; fe = Array.make 6 0;
    rs = 0; re = 0 }

(* The number of fixed fields after the tag, or -1 for an unknown tag. *)
let fixed_fields = function
  | 'S' -> 4
  | 'L' | 'F' -> 3
  | 'A' | 'R' | 'C' | 'J' -> 2
  | 'M' -> 1
  | _ -> -1

let unknown_tag p lineno b =
  fail lineno
    (Printf.sprintf "unknown event tag %S" (field b p.fs.(0) p.fe.(0)))

let rec trim_spaces b lo i =
  if i > lo && Bytes.unsafe_get b (i - 1) = ' ' then trim_spaces b lo (i - 1)
  else i

let int_at p lineno b k = int_field lineno b p.fs.(k) p.fe.(k)
let tid_at p lineno b k = Tid.of_int (id_field "thread" lineno b p.fs.(k) p.fe.(k))

let site_at p lineno b =
  if p.rs = p.re then fail lineno "missing site";
  site p.sites lineno b p.rs p.re

(* Split [lo, hi) into the tag, its fixed fields and the remaining text,
   and return the tag. A line with too few fields is reported as an
   unknown use of its tag. *)
let split_fields p lineno b lo hi =
  let fs = p.fs and fe = p.fe in
  let s0 = skip_spaces b lo hi in
  if s0 = hi then fail lineno "empty line";
  fs.(0) <- s0;
  fe.(0) <- field_end b s0 hi;
  let tag = if fe.(0) - s0 = 1 then Bytes.unsafe_get b s0 else '\000' in
  let n = fixed_fields tag in
  if n < 0 then unknown_tag p lineno b;
  for k = 1 to n do
    fs.(k) <- skip_spaces b fe.(k - 1) hi;
    fe.(k) <- field_end b fs.(k) hi;
    if fs.(k) = hi then unknown_tag p lineno b
  done;
  p.rs <- skip_spaces b fe.(n) hi;
  p.re <- trim_spaces b p.rs hi;
  tag

let parse_event p lineno b lo hi =
  match split_fields p lineno b lo hi with
  | 'S' ->
      let tid = tid_at p lineno b 1 in
      let addr = int_at p lineno b 2 in
      let size = int_at p lineno b 3 in
      let non_temporal = int_at p lineno b 4 <> 0 in
      Event.Store { tid; addr; size; non_temporal; site = site_at p lineno b }
  | 'L' ->
      let tid = tid_at p lineno b 1 in
      let addr = int_at p lineno b 2 in
      let size = int_at p lineno b 3 in
      Event.Load { tid; addr; size; site = site_at p lineno b }
  | 'F' ->
      let tid = tid_at p lineno b 1 in
      let line = int_at p lineno b 2 in
      let kind = flush_kind lineno b p.fs.(3) p.fe.(3) in
      Event.Flush { tid; line; kind; site = site_at p lineno b }
  | 'M' ->
      let tid = tid_at p lineno b 1 in
      Event.Fence { tid; site = site_at p lineno b }
  | ('A' | 'R') as tag ->
      let tid = tid_at p lineno b 1 in
      let lock =
        Lock_id.of_int (id_field "lock" lineno b p.fs.(2) p.fe.(2))
      in
      let site = site_at p lineno b in
      if tag = 'A' then Event.Lock_acquire { tid; lock; site }
      else Event.Lock_release { tid; lock; site }
  | tag (* 'C' | 'J' *) ->
      if p.rs < p.re then unknown_tag p lineno b;
      let a = tid_at p lineno b 1 in
      let c = tid_at p lineno b 2 in
      if tag = 'C' then Event.Thread_create { parent = a; child = c }
      else Event.Thread_join { waiter = a; joined = c }

let event_of_line line =
  parse_event (parser ()) 0 (Bytes.unsafe_of_string line) 0 (String.length line)

(* ---- reading ---- *)

let is_trim_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let rec trim_lo b i hi =
  if i < hi && is_trim_space (Bytes.unsafe_get b i) then trim_lo b (i + 1) hi
  else i

let rec trim_hi b lo i =
  if i > lo && is_trim_space (Bytes.unsafe_get b (i - 1)) then trim_hi b lo (i - 1)
  else i

(* Shared scanning loop: the channel is read a chunk at a time and split
   on '\n' in place, as [input_line] splits it. Each line is trimmed as
   [String.trim] trims; blank lines are skipped, [on_trailer lineno r]
   gets each trailer line ([r] parsed) and [on_event lineno b lo hi] each
   other non-comment line, as the bytes [lo, hi) of [b]. *)
let scan_lines ic ~on_event ~on_trailer =
  let b = ref (Bytes.create chunk) in
  let lo = ref 0 and hi = ref 0 and from = ref 0 in
  let lineno = ref 0 and eof = ref false in
  let line l h =
    incr lineno;
    let l = trim_lo !b l h in
    let h = trim_hi !b l h in
    if l < h then
      if Bytes.get !b l <> '#' then on_event !lineno !b l h
      else if h - l >= String.length trailer_tag
              && field_is !b l (l + String.length trailer_tag) trailer_tag
      then on_trailer !lineno (parse_trailer (field !b l h))
  in
  let rec newline i = if i < !hi && Bytes.unsafe_get !b i <> '\n' then newline (i + 1) else i in
  while not (!eof && !lo >= !hi) do
    let i = newline !from in
    if i < !hi then begin
      line !lo i;
      lo := i + 1;
      from := i + 1
    end
    else if !eof then begin
      line !lo !hi;
      lo := !hi
    end
    else begin
      (* Keep the partial line, at the front of a buffer with room. *)
      let n = !hi - !lo in
      if n = Bytes.length !b then begin
        let nb = Bytes.create (2 * n) in
        Bytes.blit !b 0 nb 0 n;
        b := nb
      end
      else if !lo > 0 then Bytes.blit !b !lo !b 0 n;
      lo := 0;
      hi := n;
      from := n;
      let r = input ic !b n (Bytes.length !b - n) in
      if r = 0 then eof := true else hi := n + r
    end
  done

(* A read in progress: the events so far, their running hash and the
   parser whose site table they share. *)
type reader = { trace : Tracebuf.t; h : hasher; p : parser }

let reader () = { trace = Tracebuf.create (); h = hasher (); p = parser () }

let push r ev =
  Tracebuf.push r.trace ev;
  hash_event r.h ev

let digest r =
  drain r.h;
  r.h.hash

let read ic =
  let r = reader () in
  scan_lines ic
    ~on_event:(fun lineno b lo hi -> push r (parse_event r.p lineno b lo hi))
    ~on_trailer:(fun lineno -> function
      | Error msg -> fail lineno msg
      | Ok (events, h) ->
          let n = Tracebuf.length r.trace in
          if events <> n then
            fail lineno
              (Printf.sprintf
                 "trailer event count mismatch: trailer says %d, trace has %d"
                 events n);
          let hash = digest r in
          if h <> hash then
            fail lineno
              (Printf.sprintf
                 "trailer checksum mismatch: trailer says %016Lx, events hash \
                  to %016Lx"
                 h hash));
  r.trace

type tolerant = {
  salvaged : Tracebuf.t;
  salvaged_events : int;
  dropped_lines : int;
  first_error : (int * string) option;
  checksum : [ `Verified | `Mismatch | `Absent ];
}

let read_tolerant ic =
  let r = reader () in
  let first_error = ref None in
  let dropped = ref 0 in
  let checksum = ref `Absent in
  scan_lines ic
    ~on_event:(fun lineno b lo hi ->
      match !first_error with
      | Some _ -> incr dropped
      | None -> (
          match parse_event r.p lineno b lo hi with
          | ev -> push r ev
          | exception Parse_error (l, msg) ->
              first_error := Some (l, msg);
              incr dropped))
    ~on_trailer:(fun _ -> function
      | Error _ -> checksum := `Mismatch
      | Ok (events, h) ->
          checksum :=
            if events = Tracebuf.length r.trace && h = digest r then `Verified
            else `Mismatch);
  {
    salvaged = r.trace;
    salvaged_events = Tracebuf.length r.trace;
    dropped_lines = !dropped;
    first_error = !first_error;
    checksum = !checksum;
  }

let save path trace =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc trace)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)

let load_tolerant path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_tolerant ic)
