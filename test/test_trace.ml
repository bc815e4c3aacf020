(* Unit and property tests for the trace substrate: ids, sites, events,
   trace buffers and the interning tables. *)

let site = Trace.Site.v

module Tid_tests = struct
  let roundtrip () =
    Alcotest.(check int) "to_int (of_int 7)" 7
      (Trace.Tid.to_int (Trace.Tid.of_int 7))

  let main_is_zero () =
    Alcotest.(check int) "main" 0 (Trace.Tid.to_int Trace.Tid.main)

  let negative_rejected () =
    Alcotest.check_raises "negative"
      (Invalid_argument "Tid.of_int: negative thread id") (fun () ->
        ignore (Trace.Tid.of_int (-1)))

  let equality () =
    Alcotest.(check bool) "equal" true
      (Trace.Tid.equal (Trace.Tid.of_int 3) (Trace.Tid.of_int 3));
    Alcotest.(check bool) "not equal" false
      (Trace.Tid.equal (Trace.Tid.of_int 3) (Trace.Tid.of_int 4))

  let tests =
    [
      Alcotest.test_case "roundtrip" `Quick roundtrip;
      Alcotest.test_case "main is zero" `Quick main_is_zero;
      Alcotest.test_case "negative rejected" `Quick negative_rejected;
      Alcotest.test_case "equality" `Quick equality;
    ]
end

module Site_tests = struct
  let of_pos () =
    let s = Trace.Site.of_pos __POS__ in
    Alcotest.(check string) "file" "test/test_trace.ml" s.Trace.Site.file;
    Alcotest.(check bool) "line positive" true (s.Trace.Site.line > 0)

  let location () =
    Alcotest.(check string) "location" "a.ml:12"
      (Trace.Site.location (site "a.ml" 12))

  let equal_ignores_nothing () =
    Alcotest.(check bool) "same" true
      (Trace.Site.equal (site "a.ml" 1) (site "a.ml" 1));
    Alcotest.(check bool) "diff line" false
      (Trace.Site.equal (site "a.ml" 1) (site "a.ml" 2));
    Alcotest.(check bool) "diff frames" false
      (Trace.Site.equal
         (site ~frames:[ "f" ] "a.ml" 1)
         (site ~frames:[ "g" ] "a.ml" 1))

  let compare_total_order () =
    let a = site "a.ml" 1 and b = site "b.ml" 1 in
    Alcotest.(check bool) "a < b" true (Trace.Site.compare a b < 0);
    Alcotest.(check bool) "b > a" true (Trace.Site.compare b a > 0);
    Alcotest.(check int) "a = a" 0 (Trace.Site.compare a a)

  let backtrace_rendering () =
    let s = site ~frames:[ "inner"; "outer" ] "a.ml" 3 in
    let str = Format.asprintf "%a" Trace.Site.pp_backtrace s in
    Alcotest.(check bool) "mentions frames" true
      (String.length str > String.length "a.ml:3")

  let tests =
    [
      Alcotest.test_case "of_pos uses __POS__" `Quick of_pos;
      Alcotest.test_case "location format" `Quick location;
      Alcotest.test_case "equality" `Quick equal_ignores_nothing;
      Alcotest.test_case "compare is a total order" `Quick compare_total_order;
      Alcotest.test_case "backtrace rendering" `Quick backtrace_rendering;
    ]
end

module Event_tests = struct
  let s = site "x.ml" 1

  let tid_of_each_kind () =
    let t0 = Trace.Tid.of_int 0 and t1 = Trace.Tid.of_int 1 in
    let check name ev expect =
      Alcotest.(check int) name expect (Trace.Tid.to_int (Trace.Event.tid ev))
    in
    check "store"
      (Trace.Event.Store
         { tid = t1; addr = 0; size = 8; site = s; non_temporal = false })
      1;
    check "load" (Trace.Event.Load { tid = t1; addr = 0; size = 8; site = s }) 1;
    check "flush"
      (Trace.Event.Flush { tid = t1; line = 0; kind = Trace.Event.Clwb; site = s })
      1;
    check "fence" (Trace.Event.Fence { tid = t1; site = s }) 1;
    check "create" (Trace.Event.Thread_create { parent = t0; child = t1 }) 0;
    check "join" (Trace.Event.Thread_join { waiter = t0; joined = t1 }) 0

  let pm_access_classification () =
    let t = Trace.Tid.main in
    Alcotest.(check bool) "store" true
      (Trace.Event.is_pm_access
         (Trace.Event.Store
            { tid = t; addr = 0; size = 1; site = s; non_temporal = false }));
    Alcotest.(check bool) "fence" false
      (Trace.Event.is_pm_access (Trace.Event.Fence { tid = t; site = s }))

  let tests =
    [
      Alcotest.test_case "tid of each kind" `Quick tid_of_each_kind;
      Alcotest.test_case "is_pm_access" `Quick pm_access_classification;
    ]
end

module Tracebuf_tests = struct
  let s = site "x.ml" 1
  let t0 = Trace.Tid.main

  let mk_load i =
    Trace.Event.Load { tid = t0; addr = i; size = 8; site = s }

  let push_get () =
    let tb = Trace.Tracebuf.create ~capacity:2 () in
    for i = 0 to 99 do
      Trace.Tracebuf.push tb (mk_load i)
    done;
    Alcotest.(check int) "length" 100 (Trace.Tracebuf.length tb);
    (match Trace.Tracebuf.get tb 57 with
    | Trace.Event.Load { addr; _ } -> Alcotest.(check int) "addr" 57 addr
    | _ -> Alcotest.fail "wrong event");
    Alcotest.check_raises "oob"
      (Invalid_argument "Tracebuf.get: index out of bounds") (fun () ->
        ignore (Trace.Tracebuf.get tb 100))

  let of_list_roundtrip () =
    let evs = List.init 10 mk_load in
    let tb = Trace.Tracebuf.of_list evs in
    Alcotest.(check int) "length" 10 (Trace.Tracebuf.length tb);
    Alcotest.(check bool) "roundtrip" true
      (List.for_all2
         (fun a b -> a == b)
         evs (Trace.Tracebuf.to_list tb))

  let stats () =
    let tb =
      Trace.Tracebuf.of_list
        [
          mk_load 0;
          Trace.Event.Store
            { tid = t0; addr = 0; size = 8; site = s; non_temporal = false };
          Trace.Event.Flush
            { tid = t0; line = 0; kind = Trace.Event.Clwb; site = s };
          Trace.Event.Fence { tid = t0; site = s };
          Trace.Event.Lock_acquire
            { tid = t0; lock = Trace.Lock_id.of_int 0; site = s };
          Trace.Event.Lock_release
            { tid = t0; lock = Trace.Lock_id.of_int 0; site = s };
          Trace.Event.Thread_create
            { parent = t0; child = Trace.Tid.of_int 1 };
        ]
    in
    let st = Trace.Tracebuf.stats tb in
    Alcotest.(check int) "stores" 1 st.Trace.Tracebuf.stores;
    Alcotest.(check int) "loads" 1 st.Trace.Tracebuf.loads;
    Alcotest.(check int) "flushes" 1 st.Trace.Tracebuf.flushes;
    Alcotest.(check int) "fences" 1 st.Trace.Tracebuf.fences;
    Alcotest.(check int) "lock ops" 2 st.Trace.Tracebuf.lock_ops;
    Alcotest.(check int) "thread ops" 1 st.Trace.Tracebuf.thread_ops

  let fold_counts () =
    let tb = Trace.Tracebuf.of_list (List.init 25 mk_load) in
    Alcotest.(check int) "fold" 25
      (Trace.Tracebuf.fold (fun acc _ -> acc + 1) 0 tb)

  let tests =
    [
      Alcotest.test_case "push/get with growth" `Quick push_get;
      Alcotest.test_case "of_list roundtrip" `Quick of_list_roundtrip;
      Alcotest.test_case "stats" `Quick stats;
      Alcotest.test_case "fold" `Quick fold_counts;
    ]
end

module Interner_tests = struct
  module I = Trace.Interner.Make (struct
    type t = string

    let equal = String.equal
    let hash = Hashtbl.hash
  end)

  let dedup () =
    let t = I.create () in
    let a = I.intern t "hello" in
    let b = I.intern t "world" in
    let a' = I.intern t "hello" in
    Alcotest.(check int) "same id" a a';
    Alcotest.(check bool) "distinct ids" true (a <> b);
    Alcotest.(check int) "count" 2 (I.count t);
    Alcotest.(check string) "get" "world" (I.get t b)

  let unknown_id () =
    let t = I.create () in
    Alcotest.check_raises "unknown" (Invalid_argument "Interner.get: unknown id")
      (fun () -> ignore (I.get t 0))

  let dense_ids =
    QCheck.Test.make ~name:"interner ids are dense and stable" ~count:100
      QCheck.(small_list small_string)
      (fun strings ->
        let t = I.create () in
        let ids = List.map (I.intern t) strings in
        (* Re-interning yields identical ids. *)
        let ids' = List.map (I.intern t) strings in
        ids = ids'
        && List.for_all (fun id -> id >= 0 && id < I.count t) ids
        && List.for_all2
             (fun s id -> String.equal (I.get t id) s)
             strings ids)

  let tests =
    [
      Alcotest.test_case "dedup" `Quick dedup;
      Alcotest.test_case "unknown id" `Quick unknown_id;
      QCheck_alcotest.to_alcotest dense_ids;
    ]
end

module Trace_io_tests = struct
  let t0 = Trace.Tid.main
  let t1 = Trace.Tid.of_int 1

  let sample_events =
    [
      Trace.Event.Store
        { tid = t0; addr = 128; size = 8;
          site = Trace.Site.v ~frames:[ "insert"; "main" ] "a.ml" 10;
          non_temporal = false };
      Trace.Event.Store
        { tid = t1; addr = 64; size = 4; site = Trace.Site.v "b.ml" 2;
          non_temporal = true };
      Trace.Event.Load
        { tid = t1; addr = 128; size = 8; site = Trace.Site.v "a.ml" 99 };
      Trace.Event.Flush
        { tid = t0; line = 128; kind = Trace.Event.Clflushopt;
          site = Trace.Site.v "a.ml" 11 };
      Trace.Event.Fence { tid = t0; site = Trace.Site.v "a.ml" 12 };
      Trace.Event.Lock_acquire
        { tid = t1; lock = Trace.Lock_id.of_int 3; site = Trace.Site.v "c.ml" 5 };
      Trace.Event.Lock_release
        { tid = t1; lock = Trace.Lock_id.of_int 3; site = Trace.Site.v "c.ml" 6 };
      Trace.Event.Thread_create { parent = t0; child = t1 };
      Trace.Event.Thread_join { waiter = t0; joined = t1 };
    ]

  let line_roundtrip () =
    List.iter
      (fun ev ->
        let line = Trace.Trace_io.event_to_line ev in
        let ev' = Trace.Trace_io.event_of_line line in
        Alcotest.(check string) line line (Trace.Trace_io.event_to_line ev'))
      sample_events

  let file_roundtrip () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let t = Trace.Tracebuf.of_list sample_events in
        Trace.Trace_io.save path t;
        let t' = Trace.Trace_io.load path in
        Alcotest.(check int) "length" (Trace.Tracebuf.length t)
          (Trace.Tracebuf.length t');
        List.iteri
          (fun i ev ->
            Alcotest.(check string)
              (Printf.sprintf "event %d" i)
              (Trace.Trace_io.event_to_line ev)
              (Trace.Trace_io.event_to_line (Trace.Tracebuf.get t' i)))
          sample_events)

  let comments_and_blanks_skipped () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc "# a comment

M 0 x.ml:1
";
        close_out oc;
        Alcotest.(check int) "one event" 1
          (Trace.Tracebuf.length (Trace.Trace_io.load path)))

  let parse_errors () =
    let bad line =
      try
        ignore (Trace.Trace_io.event_of_line line);
        Alcotest.failf "expected parse error for %S" line
      with Trace.Trace_io.Parse_error _ -> ()
    in
    bad "X 0 1 2";
    bad "S 0 nonint 8 0 a.ml:1";
    bad "S 0 1 8 0 nodolon";
    bad "F 0 64 notakind a.ml:1"

  let analysis_survives_roundtrip () =
    (* Serialize a racy trace; the analysis result must be identical. *)
    let evs =
      [
        Trace.Event.Store
          { tid = t0; addr = 128; size = 8; site = Trace.Site.v "r.ml" 1;
            non_temporal = false };
        Trace.Event.Thread_create { parent = t0; child = t1 };
        Trace.Event.Load
          { tid = t1; addr = 128; size = 8; site = Trace.Site.v "r.ml" 2 };
      ]
    in
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let t = Trace.Tracebuf.of_list evs in
        Trace.Trace_io.save path t;
        let t' = Trace.Trace_io.load path in
        Alcotest.(check int) "same verdict" 1
          (Hawkset.Report.count
             (Hawkset.Pipeline.races ~config:Hawkset.Pipeline.no_irh t')))

  (* Degenerate inputs for the tolerant reader: a zero-length file and a
     header-only file are valid empty traces (nothing dropped, no error,
     no trailer), not crashes. *)
  let tolerant_degenerate content () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        let t = Trace.Trace_io.load_tolerant path in
        Alcotest.(check int) "salvaged events" 0 t.Trace.Trace_io.salvaged_events;
        Alcotest.(check int) "tracebuf empty" 0
          (Trace.Tracebuf.length t.Trace.Trace_io.salvaged);
        Alcotest.(check int) "dropped lines" 0 t.Trace.Trace_io.dropped_lines;
        Alcotest.(check bool) "no first error" true
          (t.Trace.Trace_io.first_error = None);
        Alcotest.(check bool) "checksum absent" true
          (t.Trace.Trace_io.checksum = `Absent))

  let junk_never_crashes =
    QCheck.Test.make ~name:"malformed lines raise Parse_error, never crash"
      ~count:300
      QCheck.(string_of_size (QCheck.Gen.int_bound 40))
      (fun line ->
        match Trace.Trace_io.event_of_line line with
        | _ -> true
        | exception Trace.Trace_io.Parse_error _ -> true)

  let tests =
    [
      QCheck_alcotest.to_alcotest junk_never_crashes;
      Alcotest.test_case "line roundtrip" `Quick line_roundtrip;
      Alcotest.test_case "file roundtrip" `Quick file_roundtrip;
      Alcotest.test_case "comments and blanks" `Quick comments_and_blanks_skipped;
      Alcotest.test_case "parse errors" `Quick parse_errors;
      Alcotest.test_case "analysis survives roundtrip" `Quick
        analysis_survives_roundtrip;
      Alcotest.test_case "tolerant on zero-length file" `Quick
        (tolerant_degenerate "");
      Alcotest.test_case "tolerant on header-only file" `Quick
        (tolerant_degenerate "# hawkset-trace 1\n");
    ]
end

module Fuzz_tests = struct
  (* Corruption fuzzing for the trace format: serialized traces carry a
     checksum trailer, so the strict reader must either return exactly
     what was written or raise [Parse_error] — silently returning altered
     events is the one forbidden outcome. The tolerant reader must never
     raise and must salvage exactly the valid prefix. *)

  let gen_event =
    QCheck.Gen.(
      let tid = map Trace.Tid.of_int (int_bound 3) in
      let addr = map (fun i -> 64 + (8 * i)) (int_bound 64) in
      let size = oneofl [ 1; 2; 4; 8 ] in
      let site =
        map3
          (fun f l frames -> Trace.Site.v ~frames (Printf.sprintf "f%d.ml" f) l)
          (int_bound 4) (int_range 1 500)
          (oneofl [ []; [ "ins" ]; [ "ins"; "main" ] ])
      in
      frequency
        [
          ( 4,
            map2
              (fun (tid, addr) (size, site) ->
                Trace.Event.Store
                  { tid; addr; size; site; non_temporal = false })
              (pair tid addr) (pair size site) );
          ( 4,
            map2
              (fun (tid, addr) (size, site) ->
                Trace.Event.Load { tid; addr; size; site })
              (pair tid addr) (pair size site) );
          ( 2,
            map3
              (fun tid addr site ->
                Trace.Event.Flush
                  { tid; line = addr; kind = Trace.Event.Clwb; site })
              tid addr site );
          (2, map2 (fun tid site -> Trace.Event.Fence { tid; site }) tid site);
          ( 1,
            map3
              (fun tid lock site ->
                Trace.Event.Lock_acquire
                  { tid; lock = Trace.Lock_id.of_int lock; site })
              tid (int_bound 7) site );
          ( 1,
            map3
              (fun tid lock site ->
                Trace.Event.Lock_release
                  { tid; lock = Trace.Lock_id.of_int lock; site })
              tid (int_bound 7) site );
        ])

  let gen_events = QCheck.Gen.(list_size (int_range 1 30) gen_event)

  let canon t = List.map Trace.Trace_io.event_to_line (Trace.Tracebuf.to_list t)

  (* Serialize through the real writer so the string carries the trailer. *)
  let serialize evs =
    let path = Filename.temp_file "hawkset_fuzz" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.Trace_io.save path (Trace.Tracebuf.of_list evs);
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic)))

  let with_string s f =
    let path = Filename.temp_file "hawkset_fuzz" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc;
        f path)

  (* Complete event lines fully contained in [prefix] — what a tolerant
     read of the truncated file must at least recover. *)
  let complete_events prefix =
    let lines = String.split_on_char '\n' prefix in
    let lines =
      (* Without a trailing newline the final segment is a partial line. *)
      if String.length prefix > 0 && prefix.[String.length prefix - 1] = '\n'
      then lines
      else match List.rev lines with [] -> [] | _ :: r -> List.rev r
    in
    List.length
      (List.filter
         (fun l ->
           let t = String.trim l in
           t <> "" && t.[0] <> '#')
         lines)

  let roundtrip_with_trailer =
    QCheck.Test.make ~name:"save/load round-trips and verifies the trailer"
      ~count:100 (QCheck.make gen_events) (fun evs ->
        let s = serialize evs in
        let has_trailer =
          List.exists
            (fun l ->
              String.length l >= 10 && String.sub l 0 10 = "# trailer ")
            (String.split_on_char '\n' s)
        in
        with_string s (fun path ->
            let strict = Trace.Trace_io.load path in
            let t = Trace.Trace_io.load_tolerant path in
            has_trailer
            && canon strict = List.map Trace.Trace_io.event_to_line evs
            && t.Trace.Trace_io.checksum = `Verified
            && t.Trace.Trace_io.dropped_lines = 0
            && t.Trace.Trace_io.first_error = None
            && canon t.Trace.Trace_io.salvaged = canon strict))

  let truncate_salvages_prefix =
    QCheck.Test.make ~name:"truncation at any byte salvages a valid prefix"
      ~count:200
      QCheck.(make Gen.(pair gen_events (float_bound_inclusive 1.0)))
      (fun (evs, frac) ->
        let s = serialize evs in
        let k = int_of_float (frac *. float_of_int (String.length s)) in
        let k = min k (String.length s) in
        let prefix = String.sub s 0 k in
        let complete = complete_events prefix in
        let orig = List.map Trace.Trace_io.event_to_line evs in
        with_string prefix (fun path ->
            let t = Trace.Trace_io.load_tolerant path in
            let n = List.length evs in
            let salvaged = canon t.Trace.Trace_io.salvaged in
            (* Salvage is exactly the complete lines, plus at most one
               event from a cut line that happens to still parse. *)
            t.Trace.Trace_io.salvaged_events >= complete
            && t.Trace.Trace_io.salvaged_events <= min n (complete + 1)
            && List.for_all2 ( = )
                 (List.filteri (fun i _ -> i < complete) salvaged)
                 (List.filteri (fun i _ -> i < complete) orig)
            && (k < String.length s
               || t.Trace.Trace_io.checksum = `Verified
                  && t.Trace.Trace_io.salvaged_events = n)
            (* The strict reader may reject the truncation, but if it
               accepts, everything before any cut line matches what was
               written. *)
            &&
            match Trace.Trace_io.load path with
            | strict ->
                let c = canon strict in
                List.length c <= n
                && List.for_all2 ( = )
                     (List.filteri (fun i _ -> i < complete) c)
                     (List.filteri (fun i _ -> i < complete) orig)
            | exception Trace.Trace_io.Parse_error _ -> true))

  let flip_is_caught =
    QCheck.Test.make
      ~name:"a flipped byte either fails the load or changes nothing"
      ~count:300
      QCheck.(
        make Gen.(triple gen_events (float_bound_inclusive 1.0) (int_range 1 255)))
      (fun (evs, frac, xor) ->
        let s = serialize evs in
        let p =
          min (String.length s - 1)
            (int_of_float (frac *. float_of_int (String.length s)))
        in
        let flipped = Bytes.of_string s in
        Bytes.set flipped p (Char.chr (Char.code s.[p] lxor xor));
        let flipped = Bytes.to_string flipped in
        with_string flipped (fun path ->
            (* Forbidden outcome: a strict load that "succeeds" with
               different events than were written. *)
            (match Trace.Trace_io.load path with
            | strict -> canon strict = List.map Trace.Trace_io.event_to_line evs
            | exception Trace.Trace_io.Parse_error _ -> true)
            &&
            (* The tolerant reader absorbs the same corruption. *)
            match Trace.Trace_io.load_tolerant path with
            | _ -> true
            | exception Trace.Trace_io.Parse_error _ -> false))

  let inject_malformed_line =
    QCheck.Test.make
      ~name:"a malformed line is located exactly; tolerant salvages before it"
      ~count:200
      QCheck.(make Gen.(pair gen_events (float_bound_inclusive 1.0)))
      (fun (evs, frac) ->
        let n = List.length evs in
        let j = min n (int_of_float (frac *. float_of_int (n + 1))) in
        let lines = String.split_on_char '\n' (serialize evs) in
        (* serialize ends with '\n': last split segment is "". Lines:
           header, n events, trailer, "". Insert before event j, i.e. at
           list index 1 + j; its 1-based line number is j + 2. *)
        let rec insert i = function
          | rest when i = 0 -> "Z bogus" :: rest
          | [] -> [ "Z bogus" ]
          | l :: rest -> l :: insert (i - 1) rest
        in
        let corrupted = String.concat "\n" (insert (1 + j) lines) in
        let orig = List.map Trace.Trace_io.event_to_line evs in
        with_string corrupted (fun path ->
            (match Trace.Trace_io.load path with
            | _ -> false
            | exception Trace.Trace_io.Parse_error (line, _) -> line = j + 2)
            &&
            let t = Trace.Trace_io.load_tolerant path in
            t.Trace.Trace_io.salvaged_events = j
            && canon t.Trace.Trace_io.salvaged
               = List.filteri (fun i _ -> i < j) orig
            && t.Trace.Trace_io.dropped_lines = 1 + (n - j)
            && (match t.Trace.Trace_io.first_error with
               | Some (line, _) -> line = j + 2
               | None -> false)
            && t.Trace.Trace_io.checksum
               = (if j = n then `Verified else `Mismatch)))

  let tests =
    [
      QCheck_alcotest.to_alcotest roundtrip_with_trailer;
      QCheck_alcotest.to_alcotest truncate_salvages_prefix;
      QCheck_alcotest.to_alcotest flip_is_caught;
      QCheck_alcotest.to_alcotest inject_malformed_line;
    ]
end

module Canonical_tests = struct
  (* The reader and writer against pinned bytes: a saved trace's exact
     contents, non-canonical spellings that must parse to the canonical
     event (with a trailer that still verifies), every parse error, the
     per-load site table and the loaded trace's size. *)

  (* SHA-256 (FIPS 180-4), to pin a saved file's bytes. *)
  let sha256_hex s =
    let k =
      [|
        0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
        0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
        0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
        0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
        0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
        0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
        0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
        0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
        0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
        0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
        0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
      |]
    in
    let h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |]
    in
    let m = 0xffffffff in
    let rotr x n = (x lsr n) lor ((x lsl (32 - n)) land m) in
    let len = String.length s in
    let total = (len + 9 + 63) / 64 * 64 in
    let b = Bytes.make total '\000' in
    Bytes.blit_string s 0 b 0 len;
    Bytes.set b len '\x80';
    Bytes.set_int64_be b (total - 8) (Int64.of_int (len * 8));
    let w = Array.make 64 0 in
    for blk = 0 to (total / 64) - 1 do
      for t = 0 to 15 do
        w.(t) <- Int32.to_int (Bytes.get_int32_be b ((blk * 64) + (4 * t))) land m
      done;
      for t = 16 to 63 do
        let x = w.(t - 15) and y = w.(t - 2) in
        let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
        let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
        w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m
      done;
      let v = Array.copy h in
      for t = 0 to 63 do
        let a = v.(0) and e = v.(4) in
        let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
        let ch = e land v.(5) lxor (lnot e land m land v.(6)) in
        let t1 = (v.(7) + s1 + ch + k.(t) + w.(t)) land m in
        let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
        let maj = a land v.(1) lxor (a land v.(2)) lxor (v.(1) land v.(2)) in
        let t2 = (s0 + maj) land m in
        Array.blit v 0 v 1 7;
        v.(4) <- (v.(4) + t1) land m;
        v.(0) <- (t1 + t2) land m
      done;
      Array.iteri (fun i x -> h.(i) <- (h.(i) + x) land m) v
    done;
    String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))

  let sha256_vectors () =
    Alcotest.(check string) "empty"
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
      (sha256_hex "");
    Alcotest.(check string) "abc"
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
      (sha256_hex "abc")

  (* The published FNV-1a 64 vectors: journals, result-cache keys and
     trailers written before keep verifying. Folding ranges one after
     another is hashing their concatenation. *)
  let fnv_vectors () =
    List.iter
      (fun (s, want) -> Alcotest.(check string) s want (Trace.Fnv.hex s))
      [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c");
        ("foobar", "85944171f73967e8") ];
    let b = Bytes.of_string "foobar" in
    Alcotest.(check string) "folded in two ranges" "85944171f73967e8"
      (Trace.Fnv.to_hex
         (Trace.Fnv.fold (Trace.Fnv.fold Trace.Fnv.offset b 0 2) b 2 4))

  let with_file contents f =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc contents;
        close_out oc;
        f path)

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  let fast_fair_1000 () =
    match Pmapps.Registry.find "fast-fair" with
    | None -> Alcotest.fail "fast-fair not registered"
    | Some e ->
        let ops = Pmapps.Registry.clamp_ops e 1000 in
        (e.Pmapps.Registry.run ~seed:1 ~ops ()).Machine.Sched.trace

  (* [hawkset trace -a fast-fair -n 1000 -s 1]'s file, byte for byte. *)
  let golden_bytes () =
    let t = fast_fair_1000 () in
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.Trace_io.save path t;
        let bytes = read_file path in
        Alcotest.(check string) "sha256"
          "d2d0bcba37038f8d0eae8e1a4dceadb1a6eec814da12a29e1fb799360cfb4d51"
          (sha256_hex bytes);
        Alcotest.(check bool) "trailer" true
          (String.ends_with ~suffix:"fnv1a=9db9c4c955522a19\n" bytes);
        Alcotest.(check string) "fingerprint is the trailer's hash"
          "9db9c4c955522a19" (Trace.Trace_io.fingerprint t))

  (* Raw lines and the canonical line each must parse to. *)
  let noncanonical =
    [
      ("S 0 0x80 8 0 a.ml:10", "S 0 128 8 0 a.ml:10");
      ("S +1 1_000 8 0x1 a.ml:0x1f", "S 1 1000 8 1 a.ml:31");
      ("S 0 8 8 7 b.ml:2", "S 0 8 8 1 b.ml:2");
      ("L  0   128  8   a.ml:99", "L 0 128 8 a.ml:99");
      ("\tM 0 a.ml:12\r", "M 0 a.ml:12");
      ("  F 0 64 clwb a.ml:11 f;g;h\t", "F 0 64 clwb a.ml:11 f;g;h");
      ("A 1 3 c.ml:5   ins;main  ", "A 1 3 c.ml:5 ins;main");
      ("R 0b1 0o3 c:d.ml:6", "R 1 3 c:d.ml:6");
      ("C  0  2\r", "C 0 2");
      ("J 0 2", "J 0 2");
    ]

  let trailer_for lines =
    Printf.sprintf "# trailer events=%d fnv1a=%s\n" (List.length lines)
      (Trace.Fnv.hex (String.concat "" (List.map (fun l -> l ^ "\n") lines)))

  let noncanonical_input () =
    let raw = List.map fst noncanonical and want = List.map snd noncanonical in
    let contents =
      "# hawkset-trace 1\n" ^ String.concat "\n" raw ^ "\n" ^ trailer_for want
    in
    with_file contents (fun path ->
        let t = Trace.Trace_io.load path in
        Alcotest.(check (list string)) "canonical events" want
          (List.map Trace.Trace_io.event_to_line (Trace.Tracebuf.to_list t));
        Alcotest.(check bool) "tolerant verifies" true
          ((Trace.Trace_io.load_tolerant path).Trace.Trace_io.checksum
          = `Verified));
    List.iter
      (fun (raw, want) ->
        Alcotest.(check string) raw want
          (Trace.Trace_io.event_to_line
             (Trace.Trace_io.event_of_line (String.trim raw))))
      noncanonical

  let expect_error ~line ~msg f =
    match f () with
    | _ -> Alcotest.failf "expected %S" msg
    | exception Trace.Trace_io.Parse_error (l, m) ->
        Alcotest.(check int) (msg ^ ": line") line l;
        Alcotest.(check bool)
          (Printf.sprintf "%S starts with %S" m msg)
          true
          (String.starts_with ~prefix:msg m)

  let line_errors () =
    List.iter
      (fun (text, msg) ->
        expect_error ~line:0 ~msg (fun () -> Trace.Trace_io.event_of_line text))
      [
        ("", "empty line");
        ("   ", "empty line");
        ("X 0 1", "unknown event tag \"X\"");
        ("SS 0 1 8 0 a.ml:1", "unknown event tag");
        ("S 0 1 8", "unknown event tag \"S\"");
        ("C 0 1 2", "unknown event tag \"C\"");
        ("M 0", "missing site");
        ("M 0 nocolon", "site has no ':'");
        ("M 0 a.ml:x", "bad line number");
        ("M 0 a.ml:", "bad line number");
        ("M 0 a.ml:1 f g", "trailing fields");
        ("S 0 nonint 8 0 a.ml:1", "expected integer");
        ("L 0 1 99999999999999999999 a.ml:1", "expected integer");
        ("F 0 64 clwbx a.ml:1", "unknown flush kind");
        ("M -1 a.ml:1", "negative thread id");
        ("A 0 -2 a.ml:1", "negative lock id");
      ]

  let trailer_errors () =
    let body = "# hawkset-trace 1\nM 0 a.ml:1\n" in
    let good = trailer_for [ "M 0 a.ml:1" ] in
    with_file (body ^ good) (fun path ->
        Alcotest.(check int) "verified" 1
          (Trace.Tracebuf.length (Trace.Trace_io.load path)));
    List.iter
      (fun (trailer, msg) ->
        with_file (body ^ trailer) (fun path ->
            expect_error ~line:3 ~msg (fun () -> Trace.Trace_io.load path)))
      [
        ("# trailer events=x\n", "malformed trailer");
        ( "# trailer events=2 fnv1a=0000000000000000\n",
          "trailer event count mismatch" );
        ( "# trailer events=1 fnv1a=0000000000000000\n",
          "trailer checksum mismatch" );
      ];
    with_file (body ^ "M 0 a.ml:1 f g\n") (fun path ->
        expect_error ~line:3 ~msg:"trailing fields" (fun () ->
            Trace.Trace_io.load path))

  let site_of = function
    | Trace.Event.Load { site; _ } | Trace.Event.Store { site; _ }
    | Trace.Event.Fence { site; _ } ->
        site
    | _ -> Alcotest.fail "unexpected event"

  (* One Site.t per distinct site text within a load; nothing kept
     between loads. *)
  let shared_sites () =
    with_file "L 0 8 8 a.ml:1 f;g\nS 1 16 8 0 a.ml:1 f;g\nM 0 a.ml:2 f;g\n"
      (fun path ->
        let t = Trace.Trace_io.load path in
        let s i = site_of (Trace.Tracebuf.get t i) in
        Alcotest.(check bool) "same text, same Site.t" true (s 0 == s 1);
        Alcotest.(check bool) "other text, other Site.t" false (s 0 == s 2);
        let t' = Trace.Trace_io.load path in
        Alcotest.(check bool) "each load its own table" false
          (s 0 == site_of (Trace.Tracebuf.get t' 0));
        Alcotest.(check bool) "equal across loads" true
          (Trace.Site.equal (s 0) (site_of (Trace.Tracebuf.get t' 0))))

  (* A loaded trace shares its sites, so it is little more than its event
     records and the buffer's slots. *)
  let memory_bound () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.Trace_io.save path (fast_fair_1000 ());
        let t = Trace.Trace_io.load path in
        let words = Obj.reachable_words (Obj.repr t) in
        let per_event =
          float_of_int words /. float_of_int (Trace.Tracebuf.length t)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%.2f words/event <= 8" per_event)
          true (per_event <= 8.0))

  let tests =
    [
      Alcotest.test_case "sha256 test vectors" `Quick sha256_vectors;
      Alcotest.test_case "fnv-1a test vectors" `Quick fnv_vectors;
      Alcotest.test_case "golden bytes" `Slow golden_bytes;
      Alcotest.test_case "non-canonical input" `Quick noncanonical_input;
      Alcotest.test_case "line errors" `Quick line_errors;
      Alcotest.test_case "trailer errors" `Quick trailer_errors;
      Alcotest.test_case "shared sites" `Quick shared_sites;
      Alcotest.test_case "memory bound" `Slow memory_bound;
    ]
end

module Int_tbl_tests = struct
  module S = Trace.Int_tbl.Set
  module M = Trace.Int_tbl.Map

  let set_clear_refill_at_boundary () =
    (* Fill a small table through several growths, clear, refill with a
       disjoint key range: [clear] keeps capacity, so the refill lands in
       the same arrays — membership must be exact for both ranges. *)
    let t = S.create ~size:8 () in
    for k = 0 to 63 do
      Alcotest.(check bool) "fresh add" true (S.add t k)
    done;
    Alcotest.(check int) "filled" 64 (S.length t);
    S.clear t;
    Alcotest.(check int) "cleared" 0 (S.length t);
    for k = 0 to 63 do
      Alcotest.(check bool) "old key gone" false (S.mem t k)
    done;
    for k = 100 to 163 do
      Alcotest.(check bool) "refill add" true (S.add t k)
    done;
    Alcotest.(check int) "refilled" 64 (S.length t);
    for k = 100 to 163 do
      Alcotest.(check bool) "new key present" true (S.mem t k)
    done;
    for k = 0 to 63 do
      Alcotest.(check bool) "old key still gone" false (S.mem t k)
    done

  let set_churn_matches_model () =
    (* Heavy delete/insert churn over a key range far wider than the
       initial capacity, mirrored against a Hashtbl model: tombstone
       reuse and the churn-triggered rehash must never lose or
       resurrect a key. *)
    let t = S.create ~size:8 () in
    let model = Hashtbl.create 64 in
    let rng = Random.State.make [| 7 |] in
    for _ = 1 to 5_000 do
      let k = Random.State.int rng 200 in
      if Random.State.bool rng then begin
        let fresh = not (Hashtbl.mem model k) in
        Hashtbl.replace model k ();
        Alcotest.(check bool) "add agrees with model" fresh (S.add t k)
      end
      else begin
        let present = Hashtbl.mem model k in
        Hashtbl.remove model k;
        Alcotest.(check bool) "remove agrees with model" present (S.remove t k)
      end
    done;
    Alcotest.(check int) "length agrees" (Hashtbl.length model) (S.length t);
    for k = 0 to 199 do
      Alcotest.(check bool)
        (Printf.sprintf "mem %d agrees" k)
        (Hashtbl.mem model k) (S.mem t k)
    done

  let map_churn_matches_model () =
    let t = M.create ~size:8 () in
    let model = Hashtbl.create 64 in
    let rng = Random.State.make [| 11 |] in
    for step = 1 to 5_000 do
      let k = Random.State.int rng 200 in
      if Random.State.bool rng then begin
        Hashtbl.replace model k step;
        M.set t k step
      end
      else begin
        let present = Hashtbl.mem model k in
        Hashtbl.remove model k;
        Alcotest.(check bool) "remove agrees with model" present (M.remove t k)
      end
    done;
    Alcotest.(check int) "length agrees" (Hashtbl.length model) (M.length t);
    for k = 0 to 199 do
      Alcotest.(check int)
        (Printf.sprintf "find %d agrees" k)
        (Option.value ~default:(-1) (Hashtbl.find_opt model k))
        (M.find t k)
    done

  let map_tombstone_slot_reused () =
    let t = M.create ~size:8 () in
    M.set t 5 1;
    Alcotest.(check bool) "removed" true (M.remove t 5);
    Alcotest.(check int) "absent after remove" (-1) (M.find t 5);
    Alcotest.(check bool) "second remove is a no-op" false (M.remove t 5);
    M.set t 5 3;
    Alcotest.(check int) "reinserted through the tombstone" 3 (M.find t 5);
    Alcotest.(check int) "length" 1 (M.length t)

  let tests =
    [
      Alcotest.test_case "set clear+refill at capacity" `Quick
        set_clear_refill_at_boundary;
      Alcotest.test_case "set churn matches model" `Quick
        set_churn_matches_model;
      Alcotest.test_case "map churn matches model" `Quick
        map_churn_matches_model;
      Alcotest.test_case "map tombstone slot reused" `Quick
        map_tombstone_slot_reused;
    ]
end

module Vec_tests = struct
  module V = Trace.Vec

  let growth_from_empty () =
    let v = V.create () in
    Alcotest.(check int) "starts empty" 0 (V.length v);
    for i = 0 to 99 do
      V.push v (i * 3)
    done;
    Alcotest.(check int) "length" 100 (V.length v);
    for i = 0 to 99 do
      Alcotest.(check int) (Printf.sprintf "get %d" i) (i * 3) (V.get v i)
    done

  let growth_from_one () =
    (* The 1-element vector exercises the smallest doubling step: the
       second push must grow, not overwrite. *)
    let v = V.create () in
    V.push v "a";
    V.push v "b";
    Alcotest.(check int) "length" 2 (V.length v);
    Alcotest.(check string) "first survives growth" "a" (V.get v 0);
    Alcotest.(check string) "second" "b" (V.get v 1)

  let clear_then_refill () =
    let v = V.create () in
    for i = 0 to 9 do
      V.push v i
    done;
    V.clear v;
    Alcotest.(check int) "cleared" 0 (V.length v);
    V.push v 42;
    Alcotest.(check int) "refill length" 1 (V.length v);
    Alcotest.(check int) "refill value" 42 (V.get v 0);
    let seen = ref [] in
    V.iter (fun x -> seen := x :: !seen) v;
    Alcotest.(check (list int)) "iter sees only live elements" [ 42 ] !seen

  let tests =
    [
      Alcotest.test_case "growth from empty" `Quick growth_from_empty;
      Alcotest.test_case "growth from one element" `Quick growth_from_one;
      Alcotest.test_case "clear then refill" `Quick clear_then_refill;
    ]
end

let () =
  Alcotest.run "trace"
    [
      ("tid", Tid_tests.tests);
      ("site", Site_tests.tests);
      ("event", Event_tests.tests);
      ("tracebuf", Tracebuf_tests.tests);
      ("interner", Interner_tests.tests);
      ("trace_io", Trace_io_tests.tests);
      ("canonical", Canonical_tests.tests);
      ("int_tbl", Int_tbl_tests.tests);
      ("vec", Vec_tests.tests);
      ("fuzz", Fuzz_tests.tests);
    ]
