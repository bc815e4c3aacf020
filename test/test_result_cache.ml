(* The fingerprint-keyed result cache: probe/insert semantics, the
   config fingerprint's inclusion/exclusion contract, and the journal
   persistence roundtrip (including its tolerance of damage). *)

module RC = Hawkset.Result_cache

let entry ?(json = {|{"schema":"x","races":[]}|})
    ?(canonical = [ ("a.ml:1", "b.ml:2"); ("c.ml:3", "d.ml:4") ])
    ?(counters = [ ("analysis.pairs", 7); ("collect.events", 100) ]) () =
  { RC.e_races_json = json; e_canonical = canonical; e_counters = counters }

let fp16 s = Printf.sprintf "%016x" (Hashtbl.hash s land 0xFFFFFF)
let check_entry msg a b =
  Alcotest.(check string) (msg ^ " json") a.RC.e_races_json b.RC.e_races_json;
  Alcotest.(check (list (pair string string)))
    (msg ^ " canonical") a.RC.e_canonical b.RC.e_canonical;
  Alcotest.(check (list (pair string int)))
    (msg ^ " counters") a.RC.e_counters b.RC.e_counters

let with_tmp f =
  let path = Filename.temp_file "hawkset_cache" ".jnl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

module Basic = struct
  let find_miss_then_hit () =
    let c = RC.create () in
    Alcotest.(check bool) "cold miss" true
      (RC.find c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") = None);
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    (match RC.find c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") with
    | None -> Alcotest.fail "expected hit"
    | Some e -> check_entry "hit" (entry ()) e);
    Alcotest.(check int) "length" 1 (RC.length c)

  let key_is_both_fingerprints () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    Alcotest.(check bool) "same trace, other config misses" true
      (RC.find c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c2") = None);
    Alcotest.(check bool) "other trace, same config misses" true
      (RC.find c ~trace_fp:(fp16 "t2") ~config_fp:(fp16 "c1") = None)

  let first_add_wins () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") (entry ~json:"first" ());
    RC.add c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") (entry ~json:"second" ());
    Alcotest.(check int) "no duplicate row" 1 (RC.length c);
    match RC.find c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") with
    | Some e -> Alcotest.(check string) "first kept" "first" e.RC.e_races_json
    | None -> Alcotest.fail "expected hit"

  let clear_keeps_totals () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") (entry ());
    ignore (RC.find c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c"));
    ignore (RC.find c ~trace_fp:(fp16 "miss") ~config_fp:(fp16 "c"));
    RC.clear c;
    Alcotest.(check int) "emptied" 0 (RC.length c);
    let stat name =
      Option.value ~default:(-1) (List.assoc_opt name (RC.stats c))
    in
    Alcotest.(check int) "entries stat" 0 (stat "cache.entries");
    Alcotest.(check int) "bytes stat" 0 (stat "cache.bytes");
    Alcotest.(check int) "hits survive clear" 1 (stat "cache.hits");
    Alcotest.(check int) "misses survive clear" 1 (stat "cache.misses");
    Alcotest.(check bool) "cleared key misses" true
      (RC.find c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") = None)

  let stats_shape () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") (entry ());
    Alcotest.(check (list string)) "sorted keys"
      [ "cache.bytes"; "cache.entries"; "cache.hits"; "cache.misses" ]
      (List.map fst (RC.stats c));
    let stat name =
      Option.value ~default:(-1) (List.assoc_opt name (RC.stats c))
    in
    Alcotest.(check int) "one entry" 1 (stat "cache.entries");
    Alcotest.(check bool) "bytes counted" true (stat "cache.bytes" > 0)

  let tests =
    [
      Alcotest.test_case "find miss then hit" `Quick find_miss_then_hit;
      Alcotest.test_case "key is (trace, config)" `Quick
        key_is_both_fingerprints;
      Alcotest.test_case "first add wins" `Quick first_add_wins;
      Alcotest.test_case "clear keeps hit/miss totals" `Quick
        clear_keeps_totals;
      Alcotest.test_case "stats shape" `Quick stats_shape;
    ]
end

module Config_fp = struct
  let stable () =
    let a = RC.config_fingerprint Hawkset.Pipeline.default in
    let b = RC.config_fingerprint Hawkset.Pipeline.default in
    Alcotest.(check string) "deterministic" a b;
    Alcotest.(check int) "16 hex digits" 16 (String.length a)

  let semantic_knobs_included () =
    let base = Hawkset.Pipeline.default in
    Alcotest.(check bool) "event budget changes key" true
      (RC.config_fingerprint base
      <> RC.config_fingerprint
           { base with Hawkset.Pipeline.event_budget = Some 100 })

  let tests =
    [
      Alcotest.test_case "stable" `Quick stable;
      Alcotest.test_case "semantic knobs included" `Quick
        semantic_knobs_included;
    ]
end

module Persist = struct
  let roundtrip () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    RC.add c ~trace_fp:(fp16 "t2") ~config_fp:(fp16 "c1")
      (entry ~json:{|{"races":[1]}|} ~canonical:[] ~counters:[] ());
    with_tmp (fun path ->
        RC.save c path;
        let loaded = RC.load path in
        Alcotest.(check int) "both entries" 2 (RC.length loaded);
        (match RC.find loaded ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") with
        | Some e -> check_entry "entry 1" (entry ()) e
        | None -> Alcotest.fail "entry 1 lost");
        match RC.find loaded ~trace_fp:(fp16 "t2") ~config_fp:(fp16 "c1") with
        | Some e ->
            check_entry "entry 2 (empty lists)"
              (entry ~json:{|{"races":[1]}|} ~canonical:[] ~counters:[] ())
              e
        | None -> Alcotest.fail "entry 2 lost")

  let missing_file_is_empty () =
    let c = RC.load "/nonexistent/hawkset_cache.jnl" in
    Alcotest.(check int) "empty" 0 (RC.length c)

  let torn_tail_costs_tail_only () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    RC.add c ~trace_fp:(fp16 "t2") ~config_fp:(fp16 "c1") (entry ());
    with_tmp (fun path ->
        RC.save c path;
        let full = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (String.sub full 0 (String.length full - 9)));
        let loaded = RC.load path in
        Alcotest.(check int) "valid prefix kept" 1 (RC.length loaded))

  let load_into_merges () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    with_tmp (fun path ->
        RC.save c path;
        let dst = RC.create () in
        RC.add dst ~trace_fp:(fp16 "t9") ~config_fp:(fp16 "c1") (entry ());
        Alcotest.(check int) "one read" 1 (RC.load_into dst path);
        Alcotest.(check int) "merged" 2 (RC.length dst);
        (* Merging the same journal again finds the keys present. *)
        ignore (RC.load_into dst path);
        Alcotest.(check int) "idempotent" 2 (RC.length dst))

  let tests =
    [
      Alcotest.test_case "save/load roundtrip" `Quick roundtrip;
      Alcotest.test_case "missing file is empty" `Quick missing_file_is_empty;
      Alcotest.test_case "torn tail costs the tail only" `Quick
        torn_tail_costs_tail_only;
      Alcotest.test_case "load_into merges" `Quick load_into_merges;
    ]
end

let () =
  Alcotest.run "result_cache"
    [
      ("basic", Basic.tests);
      ("config_fp", Config_fp.tests);
      ("persist", Persist.tests);
    ]
