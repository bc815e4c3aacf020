(* Unit tests for the observability library: metric cells, registry
   find-or-create and reset semantics, span nesting, delta arithmetic,
   logger gating, JSON emission and manifest round-trips. *)

module Mini_json = Test_util.Mini_json

(* --- Json ------------------------------------------------------------- *)

module Json_tests = struct
  let escaping () =
    Alcotest.(check string)
      "quotes and backslashes" {|"a\"b\\c"|}
      (Obs.Json.str {|a"b\c|});
    Alcotest.(check string)
      "control chars" "\"x\\ny\"" (Obs.Json.str "x\ny")

  let scalars () =
    Alcotest.(check string) "int" "42" (Obs.Json.int 42);
    Alcotest.(check string) "bool" "true" (Obs.Json.bool true);
    Alcotest.(check string) "nan is null" "null" (Obs.Json.float Float.nan)

  let containers () =
    Alcotest.(check string)
      "array" "[1,2]"
      (Obs.Json.arr [ Obs.Json.int 1; Obs.Json.int 2 ]);
    Alcotest.(check string)
      "object" {|{"a":1}|}
      (Obs.Json.obj [ ("a", Obs.Json.int 1) ])

  let tests =
    [
      Alcotest.test_case "escaping" `Quick escaping;
      Alcotest.test_case "scalars" `Quick scalars;
      Alcotest.test_case "containers" `Quick containers;
    ]
end

(* --- Metric ----------------------------------------------------------- *)

module Metric_tests = struct
  let counter () =
    let c = Obs.Metric.counter "t" in
    Obs.Metric.incr c;
    Obs.Metric.add c 4;
    Alcotest.(check int) "value" 5 (Obs.Metric.value c);
    Obs.Metric.reset_counter c;
    Alcotest.(check int) "reset" 0 (Obs.Metric.value c)

  let histogram_cells () =
    let h = Obs.Metric.histogram ~bounds:[| 1; 4 |] "h" in
    List.iter (Obs.Metric.observe h) [ 0; 1; 3; 9 ];
    Alcotest.(check (list (pair string int)))
      "cells"
      [
        ("le_1", 2); ("le_4", 1); ("overflow", 1); ("count", 4); ("sum", 13);
        ("max", 9);
      ]
      (Obs.Metric.cells h)

  let tests =
    [
      Alcotest.test_case "counter" `Quick counter;
      Alcotest.test_case "histogram cells" `Quick histogram_cells;
    ]
end

(* --- Registry --------------------------------------------------------- *)

module Registry_tests = struct
  let find_or_create () =
    let r = Obs.Registry.create () in
    let a = Obs.Registry.counter ~registry:r "x" in
    let b = Obs.Registry.counter ~registry:r "x" in
    Obs.Metric.incr a;
    Obs.Metric.incr b;
    (* Same name, same cell. *)
    Alcotest.(check (list (pair string int)))
      "snapshot" [ ("x", 2) ]
      (Obs.Registry.counters r)

  let reset_keeps_handles () =
    let r = Obs.Registry.create () in
    let c = Obs.Registry.counter ~registry:r "x" in
    Obs.Metric.add c 7;
    Obs.Registry.reset r;
    Alcotest.(check int) "zeroed" 0 (Obs.Metric.value c);
    Obs.Metric.incr c;
    Alcotest.(check (list (pair string int)))
      "handle still registered" [ ("x", 1) ]
      (Obs.Registry.counters r)

  let span_nesting () =
    let r = Obs.Registry.create () in
    let fake = ref 0.0 in
    Obs.Clock.set_source (fun () ->
        fake := !fake +. 0.5;
        !fake);
    Fun.protect
      ~finally:(fun () -> Obs.Clock.set_source Unix.gettimeofday)
      (fun () ->
        Obs.Registry.with_span ~registry:r "run" (fun () ->
            Obs.Registry.with_span ~registry:r "collect" (fun () -> ()));
        let spans = Obs.Registry.spans r in
        Alcotest.(check (list string))
          "paths are slash-joined" [ "run"; "run/collect" ]
          (List.map fst spans);
        List.iter
          (fun (_, (count, seconds)) ->
            Alcotest.(check int) "count" 1 count;
            Alcotest.(check bool) "positive" true (seconds > 0.))
          spans)

  let delta () =
    Alcotest.(check (list (pair string int)))
      "subtracts before, keeps new keys"
      [ ("a", 2); ("b", 5) ]
      (Obs.Registry.delta
         ~before:[ ("a", 3); ("stale", 1) ]
         ~after:[ ("a", 5); ("b", 5) ])

  let tests =
    [
      Alcotest.test_case "find-or-create" `Quick find_or_create;
      Alcotest.test_case "reset keeps handles" `Quick reset_keeps_handles;
      Alcotest.test_case "span nesting" `Quick span_nesting;
      Alcotest.test_case "delta" `Quick delta;
    ]
end

(* --- Logger ----------------------------------------------------------- *)

module Logger_tests = struct
  let gating () =
    let seen = ref [] in
    let old = Obs.Logger.level () in
    Obs.Logger.set_sink (fun _ section msg -> seen := (section, msg) :: !seen);
    Fun.protect
      ~finally:(fun () ->
        Obs.Logger.set_level old;
        Obs.Logger.set_sink (fun _ _ _ -> ()))
      (fun () ->
        Obs.Logger.set_level Obs.Logger.Info;
        Obs.Logger.debug ~section:"s" (fun () ->
            Alcotest.fail "debug thunk forced below level");
        Obs.Logger.info ~section:"s" (fun () -> "hello");
        Alcotest.(check (list (pair string string)))
          "only info delivered" [ ("s", "hello") ] !seen;
        Alcotest.(check bool) "enabled info" true
          (Obs.Logger.enabled Obs.Logger.Info);
        Alcotest.(check bool) "disabled debug" false
          (Obs.Logger.enabled Obs.Logger.Debug))

  let level_names () =
    List.iter
      (fun l ->
        Alcotest.(check bool)
          "round-trips" true
          (Obs.Logger.level_of_string (Obs.Logger.level_name l) = Some l))
      [
        Obs.Logger.Quiet; Obs.Logger.Error; Obs.Logger.Warn; Obs.Logger.Info;
        Obs.Logger.Debug;
      ]

  let tests =
    [
      Alcotest.test_case "gating" `Quick gating;
      Alcotest.test_case "level names" `Quick level_names;
    ]
end

(* --- Manifest --------------------------------------------------------- *)

module Manifest_tests = struct
  let json_shape () =
    let m =
      Obs.Manifest.make
        ~labels:[ ("app", "fast-fair") ]
        ~counters:[ ("collector.events", 12) ]
        ~stages:
          [
            {
              Obs.Manifest.stage_name = "run/collect";
              stage_count = 1;
              stage_seconds = 0.25;
            };
          ]
        ~gauges:[ ("peak_live_mb", 1.5) ]
        ()
    in
    (* Parse the emitted JSON back and assert on structure, not on
       substrings of the serialization. *)
    let j = Mini_json.parse (Obs.Manifest.to_json m) in
    Alcotest.(check string)
      "schema" "hawkset.run_manifest/1"
      (Mini_json.str_mem "schema" j);
    Alcotest.(check string)
      "app label" "fast-fair"
      (Mini_json.str_mem "app" (Mini_json.member "labels" j));
    Alcotest.(check int)
      "collector.events counter" 12
      (int_of_float
         (Mini_json.num_mem "collector.events" (Mini_json.member "counters" j)));
    (match Mini_json.to_list (Mini_json.member "stages" j) with
    | [ stage ] ->
        Alcotest.(check string)
          "stage name" "run/collect"
          (Mini_json.str_mem "name" stage);
        Alcotest.(check (float 1e-9))
          "stage seconds" 0.25
          (Mini_json.num_mem "seconds" stage)
    | stages -> Alcotest.fail (Printf.sprintf "%d stages" (List.length stages)));
    Alcotest.(check bool)
      "peak_live_mb gauge present" true
      (Mini_json.member_opt "peak_live_mb" (Mini_json.member "gauges" j)
      <> None);
    Alcotest.(check (option int))
      "counter accessor" (Some 12)
      (Obs.Manifest.counter m "collector.events");
    Alcotest.(check (option string))
      "label accessor" (Some "fast-fair")
      (Obs.Manifest.label m "app")

  let counters_json_excludes_measurements () =
    let m =
      Obs.Manifest.make
        ~counters:[ ("a", 1) ]
        ~gauges:[ ("seconds", 3.2) ]
        ()
    in
    let j = Mini_json.parse (Obs.Manifest.counters_json m) in
    Alcotest.(check int)
      "has counters" 1
      (int_of_float (Mini_json.num_mem "a" j));
    Alcotest.(check (list string))
      "counters only — no gauge keys" [ "a" ] (Mini_json.keys j)

  let of_registry () =
    let r = Obs.Registry.create () in
    Obs.Metric.add (Obs.Registry.counter ~registry:r "c") 2;
    Obs.Metric.observe (Obs.Registry.histogram ~registry:r "h") 3;
    Obs.Registry.with_span ~registry:r "s" (fun () -> ());
    let m = Obs.Manifest.of_registry ~extra_gauges:[ ("g", 1.0) ] r in
    Alcotest.(check (option int)) "counter" (Some 2) (Obs.Manifest.counter m "c");
    Alcotest.(check bool) "histogram present" true
      (List.mem_assoc "h" m.Obs.Manifest.histograms);
    Alcotest.(check (list string))
      "span stage" [ "s" ]
      (List.map (fun s -> s.Obs.Manifest.stage_name) m.Obs.Manifest.stages);
    Alcotest.(check (option (float 0.0))) "gauge" (Some 1.0)
      (Obs.Manifest.gauge m "g")

  let tests =
    [
      Alcotest.test_case "json shape" `Quick json_shape;
      Alcotest.test_case "counters_json excludes measurements" `Quick
        counters_json_excludes_measurements;
      Alcotest.test_case "of_registry" `Quick of_registry;
    ]
end

let () =
  Alcotest.run "obs"
    [
      ("json", Json_tests.tests);
      ("metric", Metric_tests.tests);
      ("registry", Registry_tests.tests);
      ("logger", Logger_tests.tests);
      ("manifest", Manifest_tests.tests);
    ]
