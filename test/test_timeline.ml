(* Tests for the timeline profiler and bug provenance: fixed-seed lane
   signatures are byte-identical (the event-sequence determinism
   contract), ring overflow drops new events without corrupting recorded
   ones, the Chrome-trace export is valid JSON with per-lane monotone
   timestamps, the span table counts every span whatever the ring does,
   and every analysis report carries a witness. *)

let contains = Test_util.contains

let entry =
  match Pmapps.Registry.find "fast-fair" with
  | Some e -> e
  | None -> Alcotest.fail "fast-fair not registered"

(* Every test leaves the timeline disabled and empty at default capacity,
   so test order never matters. *)
let with_timeline f =
  Obs.Timeline.set_capacity 8192;
  Obs.Timeline.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Timeline.set_enabled false;
      Obs.Timeline.set_capacity 8192)
    f

let with_fake_clock src f =
  Obs.Clock.set_source src;
  Fun.protect ~finally:(fun () -> Obs.Clock.set_source Unix.gettimeofday) f

let pipeline_signatures ~seed ~ops () =
  let report = entry.Pmapps.Registry.run ~seed ~ops () in
  Obs.Timeline.reset ();
  let _ = Hawkset.Pipeline.run report.Machine.Sched.trace in
  List.map
    (fun lane -> (lane, Obs.Timeline.signature lane))
    (Obs.Timeline.used_lanes ())

(* --- ring behaviour --------------------------------------------------- *)

module Ring_tests = struct
  let overflow_drops_new () =
    with_timeline (fun () ->
        Obs.Timeline.set_capacity 8;
        let h = Obs.Timeline.name "ring_test" in
        for i = 0 to 10 do
          Obs.Timeline.instant h ~arg:i
        done;
        Alcotest.(check int) "drop counter" 3 (Obs.Timeline.dropped 0);
        let evs = Obs.Timeline.events 0 in
        Alcotest.(check int) "earlier events intact" 8 (List.length evs);
        List.iteri
          (fun i (e : Obs.Timeline.event) ->
            Alcotest.(check string) "name" "ring_test" e.Obs.Timeline.ev_name;
            Alcotest.(check int) "arg in order" i e.Obs.Timeline.ev_arg)
          evs;
        Alcotest.(check bool)
          "signature records the drops" true
          (contains ~needle:"dropped 3" (Obs.Timeline.signature 0)))

  let disabled_records_nothing () =
    Obs.Timeline.reset ();
    Obs.Timeline.set_enabled false;
    Obs.Timeline.instant (Obs.Timeline.name "off") ~arg:1;
    Alcotest.(check (list int)) "no lanes" [] (Obs.Timeline.used_lanes ())

  let monotone_clamp () =
    (* A clock stepping backwards must never produce an out-of-order
       lane: timestamps clamp to the lane's last. *)
    let t = ref 100.0 in
    with_fake_clock
      (fun () ->
        t := !t -. 1.0;
        !t)
      (fun () ->
        with_timeline (fun () ->
            Obs.Timeline.reset ();
            let h = Obs.Timeline.name "clamp" in
            for i = 0 to 4 do
              Obs.Timeline.instant h ~arg:i
            done;
            let ts =
              List.map
                (fun (e : Obs.Timeline.event) -> e.Obs.Timeline.ev_ts)
                (Obs.Timeline.events 0)
            in
            Alcotest.(check bool)
              "timestamps non-decreasing" true
              (ts = List.sort compare ts)))

  let signature_ignores_timestamps () =
    let record_with src =
      with_fake_clock src (fun () ->
          with_timeline (fun () ->
              Obs.Timeline.reset ();
              let h = Obs.Timeline.name "sig" in
              Obs.Timeline.span h ~arg:7
                ~end_arg:(fun () -> 9)
                (fun () -> Obs.Timeline.instant h ~arg:8);
              Obs.Timeline.signature 0))
    in
    let fast = ref 0.0 in
    let slow = ref 1000.0 in
    let s1 =
      record_with (fun () ->
          fast := !fast +. 0.001;
          !fast)
    in
    let s2 =
      record_with (fun () ->
          slow := !slow +. 42.0;
          !slow)
    in
    Alcotest.(check string) "signatures clock-independent" s1 s2;
    Alcotest.(check string)
      "signature shape" "B sig 7\nI sig 8\nE sig 9\ndropped 0\n" s1

  let lane_binding () =
    with_timeline (fun () ->
        Obs.Timeline.reset ();
        let h = Obs.Timeline.name "lane_test" in
        Obs.Timeline.instant h ~arg:0;
        Obs.Timeline.with_lane 3 (fun () -> Obs.Timeline.instant h ~arg:3);
        Obs.Timeline.instant h ~arg:0;
        Alcotest.(check int) "restored lane" 0 (Obs.Timeline.current_lane ());
        Alcotest.(check (list int))
          "used lanes" [ 0; 3 ]
          (Obs.Timeline.used_lanes ());
        Alcotest.(check int) "lane 0 events" 2
          (List.length (Obs.Timeline.events 0));
        Alcotest.(check int) "lane 3 events" 1
          (List.length (Obs.Timeline.events 3)))

  let tests =
    [
      Alcotest.test_case "overflow drops new, keeps old" `Quick
        overflow_drops_new;
      Alcotest.test_case "disabled records nothing" `Quick
        disabled_records_nothing;
      Alcotest.test_case "monotone clamp" `Quick monotone_clamp;
      Alcotest.test_case "signature ignores timestamps" `Quick
        signature_ignores_timestamps;
      Alcotest.test_case "lane binding" `Quick lane_binding;
    ]
end

(* --- fixed-seed determinism ------------------------------------------- *)

module Determinism_tests = struct
  (* The acceptance criterion: two same-seed runs produce byte-identical
     per-lane event sequences (timestamps excluded by {!signature}). *)
  let same_seed_same_signatures () =
    with_timeline (fun () ->
        let s1 = pipeline_signatures ~seed:7 ~ops:400 () in
        let s2 = pipeline_signatures ~seed:7 ~ops:400 () in
        Alcotest.(check (list int)) "only the caller lane" [ 0 ]
          (List.map fst s1);
        Alcotest.(check (list (pair int string)))
          "per-lane signatures byte-identical" s1 s2)

  let expected_lane0_shape () =
    with_timeline (fun () ->
        let sigs = pipeline_signatures ~seed:7 ~ops:400 () in
        let lane0 = List.assoc 0 sigs in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("lane 0 has " ^ needle) true
              (contains ~needle lane0))
          [
            "B pipeline"; "B collect"; "E collect"; "B analyse"; "E analyse";
            "E pipeline";
          ])

  (* One bracket per stage: in an instrumented run's lane-0 signature
     each stage opens exactly once, and no second pipeline-level bracket
     wraps collect or analyse. *)
  let one_bracket_per_stage () =
    with_timeline (fun () ->
        ignore (Harness.Stats.instrumented_run ~entry ~seed:7 ~ops:400 ());
        let lines = String.split_on_char '\n' (Obs.Timeline.signature 0) in
        let opens name =
          List.length
            (List.filter
               (fun l ->
                 match String.split_on_char ' ' l with
                 | [ "B"; n; _ ] -> n = name
                 | _ -> false)
               lines)
        in
        List.iter
          (fun name ->
            Alcotest.(check int) (name ^ " opens once") 1 (opens name))
          [ "run"; "execute"; "pipeline"; "collect"; "analyse" ];
        List.iter
          (fun name -> Alcotest.(check int) (name ^ " absent") 0 (opens name))
          [ "pipeline.collect"; "pipeline.analyse" ])

  (* The offline bracket [analyze] runs under: in lane 0's signature the
     trace's load opens once, and closes before the pipeline opens. *)
  let load_before_pipeline () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Trace.Trace_io.save path
      (entry.Pmapps.Registry.run ~seed:7 ~ops:400 ()).Machine.Sched.trace;
    with_timeline (fun () ->
        let (trace, _), manifest =
          Harness.Stats.measured_offline
            ~labels:(fun t ->
              [ ("events", string_of_int (Trace.Tracebuf.length t)) ])
            ~load:(fun () -> Trace.Trace_io.load path)
            ~analyse:(Harness.Stats.hawkset_pipeline ?config:None)
        in
        let lines = String.split_on_char '\n' (Obs.Timeline.signature 0) in
        let index l =
          let rec go i = function
            | [] -> Alcotest.failf "no %S in lane 0" l
            | x :: _ when String.starts_with ~prefix:(l ^ " ") x -> i
            | _ :: r -> go (i + 1) r
          in
          go 0 lines
        in
        Alcotest.(check int) "load opens once" 1
          (List.length
             (List.filter (String.starts_with ~prefix:"B load ") lines));
        Alcotest.(check bool) "load closes before pipeline opens" true
          (index "B load" < index "E load"
          && index "E load" < index "B pipeline");
        Alcotest.(check (list string)) "labels of the loaded trace"
          [ string_of_int (Trace.Tracebuf.length trace) ]
          (List.map snd manifest.Obs.Manifest.labels);
        Alcotest.(check bool) "load in the span table" true
          (List.mem_assoc "load" manifest.Obs.Manifest.stages))

  (* Queue tasks record on their slot's lane: two slots use at most lanes
     0 and 1, and every task's event lands on exactly one of them. *)
  let queue_tasks_use_slot_lanes () =
    let pool = Hawkset.Domain_pool.create () in
    Fun.protect ~finally:(fun () -> Hawkset.Domain_pool.shutdown pool)
    @@ fun () ->
    with_timeline (fun () ->
        Obs.Timeline.reset ();
        let h = Obs.Timeline.name "queue_task" in
        let n = 12 in
        Array.iter
          (function Ok () -> () | Error e -> raise e)
          (Hawkset.Domain_pool.run_queue pool ~workers:2
             (Array.init n (fun i () -> Obs.Timeline.instant h ~arg:i)));
        let lanes = Obs.Timeline.used_lanes () in
        Alcotest.(check bool) "lanes within the slots" true
          (List.for_all (fun l -> l = 0 || l = 1) lanes);
        let args =
          List.concat_map
            (fun l ->
              List.map (fun e -> e.Obs.Timeline.ev_arg) (Obs.Timeline.events l))
            lanes
        in
        Alcotest.(check (list int)) "each task once"
          (List.init n Fun.id)
          (List.sort compare args))

  let tests =
    [
      Alcotest.test_case "same seed, same signatures" `Slow
        same_seed_same_signatures;
      Alcotest.test_case "lane 0 event shape" `Slow expected_lane0_shape;
      Alcotest.test_case "one bracket per stage" `Slow one_bracket_per_stage;
      Alcotest.test_case "load before pipeline" `Slow load_before_pipeline;
      Alcotest.test_case "queue tasks use slot lanes" `Quick
        queue_tasks_use_slot_lanes;
    ]
end

(* --- Chrome-trace export ---------------------------------------------- *)

module Mini_json = Test_util.Mini_json

module Export_tests = struct
  (* Four queue tasks on a fresh four-slot pool, each collecting and
     analysing the same trace on its own lane. A barrier holds every task
     until all four have started, so no slot can drain a second task and
     each lane gets exactly one. *)
  let export () =
    let trace =
      (entry.Pmapps.Registry.run ~seed:7 ~ops:400 ()).Machine.Sched.trace
    in
    let pool = Hawkset.Domain_pool.create () in
    Fun.protect ~finally:(fun () -> Hawkset.Domain_pool.shutdown pool)
    @@ fun () ->
    with_timeline (fun () ->
        Obs.Timeline.reset ();
        let m = Mutex.create () and c = Condition.create () in
        let started = ref 0 in
        let task () =
          Mutex.lock m;
          incr started;
          Condition.broadcast c;
          while !started < 4 do
            Condition.wait c m
          done;
          Mutex.unlock m;
          ignore (Hawkset.Analysis.run (Hawkset.Collector.collect trace))
        in
        Array.iter
          (function Ok () -> () | Error e -> raise e)
          (Hawkset.Domain_pool.run_queue pool ~workers:4 (Array.make 4 task));
        Obs.Timeline.to_chrome_json ())

  let valid_json_and_monotone () =
    let raw = export () in
    let j = Mini_json.parse raw in
    let evs =
      match Mini_json.member "traceEvents" j with
      | Mini_json.Arr evs -> evs
      | _ -> Alcotest.fail "traceEvents not an array"
    in
    Alcotest.(check bool) "has events" true (List.length evs > 0);
    (* Per-lane timestamps are monotone in recording order. *)
    let last = Hashtbl.create 8 in
    let lanes = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let str_mem k =
          match Mini_json.member k e with
          | Mini_json.Str s -> s
          | _ -> Alcotest.fail (k ^ " not a string")
        in
        let num_mem k =
          match Mini_json.member k e with
          | Mini_json.Num x -> x
          | _ -> Alcotest.fail (k ^ " not a number")
        in
        let tid = int_of_float (num_mem "tid") in
        match str_mem "ph" with
        | "M" ->
            Alcotest.(check string) "metadata name" "thread_name"
              (str_mem "name");
            Hashtbl.replace lanes tid ()
        | "B" | "E" | "i" ->
            let ts = num_mem "ts" in
            Alcotest.(check bool) "ts non-negative" true (ts >= 0.0);
            (match Hashtbl.find_opt last tid with
            | Some prev ->
                Alcotest.(check bool)
                  (Printf.sprintf "lane %d monotone" tid)
                  true (ts >= prev)
            | None -> ());
            Hashtbl.replace last tid ts
        | ph -> Alcotest.fail ("unexpected ph " ^ ph))
      evs;
    (* One thread_name lane per pool slot: 4 slots -> lanes 0..3. *)
    Alcotest.(check int) "4 labelled lanes" 4 (Hashtbl.length lanes);
    List.iter
      (fun lane ->
        Alcotest.(check bool)
          (Printf.sprintf "lane %d labelled" lane)
          true (Hashtbl.mem lanes lane))
      [ 0; 1; 2; 3 ]

  let begin_end_nesting () =
    (* B/E events on a lane must balance like parentheses, or Perfetto
       renders garbage. *)
    let raw = export () in
    let j = Mini_json.parse raw in
    let evs =
      match Mini_json.member "traceEvents" j with
      | Mini_json.Arr evs -> evs
      | _ -> Alcotest.fail "traceEvents not an array"
    in
    let depth = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let tid =
          match Mini_json.member "tid" e with
          | Mini_json.Num x -> int_of_float x
          | _ -> Alcotest.fail "tid"
        in
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        match Mini_json.member "ph" e with
        | Mini_json.Str "B" -> Hashtbl.replace depth tid (d + 1)
        | Mini_json.Str "E" ->
            Alcotest.(check bool) "E has a matching B" true (d > 0);
            Hashtbl.replace depth tid (d - 1)
        | _ -> ())
      evs;
    Hashtbl.iter
      (fun tid d ->
        Alcotest.(check int) (Printf.sprintf "lane %d balanced" tid) 0 d)
      depth

  let tests =
    [
      Alcotest.test_case "valid JSON, monotone per lane" `Slow
        valid_json_and_monotone;
      Alcotest.test_case "B/E balance per lane" `Slow begin_end_nesting;
    ]
end

(* --- span table ------------------------------------------------------- *)

module Span_table_tests = struct
  let paths_and_counts () =
    List.map (fun (path, (count, _)) -> (path, count)) (Obs.Timeline.spans ())

  (* Seconds come from exactly two clock reads per span. *)
  let seconds () =
    let fake = ref 0.0 in
    with_fake_clock
      (fun () ->
        fake := !fake +. 0.5;
        !fake)
      (fun () ->
        with_timeline (fun () ->
            Obs.Timeline.reset ();
            Obs.Timeline.span (Obs.Timeline.name "gauge_test") ignore;
            Alcotest.(check (list (pair string (pair int (float 1e-9)))))
              "count and seconds"
              [ ("gauge_test", (1, 0.5)) ]
              (Obs.Timeline.spans ())))

  (* The table never drops: a one-event ring, recording off or on, gives
     the same span paths and counts for the same instrumented run. *)
  let independent_of_ring () =
    Fun.protect
      ~finally:(fun () ->
        Obs.Timeline.set_enabled false;
        Obs.Timeline.set_capacity 8192)
    @@ fun () ->
    Obs.Timeline.set_capacity 1;
    let run enabled =
      Obs.Timeline.set_enabled enabled;
      ignore (Harness.Stats.instrumented_run ~entry ~seed:7 ~ops:400 ());
      Obs.Timeline.set_enabled false;
      paths_and_counts ()
    in
    let off = run false in
    let on = run true in
    Alcotest.(check bool) "ring overflowed" true (Obs.Timeline.dropped 0 > 0);
    Alcotest.(check (list (pair string int))) "same paths and counts" off on;
    Alcotest.(check (list (pair string int)))
      "the run's stage tree"
      [
        ("run", 1); ("run/execute", 1); ("run/pipeline", 1);
        ("run/pipeline/analyse", 1); ("run/pipeline/collect", 1);
      ]
      off

  (* An exception unwinding nested spans closes each of them, so a span
     opened afterwards sits at the top level again. *)
  let exception_unwinds () =
    Obs.Timeline.reset ();
    let a = Obs.Timeline.name "outer" and b = Obs.Timeline.name "inner" in
    (try
       Obs.Timeline.span a (fun () ->
           Obs.Timeline.span b (fun () -> failwith "boom"))
     with Failure _ -> ());
    Obs.Timeline.span b (fun () -> Obs.Timeline.span a ignore);
    Alcotest.(check (list (pair string int)))
      "later spans at the right depth"
      [ ("inner", 1); ("inner/outer", 1); ("outer", 1); ("outer/inner", 1) ]
      (paths_and_counts ())

  (* Lanes keep separate stacks and tables; {!Obs.Timeline.spans} sums
     them by path. A barrier puts the two queue tasks on two lanes. *)
  let lanes_merge_by_path () =
    let pool = Hawkset.Domain_pool.create () in
    Fun.protect ~finally:(fun () -> Hawkset.Domain_pool.shutdown pool)
    @@ fun () ->
    Obs.Timeline.reset ();
    let job = Obs.Timeline.name "job" in
    let m = Mutex.create () and c = Condition.create () in
    let started = ref 0 in
    let task () =
      Mutex.lock m;
      incr started;
      Condition.broadcast c;
      while !started < 2 do
        Condition.wait c m
      done;
      Mutex.unlock m;
      Obs.Timeline.span job (fun () -> Obs.Timeline.current_lane ())
    in
    let lanes =
      Array.map
        (function Ok l -> l | Error e -> raise e)
        (Hawkset.Domain_pool.run_queue pool ~workers:2 (Array.make 2 task))
    in
    Alcotest.(check bool) "two lanes" true (lanes.(0) <> lanes.(1));
    Alcotest.(check (list (pair string int)))
      "one path, count 2" [ ("job", 2) ] (paths_and_counts ())

  let tests =
    [
      Alcotest.test_case "seconds" `Quick seconds;
      Alcotest.test_case "independent of the ring" `Slow independent_of_ring;
      Alcotest.test_case "exception unwinds nested spans" `Quick
        exception_unwinds;
      Alcotest.test_case "lanes merge by path" `Quick lanes_merge_by_path;
    ]
end

(* --- bug provenance --------------------------------------------------- *)

module Provenance_tests = struct
  let races () =
    let report = entry.Pmapps.Registry.run ~seed:7 ~ops:400 () in
    Hawkset.Pipeline.races report.Machine.Sched.trace

  let every_report_has_a_witness () =
    let races = races () in
    Alcotest.(check bool) "found races" true (Hawkset.Report.count races > 0);
    List.iter
      (fun (r : Hawkset.Report.race) ->
        match r.Hawkset.Report.witness with
        | Some w ->
            (* The effective lockset is an intersection of the store's:
               every effective lock was held at the store. *)
            List.iter
              (fun l ->
                Alcotest.(check bool) "eff subset of store" true
                  (List.mem l w.Hawkset.Report.wt_store_locks))
              w.Hawkset.Report.wt_eff_locks;
            (* The race test requires eff ∩ load = ∅. *)
            List.iter
              (fun l ->
                Alcotest.(check bool) "eff disjoint from load" true
                  (not (List.mem l w.Hawkset.Report.wt_load_locks)))
              w.Hawkset.Report.wt_eff_locks
        | None -> Alcotest.fail "report without witness")
      (Hawkset.Report.sorted races)

  let witness_in_json () =
    let j = Hawkset.Report.to_json (races ()) in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("json has " ^ needle) true (contains ~needle j))
      [
        {|"witness":{|}; {|"store_lockset":|}; {|"effective_lockset":|};
        {|"load_lockset":|}; {|"store_vclock":|}; {|"window_end_vclock":|};
        {|"load_vclock":|};
      ]

  let pp_witness_renders () =
    let races = races () in
    match
      List.filter_map
        (fun (r : Hawkset.Report.race) -> r.Hawkset.Report.witness)
        (Hawkset.Report.sorted races)
    with
    | [] -> Alcotest.fail "no witness to render"
    | w :: _ ->
        let s = Format.asprintf "%a" Hawkset.Report.pp_witness w in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("pp has " ^ needle) true
              (contains ~needle s))
          [ "witness:"; "effective lockset"; "store vclock"; "load vclock" ]

  let tests =
    [
      Alcotest.test_case "every report has a witness" `Slow
        every_report_has_a_witness;
      Alcotest.test_case "witness in to_json" `Slow witness_in_json;
      Alcotest.test_case "pp_witness renders" `Slow pp_witness_renders;
    ]
end

let () =
  Alcotest.run "timeline"
    [
      ("ring", Ring_tests.tests);
      ("determinism", Determinism_tests.tests);
      ("export", Export_tests.tests);
      ("span table", Span_table_tests.tests);
      ("provenance", Provenance_tests.tests);
    ]
