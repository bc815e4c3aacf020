(* Tests for the evaluation harness: table rendering, the avg-time-to-race
   metric (checked against the paper's own numbers), and small-scale runs
   of each experiment driver. *)

module Metric_tests = struct
  let paper_numbers () =
    (* Table 3, PMRace row: T=600s, 9 racy out of 240 -> 69900.00 s. *)
    (match Harness.Metrics.avg_time_to_race ~t:600.0 ~found:9 ~missed:231 with
    | Some v -> Alcotest.(check (float 0.5)) "PMRace bug #1" 69900.0 v
    | None -> Alcotest.fail "expected a value");
    (* HawkSet row: T=6.65s, 110 racy out of 240 -> ~439 s. *)
    (match Harness.Metrics.avg_time_to_race ~t:6.65 ~found:110 ~missed:130 with
    | Some v -> Alcotest.(check (float 1.0)) "HawkSet bug #1" 438.9 v
    | None -> Alcotest.fail "expected a value");
    (* Bug #2, PMRace: never found -> infinity. *)
    Alcotest.(check bool) "never found = infinity" true
      (Harness.Metrics.avg_time_to_race ~t:600.0 ~found:0 ~missed:240 = None)

  let closed_form_matches_binomial =
    QCheck.Test.make ~name:"closed form equals the paper's binomial sum"
      ~count:200
      QCheck.(triple (float_bound_inclusive 100.0) (int_range 1 50) (int_range 0 60))
      (fun (t, found, missed) ->
        match
          ( Harness.Metrics.avg_time_to_race ~t ~found ~missed,
            Harness.Metrics.avg_time_to_race_binomial ~t ~found ~missed )
        with
        | Some a, Some b -> Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a)
        | None, None -> true
        | Some _, None | None, Some _ -> false)

  let speedup_shape () =
    (* The headline: 600*(231/2+1) / (6.65*(130/2+1)) ~ 159x. *)
    match
      ( Harness.Metrics.avg_time_to_race ~t:600.0 ~found:9 ~missed:231,
        Harness.Metrics.avg_time_to_race ~t:6.65 ~found:110 ~missed:130 )
    with
    | Some pm, Some hk ->
        Alcotest.(check (float 2.0)) "paper speedup" 159.2 (pm /. hk)
    | _ -> Alcotest.fail "expected values"

  let tests =
    [
      Alcotest.test_case "paper numbers" `Quick paper_numbers;
      QCheck_alcotest.to_alcotest closed_form_matches_binomial;
      Alcotest.test_case "159x reconstruction" `Quick speedup_shape;
    ]
end

module Tables_tests = struct
  let render () =
    let s =
      Harness.Tables.render ~headers:[ "A"; "Bee" ]
        ~rows:[ [ "xx"; "y" ]; [ "z" ] ]
    in
    let lines = String.split_on_char '\n' (String.trim s) in
    Alcotest.(check int) "4 lines" 4 (List.length lines);
    (* All lines align to the same width. *)
    match lines with
    | header :: _ ->
        Alcotest.(check bool) "header contains names" true
          (String.length header >= 6)
    | [] -> Alcotest.fail "empty render"

  let tests = [ Alcotest.test_case "render" `Quick render ]
end

module Experiment_tests = struct
  (* Small-scale runs: check invariants, not absolute values. *)

  let table2_small () =
    let r = Harness.Table2.run ~sizes:[ 600 ] ~seed:11 () in
    Alcotest.(check int) "20 ground-truth rows" 20 (List.length r.Harness.Table2.rows);
    (* Even a small workload finds most bugs; the full sizes find all. *)
    Alcotest.(check bool) "most bugs detected" true
      (Harness.Table2.detected_count r >= 14)

  let table4_small () =
    let r = Harness.Table4.run ~ops:600 ~seed:11 () in
    Alcotest.(check int) "one row per app" 9 (List.length r.Harness.Table4.rows);
    Alcotest.(check bool) "IRH preserves malign bugs" true
      (Harness.Table4.irh_never_drops_malign r);
    List.iter
      (fun row ->
        Alcotest.(check bool)
          (row.Harness.Table4.app ^ ": IRH only removes")
          true
          (row.Harness.Table4.after_irh <= row.Harness.Table4.reported_races);
        Alcotest.(check int)
          (row.Harness.Table4.app ^ ": manual counts sum")
          row.Harness.Table4.reported_races
          (row.Harness.Table4.malign + row.Harness.Table4.benign
          + row.Harness.Table4.false_positives))
      r.Harness.Table4.rows;
    (* The memcached reuse pattern keeps FPs even with the IRH. *)
    let mc =
      List.find
        (fun x -> x.Harness.Table4.app = "memcached-pmem")
        r.Harness.Table4.rows
    in
    Alcotest.(check bool) "memcached FPs" true
      (mc.Harness.Table4.false_positives > 0)

  let table3_tiny () =
    let r = Harness.Table3.run ~seeds:4 ~ops_per_seed:300 ~pmrace_executions:3 () in
    Alcotest.(check int) "four rows" 4 (List.length r.Harness.Table3.rows);
    let hk1 =
      List.find
        (fun x -> x.Harness.Table3.tool = "HawkSet" && x.Harness.Table3.bug_id = 1)
        r.Harness.Table3.rows
    in
    Alcotest.(check bool) "hawkset finds bug 1 in every seed" true
      (hk1.Harness.Table3.racy = 4);
    let pm1 =
      List.find
        (fun x -> x.Harness.Table3.tool = "PMRace" && x.Harness.Table3.bug_id = 1)
        r.Harness.Table3.rows
    in
    Alcotest.(check bool) "pmrace finds at most as many" true
      (pm1.Harness.Table3.racy <= hk1.Harness.Table3.racy)

  let figure6_small () =
    let r = Harness.Figure6.run ~sizes:[ 200; 800 ] ~seed:11 () in
    Alcotest.(check bool) "points for every app" true
      (List.length r.Harness.Figure6.points >= 17);
    List.iter
      (fun (e : Pmapps.Registry.entry) ->
        Alcotest.(check bool)
          (e.Pmapps.Registry.reg_name ^ " sublinear-ish")
          true
          (Harness.Figure6.sublinear r ~app:e.Pmapps.Registry.reg_name))
      Pmapps.Registry.all

  let ablation_small () =
    let r = Harness.Ablation.run ~ops:600 ~seed:11 () in
    let find name =
      List.find (fun x -> x.Harness.Ablation.config_name = name)
        r.Harness.Ablation.rows
    in
    let full = find "full (HawkSet)" in
    let trad = find "traditional lockset" in
    let no_irh = find "no IRH" in
    Alcotest.(check bool) "full detects more than traditional" true
      (full.Harness.Ablation.detected_bugs > trad.Harness.Ablation.detected_bugs);
    Alcotest.(check bool) "IRH reduces reports" true
      (full.Harness.Ablation.total_reports <= no_irh.Harness.Ablation.total_reports)

  let tests =
    [
      Alcotest.test_case "table2 small" `Slow table2_small;
      Alcotest.test_case "table4 small" `Slow table4_small;
      Alcotest.test_case "table3 tiny" `Slow table3_tiny;
      Alcotest.test_case "figure6 small" `Slow figure6_small;
      Alcotest.test_case "ablation small" `Slow ablation_small;
    ]
end

module Stats_tests = struct
  let contains = Test_util.contains

  let entry =
    match Pmapps.Registry.find "fast-fair" with
    | Some e -> e
    | None -> Alcotest.fail "fast-fair not registered"

  (* The ISSUE acceptance criterion: two instrumented runs with the same
     seed serialize the deterministic half of the manifest byte-identically;
     the manifest carries per-stage spans, >= 10 distinct counters and the
     peak-memory gauge. *)
  let deterministic_counters () =
    let r1 = Harness.Stats.instrumented_run ~entry ~seed:7 ~ops:400 () in
    let r2 = Harness.Stats.instrumented_run ~entry ~seed:7 ~ops:400 () in
    Alcotest.(check string)
      "counters byte-identical across same-seed runs"
      (Obs.Manifest.counters_json r1.Harness.Stats.manifest)
      (Obs.Manifest.counters_json r2.Harness.Stats.manifest)

  (* The offline flow re-analyses a recorded trace: its pipeline counter
     delta must equal the live run's for the same trace. *)
  let offline_counters_match_live () =
    let r = Harness.Stats.instrumented_run ~entry ~seed:7 ~ops:400 () in
    let offline =
      Hawkset.Pipeline.run r.Harness.Stats.sched_report.Machine.Sched.trace
    in
    Alcotest.(check (list (pair string int)))
      "pipeline counters"
      r.Harness.Stats.pipeline.Hawkset.Pipeline.counters
      offline.Hawkset.Pipeline.counters

  let manifest_shape () =
    let r = Harness.Stats.instrumented_run ~entry ~seed:7 ~ops:400 () in
    let m = r.Harness.Stats.manifest in
    Alcotest.(check bool)
      ">= 10 distinct counters" true
      (List.length m.Obs.Manifest.counters >= 10);
    (* Every instrumented subsystem shows up. *)
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " present") true
          (Obs.Manifest.counter m name <> None))
      [
        "collector.events"; "collector.windows_opened";
        "collector.windows_closed"; "collector.locksets_interned";
        "analysis.pairs_examined"; "analysis.pairs_pruned_hb";
        "analysis.vclock_comparisons"; "sched.points";
        "sched.context_switches"; "pmem.flushes"; "pmem.fences";
        "report.distinct_races";
      ];
    Alcotest.(check bool)
      "stage spans recorded" true
      (List.exists
         (fun (path, _) -> path = "run/execute")
         m.Obs.Manifest.stages
      && List.exists
           (fun (path, _) -> contains ~needle:"collect" path)
           m.Obs.Manifest.stages);
    (match
       (Obs.Manifest.gauge m "peak_live_mb", Obs.Manifest.gauge m "final_live_mb")
     with
    | Some peak, Some final ->
        Alcotest.(check bool) "peak > 0" true (peak > 0.);
        Alcotest.(check bool) "peak >= final" true (peak >= final)
    | _ -> Alcotest.fail "peak_live_mb/final_live_mb gauge missing");
    (* Round-trip through a parser rather than grepping the serialization:
       the schema tag, a non-empty stage array and the peak-memory gauge
       must all survive emission. *)
    let module J = Test_util.Mini_json in
    let j = J.parse (Obs.Manifest.to_json m) in
    Alcotest.(check string)
      "schema tag" "hawkset.run_manifest/1" (J.str_mem "schema" j);
    Alcotest.(check bool)
      "stages array non-empty" true
      (J.to_list (J.member "stages" j) <> []);
    Alcotest.(check bool)
      "peak_live_mb emitted" true
      (J.member_opt "peak_live_mb" (J.member "gauges" j) <> None)

  let render_has_sections () =
    let r = Harness.Stats.instrumented_run ~entry ~seed:7 ~ops:400 () in
    let s = Harness.Stats.render r.Harness.Stats.manifest in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("render has " ^ needle) true (contains ~needle s))
      [ "Counter (deterministic)"; "Gauge (measured)"; "app=fast-fair" ]

  (* The span table renders the DFS tree: children indented under their
     parent, each with its share of the nearest recorded ancestor. *)
  let render_span_tree () =
    let r = Harness.Stats.instrumented_run ~entry ~seed:7 ~ops:400 () in
    let s = Harness.Stats.render r.Harness.Stats.manifest in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("render has " ^ needle) true (contains ~needle s))
      [
        "% of parent";
        (* "run" is a root: no parent share. *)
        "run "; "  execute";
        (* "pipeline/collect" is one level below "pipeline", itself below
           "run" — two levels of indentation and a percentage. *)
        "    collect"; "%";
      ];
    (* Roots render "-" in the percentage column, children a number. *)
    Alcotest.(check bool) "roots have no parent share" true
      (contains ~needle:"-" s)

  let tests =
    [
      Alcotest.test_case "same seed, same counters" `Slow deterministic_counters;
      Alcotest.test_case "offline counters match live" `Slow
        offline_counters_match_live;
      Alcotest.test_case "manifest shape" `Slow manifest_shape;
      Alcotest.test_case "stats render" `Slow render_has_sections;
      Alcotest.test_case "span tree render" `Slow render_span_tree;
    ]
end

module Explore_jobs_tests = struct
  (* The schedule sweep extends the counter byte-identity contract: the
     same exploration spread over 4 worker domains must reach the same
     verdict, the same per-schedule rows and the same deterministic
     counter snapshot as the sequential run — byte for byte once
     serialized ([jobs] itself is a manifest label, not a counter). *)
  let jobs_differential () =
    let explore jobs =
      let config =
        { Explore.default_config with Explore.schedules = 6; ops = 120; jobs }
      in
      Harness.Explore_sweep.run ~config ~apps:[ "fast-fair"; "madfs" ] ()
    in
    let t1 = explore 1 and t4 = explore 4 in
    Alcotest.(check bool) "same stability verdict"
      (Harness.Explore_sweep.stable t1)
      (Harness.Explore_sweep.stable t4);
    List.iter2
      (fun (a : Explore.t) (b : Explore.t) ->
        Alcotest.(check string) "same app" a.Explore.x_app b.Explore.x_app;
        Alcotest.(check bool)
          (a.Explore.x_app ^ ": identical schedule rows") true
          (a.Explore.x_results = b.Explore.x_results);
        Alcotest.(check bool)
          (a.Explore.x_app ^ ": identical baseline") true
          (a.Explore.x_baseline = b.Explore.x_baseline))
      t1 t4;
    Alcotest.(check (list (pair string int)))
      "same coverage counters"
      (Explore.counters t1) (Explore.counters t4);
    Alcotest.(check string)
      "manifest counters byte-identical across jobs=1 and jobs=4"
      (Obs.Manifest.counters_json (Harness.Explore_sweep.manifest t1))
      (Obs.Manifest.counters_json (Harness.Explore_sweep.manifest t4));
    Alcotest.(check (option string))
      "jobs label recorded" (Some "4")
      (Obs.Manifest.label (Harness.Explore_sweep.manifest t4) "jobs")

  let summary_renders () =
    let config =
      { Explore.default_config with Explore.schedules = 4; ops = 120 }
    in
    let ts = Harness.Explore_sweep.run ~config ~apps:[ "fast-fair" ] () in
    let s = Harness.Explore_sweep.to_string ts in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("summary has " ^ needle) true
          (Stats_tests.contains ~needle s))
      [ "Schedule stability"; "fast-fair"; "stable" ];
    let b = Harness.Explore_sweep.bug_table_string ts in
    Alcotest.(check bool) "bug table has fast-fair bug row" true
      (Stats_tests.contains ~needle:"#1" b);
    Alcotest.(check string) "no divergence text when stable" ""
      (Harness.Explore_sweep.divergences_string ts)

  let tests =
    [
      Alcotest.test_case "explore jobs=4, same rows and counters" `Slow
        jobs_differential;
      Alcotest.test_case "explore summary renders" `Slow summary_renders;
    ]
end

let () =
  Alcotest.run "harness"
    [
      ("metrics", Metric_tests.tests);
      ("tables", Tables_tests.tests);
      ("stats", Stats_tests.tests);
      ("explore", Explore_jobs_tests.tests);
      ("experiments", Experiment_tests.tests);
    ]
