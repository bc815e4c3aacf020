(* hawkset — command-line front end.

   Subcommands:
     run         run one application under a detector and print reports
     batch       run a declared job set under supervision (retry, resume)
     list-apps   show the registered applications (Table 1)
     table2/table3/table4/figure6/ablation
                 regenerate the paper's tables and figures

   Exit codes (documented in the README): 0 success; 1 usage error or
   oracle violation; 2 damaged input trace; 3 degraded results (truncated
   analysis without --allow-truncated, or a batch with failed/quarantined
   jobs); 10 batch stopped by --kill-after (resumable). *)

open Cmdliner

(* Trace files come from outside the process; a truncated or corrupted one
   must produce a one-line diagnostic and exit 2, not a backtrace. The
   exception carries the file so the top-level handler can say which input
   was bad ({!Trace.Trace_io.Parse_error} only knows the line). *)
exception Trace_error of string * int * string

let load_trace file =
  try Trace.Trace_io.load file
  with Trace.Trace_io.Parse_error (line, msg) ->
    raise (Trace_error (file, line, msg))

let app_arg =
  let doc =
    "Application to analyse. One of: "
    ^ String.concat ", "
        (List.map (fun e -> e.Pmapps.Registry.reg_name) Pmapps.Registry.all)
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "a"; "app" ] ~docv:"APP" ~doc)

let ops_arg default =
  Arg.(
    value & opt int default
    & info [ "n"; "ops" ] ~docv:"N" ~doc:"Main-phase operations.")

let seed_arg =
  Arg.(
    value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let detector_arg =
  let det =
    Arg.enum [ ("hawkset", `Hawkset); ("eraser", `Eraser); ("pmrace", `Pmrace) ]
  in
  Arg.(
    value & opt det `Hawkset
    & info [ "d"; "detector" ] ~docv:"DETECTOR"
        ~doc:"Detector: $(b,hawkset), $(b,eraser) or $(b,pmrace).")

let no_irh_arg =
  Arg.(
    value & flag
    & info [ "no-irh" ]
        ~doc:"Disable the Initialization Removal Heuristic (stage 2).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print race reports as a JSON array.")

let eadr_arg =
  Arg.(
    value & flag
    & info [ "eadr" ]
        ~doc:
          "Analyse assuming eADR hardware (persistent cache, \u{00a7}2.1): \
           the visible-but-not-durable window cannot exist.")

let event_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "event-budget" ] ~docv:"N"
        ~doc:
          "Analyse at most the first $(docv) trace events — a deterministic \
           cut, recorded as a truncation (and exiting 3 unless \
           $(b,--allow-truncated)).")

let allow_truncated_arg =
  Arg.(
    value & flag
    & info [ "allow-truncated" ]
        ~doc:
          "Exit 0 even when the analysis was truncated (event budget or \
           deadline hit). Without this flag a truncated result exits 3 so \
           scripted callers cannot mistake a partial report for a \
           complete one.")

(* Exit-code contract: a truncated analysis is a degraded result, not a
   clean success. Runs after stats/timeline emission so the partial
   report is still fully observable. *)
let check_truncated ~allow truncated =
  if truncated <> [] && not allow then begin
    List.iter
      (fun (t : Hawkset.Pipeline.truncation) ->
        Format.eprintf "hawkset: truncated: %s by %s (%d/%d)@."
          t.Hawkset.Pipeline.trunc_stage t.Hawkset.Pipeline.trunc_reason
          t.Hawkset.Pipeline.trunc_done t.Hawkset.Pipeline.trunc_total)
      truncated;
    Format.eprintf
      "hawkset: analysis truncated (%d record%s); pass --allow-truncated to \
       accept partial results@."
      (List.length truncated)
      (if List.length truncated = 1 then "" else "s");
    exit 3
  end

(* --- observability flags --------------------------------------------- *)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the run-stats block: per-stage spans, deterministic \
           counters (scheduler, PM cache, collector, analysis) and \
           measured gauges (peak live heap).")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the run manifest (schema hawkset.run_manifest/1) as JSON \
           to $(docv). Counters are byte-identical across runs with the \
           same seed; timings and memory live in separate fields.")

let verbose_arg =
  Arg.(
    value & flag_all
    & info [ "v"; "verbose" ]
        ~doc:"Log to stderr; once for info, twice for debug.")

let log_level_arg =
  let levels =
    [
      ("quiet", Obs.Logger.Quiet);
      ("error", Obs.Logger.Error);
      ("warn", Obs.Logger.Warn);
      ("info", Obs.Logger.Info);
      ("debug", Obs.Logger.Debug);
    ]
  in
  Arg.(
    value
    & opt (some (enum levels)) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Log level: $(b,quiet), $(b,error), $(b,warn), $(b,info) or \
              $(b,debug). Overrides $(b,-v).")

let setup_logging verbose log_level =
  let level =
    match log_level with
    | Some l -> l
    | None -> (
        match List.length verbose with
        | 0 -> Obs.Logger.Quiet
        | 1 -> Obs.Logger.Info
        | _ -> Obs.Logger.Debug)
  in
  Obs.Logger.set_level level;
  Obs.Logger.set_sink Obs.Logger.stderr_sink

let logging_term = Term.(const setup_logging $ verbose_arg $ log_level_arg)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome-trace-event timeline (loadable in Perfetto or \
           chrome://tracing) to $(docv): one lane per domain, pipeline \
           stages as nested duration events, instants for truncations \
           and crash points. Off by default — recording costs nothing \
           when this flag is absent.")

(* Timeline capture brackets a whole subcommand: cleared and enabled up
   front (only when requested), drained into the trace file at the end.
   Stage timings need neither: the span table behind [--stats] is always
   on. *)
let start_timeline trace_out =
  if trace_out <> None then begin
    Obs.Timeline.reset ();
    Obs.Timeline.set_enabled true
  end

let finish_timeline trace_out =
  match trace_out with
  | None -> ()
  | Some file -> (
      Obs.Timeline.set_enabled false;
      try
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Obs.Timeline.to_chrome_json ()));
        Format.printf "wrote timeline trace to %s@." file
      with Sys_error msg ->
        Format.eprintf "cannot write timeline trace: %s@." msg;
        exit 1)

let emit_stats ~stats ~stats_json manifest =
  if stats then print_string (Harness.Stats.render manifest);
  match stats_json with
  | Some file -> (
      try
        Obs.Manifest.save file manifest;
        Format.printf "wrote run manifest to %s@." file
      with Sys_error msg ->
        Format.eprintf "cannot write run manifest: %s@." msg;
        exit 1)
  | None -> ()

let classify_races entry races =
  List.iter
    (fun race ->
      let cls =
        Pmapps.Ground_truth.classify ~bugs:entry.Pmapps.Registry.bugs
          ~benign:entry.Pmapps.Registry.benign race
      in
      Format.printf "[%a] %a@.@." Pmapps.Ground_truth.pp_classification cls
        Hawkset.Report.pp_race race)
    (Hawkset.Report.sorted races)

let run_cmd =
  let run () app ops seed detector no_irh eadr json stats stats_json
      trace_out event_budget allow_truncated =
    match Pmapps.Registry.find app with
    | None ->
        Format.eprintf "unknown application %S (try list-apps)@." app;
        exit 1
    | Some entry -> (
        start_timeline trace_out;
        let ops = Pmapps.Registry.clamp_ops entry ops in
        let labels detector =
          Harness.Stats.base_labels ~app:entry.Pmapps.Registry.reg_name
            ~detector ~seed ~ops
        in
        match detector with
        | `Pmrace ->
            (* Observation-based detection needs delay injection and the
               runtime monitor; reports are direct observations. *)
            let (report, ()), manifest =
              Harness.Stats.measured_run ~labels:(labels "pmrace")
                ~execute:(fun () ->
                  entry.Pmapps.Registry.run ~seed
                    ~policy:
                      (Machine.Sched.Delay_injection
                         { probability = 0.05; duration = 40 })
                    ~observe:true ~ops ())
                ~analyse:ignore
            in
            Format.printf "%d directly-observed inconsistencies:@."
              (List.length report.Machine.Sched.observations);
            List.iter
              (fun (o : Machine.Sched.observation) ->
                Format.printf "  store %a / load %a@." Trace.Site.pp
                  o.Machine.Sched.obs_store_site Trace.Site.pp
                  o.Machine.Sched.obs_load_site)
              report.Machine.Sched.observations;
            finish_timeline trace_out;
            emit_stats ~stats ~stats_json manifest
        | `Hawkset ->
            let config =
              { Hawkset.Pipeline.default with irh = not no_irh; eadr;
                event_budget }
            in
            let r = Harness.Stats.instrumented_run ~config ~entry ~seed ~ops () in
            let races = r.Harness.Stats.pipeline.Hawkset.Pipeline.races in
            if json then print_endline (Hawkset.Report.to_json races)
            else begin
              Format.printf "trace: %d events; %d race reports@.@."
                (Trace.Tracebuf.length
                   r.Harness.Stats.sched_report.Machine.Sched.trace)
                (Hawkset.Report.count races);
              classify_races entry races
            end;
            finish_timeline trace_out;
            emit_stats ~stats ~stats_json r.Harness.Stats.manifest;
            check_truncated ~allow:allow_truncated
              r.Harness.Stats.pipeline.Hawkset.Pipeline.truncated
        | `Eraser ->
            let (report, races), manifest =
              Harness.Stats.measured_run ~labels:(labels "eraser")
                ~execute:(fun () -> entry.Pmapps.Registry.run ~seed ~ops ())
                ~analyse:(fun r ->
                  Baselines.Eraser.analyse r.Machine.Sched.trace)
            in
            if json then print_endline (Hawkset.Report.to_json races)
            else begin
              Format.printf "trace: %d events; %d race reports@.@."
                (Trace.Tracebuf.length report.Machine.Sched.trace)
                (Hawkset.Report.count races);
              classify_races entry races
            end;
            finish_timeline trace_out;
            emit_stats ~stats ~stats_json manifest)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one application under a detector.")
    Term.(const run $ logging_term $ app_arg $ ops_arg 1000 $ seed_arg
          $ detector_arg $ no_irh_arg $ eadr_arg $ json_arg
          $ stats_arg $ stats_json_arg $ trace_out_arg $ event_budget_arg
          $ allow_truncated_arg)

let list_cmd =
  let list () =
    print_string
      (Harness.Tables.render
         ~headers:[ "Application"; "Synchronization"; "Config file needed";
                    "Known bugs" ]
         ~rows:
           (List.map
              (fun e ->
                [
                  e.Pmapps.Registry.reg_name;
                  e.Pmapps.Registry.sync_method;
                  (if e.Pmapps.Registry.needs_sync_config then "yes" else "no");
                  string_of_int (List.length e.Pmapps.Registry.bugs);
                ])
              Pmapps.Registry.all))
  in
  Cmd.v
    (Cmd.info "list-apps" ~doc:"List the registered PM applications.")
    Term.(const list $ const ())

let tl_save = Obs.Timeline.name "save"

let trace_cmd =
  let go app ops seed out =
    match Pmapps.Registry.find app with
    | None ->
        Format.eprintf "unknown application %S (try list-apps)@." app;
        exit 1
    | Some entry ->
        let ops = Pmapps.Registry.clamp_ops entry ops in
        let report = entry.Pmapps.Registry.run ~seed ~ops () in
        Obs.Timeline.span tl_save (fun () ->
            Trace.Trace_io.save out report.Machine.Sched.trace);
        Format.printf "wrote %d events to %s@."
          (Trace.Tracebuf.length report.Machine.Sched.trace)
          out
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Trace output file.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run an application and save its event trace for offline analysis.")
    Term.(const go $ app_arg $ ops_arg 1000 $ seed_arg $ out)

let analyze_cmd =
  let go () file tolerant no_irh eadr eraser json stats stats_json
      trace_out event_budget allow_truncated =
    start_timeline trace_out;
    let load () =
      if not tolerant then load_trace file
      else begin
        let t = Trace.Trace_io.load_tolerant file in
        Format.eprintf "%s: salvaged %d events (%d lines dropped%s; checksum %s)@."
          file t.Trace.Trace_io.salvaged_events t.Trace.Trace_io.dropped_lines
          (match t.Trace.Trace_io.first_error with
          | Some (line, msg) ->
              Printf.sprintf "; first error at line %d: %s" line msg
          | None -> "")
          (match t.Trace.Trace_io.checksum with
          | `Verified -> "verified"
          | `Mismatch -> "MISMATCH"
          | `Absent -> "absent");
        t.Trace.Trace_io.salvaged
      end
    in
    let labels detector trace =
      [ ("trace", file); ("detector", detector);
        ("events", string_of_int (Trace.Tracebuf.length trace)) ]
    in
    let trace, races, manifest, truncated =
      if eraser then
        let (trace, races), manifest =
          Harness.Stats.measured_offline ~labels:(labels "eraser") ~load
            ~analyse:Baselines.Eraser.analyse
        in
        (trace, races, manifest, [])
      else
        let config =
          { Hawkset.Pipeline.default with irh = not no_irh; eadr;
            event_budget }
        in
        let (trace, res), manifest =
          Harness.Stats.measured_offline ~labels:(labels "hawkset") ~load
            ~analyse:(Harness.Stats.hawkset_pipeline ~config)
        in
        if stats then
          Format.printf "collector: %a@.@." Hawkset.Collector.pp_stats
            res.Hawkset.Pipeline.collector_stats;
        ( trace,
          res.Hawkset.Pipeline.races,
          manifest,
          res.Hawkset.Pipeline.truncated )
    in
    if json then print_endline (Hawkset.Report.to_json races)
    else begin
      Format.printf "trace: %d events (%a)@.@."
        (Trace.Tracebuf.length trace)
        Trace.Tracebuf.pp_stats
        (Trace.Tracebuf.stats trace);
      Format.printf "%a@." Hawkset.Report.pp races
    end;
    finish_timeline trace_out;
    emit_stats ~stats ~stats_json manifest;
    check_truncated ~allow:allow_truncated truncated
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file produced by $(b,trace).")
  in
  let eadr =
    Arg.(
      value & flag
      & info [ "eadr" ]
          ~doc:"Assume eADR hardware (persistent cache): nothing can race.")
  in
  let eraser =
    Arg.(
      value & flag
      & info [ "eraser" ] ~doc:"Use the traditional lockset baseline.")
  in
  let tolerant =
    Arg.(
      value & flag
      & info [ "tolerant" ]
          ~doc:
            "Salvage a damaged trace instead of failing: analyse the longest \
             valid prefix and report (on stderr) how many lines were dropped, \
             where the first error was and whether the checksum trailer \
             verified.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyse a saved trace — the application-agnostic offline workflow:           the analyser knows nothing about what produced the events.")
    Term.(const go $ logging_term $ file $ tolerant $ no_irh_arg $ eadr
          $ eraser $ json_arg $ stats_arg $ stats_json_arg
          $ trace_out_arg $ event_budget_arg $ allow_truncated_arg)

let explain_cmd =
  let go () app ops seed no_irh eadr json =
    match Pmapps.Registry.find app with
    | None ->
        Format.eprintf "unknown application %S (try list-apps)@." app;
        exit 1
    | Some entry ->
        let ops = Pmapps.Registry.clamp_ops entry ops in
        let report = entry.Pmapps.Registry.run ~seed ~ops () in
        let config =
          { Hawkset.Pipeline.default with irh = not no_irh; eadr }
        in
        let races =
          Hawkset.Pipeline.races ~config report.Machine.Sched.trace
        in
        if json then print_endline (Hawkset.Report.to_json races)
        else begin
          Format.printf "%d race report%s@.@." (Hawkset.Report.count races)
            (if Hawkset.Report.count races = 1 then "" else "s");
          List.iter
            (fun (race : Hawkset.Report.race) ->
              Format.printf "%a@." Hawkset.Report.pp_race race;
              (match race.Hawkset.Report.witness with
              | Some w -> Format.printf "%a@." Hawkset.Report.pp_witness w
              | None -> Format.printf "(no witness recorded)@.");
              Format.printf "@.")
            (Hawkset.Report.sorted races)
        end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the detector and print each report's provenance: the \
          witnessing store/load sites with their locksets (store, \
          effective, load) and vector clocks (store, window end, load) — \
          the exact evidence the analysis used to flag the pair.")
    Term.(const go $ logging_term $ app_arg $ ops_arg 1000 $ seed_arg
          $ no_irh_arg $ eadr_arg $ json_arg)

let bugs_cmd =
  let go () =
    List.iter
      (fun (e : Pmapps.Registry.entry) ->
        List.iter
          (fun (b : Pmapps.Ground_truth.bug) ->
            Format.printf "#%-2d %-15s %-4s %-34s stores: %s@.%33s loads:  %s@."
              b.Pmapps.Ground_truth.gt_id e.Pmapps.Registry.reg_name
              (if b.Pmapps.Ground_truth.gt_new then "NEW" else "")
              b.Pmapps.Ground_truth.gt_desc
              (String.concat ", " b.Pmapps.Ground_truth.gt_store_locs)
              ""
              (String.concat ", " b.Pmapps.Ground_truth.gt_load_locs))
          e.Pmapps.Registry.bugs)
      Pmapps.Registry.all
  in
  Cmd.v
    (Cmd.info "bugs"
       ~doc:"Print the ground-truth bug registry (the Table 2 rows).")
    Term.(const go $ const ())

let table2_cmd =
  let go small =
    let sizes = if small then [ 1000; 6000 ] else [ 1000; 10_000; 100_000 ] in
    print_string (Harness.Table2.to_string (Harness.Table2.run ~sizes ()))
  in
  let small =
    Arg.(value & flag & info [ "small" ] ~doc:"Scaled-down workloads.")
  in
  Cmd.v (Cmd.info "table2" ~doc:"Regenerate Table 2.") Term.(const go $ small)

let table3_cmd =
  let go seeds executions =
    print_string
      (Harness.Table3.to_string
         (Harness.Table3.run ~seeds ~pmrace_executions:executions ()))
  in
  let seeds =
    Arg.(value & opt int 24 & info [ "seeds" ] ~doc:"Seed workloads (paper: 240).")
  in
  let executions =
    Arg.(
      value & opt int 12
      & info [ "pmrace-executions" ]
          ~doc:"Fuzzing executions per seed for the PMRace baseline.")
  in
  Cmd.v (Cmd.info "table3" ~doc:"Regenerate Table 3.")
    Term.(const go $ seeds $ executions)

let table4_cmd =
  let go ops =
    print_string (Harness.Table4.to_string (Harness.Table4.run ~ops ()))
  in
  Cmd.v (Cmd.info "table4" ~doc:"Regenerate Table 4.")
    Term.(const go $ ops_arg 2000)

let figure6_cmd =
  let go small =
    let sizes = if small then [ 250; 1000; 4000 ] else [ 1000; 10_000; 100_000 ] in
    let r = Harness.Figure6.run ~sizes () in
    print_string (Harness.Figure6.to_string r)
  in
  let small =
    Arg.(value & flag & info [ "small" ] ~doc:"Scaled-down workloads.")
  in
  Cmd.v (Cmd.info "figure6" ~doc:"Regenerate Figure 6's series.")
    Term.(const go $ small)

let crash_sweep_cmd =
  let go () apps seed ops threads stride max_points no_fences no_attribute
      verify_budget dump_traces details stats stats_json trace_out =
    start_timeline trace_out;
    let config =
      {
        Crashtest.c_seed = seed;
        c_ops = ops;
        c_threads = threads;
        c_stride = stride;
        c_max_points = max_points;
        c_fence_points = not no_fences;
        c_attribute = not no_attribute;
        c_verify_budget = verify_budget;
        c_dump_dir = dump_traces;
      }
    in
    let rows = Harness.Crash_sweep.run ~config ~apps () in
    if rows = [] then begin
      Format.eprintf "no crash-sweep runner matched (try list-apps)@.";
      exit 1
    end;
    print_string (Harness.Crash_sweep.to_string rows);
    if details then
      List.iter
        (fun row -> print_string (Harness.Crash_sweep.details_string row))
        rows;
    finish_timeline trace_out;
    emit_stats ~stats ~stats_json (Harness.Crash_sweep.manifest_of_sweeps rows)
  in
  let apps =
    Arg.(
      value & opt_all string []
      & info [ "a"; "app" ] ~docv:"APP"
          ~doc:
            "Application to sweep (repeatable). Default: every application \
             with a recovery entry point (all but Apex).")
  in
  let threads =
    Arg.(
      value & opt int Crashtest.default_config.Crashtest.c_threads
      & info [ "threads" ] ~docv:"N" ~doc:"Worker threads in the workload.")
  in
  let stride =
    Arg.(
      value & opt int Crashtest.default_config.Crashtest.c_stride
      & info [ "stride" ] ~docv:"N"
          ~doc:"Scheduler-event stride between stride-family crash points.")
  in
  let max_points =
    Arg.(
      value & opt int Crashtest.default_config.Crashtest.c_max_points
      & info [ "max-points" ] ~docv:"N"
          ~doc:"Cap per crash-point family (fence points, stride points).")
  in
  let no_fences =
    Arg.(
      value & flag
      & info [ "no-fence-points" ]
          ~doc:"Skip the fence-boundary crash-point family.")
  in
  let no_attribute =
    Arg.(
      value & flag
      & info [ "no-attribute" ]
          ~doc:
            "Skip running the detector on each damaged prefix (faster; the \
             sweep then reports damage without ground-truth attribution).")
  in
  let verify_budget =
    Arg.(
      value & opt int Crashtest.default_config.Crashtest.c_verify_budget
      & info [ "verify-budget" ] ~docv:"N"
          ~doc:
            "Event budget for each recovery run; a recovery that exceeds it \
             counts as a recovery failure instead of hanging the sweep.")
  in
  let dump_traces =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-traces" ] ~docv:"DIR"
          ~doc:
            "Dump the crashed prefix trace of damaged or failed points \
             (checksummed, replayable with $(b,analyze); capped at two per \
             application) into $(docv).")
  in
  let details =
    Arg.(
      value & flag
      & info [ "details" ] ~doc:"Print the per-point outcome table per app.")
  in
  Cmd.v
    (Cmd.info "crash-sweep"
       ~doc:
         "Fault injection: cut each application at fence boundaries and \
          event strides, recover the worst-case persistent image and check \
          what acknowledged work survived.")
    Term.(const go $ logging_term $ apps $ seed_arg $ ops_arg 400 $ threads
          $ stride $ max_points $ no_fences $ no_attribute $ verify_budget
          $ dump_traces $ details $ stats_arg $ stats_json_arg
          $ trace_out_arg)

(* Load-or-create the persistent result cache, hand it to [f], then save
   it back and print one grep-friendly summary line (the CI cache smoke
   asserts on it). [None] path: no cache at all. *)
let with_result_cache path f =
  match path with
  | None -> f None
  | Some file ->
      let c = Hawkset.Result_cache.load file in
      let r = f (Some c) in
      Hawkset.Result_cache.save c file;
      let s = Hawkset.Result_cache.stats c in
      let get k = try List.assoc k s with Not_found -> 0 in
      Format.printf "cache: hits=%d misses=%d entries=%d bytes=%d file=%s@."
        (get "cache.hits") (get "cache.misses") (get "cache.entries")
        (get "cache.bytes") file;
      r

let cache_arg cmd =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Fingerprint-keyed result cache: within the run, a trace whose \
              fingerprint was already analysed (same analysis config) skips \
              stage 2+3 and reuses the recorded report; across runs the \
              cache is persisted to $(docv) (checksummed journal format; a \
              missing file starts empty, a damaged tail is salvaged). %s \
              results are unchanged — caveat: a hit substitutes a complete \
              result even where per-attempt deadlines would have truncated \
              one."
             cmd))

let explore_cmd =
  let go () apps schedules policy depth jobs seed ops trace_out cache_file
      stats stats_json =
    let policy =
      match Explore.policy_kind_of_string policy with
      | Ok p -> p
      | Error msg ->
          Format.eprintf "explore: %s@." msg;
          exit 1
    in
    let ts =
      with_result_cache cache_file (fun cache ->
          let config =
            {
              Explore.schedules;
              policy;
              depth;
              jobs;
              seed;
              ops;
              dump_dir = trace_out;
              cache;
            }
          in
          Harness.Explore_sweep.run ~config ~apps ())
    in
    if ts = [] then begin
      Format.eprintf "explore: no application matched (try list-apps)@.";
      exit 1
    end;
    print_string (Harness.Explore_sweep.to_string ts);
    print_string (Harness.Explore_sweep.bug_table_string ts);
    let diverged = Harness.Explore_sweep.divergences_string ts in
    if diverged <> "" then print_string diverged;
    emit_stats ~stats ~stats_json (Harness.Explore_sweep.manifest ts);
    if not (Harness.Explore_sweep.stable ts) then exit 1
  in
  let apps =
    Arg.(
      value & opt_all string []
      & info [ "a"; "app" ] ~docv:"APP"
          ~doc:"Application to explore (repeatable). Default: all of them.")
  in
  let schedules =
    Arg.(
      value & opt int Explore.default_config.Explore.schedules
      & info [ "schedules" ] ~docv:"N" ~doc:"Schedules to explore per app.")
  in
  let policy =
    Arg.(
      value & opt string "all"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Scheduler policy family: $(b,random), $(b,round-robin), \
             $(b,delay), $(b,pct) or $(b,all) (round-robin once, then a \
             cycle of the randomized families).")
  in
  let depth =
    Arg.(
      value & opt int Explore.default_config.Explore.depth
      & info [ "depth" ] ~docv:"D"
          ~doc:"PCT preemption depth (priority change points per schedule).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs"; "job-workers" ] ~docv:"N"
          ~doc:
            "Worker domains exploring schedules in parallel. Results and \
             deterministic counters are identical for every $(docv).")
  in
  let explore_trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "On an oracle violation, dump the reference and divergent \
             traces (checksummed, replayable with $(b,analyze)) into \
             $(docv).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Sweep scheduler policies and seeds, run the detector once per \
          schedule and check the interleaving-stability oracle: every \
          directly-observed inconsistency must already be in that \
          schedule's lockset report, and identical traces must yield \
          identical reports. Exits 1 on any violation.")
    Term.(const go $ logging_term $ apps $ schedules $ policy $ depth $ jobs
          $ seed_arg $ ops_arg Explore.default_config.Explore.ops
          $ explore_trace_out $ cache_arg "Exploration" $ stats_arg
          $ stats_json_arg)

let batch_cmd =
  let go () apps seed nseeds policies ops job_workers attempts backoff_ms
      breaker deadline_s max_heap_mb faults journal resume kill_after
      cache_file out json stats stats_json =
    if resume && journal = None then begin
      Format.eprintf "batch: --resume needs --journal FILE@.";
      exit 1
    end;
    let apps =
      if apps <> [] then apps
      else List.map (fun e -> e.Pmapps.Registry.reg_name) Pmapps.Registry.all
    in
    let seeds = List.init (max 1 nseeds) (fun i -> seed + i) in
    let policies = if policies = [] then [ "round-robin" ] else policies in
    let faults =
      List.map
        (fun s ->
          match Supervise.fault_of_string s with
          | Ok f -> f
          | Error msg ->
              Format.eprintf "batch: %s@." msg;
              exit 1)
        faults
    in
    let config =
      {
        Supervise.default_config with
        Supervise.attempts;
        backoff_ms;
        breaker_threshold = breaker;
        job_workers = max 1 job_workers;
        deadline_s;
        max_heap_mb;
        faults;
        stop_after = kill_after;
      }
    in
    match Supervise.jobs_of ~apps ~seeds ~policies ~ops with
    | Error msg ->
        Format.eprintf "batch: %s@." msg;
        exit 1
    | Ok declared -> (
        Obs.Registry.reset Obs.Registry.global;
        let b =
          try
            with_result_cache cache_file (fun cache ->
                Supervise.run ?journal ~resume ?cache ~config declared)
          with
          | Supervise.Resume_mismatch { expected; found } ->
              Format.eprintf
                "batch: journal records a different batch declaration \
                 (journal %s, declared %s); rerun without --resume to start \
                 over@."
                (Option.value found ~default:"<no batch record>")
                expected;
              exit 1
          | Invalid_argument msg ->
              Format.eprintf "batch: %s@." msg;
              exit 1
        in
        (match out with
        | Some file -> (
            try
              let oc = open_out file in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  output_string oc (Supervise.merged_json b);
                  output_char oc '\n');
              Format.printf "wrote merged batch report to %s@." file
            with Sys_error msg ->
              Format.eprintf "cannot write merged batch report: %s@." msg;
              exit 1)
        | None -> ());
        if json then print_endline (Supervise.merged_json b)
        else begin
          print_string (Harness.Batch.degradation_table b);
          print_endline (Harness.Batch.summary_line b)
        end;
        emit_stats ~stats ~stats_json (Supervise.manifest b);
        if b.Supervise.b_interrupted then begin
          Format.eprintf
            "batch: stopped by --kill-after with jobs remaining; resume with \
             --journal %s --resume@."
            (Option.value journal ~default:"FILE");
          exit 10
        end;
        if Harness.Batch.failed b then exit 3)
  in
  let apps =
    Arg.(
      value & opt_all string []
      & info [ "a"; "app" ] ~docv:"APP"
          ~doc:"Application to include (repeatable). Default: all of them.")
  in
  let nseeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Consecutive seeds per app starting at $(b,--seed).")
  in
  let policies =
    Arg.(
      value & opt_all string []
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Scheduler policy per job (repeatable): $(b,round-robin), \
             $(b,random), $(b,delay) or $(b,pct). Default: round-robin.")
  in
  let attempts =
    Arg.(
      value & opt int Supervise.default_config.Supervise.attempts
      & info [ "attempts" ] ~docv:"N" ~doc:"Max attempts per job.")
  in
  let backoff_ms =
    Arg.(
      value & opt int 0
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:
            "Base retry backoff; attempt $(i,k) waits $(docv)*2^(k-1) plus \
             seeded jitter. 0 (the default) retries immediately.")
  in
  let breaker =
    Arg.(
      value & opt int Supervise.default_config.Supervise.breaker_threshold
      & info [ "breaker" ] ~docv:"N"
          ~doc:
            "Circuit breaker: consecutive exhausted jobs of one application \
             before its remaining jobs are quarantined.")
  in
  let deadline_s =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-s" ] ~docv:"SECONDS"
          ~doc:"Per-attempt wall-clock budget (also the pipeline's \
                cooperative stage deadline).")
  in
  let max_heap_mb =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-heap-mb" ] ~docv:"MB"
          ~doc:"Per-attempt live-heap budget, enforced via a GC alarm.")
  in
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "inject" ] ~docv:"JOB:CLASS[:COUNT]"
          ~doc:
            "Chaos testing: make the first COUNT attempts (default 1) of job \
             JOB fail with CLASS ($(b,timeout), $(b,oom), \
             $(b,corrupt-trace), $(b,pipeline-exn) or $(b,worker-lost)). \
             Repeatable.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append-only checksummed job journal: every attempt and every \
             completed job's report bytes are recorded durably as the batch \
             runs.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from $(b,--journal): jobs already terminal replay their \
             recorded report bytes verbatim, partially-attempted jobs \
             continue from their next attempt. The merged report is \
             byte-identical to an uninterrupted run.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Chaos testing: stop the batch after $(docv) jobs reach a \
             terminal state and exit 10, leaving the journal behind for \
             $(b,--resume).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the merged batch report JSON to $(docv).")
  in
  let job_workers =
    Arg.(
      value & opt int 1
      & info [ "job-workers" ] ~docv:"N"
          ~doc:
            "Jobs in flight at once: per-application job chains run \
             concurrently on the domain pool. The merged report is \
             byte-identical to $(docv)=1 — only wall-clock time changes. \
             Journal records are appended per completed job (replay stays \
             keyed by job id, so $(b,--resume) is unaffected).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a declared job set (apps \u{00d7} seeds \u{00d7} policies) \
          under supervision: per-attempt deadlines and heap budgets, a \
          five-class failure taxonomy, deterministic retry with exponential \
          backoff, a per-application circuit breaker, and a durable journal \
          that makes a killed batch resumable with a byte-identical merged \
          report. Exits 3 if any job failed or was quarantined, 10 when \
          stopped by $(b,--kill-after).")
    Term.(const go $ logging_term $ apps $ seed_arg $ nseeds $ policies
          $ ops_arg 400 $ job_workers $ attempts $ backoff_ms
          $ breaker $ deadline_s $ max_heap_mb $ faults $ journal $ resume
          $ kill_after $ cache_arg "Batch" $ out $ json_arg $ stats_arg
          $ stats_json_arg)

let ablation_cmd =
  let go ops =
    print_string (Harness.Ablation.to_string (Harness.Ablation.run ~ops ()))
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Design-choice ablation study.")
    Term.(const go $ ops_arg 1500)

let check_cmd =
  let pp_divergence d =
    Format.printf "  variant:  %s@." d.Check.Conformance.d_variant;
    (match d.Check.Conformance.d_kind with
    | `Crash ->
        Format.printf "  crashed:  %s@." d.Check.Conformance.d_actual
    | `Report ->
        Format.printf "  expected: %s@." d.Check.Conformance.d_expected;
        Format.printf "  actual:   %s@." d.Check.Conformance.d_actual)
  in
  let fuzz_mode ~traces ~max_events ~seed ~minimize ~fixtures =
    let r = Check.Conformance.fuzz ~traces ~max_events ~seed () in
    Format.printf
      "conformance: %d traces (%d events), %d comparisons, %d divergent@."
      r.Check.Conformance.fz_traces r.Check.Conformance.fz_events
      r.Check.Conformance.fz_comparisons
      (List.length r.Check.Conformance.fz_failures);
    List.iter
      (fun (s, t, d) ->
        Format.printf "@.DIVERGENCE at seed %d (%d events):@." s
          (Trace.Tracebuf.length t);
        pp_divergence d;
        if minimize then begin
          let m = Check.Conformance.minimize t in
          let path =
            Check.Conformance.save_fixture ~dir:fixtures
              ~name:(Printf.sprintf "check-seed%d" s)
              m
          in
          Format.printf "  minimized to %d events -> %s@."
            (Trace.Tracebuf.length m) path
        end)
      r.Check.Conformance.fz_failures;
    r.Check.Conformance.fz_failures = []
  in
  let mutate_mode ~traces ~max_events ~seed ~minimize ~fixtures ~max_minimized
      faults =
    Format.printf "%-28s %-10s %-8s %-7s %-9s %s@." "fault" "layer" "caught"
      "events" "minimized" "clean";
    List.fold_left
      (fun ok fault ->
        let h = Check.Conformance.hunt ~traces ~max_events ~seed fault in
        let caught, events, minimized, clean, this_ok =
          match h.Check.Conformance.h_caught_seed with
          | None -> ("MISSED", "-", "-", "-", false)
          | Some s ->
              let m = Option.get h.Check.Conformance.h_minimized in
              let n = Trace.Tracebuf.length m in
              if minimize then
                ignore
                  (Check.Conformance.save_fixture ~dir:fixtures
                     ~name:
                       ("mutate-" ^ Hawkset.Fault.name fault)
                     m
                    : string);
              let clean = h.Check.Conformance.h_clean_without_fault in
              ( Printf.sprintf "s=%d" s,
                string_of_int h.Check.Conformance.h_original_events,
                string_of_int n,
                (if clean then "yes" else "NO"),
                n <= max_minimized && clean )
        in
        Format.printf "%-28s %-10s %-8s %-7s %-9s %s@."
          (Hawkset.Fault.name fault)
          (Hawkset.Fault.layer fault)
          caught events minimized clean;
        (match h.Check.Conformance.h_divergence with
        | Some d when not this_ok -> pp_divergence d
        | Some _ | None -> ());
        ok && this_ok)
      true faults
  in
  let go () traces max_events seed mutate no_minimize fixtures max_minimized
      stats stats_json trace_out =
    start_timeline trace_out;
    let minimize = not no_minimize in
    Obs.Registry.reset Obs.Registry.global;
    let ok =
      match mutate with
      | [] -> fuzz_mode ~traces ~max_events ~seed ~minimize ~fixtures
      | faults ->
          mutate_mode ~traces ~max_events ~seed ~minimize ~fixtures
            ~max_minimized faults
    in
    let labels =
      [ ("mode", if mutate = [] then "fuzz" else "mutate");
        ("traces", string_of_int traces);
        ("max_events", string_of_int max_events);
        ("seed", string_of_int seed) ]
    in
    finish_timeline trace_out;
    emit_stats ~stats ~stats_json
      (Obs.Manifest.of_registry ~labels Obs.Registry.global);
    if not ok then exit 1
  in
  let traces =
    Arg.(
      value & opt int 1000
      & info [ "traces" ] ~docv:"N"
          ~doc:"Generated traces per fuzzing run (per fault in --mutate).")
  in
  let max_events =
    Arg.(
      value & opt int 64
      & info [ "max-events" ] ~docv:"N"
          ~doc:"Maximum events per generated trace.")
  in
  let mutate =
    let all_names =
      String.concat ", " (List.map Hawkset.Fault.name Hawkset.Fault.all)
    in
    Arg.(
      value & opt_all string []
      & info [ "mutate" ] ~docv:"FAULT"
          ~doc:
            (Printf.sprintf
               "Self-test: arm the named kernel fault and assert the fuzzer \
                catches and minimizes it (repeatable; $(b,all) arms every \
                fault in turn). Faults: %s."
               all_names))
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:
            "Report divergences without delta-debugging them down to \
             minimal reproducers (skips fixture writing too).")
  in
  let fixtures =
    Arg.(
      value
      & opt string "test/fixtures"
      & info [ "fixtures" ] ~docv:"DIR"
          ~doc:"Directory minimized reproducers are written to.")
  in
  let max_minimized =
    Arg.(
      value & opt int 30
      & info [ "max-minimized" ] ~docv:"N"
          ~doc:
            "Fail --mutate when a minimized reproducer exceeds $(docv) \
             events.")
  in
  let mutate_resolved =
    let resolve names =
      List.concat_map
        (fun s ->
          if s = "all" then Hawkset.Fault.all
          else
            match Hawkset.Fault.of_name s with
            | Ok f -> [ f ]
            | Error msg ->
                Format.eprintf "hawkset check: %s@." msg;
                exit 2)
        names
    in
    Term.(const resolve $ mutate)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential conformance fuzzing: generate synthetic traces and \
          assert the production pipeline's reports are byte-identical to \
          the naive executable specification: the collector and analysis \
          stages, the assembled pipeline and the result cache (cold then \
          warm), each on the full trace and an event-budget prefix. \
          Divergent traces are delta-debugged to minimal reproducers. With $(b,--mutate), seeded kernel faults prove the \
          oracle catches real divergences. Exits 1 on any divergence or \
          uncaught fault.")
    Term.(const go $ logging_term $ traces $ max_events $ seed_arg
          $ mutate_resolved $ no_minimize $ fixtures $ max_minimized
          $ stats_arg $ stats_json_arg $ trace_out_arg)

let () =
  let info =
    Cmd.info "hawkset" ~version:"1.0.0"
      ~doc:
        "Automatic, application-agnostic and efficient concurrent PM bug \
         detection (EuroSys'25 reproduction)."
  in
  let group =
    Cmd.group info
      [ run_cmd; batch_cmd; check_cmd; list_cmd; bugs_cmd; explain_cmd;
        trace_cmd; analyze_cmd; explore_cmd; crash_sweep_cmd; table2_cmd;
        table3_cmd; table4_cmd; figure6_cmd; ablation_cmd ]
  in
  (* [~catch:false] so damaged inputs reach this handler: a bad trace file
     is an input problem (exit 2, one-line diagnostic), not a crash. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Trace_error (file, line, msg) ->
      Format.eprintf "hawkset: %s:%d: %s@." file line msg;
      exit 2
  | exception Trace.Trace_io.Parse_error (line, msg) ->
      Format.eprintf "hawkset: trace parse error at line %d: %s@." line msg;
      exit 2
  | exception Sys_error msg ->
      Format.eprintf "hawkset: %s@." msg;
      exit 2
