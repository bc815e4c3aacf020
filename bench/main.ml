(* Benchmark and experiment harness.

     dune exec bench/main.exe              -- everything, scaled-down
     dune exec bench/main.exe -- table2    -- one artifact (table2|table3|
                                              table4|figure6|ablation|micro)
     dune exec bench/main.exe -- full      -- paper-scale workloads (slow)

   Every table and figure of the paper's evaluation has (i) a harness
   that prints the same rows/series (lib/harness) and (ii) a Bechamel
   micro-benchmark of its computational kernel below. *)

module S = Machine.Sched

(* ---- Bechamel micro-benchmarks ---- *)

let fast_fair_trace ops seed =
  (Pmapps.Driver.run_kv_ycsb (module Pmapps.Fast_fair) ~seed ~ops ()).S.trace

let seed_workload =
  lazy (Workload.Seeds.corpus ~count:1 ~ops_per_seed:400 ()).(0)

let micro () =
  let open Bechamel in
  (* Pre-generate the inputs outside the measured closures. *)
  let trace_1k = fast_fair_trace 1_000 42 in
  let trace_4k = fast_fair_trace 4_000 42 in
  let seed_ops = Lazy.force seed_workload in
  let per_thread = Workload.Seeds.split ~threads:8 seed_ops in
  let tests =
    [
      (* Table 2 kernel: the full pipeline over an application trace. *)
      Test.make ~name:"table2/pipeline-fast-fair-1k"
        (Staged.stage (fun () -> Hawkset.Pipeline.races trace_1k));
      (* Table 3 kernels: what each tool pays per seed workload. *)
      Test.make ~name:"table3/hawkset-per-seed"
        (Staged.stage (fun () ->
             let report =
               Pmapps.Driver.run_kv
                 (module Pmapps.Fast_fair)
                 ~seed:7 ~load:[] ~per_thread ()
             in
             Hawkset.Pipeline.races report.Machine.Sched.trace));
      Test.make ~name:"table3/pmrace-per-execution"
        (Staged.stage (fun () ->
             Pmapps.Driver.run_kv
               (module Pmapps.Fast_fair)
               ~seed:7
               ~policy:
                 (Machine.Sched.Delay_injection
                    { probability = 0.05; duration = 40 })
               ~observe:true ~load:[] ~per_thread ()));
      (* Table 4 kernels: stage 2 on and off. *)
      Test.make ~name:"table4/analysis-with-irh"
        (Staged.stage (fun () -> Hawkset.Pipeline.races trace_1k));
      Test.make ~name:"table4/analysis-without-irh"
        (Staged.stage (fun () ->
             Hawkset.Pipeline.races ~config:Hawkset.Pipeline.no_irh trace_1k));
      (* Figure 6 kernel: analysis cost vs trace size (sublinearity). *)
      Test.make ~name:"figure6/analysis-4k"
        (Staged.stage (fun () -> Hawkset.Pipeline.races trace_4k));
      (* Ablation kernels. *)
      Test.make ~name:"ablation/traditional-lockset"
        (Staged.stage (fun () -> Baselines.Eraser.analyse trace_1k));
      Test.make ~name:"ablation/no-vector-clocks"
        (Staged.stage (fun () ->
             Hawkset.Pipeline.races
               ~config:
                 { Hawkset.Pipeline.default with vector_clocks = false }
               trace_1k));
    ]
  in
  let grouped = Test.make_grouped ~name:"hawkset" ~fmt:"%s %s" tests in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (v :: _) -> v
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  print_string (Harness.Tables.section "Bechamel micro-benchmarks");
  print_string
    (Harness.Tables.render
       ~headers:[ "Benchmark"; "Time per run" ]
       ~rows:
         (List.map
            (fun (name, ns) ->
              let pretty =
                if Float.is_nan ns then "n/a"
                else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                else Printf.sprintf "%.0f ns" ns
              in
              [ name; pretty ])
            rows))

(* ---- experiment drivers ---- *)

let table1 ~full =
  ignore full;
  print_string (Harness.Table1.to_string ())

let table2 ~full =
  let sizes = if full then [ 1_000; 10_000; 100_000 ] else [ 1_000; 6_000 ] in
  print_string (Harness.Table2.to_string (Harness.Table2.run ~sizes ()))

let table3 ~full =
  let seeds = if full then 240 else 24 in
  let pmrace_executions = if full then 40 else 12 in
  print_string
    (Harness.Table3.to_string (Harness.Table3.run ~seeds ~pmrace_executions ()))

let table4 ~full =
  let ops = if full then 100_000 else 2_000 in
  print_string (Harness.Table4.to_string (Harness.Table4.run ~ops ()))

let figure6 ~full =
  let sizes =
    if full then [ 1_000; 10_000; 100_000 ] else [ 250; 1_000; 4_000 ]
  in
  print_string (Harness.Figure6.to_string (Harness.Figure6.run ~sizes ()))

let ablation ~full =
  let ops = if full then 10_000 else 1_500 in
  print_string (Harness.Ablation.to_string (Harness.Ablation.run ~ops ()))

(* ---- CI perf smoke (the `perf-smoke` target) ----
   The cheap regression guard on the timeline profiler's overhead. Exits
   non-zero on violation. *)

let perf_smoke ~full =
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* Timeline overhead gate: the instrumentation must add <= 2% to the
     4000-op pipeline. We compare recording *enabled* against disabled —
     a strictly stronger bound than the no-`--trace-out` claim, since the
     disabled path (one atomic load per stage-granularity site) is a
     subset of the enabled one. Each round times an off run and an on run
     back to back and keeps their *difference*: adjacent runs see the
     same load phase of a shared runner, so drift cancels pairwise where
     a best-of comparison of two separate batches does not. The median
     difference then gates against 2% of the median off time, with a
     10ms floor for timer noise on runs this short. *)
  let tl_ops = if full then 100_000 else 4_000 in
  let tl_trace = fast_fair_trace tl_ops 42 in
  let timed_round enabled =
    Obs.Timeline.reset ();
    Obs.Timeline.set_enabled enabled;
    let r = Hawkset.Pipeline.run tl_trace in
    r.Hawkset.Pipeline.analysis_seconds
  in
  (* 11 rounds: with 5, the median delta on a 2-core host crossed the
     bound in about one run in three, at no recorder change. *)
  let tl_rounds = if full then 3 else 11 in
  let offs = Array.init tl_rounds (fun _ -> 0.) in
  let deltas = Array.init tl_rounds (fun _ -> 0.) in
  for i = 0 to tl_rounds - 1 do
    let off = timed_round false in
    let on = timed_round true in
    offs.(i) <- off;
    deltas.(i) <- on -. off
  done;
  Obs.Timeline.set_enabled false;
  Obs.Timeline.reset ();
  let med_off = median offs and med_delta = median deltas in
  print_string (Harness.Tables.section "Perf smoke (timeline overhead)");
  Printf.printf
    "fast-fair/%d: pipeline timeline-off %.4fs, median on-off delta %+.4fs \
     (bound 2%% + 10ms)\n"
    tl_ops med_off med_delta;
  if med_delta > (med_off *. 0.02) +. 0.01 then begin
    Printf.eprintf
      "perf-smoke FAIL: timeline recording adds %.4fs > 2%% of %.4fs + 10ms\n"
      med_delta med_off;
    exit 1
  end

(* ---- schedule exploration (the `explore` target) ----
   The interleaving-stability gate: a policy/seed sweep over three apps
   must pass the oracle (no erroring schedule, every directly-observed
   inconsistency already reported by the lockset analysis of that trace,
   identical traces identical reports) and reproduce the Table 3 shape —
   at least one injected bug that HawkSet reports in more schedules than
   direct observation catches it. *)

let explore_smoke ~full =
  let config =
    {
      Explore.default_config with
      Explore.schedules = (if full then 32 else 12);
      ops = (if full then 400 else 200);
      jobs = 2;
    }
  in
  let apps = [ "fast-fair"; "p-masstree"; "wipe" ] in
  let ts = Harness.Explore_sweep.run ~config ~apps () in
  print_string (Harness.Explore_sweep.to_string ts);
  print_string (Harness.Explore_sweep.bug_table_string ts);
  if not (Harness.Explore_sweep.stable ts) then begin
    print_string (Harness.Explore_sweep.divergences_string ts);
    failwith "explore: interleaving-stability oracle violated"
  end;
  let pmrace_misses =
    List.exists
      (fun (t : Explore.t) ->
        List.exists
          (fun (b : Explore.bug_hits) ->
            b.Explore.b_hawkset > b.Explore.b_pmrace)
          t.Explore.x_bug_hits)
      ts
  in
  if not pmrace_misses then
    failwith
      "explore: expected at least one bug observed in fewer schedules than \
       HawkSet reports it"

(* ---- crash sweep (the `crash-sweep` target) ----
   Runs the fault-injection sweep on the four bug-target apps named in the
   acceptance criteria plus the pmlog control, hunting across a few seeds
   until each target bug is manifested (damage at a crash point whose
   prefix analysis reports that bug). Then demonstrates the degradation
   contract: an exhausted event budget still returns a report. Exits
   non-zero via assert on violation. *)

let crash_sweep ~full =
  let ops = if full then 1_200 else 400 in
  let base = { Crashtest.default_config with Crashtest.c_ops = ops } in
  (* (app, bug that must manifest); None = control, must stay clean. *)
  let targets =
    [ ("fast-fair", Some 1); ("turbo-hash", Some 3); ("p-clht", Some 4);
      ("memcached-pmem", Some 12); ("pmlog", None) ]
  in
  let rows =
    List.map
      (fun (app, want) ->
        let runner =
          match Crashtest.runner_for app with
          | Some r -> r
          | None -> failwith (app ^ " has no crash-sweep runner")
        in
        let rec hunt = function
          | [] -> Crashtest.run_sweep ~config:base runner
          | seed :: rest -> (
              let config = { base with Crashtest.c_seed = seed } in
              let sweep = Crashtest.run_sweep ~config runner in
              match want with
              | Some id
                when (not (List.mem id sweep.Crashtest.sw_manifested))
                     && rest <> [] ->
                  hunt rest
              | Some _ | None -> sweep)
        in
        let sweep = hunt [ 42; 7; 1; 13; 99 ] in
        ({ Harness.Crash_sweep.cs_runner = runner; cs_sweep = sweep }, want))
      targets
  in
  print_string (Harness.Crash_sweep.to_string (List.map fst rows));
  (* Acceptance: the injected bugs are manifested, the control is clean. *)
  List.iter
    (fun ((r : Harness.Crash_sweep.row), want) ->
      let s = r.Harness.Crash_sweep.cs_sweep in
      match want with
      | Some id ->
          if not (List.mem id s.Crashtest.sw_manifested) then
            failwith
              (Printf.sprintf "bug #%d did not manifest on %s" id
                 s.Crashtest.sw_app)
      | None ->
          if s.Crashtest.sw_damaged <> 0 || s.Crashtest.sw_raised <> 0 then
            failwith
              (Printf.sprintf "control %s was damaged (%d) / raised (%d)"
                 s.Crashtest.sw_app s.Crashtest.sw_damaged
                 s.Crashtest.sw_raised))
    rows;
  (* Degradation demo: an exhausted event budget still yields a report,
     flagged as truncated. *)
  let trace = fast_fair_trace 4_000 42 in
  let budget = Trace.Tracebuf.length trace / 2 in
  let degraded =
    Hawkset.Pipeline.run
      ~config:
        { Hawkset.Pipeline.default with Hawkset.Pipeline.event_budget = Some budget }
      trace
  in
  assert (
    List.exists
      (fun (t : Hawkset.Pipeline.truncation) ->
        t.Hawkset.Pipeline.trunc_stage = "collect"
        && t.Hawkset.Pipeline.trunc_reason = "event_budget"
        && t.Hawkset.Pipeline.trunc_done = budget)
      degraded.Hawkset.Pipeline.truncated);
  print_string (Harness.Tables.section "Degradation contract");
  Printf.printf
    "event budget %d/%d: report returned, truncated=[collect:event_budget]\n"
    budget
    (Trace.Tracebuf.length trace)

(* ---- supervised batch (the `batch-smoke` target) ----
   The durability contract, in-process: the same declared job set — with
   every fault class injected — run (i) uninterrupted, (ii) killed after
   two jobs and resumed from the journal. The merged reports must be
   byte-identical and the degradation table must show each injected class
   classified and bounded. *)

let batch_smoke ~full =
  let ops = if full then 1_200 else 300 in
  let jobs =
    match
      Supervise.jobs_of
        ~apps:[ "fast-fair"; "p-clht" ]
        ~seeds:[ 42; 43 ] ~policies:[ "round-robin" ] ~ops
    with
    | Ok js -> js
    | Error msg -> failwith msg
  in
  let fault j cls times = { Supervise.f_job = j; f_class = cls; f_times = times } in
  let config =
    {
      Supervise.default_config with
      Supervise.backoff_ms = 0;
      faults =
        [
          fault 0 Supervise.Corrupt_trace 1;
          fault 1 Supervise.Timeout 1;
          fault 2 Supervise.Oom 1;
          fault 3 Supervise.Worker_lost 99;
        ];
    }
  in
  let golden = Supervise.run ~config jobs in
  let journal = Filename.temp_file "hawkset_batch" ".jnl" in
  let killed =
    Supervise.run ~journal
      ~config:{ config with Supervise.stop_after = Some 2 }
      jobs
  in
  assert killed.Supervise.b_interrupted;
  let resumed = Supervise.run ~journal ~resume:true ~config jobs in
  Sys.remove journal;
  print_string (Harness.Batch.degradation_table resumed);
  print_endline (Harness.Batch.summary_line resumed);
  if Supervise.merged_json golden <> Supervise.merged_json resumed then
    failwith "batch-smoke: resumed merged report differs from golden run";
  assert (List.exists (fun jr -> jr.Supervise.jr_replayed) resumed.Supervise.b_results);
  let status i (b : Supervise.batch) =
    Supervise.status_string (List.nth b.Supervise.b_results i).Supervise.jr_status
  in
  assert (status 0 resumed = "ok-retried");
  assert (status 1 resumed = "ok-retried");
  assert (status 2 resumed = "ok-retried");
  assert (status 3 resumed = "failed");
  let counters = Supervise.counters resumed in
  let c name = Option.value ~default:0 (List.assoc_opt name counters) in
  assert (c "supervise.failures.corrupt_trace" = 1);
  assert (c "supervise.failures.timeout" = 1);
  assert (c "supervise.failures.oom" = 1);
  (* The worker-lost job is bounded: exactly [attempts] tries, no more. *)
  assert (c "supervise.failures.worker_lost" = config.Supervise.attempts);
  Printf.printf
    "batch-smoke: kill+resume merged report byte-identical (%d jobs, %d \
     replayed)\n"
    (List.length resumed.Supervise.b_results)
    (c "supervise.replayed")

(* ---- job-level parallelism + result cache (the `batch-par` target) ----
   The two wall-clock contracts of the concurrency work, gated: a batch
   of four per-app chains at job_workers=4 must produce a merged report
   byte-identical to the sequential walk in <= 0.6x its wall-clock, and
   a duplicate-heavy (round-robin) explore sweep with a result cache
   must record hits while the stability oracle still passes and the
   reports stay identical to the uncached run. *)

type batch_par_point = {
  bp_jobs : int;
  bp_seq_s : float;  (** Median job_workers=1 wall-clock. *)
  bp_par_s : float;  (** Median job_workers=4 wall-clock. *)
  bp_ratio : float;  (** Median per-rep par/seq ratio. *)
}

let batch_par_sweep ~full =
  let ops = if full then 2_000 else 600 in
  (* Four apps, so job_workers=4 gets four per-app chains to spread. *)
  let jobs =
    match
      Supervise.jobs_of
        ~apps:[ "fast-fair"; "p-clht"; "turbo-hash"; "wipe" ]
        ~seeds:[ 42; 43 ] ~policies:[ "round-robin" ] ~ops
    with
    | Ok js -> js
    | Error msg -> failwith msg
  in
  let base = { Supervise.default_config with Supervise.backoff_ms = 0 } in
  let time config =
    let t0 = Unix.gettimeofday () in
    let b = Supervise.run ~config jobs in
    (b, Unix.gettimeofday () -. t0)
  in
  let reps = 3 in
  let samples =
    Array.init reps (fun _ ->
        let b1, t1 = time base in
        let b4, t4 = time { base with Supervise.job_workers = 4 } in
        if Supervise.merged_json b4 <> Supervise.merged_json b1 then
          failwith
            "batch-par: job_workers=4 merged report differs from \
             job_workers=1";
        (t1, t4))
  in
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  {
    bp_jobs = List.length jobs;
    bp_seq_s = median (Array.map fst samples);
    bp_par_s = median (Array.map snd samples);
    bp_ratio = median (Array.map (fun (t1, t4) -> t4 /. t1) samples);
  }

type cache_point = {
  cp_schedules : int;
  cp_hits : int;
  cp_misses : int;
  cp_entries : int;
}

let explore_cache_sweep ~full =
  let entry =
    match Pmapps.Registry.find "fast-fair" with
    | Some e -> e
    | None -> failwith "fast-fair not registered"
  in
  (* Round-robin scheduling ignores the schedule seed, so every schedule
     replays the same interleaving: the duplicate-heavy shape where the
     cache pays. Any schedule past the first per worker must hit. *)
  let config =
    {
      Explore.default_config with
      Explore.schedules = (if full then 16 else 8);
      policy = Explore.Round_robin;
      ops = (if full then 400 else 200);
      jobs = 2;
    }
  in
  let plain = Explore.run ~config entry in
  let cache = Hawkset.Result_cache.create () in
  let cached =
    Explore.run ~config:{ config with Explore.cache = Some cache } entry
  in
  if not (Explore.stable cached) then
    failwith "batch-par: stability oracle violated with cache enabled";
  let canon (t : Explore.t) =
    List.map
      (fun (r : Explore.schedule_result) ->
        (r.Explore.s_index, r.Explore.s_canonical))
      t.Explore.x_results
  in
  if canon cached <> canon plain then
    failwith "batch-par: cached explore reports differ from uncached";
  let stats = Hawkset.Result_cache.stats cache in
  let stat name = Option.value ~default:0 (List.assoc_opt name stats) in
  {
    cp_schedules = config.Explore.schedules;
    cp_hits = stat "cache.hits";
    cp_misses = stat "cache.misses";
    cp_entries = stat "cache.entries";
  }

let batch_par ~full =
  let bp = batch_par_sweep ~full in
  print_string (Harness.Tables.section "Batch job-workers (4 vs 1)");
  (* The speedup gate needs hardware that can actually run four chains
     at once; on fewer cores (dev containers are often 1-2) the byte
     identity asserted inside the sweep is the whole contract and the
     wall-clock ratio is reported without gating: parallelism that cannot
     pay on the machine at hand is not a regression. *)
  let cores = Domain.recommended_domain_count () in
  let gated = cores >= 4 in
  Printf.printf
    "%d jobs: job_workers=1 %.3fs, job_workers=4 %.3fs (median ratio %.2fx, \
     bound 0.60x%s); merged reports byte-identical\n"
    bp.bp_jobs bp.bp_seq_s bp.bp_par_s bp.bp_ratio
    (if gated then ""
     else Printf.sprintf " — not gated, %d core(s)" cores);
  if gated && bp.bp_ratio > 0.6 then begin
    Printf.eprintf
      "batch-par FAIL: job_workers=4 wall-clock %.3fs > 0.6x sequential \
       %.3fs\n"
      bp.bp_par_s bp.bp_seq_s;
    exit 1
  end;
  let cp = explore_cache_sweep ~full in
  Printf.printf
    "explore round-robin x%d with cache: hits=%d misses=%d entries=%d \
     (oracle stable, reports identical to uncached)\n"
    cp.cp_schedules cp.cp_hits cp.cp_misses cp.cp_entries;
  if cp.cp_hits = 0 then begin
    Printf.eprintf "batch-par FAIL: explore cache recorded no hits\n";
    exit 1
  end

(* ---- conformance fuzz (the `check` target) ----
   A bounded differential-fuzzing pass: production pipeline vs the
   executable specification across the config matrix, with throughput
   reported. Exits non-zero on any divergence — the same gate CI runs
   through `hawkset check`, here sized for the bench driver. *)

let check_smoke ~full =
  let traces = if full then 5_000 else 500 in
  let t0 = Unix.gettimeofday () in
  let r = Check.Conformance.fuzz ~traces ~max_events:64 ~seed:42 () in
  let dt = Unix.gettimeofday () -. t0 in
  print_string (Harness.Tables.section "Conformance fuzz");
  Printf.printf
    "%d traces (%d events), %d comparisons in %.1fs (%.0f traces/s): %d \
     divergent\n"
    r.Check.Conformance.fz_traces r.Check.Conformance.fz_events
    r.Check.Conformance.fz_comparisons dt
    (float_of_int r.Check.Conformance.fz_traces /. dt)
    (List.length r.Check.Conformance.fz_failures);
  match r.Check.Conformance.fz_failures with
  | [] -> ()
  | (seed, _, d) :: _ ->
      Printf.eprintf "check FAIL: seed %d diverged on %s\n" seed
        d.Check.Conformance.d_variant;
      exit 1

let () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "full" args || List.mem "--full" args in
  let wants name = List.mem name args in
  let any =
    List.exists wants
      [ "table1"; "table2"; "table3"; "table4"; "figure6"; "ablation";
        "micro"; "crash-sweep"; "perf-smoke";
        "explore"; "batch-smoke"; "batch-par"; "check" ]
  in
  let run name f = if (not any) || wants name then f ~full in
  run "table1" table1;
  run "table2" table2;
  run "table3" table3;
  run "table4" table4;
  run "figure6" figure6;
  run "ablation" ablation;
  (* `crash-sweep` is opt-in only: it executes hundreds of cut runs. *)
  if wants "crash-sweep" then crash_sweep ~full;
  (* `explore` is opt-in only: it runs the full pipeline once per
     schedule. *)
  if wants "explore" then explore_smoke ~full;
  (* `perf-smoke` is opt-in only: the CI regression gate. *)
  if wants "perf-smoke" then perf_smoke ~full;
  (* `check` is opt-in only: it runs the full config matrix per trace. *)
  if wants "check" then check_smoke ~full;
  (* `batch-smoke` is opt-in only: it runs the pipeline once per job,
     twice over (golden + kill/resume). *)
  if wants "batch-smoke" then batch_smoke ~full;
  (* `batch-par` is opt-in only: it times the same batch six times over
     (3 reps x 2 widths) plus two explore sweeps. *)
  if wants "batch-par" then batch_par ~full;
  if (not any) || wants "micro" then micro ()
