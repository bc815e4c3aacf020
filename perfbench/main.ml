(* The benchmark's worker program. perfbench/run.py starts one fresh
   process per set-up pass, oracle shard and rep, so that no number
   depends on what ran earlier in the same process (peak RSS above all).

     main.exe record --dir D --seed N [--verify]      analyze-offline set-up
     main.exe spec   --dir D --seed N --shard I/K --spec-dir M
                                                      batch-small oracle
     main.exe rep    --workload W --dir D --seed N [--spec-dir M]
                                                      one rep

   Common flags: --size full|tiny, --trace-out FILE (record spans),
   --expect APP:ID,ID... (replace an application's expected bug ids).
   Every command prints one JSON object as its last stdout line. *)

module R = Pmapps.Registry
module GT = Pmapps.Ground_truth
module S = Machine.Sched
module P = Hawkset.Pipeline
module RC = Hawkset.Result_cache
module T = Tracer

(* ---- inputs ---- *)

(* Expected Table-2 bug ids are hand-written per workload and size: at
   small sizes some bugs need more operations than a job runs to
   manifest (fast-fair's #1 and #2 both need the main phase to split
   nodes), so each list names the bugs found on every seed tried. *)
type plan = {
  large : string * int * int list;  (** app, main-phase ops, expected *)
  offline : (string * int * int list) list;
  batch_ops : int;
  batch_expected : (string * int list) list;  (** every registry app *)
}

let full =
  {
    large = ("fast-fair", 64_000, [ 1; 2 ]);
    offline =
      [
        ("fast-fair", 16_000, [ 1; 2 ]);
        (* Lock-free gets against locked puts. p-clht (lock-free too)
           is not used: its trace length jumps with the number of table
           resizes the seed triggers (1.05M-1.8M events at 11k ops,
           0.40M or 0.63M at 3k), which made the rep's size, and so its
           time, depend on the seed. p-masstree's is 0.37M +- 1%. *)
        ("p-masstree", 7_000, [ 5; 6; 7 ]);
        ("memcached-pmem", 40_000, [ 10; 11; 12; 13; 14; 15 ]);
      ];
    batch_ops = 400;
    batch_expected =
      [
        ("fast-fair", []); ("turbo-hash", []); ("p-clht", [ 4 ]);
        ("p-masstree", [ 6; 7 ]); ("p-art", []); ("madfs", []);
        ("memcached-pmem", [ 10; 11; 12; 13; 14; 15 ]);
        ("wipe", [ 16; 17 ]); ("apex", [ 20 ]);
      ];
  }

(* The smoke test's size (seed 1): same code paths, seconds instead of
   minutes. *)
let tiny =
  {
    large = ("fast-fair", 500, []);
    offline =
      [ ("fast-fair", 200, []); ("p-masstree", 200, [ 5; 6; 7 ]); ("memcached-pmem", 200, [ 10 ]) ];
    batch_ops = 20;
    batch_expected =
      [
        ("fast-fair", []); ("turbo-hash", []); ("p-clht", [ 4 ]);
        ("p-masstree", [ 6; 7 ]); ("p-art", []); ("madfs", []);
        ("memcached-pmem", []); ("wipe", [ 16 ]); ("apex", []);
      ];
  }

let entry name =
  match R.find name with Some e -> e | None -> failwith ("unknown app " ^ name)

let batch_policy = "round-robin"

(* Stage 3 on one domain, the user default; all else is [Pipeline.default]. *)
let pconfig = { P.default with P.jobs = 1 }

(* ---- measurement helpers ---- *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A "Vm...:  1234 kB" line of /proc/self/status, in kB. *)
let vm_kb key =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:(key ^ ":") l ->
        let n = String.length key + 1 in
        Scanf.sscanf (String.sub l n (String.length l - n)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let file_size path = (Unix.stat path).Unix.st_size

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The file's last line (files here end with a short trailer line). *)
let last_line path =
  In_channel.with_open_bin path (fun ic ->
      let len = Int64.to_int (In_channel.length ic) in
      In_channel.seek ic (Int64.of_int (max 0 (len - 256)));
      let tail = String.trim (In_channel.input_all ic) in
      match String.rindex_opt tail '\n' with
      | Some i -> String.sub tail (i + 1) (String.length tail - i - 1)
      | None -> tail)

let num x = Printf.sprintf "%.17g" x

let json_strs l = Obs.Json.arr (List.map Obs.Json.str l)

let ids_string ids = String.concat "," (List.map string_of_int ids)

(* ---- layer calls, each wrapped in a span ---- *)

let counter_of counters k = Option.value ~default:0 (List.assoc_opt k counters)

let sched_counts () =
  let c = Obs.Registry.counters Obs.Registry.global in
  (counter_of c "sched.points", counter_of c "sched.context_switches")

let execute (e : R.entry) ~seed ?policy ~ops () =
  let p0, s0 = if T.on () then sched_counts () else (0, 0) in
  T.span "execute"
    ~attrs:(fun (r : S.report) ->
      let p1, s1 = sched_counts () in
      [
        ("events", float r.S.event_count); ("sched_points", float (p1 - p0));
        ("switches", float (s1 - s0));
      ])
    (fun () -> e.R.run ~seed ?policy ~ops ())

let save path trace =
  T.span "trace_io.save"
    ~attrs:(fun () ->
      [
        ("events", float (Trace.Tracebuf.length trace));
        ("bytes", float (file_size path));
      ])
    (fun () -> Trace.Trace_io.save path trace)

let load path =
  T.span "trace_io.load"
    ~attrs:(fun t ->
      [ ("events", float (Trace.Tracebuf.length t)); ("bytes", float (file_size path)) ])
    (fun () -> Trace.Trace_io.load path)

let fingerprint trace =
  T.span "trace_io.fingerprint"
    ~attrs:(fun _ -> [ ("events", float (Trace.Tracebuf.length trace)) ])
    (fun () -> Trace.Trace_io.fingerprint trace)

(* Wall and CPU seconds of traced-only work done inside a timed window;
   the rep subtracts them so traced and untraced walls compare. *)
let extra_wall = ref 0.
let extra_cpu = ref 0.

(* [Pipeline.run], and in a traced run also its two stages called
   directly, so collect and analyse get spans of their own. *)
let pipeline trace =
  let res =
    T.span "pipeline"
      ~attrs:(fun (r : P.result) ->
        let c = counter_of r.P.counters in
        let memo_hits = c "analysis.lockset_memo_hits" + c "analysis.vclock_memo_hits" in
        let memo_misses =
          c "analysis.lockset_memo_misses" + c "analysis.vclock_comparisons"
        in
        [
          ("events", float (c "collector.events"));
          ("pairs", float (c "analysis.pairs_examined"));
          ("pruned_hb", float (c "analysis.pairs_pruned_hb"));
          ("memo_hits", float memo_hits);
          ("memo_lookups", float (memo_hits + memo_misses));
        ])
      (fun () -> P.run ~config:pconfig trace)
  in
  if T.on () then begin
    let w0 = now () and c0 = cpu () in
    T.span "split" (fun () ->
        let c =
          T.span "collect"
            ~attrs:(fun (c : Hawkset.Collector.result) ->
              let s = c.Hawkset.Collector.stats in
              Hawkset.Collector.
                [
                  ("events", float s.c_events);
                  ("records", float (s.c_windows + s.c_load_records));
                ])
            (fun () -> Hawkset.Collector.collect trace)
        in
        ignore
          (T.span "analyse"
             ~attrs:(fun (o : Hawkset.Analysis.outcome) ->
               [ ("pairs", float o.Hawkset.Analysis.pairs) ])
             (fun () -> Hawkset.Analysis.run c)));
    extra_wall := !extra_wall +. (now () -. w0);
    extra_cpu := !extra_cpu +. (cpu () -. c0)
  end;
  res

let to_json races =
  T.span "report.to_json"
    ~attrs:(fun s -> [ ("bytes", float (String.length s)) ])
    (fun () -> Hawkset.Report.to_json races)

let config_fp = lazy (RC.config_fingerprint pconfig)

let cache_find cache trace_fp =
  T.span "cache.find"
    ~attrs:(fun r -> [ ("hit", if r = None then 0. else 1.) ])
    (fun () -> RC.find cache ~trace_fp ~config_fp:(Lazy.force config_fp))

let cache_add cache trace_fp (res : P.result) json =
  T.span "cache.add" (fun () ->
      RC.add cache ~trace_fp ~config_fp:(Lazy.force config_fp)
        {
          RC.e_races_json = json;
          e_canonical = Hawkset.Report.canonical res.P.races;
          e_counters = res.P.counters;
        })

let cache_save cache path =
  T.span "cache.save"
    ~attrs:(fun () -> [ ("bytes", float (file_size path)) ])
    (fun () -> RC.save cache path)

let supervise ~journal ~cache ~job_workers jobs =
  let config =
    { Supervise.default_config with Supervise.backoff_ms = 0; job_workers }
  in
  T.span "supervise"
    ~attrs:(fun b ->
      let c = counter_of (Supervise.counters b) in
      [
        ("jobs", float (List.length jobs)); ("attempts", float (c "supervise.attempts"));
        ("journal_bytes", float (file_size journal));
      ])
    (fun () -> Supervise.run ~journal ~cache ~config jobs)

let batch_jobs plan seed =
  match
    Supervise.jobs_of
      ~apps:(List.map (fun e -> e.R.reg_name) R.all)
      ~seeds:[ seed; seed ]
      ~policies:[ batch_policy ] ~ops:plan.batch_ops
  with
  | Ok jobs -> jobs
  | Error m -> failwith m

(* One pass through every layer at a tiny size, before any timing: it
   finishes lazy set-up (first heap growth, module-level tables, the
   domain pool when the workload uses one), and gives the traced run a
   span for every layer even where the timed path skips one. *)
let warmup ~dir ~job_workers =
  let app = "turbo-hash" and seed = 1 and ops = 100 in
  let r = execute (entry app) ~seed ~ops () in
  let path = Filename.concat dir "warmup.trace" in
  save path r.S.trace;
  let trace = load path in
  let fp = fingerprint trace in
  let cache = RC.create () in
  ignore (cache_find cache fp);
  let res = pipeline trace in
  cache_add cache fp res (to_json res.P.races);
  ignore (cache_find cache fp);
  cache_save cache (Filename.concat dir "warmup.cache");
  let job =
    { Supervise.j_id = 0; j_app = app; j_seed = seed; j_policy = batch_policy; j_ops = ops }
  in
  ignore
    (supervise ~journal:(Filename.concat dir "warmup.journal") ~cache:(RC.create ())
       ~job_workers [ job ]);
  Gc.full_major ()

(* ---- correctness ---- *)

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

(* Did the report find every expected bug? Counts a failure if not. *)
let check_bugs ~what (e : R.entry) expected races =
  let missing =
    List.filter (fun id -> not (GT.bug_found ~bugs:e.R.bugs races id)) expected
  in
  if missing <> [] then fail "%s: expected bug(s) %s not found" what (ids_string missing);
  missing = []

let check_complete ~what (res : P.result) =
  if res.P.truncated <> [] then fail "%s: truncated analysis" what;
  res.P.truncated = []

(* ---- workloads ---- *)

(* A timed body returns the events it pushed through stage 1, the
   operations it attempted, a check run after the clock stops (the
   number of failed operations) and traced-only extra work. *)
type body = {
  events : int;
  ops : int;
  verify : unit -> int;
  after : unit -> unit;
}

let no_after () = ()

let run_large plan ~seed () =
  let app, ops, expected = plan.large in
  let e = entry app in
  let r = execute e ~seed ~ops () in
  let res = pipeline r.S.trace in
  ignore (to_json res.P.races : string);
  let verify () =
    let ok = check_complete ~what:app res in
    let ok = check_bugs ~what:app e expected res.P.races && ok in
    if ok then 0 else 1
  in
  { events = r.S.event_count; ops = 1; verify; after = no_after }

let offline_path dir app = Filename.concat dir (app ^ ".trace")
let expected_json_path dir app = Filename.concat dir (app ^ ".report.json")
let verified_path dir app = Filename.concat dir (app ^ ".verified")

let analyze_offline plan ~dir () =
  let results =
    List.map
      (fun (app, _, expected) ->
        let trace = load (offline_path dir app) in
        let res = pipeline trace in
        let json = to_json res.P.races in
        (app, expected, Trace.Tracebuf.length trace, res, json))
      plan.offline
  in
  let verify () =
    List.fold_left
      (fun failed (app, expected, _, res, json) ->
        let ok = check_complete ~what:app res in
        let ok = check_bugs ~what:app (entry app) expected res.P.races && ok in
        let ok =
          if Sys.file_exists (verified_path dir app) then ok
          else (fail "%s: trace checksum not verified at set-up" app; false)
        in
        let ok =
          if json = read_file (expected_json_path dir app) then ok
          else begin
            fail "%s: loaded trace's report differs from the in-memory trace's" app;
            false
          end
        in
        if ok then failed else failed + 1)
      0 results
  in
  let events = List.fold_left (fun n (_, _, ev, _, _) -> n + ev) 0 results in
  { events; ops = List.length results; verify; after = no_after }

(* The oracle's answer for one distinct job, written by [spec] as a
   one-record journal (the spec's report JSON as payload) into a
   directory named after this executable's digest: the answer is a pure
   function of the job and the program, so runs of the same build share
   it. *)
type spec = { sp_events : int; sp_found : int list; sp_json : string }

let spec_file spec_dir (e : R.entry) seed ops =
  Filename.concat spec_dir (Printf.sprintf "%s-%d-%d.journal" e.R.reg_name seed ops)

(* One job per app at the run's seed: every further seed would cost the
   executable specification ~30 s of CPU (apex alone ~20 s) in every
   run, before the reps. *)
let distinct_jobs seed = List.map (fun e -> (e, seed)) R.all

let read_specs plan ~spec_dir ~seed =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((e : R.entry), s) ->
      let path = spec_file spec_dir e s plan.batch_ops in
      if Sys.file_exists path then
        match (Trace.Journal.load path).Trace.Journal.l_records with
        | [ { Trace.Journal.fields = [ events; found ]; payload = Some json; _ } ] ->
            let found =
              if found = "-" then []
              else List.map int_of_string (String.split_on_char ',' found)
            in
            Hashtbl.replace tbl (e.R.reg_name, s)
              { sp_events = int_of_string events; sp_found = found; sp_json = json }
        | _ -> ())
    (distinct_jobs seed);
  tbl

let batch_small plan ~dir ~spec_dir ~seed =
  let jobs = batch_jobs plan seed in
  let specs = read_specs plan ~spec_dir ~seed in
  fun () ->
  let cache = RC.create () in
  let journal = Filename.concat dir "batch.journal" in
  let b = supervise ~journal ~cache ~job_workers:2 jobs in
  cache_save cache (Filename.concat dir "batch.cache");
  let stats = RC.stats cache in
  let hits = counter_of stats "cache.hits" and misses = counter_of stats "cache.misses" in
  let distinct = List.length jobs / 2 in
  let events = Hashtbl.fold (fun _ s n -> n + s.sp_events) specs 0 in
  let verify () =
    let rep_ok =
      if hits = distinct && misses = distinct then true
      else begin
        fail "cache: %d hits, %d misses, expected %d each" hits misses distinct;
        false
      end
    in
    let failed =
      List.fold_left
        (fun failed (jr : Supervise.job_result) ->
          let j = jr.Supervise.jr_job in
          let what =
            Printf.sprintf "job %d (%s, seed %d)" j.Supervise.j_id j.j_app j.j_seed
          in
          let ok =
            match jr.Supervise.jr_status with
            | Supervise.Done { d_attempts = 1; d_truncations = 0; d_races_json; _ } -> (
                match Hashtbl.find_opt specs (j.j_app, j.j_seed) with
                | None -> fail "%s: no spec result" what; false
                | Some sp ->
                    let expected = List.assoc j.j_app plan.batch_expected in
                    let missing =
                      List.filter (fun id -> not (List.mem id sp.sp_found)) expected
                    in
                    if missing <> [] then
                      fail "%s: expected bug(s) %s not found" what (ids_string missing);
                    if d_races_json <> sp.sp_json then
                      fail "%s: report differs from the executable specification" what;
                    missing = [] && d_races_json = sp.sp_json)
            | st -> fail "%s: status %s" what (Supervise.status_string st); false
          in
          if ok && rep_ok then failed else failed + 1)
        0 b.Supervise.b_results
    in
    failed + (List.length jobs - List.length b.Supervise.b_results)
  in
  (* Traced only: Supervise.run is one opaque span, so a sequential pass
     makes the same public calls per declared job (the duplicate hits a
     fresh cache exactly like the batch) to attribute its time. *)
  let after () =
    let cache = RC.create () in
    List.iter
      (fun (j : Supervise.job) ->
        let policy = Result.get_ok (Supervise.policy_of_string j.Supervise.j_policy) in
        let r = execute (entry j.j_app) ~seed:j.j_seed ~policy ~ops:j.j_ops () in
        let fp = fingerprint r.S.trace in
        match cache_find cache fp with
        | Some _ -> ()
        | None ->
            let res = pipeline r.S.trace in
            cache_add cache fp res (to_json res.P.races))
      jobs
  in
  { events; ops = List.length jobs; verify; after }

(* ---- commands ---- *)

let describe plan = function
  | "run-large" ->
      let app, ops, _ = plan.large in
      Printf.sprintf "%s, %d main-phase ops" app ops
  | "analyze-offline" ->
      String.concat ", "
        (List.map (fun (a, ops, _) -> Printf.sprintf "%s %d ops" a ops) plan.offline)
  | _ ->
      Printf.sprintf "%d apps x %s x 2 declarations, %d ops" (List.length R.all)
        batch_policy plan.batch_ops

let rep ~plan ~workload ~dir ~spec_dir ~seed =
  let body, job_workers, planned_ops =
    match workload with
    | "run-large" -> (run_large plan ~seed, 1, 1)
    | "analyze-offline" -> (analyze_offline plan ~dir, 1, List.length plan.offline)
    | "batch-small" ->
        (batch_small plan ~dir ~spec_dir ~seed, 2, List.length (batch_jobs plan seed))
    | w -> failwith ("unknown workload " ^ w)
  in
  let w0 = now () in
  warmup ~dir ~job_workers;
  let setup_s = now () -. w0 in
  let rss0 = vm_kb "VmRSS" in
  T.phase := "timed";
  T.span "rep" (fun () ->
      extra_wall := 0.;
      extra_cpu := 0.;
      let c0 = cpu () and t0 = now () in
      let outcome = try Ok (body ()) with exn -> Error exn in
      let t1 = now () and c1 = cpu () in
      let hwm = vm_kb "VmHWM" in
      let wall = t1 -. t0 -. !extra_wall and cpu_s = c1 -. c0 -. !extra_cpu in
      let events, ops, failed =
        match outcome with
        | Ok b ->
            let failed = b.verify () in
            if T.on () then b.after ();
            (b.events, b.ops, failed)
        | Error exn ->
            fail "exception: %s" (Printexc.to_string exn);
            (0, planned_ops, planned_ops)
      in
      print_endline
        (Obs.Json.obj
           ([
              ("wall_s", num wall); ("cpu_s", num cpu_s); ("setup_s", num setup_s);
              ("events", string_of_int events); ("ops", string_of_int ops);
              ("failed", string_of_int failed);
              ("peak_rss_mb", num (float hwm /. 1024.));
              ("rss_before_mb", num (float rss0 /. 1024.));
              ("failures", json_strs (List.rev !failures));
              ("ocaml", Obs.Json.str Sys.ocaml_version);
              ("input", Obs.Json.str (describe plan workload));
            ])))

(* analyze-offline set-up: record and save the three traces. With
   [verify] (the pass whose files the reps read) also check each file's
   checksum and store the in-memory trace's report for the round trip. *)
let record ~plan ~dir ~seed ~verify =
  let t0 = now () in
  let traces =
    List.map
      (fun (app, ops, _) ->
        let r = execute (entry app) ~seed ~ops () in
        save (offline_path dir app) r.S.trace;
        (app, r.S.trace))
      plan.offline
  in
  let setup_s = now () -. t0 in
  (* Checksum: the file must end with the trailer for exactly these
     events; each rep's strict [Trace_io.load] then checks the trailer's
     FNV-1a sum against the bytes it parses (raising on a mismatch), so a
     load that returns is [`Verified] in [load_tolerant]'s terms. *)
  if verify then
    List.iter
      (fun (app, trace) ->
        let path = offline_path dir app in
        let want = Printf.sprintf "# trailer events=%d " (Trace.Tracebuf.length trace) in
        if String.starts_with ~prefix:want (last_line path) then
          write_file (verified_path dir app) ""
        else fail "%s: saved trace has no matching checksum trailer" app;
        let json = Hawkset.Report.to_json (P.run ~config:pconfig trace).P.races in
        write_file (expected_json_path dir app) json)
      traces;
  let events = List.fold_left (fun n (_, t) -> n + Trace.Tracebuf.length t) 0 traces in
  print_endline
    (Obs.Json.obj
       [
         ("setup_s", num setup_s); ("events", string_of_int events);
         ("failures", json_strs (List.rev !failures));
       ])

(* batch-small oracle: the executable specification on every distinct
   job's trace (shard [i] of [k]) that has no answer yet, outside any
   timed window. *)
let spec ~plan ~spec_dir ~seed ~shard ~shards =
  let policy = Result.get_ok (Supervise.policy_of_string batch_policy) in
  List.iteri
    (fun i ((e : R.entry), s) ->
      let path = spec_file spec_dir e s plan.batch_ops in
      if i mod shards = shard && not (Sys.file_exists path) then begin
        let r = e.R.run ~seed:s ~policy ~ops:(R.clamp_ops e plan.batch_ops) () in
        let races = Hawkset.Reference.pipeline r.S.trace in
        let found =
          List.filter_map
            (fun (b : GT.bug) ->
              if GT.bug_found ~bugs:e.R.bugs races b.GT.gt_id then Some b.GT.gt_id
              else None)
            e.R.bugs
        in
        let tmp = path ^ ".tmp" in
        let w = Trace.Journal.create tmp in
        Trace.Journal.add w
          {
            Trace.Journal.tag = "spec";
            fields =
              [
                string_of_int r.S.event_count;
                (if found = [] then "-" else ids_string found);
              ];
            payload = Some (Hawkset.Report.to_json races);
          };
        Trace.Journal.close w;
        Sys.rename tmp path
      end)
    (distinct_jobs seed);
  print_endline (Obs.Json.obj [ ("failures", json_strs []) ])

(* ---- command line ---- *)

let () =
  let args = Array.to_list Sys.argv in
  let cmd = match args with _ :: c :: _ -> c | _ -> "" in
  let opt name =
    let rec go = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let req name =
    match opt name with Some v -> v | None -> failwith ("missing " ^ name)
  in
  let plan = match opt "--size" with Some "tiny" -> tiny | _ -> full in
  let plan =
    (* --expect APP:IDS replaces that app's expected bugs everywhere. *)
    match opt "--expect" with
    | None -> plan
    | Some spec ->
        let app, ids =
          match String.index_opt spec ':' with
          | Some i ->
              ( String.sub spec 0 i,
                List.map int_of_string
                  (String.split_on_char ','
                     (String.sub spec (i + 1) (String.length spec - i - 1))) )
          | None -> failwith "--expect APP:ID,ID..."
        in
        let fix (a, ops, ex) = if a = app then (a, ops, ids) else (a, ops, ex) in
        {
          plan with
          large = fix plan.large;
          offline = List.map fix plan.offline;
          batch_expected =
            List.map
              (fun (a, ex) -> if a = app then (a, ids) else (a, ex))
              plan.batch_expected;
        }
  in
  let dir = req "--dir" and seed = int_of_string (req "--seed") in
  (match opt "--trace-out" with
  | Some _ ->
      T.enabled := true;
      T.proc := Printf.sprintf "%s-%d" cmd (Unix.getpid ())
  | None -> ());
  (match cmd with
  | "rep" ->
      rep ~plan ~workload:(req "--workload") ~dir
        ~spec_dir:(Option.value ~default:dir (opt "--spec-dir")) ~seed
  | "record" -> record ~plan ~dir ~seed ~verify:(List.mem "--verify" args)
  | "spec" ->
      Scanf.sscanf (req "--shard") "%d/%d" (fun shard shards ->
          spec ~plan ~spec_dir:(req "--spec-dir") ~seed ~shard ~shards)
  | c -> failwith ("unknown command " ^ c));
  Option.iter T.write (opt "--trace-out")
