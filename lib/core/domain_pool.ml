(* A small pool of persistent worker domains.

   Each worker is spawned once and handed tasks over a mutex/condition
   pair; a [run_queue] call costs two lock transitions per worker
   instead of a spawn and a join. *)

exception Pool_closed

exception Worker_lost of int

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable task : (unit -> unit) option;
  mutable busy : bool;
  mutable stop : bool;
  mutable dead : bool; (* the worker's loop exited abnormally *)
  mutable domain : unit Domain.t option; (* set right after spawn *)
}

type t = { lock : Mutex.t; mutable workers : worker array; mutable closed : bool }

let worker_loop w () =
  try
    Mutex.lock w.mutex;
    let rec loop () =
      match w.task with
      | Some f ->
          w.task <- None;
          Mutex.unlock w.mutex;
          (* The task itself never raises: [run_queue] wraps it in a
             catch-all that stores the outcome. *)
          f ();
          Mutex.lock w.mutex;
          w.busy <- false;
          Condition.broadcast w.cond;
          loop ()
      | None ->
          if w.stop then Mutex.unlock w.mutex
          else begin
            Condition.wait w.cond w.mutex;
            loop ()
          end
    in
    loop ()
  with _ ->
    (* Watchdog path: tasks cannot raise here ([run_queue] wraps them),
       so an exception means the loop itself died. Mark the slot lost and
       wake any joiner so [await] returns instead of hanging forever;
       [run_queue] then reports the loss as {!Worker_lost}. The unlocked
       writes are single-writer (this domain is about to exit). *)
    w.dead <- true;
    w.busy <- false;
    (try Condition.broadcast w.cond with _ -> ());
    (try Mutex.unlock w.mutex with _ -> ())

let spawn_worker () =
  let w =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      task = None;
      busy = false;
      stop = false;
      dead = false;
      domain = None;
    }
  in
  w.domain <- Some (Domain.spawn (worker_loop w));
  w

let submit w f =
  Mutex.lock w.mutex;
  w.task <- Some f;
  w.busy <- true;
  Condition.broadcast w.cond;
  Mutex.unlock w.mutex

let await w =
  Mutex.lock w.mutex;
  while w.busy && not w.dead do
    Condition.wait w.cond w.mutex
  done;
  Mutex.unlock w.mutex

let create () = { lock = Mutex.create (); workers = [||]; closed = false }

(* [n] tasks drained by [workers] slots pulling indices off a shared
   atomic counter. Any slot may run any task, so callers must not rely
   on slot-indexed state; what stays deterministic is the *result order*
   (index [i] of the returned array is task [i]'s outcome, wherever it
   ran). Slot 0 is the caller, slot [s >= 1] is worker [s - 1]; each
   task binds its slot's timeline lane. *)
let run_queue t ~workers fns =
  let n = Array.length fns in
  let slots = max 1 (min workers n) in
  if n = 0 then begin
    if t.closed then raise Pool_closed;
    [||]
  end
  else begin
    (* Serialise whole calls (workers hold no per-call state, so two
       concurrent callers would otherwise interleave submissions): the
       drain holds [t.lock], so queue tasks must never re-enter the pool.
       Then grow the pool, and respawn slots lost in an earlier call
       (already reported as {!Worker_lost}) instead of submitting to a
       corpse, which would hang. *)
    Mutex.lock t.lock;
    if t.closed then begin
      Mutex.unlock t.lock;
      raise Pool_closed
    end;
    let have = Array.length t.workers in
    if slots - 1 > have then
      t.workers <-
        Array.init (slots - 1) (fun i ->
            if i < have then t.workers.(i) else spawn_worker ());
    for i = 0 to slots - 2 do
      if t.workers.(i).dead then begin
        (match t.workers.(i).domain with
        | Some d -> ( try Domain.join d with _ -> ())
        | None -> ());
        let ws = Array.copy t.workers in
        ws.(i) <- spawn_worker ();
        t.workers <- ws
      end
    done;
    let results = Array.make n (Error Not_found) in
    let next = Atomic.make 0 in
    let rec drain slot () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          (try Ok (Obs.Timeline.with_lane slot fns.(i)) with e -> Error e);
        drain slot ()
      end
    in
    for s = 1 to slots - 1 do
      submit t.workers.(s - 1) (drain s)
    done;
    drain 0 ();
    for s = 1 to slots - 1 do
      await t.workers.(s - 1)
    done;
    (* Watchdog: a worker that died mid-call produced no result — report
       the loss rather than hand back [Error Not_found] silently. *)
    let lost = ref (-1) in
    for i = slots - 2 downto 0 do
      if t.workers.(i).dead then lost := i + 1
    done;
    Mutex.unlock t.lock;
    if !lost >= 0 then raise (Worker_lost !lost);
    results
  end

let shutdown t =
  Mutex.lock t.lock;
  if t.closed then begin
    (* Idempotent: the first call joined everything already. *)
    Mutex.unlock t.lock;
    ()
  end
  else begin
    t.closed <- true;
    let ws = t.workers in
    t.workers <- [||];
    Mutex.unlock t.lock;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.stop <- true;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex)
      ws;
    Array.iter
      (fun w -> match w.domain with Some d -> Domain.join d | None -> ())
      ws
  end

(* The process-wide pool. Shut down on exit so the runtime does not abort
   on still-running domains. *)
let global_pool = lazy (let t = create () in at_exit (fun () -> shutdown t); t)

let global () = Lazy.force global_pool
