module S = Machine.Sched

let name = "memcached-pmem"
let nbuckets = 1024

(* Item layout (one 64-byte slab chunk):
     word 0: key
     word 1: value
     word 2: cas id (metadata)
     word 3: hash-chain next pointer
     word 4: free-list next pointer *)
let item_size = 64
let off_key = 0
let off_value = 8
let off_cas = 16
let off_next = 24
let off_free = 32

(* Table block: word 0 = global cas counter, word 1 = free-list head,
   words 2.. = bucket chain heads. *)
type t = { base : int; mutable reused : int }

let off_cas_counter = 0
let off_free_head = 8
let bucket_addr t i = t.base + 16 + (8 * i)

(* ---- named sites ---- *)

(* #10/#11: the value/metadata stores of an item built by append/prepend
   from an old (possibly unpersisted) item; never flushed. *)
let bug10_store_pos = __POS__
let bug11_store_pos = __POS__

(* #12: set's value store; never flushed. *)
let bug12_store_pos = __POS__

(* #13: set's chain-pointer store; never flushed. *)
let bug13_store_pos = __POS__

(* #14: incr/decr's cas-id store; never flushed. *)
let bug14_store_pos = __POS__

(* #15: the free-list push's next-pointer store; never flushed. *)
let bug15_store_pos = __POS__

(* Load sites. *)
let get_value_load_pos = __POS__ (* get / append read of the value *)
let append_old_load_pos = __POS__ (* append/prepend read of the old item *)
let chain_next_load_pos = __POS__
let chain_key_load_pos = __POS__
let cas_meta_load_pos = __POS__ (* cas_op's read of the cas id *)
let freelist_pop_load_pos = __POS__
let bucket_head_load_pos = __POS__

(* Re-initialization stores of recycled items: persisted, issued without
   a lock. On a first-use item the IRH prunes them; on a recycled item
   the words are already published, so they surface — deliberately left
   OUT of the ground-truth benign rules because they are the false
   positives of Table 4. *)
let reinit_key_store_pos = __POS__
let reinit_cas_store_pos = __POS__

let bugs =
  let l = Ground_truth.loc in
  [
    { Ground_truth.gt_id = 10; gt_new = false;
      gt_desc = "load unpersisted value";
      gt_store_locs = [ l bug10_store_pos ];
      gt_load_locs = [ l get_value_load_pos; l append_old_load_pos ] };
    { Ground_truth.gt_id = 11; gt_new = false;
      gt_desc = "load unpersisted value";
      gt_store_locs = [ l bug11_store_pos ];
      gt_load_locs = [ l cas_meta_load_pos; l append_old_load_pos ] };
    { Ground_truth.gt_id = 12; gt_new = false;
      gt_desc = "load unpersisted value";
      gt_store_locs = [ l bug12_store_pos ];
      gt_load_locs = [ l get_value_load_pos; l append_old_load_pos ] };
    { Ground_truth.gt_id = 13; gt_new = false;
      gt_desc = "load unpersisted pointer";
      gt_store_locs = [ l bug13_store_pos ];
      gt_load_locs = [ l chain_next_load_pos ] };
    { Ground_truth.gt_id = 14; gt_new = false;
      gt_desc = "load unpersisted metadata";
      gt_store_locs = [ l bug14_store_pos ];
      gt_load_locs = [ l cas_meta_load_pos ] };
    { Ground_truth.gt_id = 15; gt_new = false;
      gt_desc = "load unpersisted metadata";
      gt_store_locs = [ l bug15_store_pos ];
      gt_load_locs = [ l freelist_pop_load_pos ] };
  ]

let benign =
  List.map
    (fun pos -> Ground_truth.Load_at (Ground_truth.loc pos))
    [ chain_key_load_pos; bucket_head_load_pos ]

let sync_config = Machine.Sync_config.builtin

let hash key =
  let h = key lxor (key lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int land (nbuckets - 1)

let create ctx =
  let base = S.alloc ctx ~align:64 (16 + (8 * nbuckets)) in
  { base; reused = 0 }

let next_cas_id ctx t =
  (* A racy fetch-and-add, like the original's per-item CAS ids. *)
  let rec go () =
    let cur = S.load_i64 ctx __POS__ (t.base + off_cas_counter) in
    if
      S.cas_i64 ctx __POS__ (t.base + off_cas_counter) ~expected:cur
        ~desired:(Int64.add cur 1L)
    then Int64.add cur 1L
    else go ()
  in
  go ()

(* ---- PM free list (lock-free stack; bug #15 + the reuse pattern) ---- *)

let freelist_push t ctx item =
  let rec go () =
    let head = S.load_i64 ctx freelist_pop_load_pos (t.base + off_free_head) in
    (* BUG #15: the next pointer is stored but never flushed. *)
    S.store_i64 ctx bug15_store_pos (item + off_free) head;
    if
      not
        (S.cas_i64 ctx __POS__ (t.base + off_free_head) ~expected:head
           ~desired:(Int64.of_int item))
    then go ()
  in
  go ()

let freelist_pop t ctx =
  let rec go () =
    let head = S.load_i64 ctx freelist_pop_load_pos (t.base + off_free_head) in
    if Int64.equal head 0L then None
    else
      let item = Int64.to_int head in
      let next = S.load_i64 ctx freelist_pop_load_pos (item + off_free) in
      if
        S.cas_i64 ctx __POS__ (t.base + off_free_head) ~expected:head
          ~desired:next
      then Some item
      else go ()
  in
  go ()

let alloc_item t ctx =
  match freelist_pop t ctx with
  | Some item ->
      t.reused <- t.reused + 1;
      item
  | None -> S.alloc ctx ~align:64 item_size

let reused_items t = t.reused
let base_addr t = t.base

(* All state is reachable from the table block: recovery is just a
   reattach. What a post-crash [get] then finds depends entirely on which
   item/chain stores were actually flushed — the never-flushed stores of
   bugs #12/#13/#15 are exactly what the crash sweep observes as damage. *)
let recover _ctx ~base = { base; reused = 0 }

(* ---- chain operations (all lock-free) ---- *)

let find t ctx key =
  let rec walk g item =
    if item = 0 || Cycle_guard.revisits g item then None
    else if
      Int64.to_int (S.load_i64 ctx chain_key_load_pos (item + off_key)) = key
    then Some item
    else
      walk g (Int64.to_int (S.load_i64 ctx chain_next_load_pos (item + off_next)))
  in
  walk (Cycle_guard.create ())
    (Int64.to_int
       (S.load_i64 ctx bucket_head_load_pos (bucket_addr t (hash key))))

(* Build and publish a fresh item. Key and cas id are persisted (these
   are the reinit stores that become FPs on recycled items); the value
   (bug #12) and the chain pointer (bug #13) never are. *)
let link_new_item t ctx ~key ~value ~value_pos ~cas_pos =
  let item = alloc_item t ctx in
  S.store_i64 ctx reinit_key_store_pos (item + off_key) (Int64.of_int key);
  S.persist ctx __POS__ (item + off_key) 8;
  S.store_i64 ctx value_pos (item + off_value) value;
  S.store_i64 ctx cas_pos (item + off_cas) (next_cas_id ctx t);
  let bucket = bucket_addr t (hash key) in
  let rec publish () =
    let head = S.load_i64 ctx bucket_head_load_pos bucket in
    (* BUG #13: the chain pointer is never flushed. *)
    S.store_i64 ctx bug13_store_pos (item + off_next) head;
    if
      not
        (S.cas_i64 ctx __POS__ bucket ~expected:head
           ~desired:(Int64.of_int item))
    then publish ()
  in
  publish ()

let set t ctx ~key ~value =
  S.with_frame ctx "mc_set" @@ fun () ->
  match find t ctx key with
  | Some item ->
      (* BUG #12: in-place value update, never flushed. *)
      S.store_i64 ctx bug12_store_pos (item + off_value) value;
      S.store_i64 ctx reinit_cas_store_pos (item + off_cas) (next_cas_id ctx t);
      S.persist ctx __POS__ (item + off_cas) 8
  | None ->
      link_new_item t ctx ~key ~value ~value_pos:bug12_store_pos
        ~cas_pos:reinit_cas_store_pos

let get t ctx ~key =
  S.with_frame ctx "mc_get" @@ fun () ->
  match find t ctx key with
  | Some item -> Some (S.load_i64 ctx get_value_load_pos (item + off_value))
  | None -> None

let add t ctx ~key ~value =
  S.with_frame ctx "mc_add" @@ fun () ->
  match find t ctx key with
  | Some _ -> false
  | None ->
      link_new_item t ctx ~key ~value ~value_pos:bug12_store_pos
        ~cas_pos:reinit_cas_store_pos;
      true

let replace t ctx ~key ~value =
  S.with_frame ctx "mc_replace" @@ fun () ->
  match find t ctx key with
  | Some item ->
      S.store_i64 ctx bug12_store_pos (item + off_value) value;
      true
  | None -> false

(* Append/prepend create a NEW item whose value derives from the old,
   possibly unpersisted one (bugs #10/#11), then publish it at the head
   of the chain (shadowing the old item). *)
let concat op t ctx ~key ~value =
  S.with_frame ctx "mc_concat" @@ fun () ->
  match find t ctx key with
  | None -> false
  | Some old_item ->
      let old_value = S.load_i64 ctx append_old_load_pos (old_item + off_value) in
      let old_cas = S.load_i64 ctx append_old_load_pos (old_item + off_cas) in
      let new_value =
        match op with
        | `Append -> Int64.add old_value value
        | `Prepend -> Int64.add value old_value
      in
      let item = alloc_item t ctx in
      S.store_i64 ctx reinit_key_store_pos (item + off_key) (Int64.of_int key);
      S.persist ctx __POS__ (item + off_key) 8;
      (* BUG #10/#11: value and metadata derived from the old item,
         never flushed. *)
      S.store_i64 ctx bug10_store_pos (item + off_value) new_value;
      S.store_i64 ctx bug11_store_pos (item + off_cas) (Int64.add old_cas 1L);
      (* Swap the new item in place of the old one: find the pointer that
         references [old_item] and CAS it over. *)
      let bucket = bucket_addr t (hash key) in
      let next = S.load_i64 ctx chain_next_load_pos (old_item + off_next) in
      S.store_i64 ctx bug13_store_pos (item + off_next) next;
      let rec swap g prev_addr =
        let cur = Int64.to_int (S.load_i64 ctx chain_next_load_pos prev_addr) in
        if cur = 0 || Cycle_guard.revisits g cur then false
        else if cur = old_item then
          if
            S.cas_i64 ctx __POS__ prev_addr ~expected:(Int64.of_int old_item)
              ~desired:(Int64.of_int item)
          then begin
            freelist_push t ctx old_item;
            true
          end
          else false (* concurrent unlink: drop the concat *)
        else swap g (cur + off_next)
      in
      swap (Cycle_guard.create ()) bucket

let append t ctx ~key ~value = concat `Append t ctx ~key ~value
let prepend t ctx ~key ~value = concat `Prepend t ctx ~key ~value

let cas_op t ctx ~key ~expected ~desired =
  S.with_frame ctx "mc_cas" @@ fun () ->
  match find t ctx key with
  | None -> false
  | Some item ->
      let cas_id = S.load_i64 ctx cas_meta_load_pos (item + off_cas) in
      if Int64.equal cas_id expected then begin
        S.store_i64 ctx bug12_store_pos (item + off_value) desired;
        S.store_i64 ctx reinit_cas_store_pos (item + off_cas)
          (next_cas_id ctx t);
        S.persist ctx __POS__ (item + off_cas) 8;
        true
      end
      else false

let delete t ctx ~key =
  S.with_frame ctx "mc_delete" @@ fun () ->
  let bucket = bucket_addr t (hash key) in
  (* Unlink with CAS on the predecessor's next word (head included). *)
  let rec walk g prev_addr =
    let item = Int64.to_int (S.load_i64 ctx chain_next_load_pos prev_addr) in
    if item = 0 || Cycle_guard.revisits g item then ()
    else if
      Int64.to_int (S.load_i64 ctx chain_key_load_pos (item + off_key)) = key
    then begin
      let next = S.load_i64 ctx chain_next_load_pos (item + off_next) in
      if
        S.cas_i64 ctx __POS__ prev_addr ~expected:(Int64.of_int item)
          ~desired:next
      then freelist_push t ctx item
      else ()
    end
    else walk g (item + off_next)
  in
  walk (Cycle_guard.create ()) bucket

let bump op t ctx ~key =
  S.with_frame ctx "mc_bump" @@ fun () ->
  match find t ctx key with
  | None -> ()
  | Some item ->
      let v = S.load_i64 ctx get_value_load_pos (item + off_value) in
      let v' = match op with `Incr -> Int64.add v 1L | `Decr -> Int64.sub v 1L in
      S.store_i64 ctx __POS__ (item + off_value) v';
      S.persist ctx __POS__ (item + off_value) 8;
      (* BUG #14: the cas-id metadata update is never flushed. *)
      S.store_i64 ctx bug14_store_pos (item + off_cas) (next_cas_id ctx t)

let incr t ctx ~key = bump `Incr t ctx ~key
let decr t ctx ~key = bump `Decr t ctx ~key
