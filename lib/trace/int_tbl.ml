(* Open-addressing hash tables specialised to non-negative int keys.

   The stdlib [Hashtbl] allocates a bucket cell per insertion and (for
   the tuple keys these tables replace) a key tuple per probe. These
   tables store keys (and values) in flat int arrays with linear
   probing: probes and insertions never allocate, and [clear] retains
   the capacity — which is what makes the analysis memo tables "warm"
   when a domain pool reuses them across runs. Empty slots are marked
   with -1, so keys must be >= 0 (packed keys always are).

   Deletion uses tombstones (-2): a removed slot keeps probe chains
   intact (lookups walk through it, inserts may reuse it), and the load
   trigger counts live + dead slots so heavy delete/insert churn rehashes
   — purging tombstones at the same capacity when the live count alone
   would not justify doubling — instead of degrading probes to O(n). *)

let empty_key = -1
let tomb_key = -2

(* Fibonacci-style multiplicative mixing; [land mask] of the result is
   well distributed even for sequential keys. The multiplier is the
   64-bit golden-ratio constant truncated to an OCaml int. *)
let hash k = k * 0x2545F4914F6CDD1D

module Set = struct
  type t = {
    mutable keys : int array;
    mutable mask : int;
    mutable count : int;
    mutable dead : int; (* tombstoned slots still occupying the array *)
  }

  let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2)

  let create ?(size = 8) () =
    let cap = ceil_pow2 (max 8 size) 8 in
    { keys = Array.make cap empty_key; mask = cap - 1; count = 0; dead = 0 }

  let length t = t.count

  (* Lookup probe: stops at a match or a genuinely-empty slot. A
     tombstone (-2) matches neither (keys are >= 0), so chains walk
     through deleted slots without a dedicated branch. *)
  let rec probe keys mask k i =
    let slot = keys.(i) in
    if slot = empty_key || slot = k then i else probe keys mask k ((i + 1) land mask)

  let index t k = probe t.keys t.mask k (hash k land t.mask)

  (* Insert probe: like [probe] but remembers the first tombstone passed,
     so a miss lands on it instead of extending the chain. *)
  let rec insert_slot keys mask k i tomb =
    let slot = keys.(i) in
    if slot = k then i
    else if slot = empty_key then (if tomb >= 0 then tomb else i)
    else
      let tomb = if slot = tomb_key && tomb < 0 then i else tomb in
      insert_slot keys mask k ((i + 1) land mask) tomb

  (* Rehash when live + dead slots crowd the array: double if the live
     count alone trips the load factor, otherwise rebuild at the same
     capacity purely to purge tombstones. *)
  let grow t =
    let old = t.keys in
    let cap =
      if 2 * t.count > t.mask then 2 * Array.length old else Array.length old
    in
    t.keys <- Array.make cap empty_key;
    t.mask <- cap - 1;
    t.dead <- 0;
    Array.iter
      (fun k ->
        if k >= 0 then
          t.keys.(probe t.keys t.mask k (hash k land t.mask)) <- k)
      old

  let mem t k = t.keys.(index t k) = k

  (* [add t k] inserts [k] and reports whether it was absent — the dedup
     hot path, one probe for both the membership test and the insert. *)
  let add t k =
    let i = insert_slot t.keys t.mask k (hash k land t.mask) (-1) in
    if t.keys.(i) = k then false
    else begin
      if t.keys.(i) = tomb_key then t.dead <- t.dead - 1;
      t.keys.(i) <- k;
      t.count <- t.count + 1;
      if 2 * (t.count + t.dead) > t.mask then grow t;
      true
    end

  let remove t k =
    let i = index t k in
    if t.keys.(i) = k then begin
      t.keys.(i) <- tomb_key;
      t.count <- t.count - 1;
      t.dead <- t.dead + 1;
      true
    end
    else false

  let clear t =
    if t.count > 0 || t.dead > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) empty_key;
      t.count <- 0;
      t.dead <- 0
    end

  let iter f t =
    Array.iter (fun k -> if k >= 0 then f k) t.keys
end

module Map = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable mask : int;
    mutable count : int;
    mutable dead : int;
  }

  let create ?(size = 8) () =
    let cap = Set.ceil_pow2 (max 8 size) 8 in
    {
      keys = Array.make cap empty_key;
      vals = Array.make cap 0;
      mask = cap - 1;
      count = 0;
      dead = 0;
    }

  let length t = t.count

  let index t k = Set.probe t.keys t.mask k (hash k land t.mask)

  let grow t =
    let okeys = t.keys and ovals = t.vals in
    let cap =
      if 2 * t.count > t.mask then 2 * Array.length okeys
      else Array.length okeys
    in
    t.keys <- Array.make cap empty_key;
    t.vals <- Array.make cap 0;
    t.mask <- cap - 1;
    t.dead <- 0;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = Set.probe t.keys t.mask k (hash k land t.mask) in
          t.keys.(j) <- k;
          t.vals.(j) <- ovals.(i)
        end)
      okeys

  (* Values must be >= 0: [find] returns -1 for an absent key so the
     memo lookup is a single probe with no option allocation. *)
  let find t k =
    let i = index t k in
    if t.keys.(i) = k then t.vals.(i) else -1

  let set t k v =
    let i = Set.insert_slot t.keys t.mask k (hash k land t.mask) (-1) in
    if t.keys.(i) = k then t.vals.(i) <- v
    else begin
      if t.keys.(i) = tomb_key then t.dead <- t.dead - 1;
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.count <- t.count + 1;
      if 2 * (t.count + t.dead) > t.mask then grow t
    end

  let remove t k =
    let i = index t k in
    if t.keys.(i) = k then begin
      t.keys.(i) <- tomb_key;
      t.count <- t.count - 1;
      t.dead <- t.dead + 1;
      true
    end
    else false

  let clear t =
    if t.count > 0 || t.dead > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) empty_key;
      t.count <- 0;
      t.dead <- 0
    end
end
