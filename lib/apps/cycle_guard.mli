(** Host-side cycle guard for walks over PM linked structures.

    memcached-pmem's hash chains are lock-free, and [delete]'s unlink CAS
    is ABA-prone: an item freed and reused while another thread still
    holds it as a chain successor can be pushed onto the free list twice
    and relinked into its own chain. A walk of such a chain never ends.
    A walk that asks {!revisits} about each item it reaches ends at an
    item it already visited, as if the chain ended there.

    The guard is plain OCaml state: it reads no PM and records no trace
    event, so a walk that never revisits an item emits exactly the
    events it did without the guard. *)

type t

val create : unit -> t
(** A fresh guard, one per walk. *)

val revisits : t -> int -> bool
(** [revisits g item] is [true] when this walk already visited [item]
    (Brent's cycle detection: reported within two laps of the cycle,
    with O(1) state). Item [0] (the chain end) must not be passed. *)
