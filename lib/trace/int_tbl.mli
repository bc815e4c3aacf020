(** Open-addressing hash tables for non-negative int keys.

    Allocation-free probes and inserts (flat int arrays, linear
    probing); [clear] keeps the capacity, so a table reused across runs
    stays "warm". Keys must be [>= 0] — packed keys ({!Packed_key})
    always are; -1 is the internal empty-slot marker and -2 the
    tombstone left by {!Set.remove}/{!Map.remove}. Tombstones keep probe
    chains intact, are reused by later inserts, and count toward the
    load trigger, so heavy delete/insert churn rehashes (purging them)
    instead of degrading probes. *)

module Set : sig
  type t

  val create : ?size:int -> unit -> t
  val length : t -> int

  val add : t -> int -> bool
  (** [add t k] inserts [k]; [true] iff it was absent (the dedup test
      and the insert in a single probe). *)

  val mem : t -> int -> bool

  val remove : t -> int -> bool
  (** [remove t k] tombstones [k]'s slot; [true] iff it was present.
      Capacity is retained; the slot is reused by later inserts. *)

  val clear : t -> unit
  val iter : (int -> unit) -> t -> unit
end

module Map : sig
  type t

  val create : ?size:int -> unit -> t
  val length : t -> int

  val find : t -> int -> int
  (** [find t k] is the value bound to [k], or [-1] when absent — values
      must therefore be [>= 0] (the memo tables store 0/1). *)

  val set : t -> int -> int -> unit

  val remove : t -> int -> bool
  (** [remove t k] tombstones [k]'s slot; [true] iff it was present. *)

  val clear : t -> unit
end
