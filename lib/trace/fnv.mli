(** FNV-1a, 64-bit: the one hash behind the {!Trace_io} trailer and
    fingerprint, {!Journal}'s per-record checksums and the result cache's
    keys.

    [fold] runs over a byte range with the running hash held unboxed, so
    hashing a range allocates only the boxed result, whatever its
    length. Folding consecutive ranges equals hashing their
    concatenation. *)

val offset : int64
(** The FNV-1a 64-bit offset basis: the hash of the empty string. *)

val fold : int64 -> Bytes.t -> int -> int -> int64
(** [fold h b pos len] continues hash [h] over [b.[pos] .. b.[pos+len-1]]. *)

val string : string -> int64
(** The hash of a whole string. *)

val to_hex : int64 -> string
(** 16 lower-case hex digits. *)

val hex : string -> string
(** [to_hex (string s)]. *)
