let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A local [ref] that no closure captures: the native compiler keeps it
   in a register, so the loop boxes nothing per byte. *)
let fold h b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Fnv.fold";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        prime
  done;
  !h

let string s = fold offset (Bytes.unsafe_of_string s) 0 (String.length s)
let to_hex h = Printf.sprintf "%016Lx" h
let hex s = to_hex (string s)
