(* An order-sensitive splitmix64 fold over exact simulated quantities:
   one 64-bit value pins every counter and latency digest a unit folded
   into it, so two runs with equal fingerprints modelled the same
   behaviour. *)

type t = int64 ref

let create () : t = ref 0x5EED_0F_E2EL

let mix x =
  let x = Int64.logxor x (Int64.shift_right_logical x 30) in
  let x = Int64.mul x 0xBF58476D1CE4E5B9L in
  let x = Int64.logxor x (Int64.shift_right_logical x 27) in
  let x = Int64.mul x 0x94D049BB133111EBL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let int64 (t : t) v = t := mix (Int64.add (Int64.mul !t 31L) v)
let int t v = int64 t (Int64.of_int v)

let string t s =
  int t (String.length s);
  String.iter (fun c -> int t (Char.code c)) s

let to_hex (t : t) = Printf.sprintf "%016Lx" !t
